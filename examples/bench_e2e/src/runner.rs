//! The full run: every workload, untraced and traced, each in its own
//! child process of this program (so peak RSS is per workload), printed
//! by metric name with unit, direction and bound. `--check` runs it twice
//! and compares; `--smoke` checks the schema against `BENCHMARK.json`. A
//! run is stored as `out/last_run.json`; the committed `BASELINE.json` is a
//! copy of one.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{env, Args};
use mep_serve::{parse_json, JsonValue};
use moreau_placer::obs::json::JsonObject;
use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One child's result line.
struct Run {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// One workload of a set: the untraced and the traced child.
struct WorkloadRuns {
    end_to_end: Run,
    per_layer: Run,
}

type Set = BTreeMap<&'static str, WorkloadRuns>;

fn child(args: &Args, workload: &str, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let t = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    let v = parse_json(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let keys: Vec<&str> = v
        .as_obj()
        .map(|o| o.keys().map(String::as_str).collect())
        .unwrap_or_default();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("{workload}: result keys {keys:?}"));
    }
    let count = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("{workload}: bad {k}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("metrics is not an object")?
    {
        let value = m.get("value").and_then(JsonValue::as_f64);
        let unit = m
            .get("unit")
            .and_then(JsonValue::as_str)
            .filter(|u| !u.is_empty());
        match (value, unit) {
            (Some(value), Some(_)) => metrics.insert(name.clone(), value),
            _ => return Err(format!("{workload}: metric {name} lacks a value or a unit")),
        };
    }
    Ok(Run {
        metrics,
        attempted: count("attempted")?,
        failed: count("failed")?,
        wall_s,
    })
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set::new();
    for &(workload, _) in WORKLOADS {
        eprintln!("== {workload}");
        let runs = WorkloadRuns {
            end_to_end: child(args, workload, false)?,
            per_layer: child(args, workload, true)?,
        };
        set.insert(workload, runs);
    }
    // byte-identical input and config: the thread count must not change a bit
    let (flat, t2) = (&set["nb6_flat"].end_to_end, &set["nb6_flat_t2"].end_to_end);
    if flat.metrics["dpwl"].to_bits() != t2.metrics["dpwl"].to_bits() {
        return Err(format!(
            "dpwl differs between nb6_flat ({}) and nb6_flat_t2 ({})",
            flat.metrics["dpwl"], t2.metrics["dpwl"]
        ));
    }
    Ok(set)
}

fn print_set(set: &Set) {
    println!("\n## end-to-end metrics");
    for m in END_TO_END {
        println!("   {:<14} {}", m.name, m.what);
    }
    for &(workload, why) in WORKLOADS {
        let runs = &set[workload];
        println!("\n## {workload} — {why}");
        println!(
            "   attempted {} failed {} (traced run: {} / {}); the runs took {:.1} s + {:.1} s",
            runs.end_to_end.attempted,
            runs.end_to_end.failed,
            runs.per_layer.attempted,
            runs.per_layer.failed,
            runs.end_to_end.wall_s,
            runs.per_layer.wall_s
        );
        for m in END_TO_END {
            println!(
                "   {:<14} {:>16.6} {:<5} {} is better, may worsen by {:.1}%",
                m.name,
                runs.end_to_end.metrics[m.name],
                m.unit,
                m.better,
                100.0 * m.bound
            );
        }
        for m in PER_LAYER {
            println!(
                "     {:<36} {:>16.6} {:<8} {}",
                m.name, runs.per_layer.metrics[m.name], m.unit, m.moves
            );
        }
    }
}

fn set_json(set: &Set) -> String {
    let mut o = JsonObject::new();
    for (workload, runs) in set {
        let values = |run: &Run| {
            let mut m = JsonObject::new();
            for (name, value) in &run.metrics {
                m.field_f64(name, *value);
            }
            m.finish()
        };
        let mut w = JsonObject::new();
        w.field_u64("attempted", runs.end_to_end.attempted)
            .field_u64("failed", runs.end_to_end.failed + runs.per_layer.failed)
            .field_f64("run_wall_s", runs.end_to_end.wall_s)
            .field_f64("traced_run_wall_s", runs.per_layer.wall_s)
            .field_raw("end_to_end", &values(&runs.end_to_end))
            .field_raw("per_layer", &values(&runs.per_layer));
        o.field_raw(workload, &w.finish());
    }
    o.finish()
}

/// Relative difference of every end-to-end metric between two sets;
/// returns how many exceed their bound.
fn compare(first: &Set, second: &Set) -> usize {
    let mut over = 0;
    println!("\n## --check: second set vs first");
    for &(workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (a, b) = (
                first[workload].end_to_end.metrics[m.name],
                second[workload].end_to_end.metrics[m.name],
            );
            let diff = (b - a).abs() / a.abs().max(1e-300);
            let verdict = if diff > m.bound { "EXCEEDS" } else { "within" };
            println!(
                "   {workload:<12} {:<14} {a:>16.6} -> {b:>16.6} {:>7.2}% {verdict} {:.1}%",
                m.name,
                100.0 * diff,
                100.0 * m.bound
            );
            over += usize::from(diff > m.bound);
        }
    }
    over
}

/// One table of `BENCHMARK.json` against the same table in the code: equal
/// rows, a size the driver accepts, well-formed names used once.
fn check_table(
    json: &JsonValue,
    key: &str,
    fields: &[&str],
    in_code: Vec<Vec<&str>>,
    limit: std::ops::RangeInclusive<usize>,
    names: &mut BTreeSet<String>,
) -> Result<(), String> {
    let rows = json
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json: no {key} array"))?;
    let in_file: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            fields
                .iter()
                .map(|f| match row.get(f) {
                    Some(JsonValue::Str(s)) => Ok(s.clone()),
                    Some(JsonValue::Num(n)) => Ok(n.to_string()),
                    _ => Err(format!("BENCHMARK.json: a {key} row lacks {f}")),
                })
                .collect()
        })
        .collect::<Result<_, String>>()?;
    if in_file != in_code {
        let at = in_file.iter().zip(&in_code).position(|(a, b)| a != b);
        return Err(format!(
            "BENCHMARK.json {key} differs from the code (first difference at row {at:?}; {} vs {} rows)",
            in_file.len(),
            in_code.len()
        ));
    }
    if !limit.contains(&in_code.len()) {
        return Err(format!(
            "{} {key} entries, allowed {limit:?}",
            in_code.len()
        ));
    }
    for row in &in_code {
        let name = row[0];
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed || !names.insert(name.to_string()) {
            return Err(format!("{key} name {name:?} is malformed or used twice"));
        }
    }
    Ok(())
}

/// `--smoke`: what the code declares and emits is what `BENCHMARK.json`
/// declares, within the driver's limits.
fn check_schema(set: &Set) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut names = BTreeSet::new();
    let workloads = WORKLOADS.iter().map(|w| vec![w.0, w.1]).collect();
    check_table(
        &json,
        "workloads",
        &["name", "why"],
        workloads,
        2..=8,
        &mut names,
    )?;
    let bounds: Vec<String> = END_TO_END.iter().map(|m| m.bound.to_string()).collect();
    let end_to_end = END_TO_END
        .iter()
        .zip(&bounds)
        .map(|(m, bound)| vec![m.name, m.unit, m.better, bound.as_str()])
        .collect();
    let fields = ["name", "unit", "better", "bound"];
    check_table(&json, "end_to_end", &fields, end_to_end, 1..=16, &mut names)?;
    let per_layer = PER_LAYER
        .iter()
        .map(|m| vec![m.name, m.unit, m.better])
        .collect();
    check_table(
        &json,
        "per_layer",
        &fields[..3],
        per_layer,
        1..=128,
        &mut names,
    )?;

    for &(workload, _) in WORKLOADS {
        let runs = &set[workload];
        let emitted = |run: &Run| run.metrics.keys().cloned().collect::<Vec<_>>();
        let mut e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let mut layers: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        e2e.sort();
        layers.sort();
        if emitted(&runs.end_to_end) != e2e || emitted(&runs.per_layer) != layers {
            return Err(format!(
                "{workload} did not emit exactly the declared metrics"
            ));
        }
        if let Some((name, _)) = runs.end_to_end.metrics.iter().find(|(_, v)| **v == 0.0) {
            return Err(format!("{workload}: end-to-end metric {name} is 0"));
        }
        if runs.end_to_end.failed + runs.per_layer.failed != 0 {
            return Err(format!("{workload}: failed operations on the smoke inputs"));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<(), String> {
    let environment = env::environment(args.seed);
    println!("environment {environment}");
    if args.smoke {
        let smoke = Args {
            seconds: 0.2,
            ..args.clone()
        };
        check_schema(&run_set(&smoke)?)?;
        println!("smoke: schema matches BENCHMARK.json; smoke numbers are not results");
        return Ok(());
    }

    let mut sets = vec![run_set(args)?];
    print_set(&sets[0]);
    let mut over = 0;
    if args.check {
        sets.push(run_set(args)?);
        over = compare(&sets[0], &sets[1]);
    }
    let failed: u64 = sets
        .iter()
        .flat_map(|s| s.values())
        .map(|r| r.end_to_end.failed + r.per_layer.failed)
        .sum();

    let mut o = JsonObject::new();
    o.field_raw("environment", &environment)
        .field_f64("seconds", args.seconds)
        .field_raw_array("sets", sets.iter().map(set_json));
    let json = o.finish();
    let path = crate::out_dir().join("last_run.json");
    std::fs::create_dir_all(crate::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    if failed != 0 {
        return Err(format!("{failed} failed operations"));
    }
    if over != 0 {
        return Err(format!(
            "{over} end-to-end metrics differ between the two sets by more than their bound"
        ));
    }
    Ok(())
}
