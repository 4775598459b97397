//! **Known-optimum suboptimality sweep** (DESIGN.md §15): places the
//! PEKO-style ladder (`peko_600` / `peko_2400` / `peko_9600`, optima
//! exact by construction) with every wirelength model through the full
//! GP → LG → DP pipeline and reports how far each final *legal* placement
//! is from the true optimum — the one number ordinary model-vs-model
//! tables cannot produce.
//!
//! ```text
//! cargo run -p mep-bench --release --bin peko_suboptimality [--fast] \
//!     [--out PATH] [--baseline-out PATH]
//! cargo run -p mep-bench --release --bin peko_suboptimality [--fast] --guard [BASELINE]
//! ```
//!
//! The default mode writes one JSONL record per run (with full
//! telemetry, the certificate, and a legality audit) to
//! `results/peko_reports.jsonl`, refreshes `results/peko_baseline.json`
//! from the Moreau guard rows, prints the ratio table, and
//! exits non-zero if any run fails or any reported placement fails the
//! legality audit.
//!
//! `--guard` is the CI quality-regression mode: it re-runs Moreau on the
//! guard rungs and exits non-zero if the suboptimality ratio regressed
//! more than the committed baseline's `tolerance` (0.02 = 2%). The whole
//! flow is deterministic, so unlike the wall-clock perf guard this one is
//! noise-free: any drift is a real quality change.

use mep_bench::peko::{
    audit_json, row_json, run_peko, write_peko_jsonl, PekoOptions, PekoRow, GUARD_ITERS,
};
use mep_bench::Table;
use mep_netlist::synth::peko::{peko_spec, peko_suite};
use mep_obs::json::JsonObject;
use mep_obs::parse::{parse_json, JsonValue};
use mep_wirelength::ModelKind;

/// Ladder rungs re-measured by `--guard` (the smallest two: exhaustive
/// enough to see drift, fast enough for every CI run; `--fast` keeps
/// only the first).
const GUARD_SIZES: [usize; 2] = [600, 2400];

/// The five models of the sweep (the four contestants + exact HPWL with
/// its subgradient).
const MODELS: [ModelKind; 5] = [
    ModelKind::Hpwl,
    ModelKind::Lse,
    ModelKind::Wa,
    ModelKind::BigChks,
    ModelKind::Moreau,
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let guard = args.iter().any(|a| a == "--guard");

    if guard {
        run_guard(&args, fast);
        return;
    }

    let out_path =
        flag_value(&args, "--out").unwrap_or_else(|| "results/peko_reports.jsonl".into());
    let baseline_path =
        flag_value(&args, "--baseline-out").unwrap_or_else(|| "results/peko_baseline.json".into());

    let mut specs = peko_suite();
    if fast {
        specs.truncate(1);
    }
    let opts = PekoOptions {
        max_iters: GUARD_ITERS,
    };

    let mut rows: Vec<PekoRow> = Vec::new();
    let mut failures = 0usize;
    // the sweep: every model on every rung
    let jobs = specs
        .iter()
        .flat_map(|spec| MODELS.map(|model| (spec, model)));
    for (spec, model) in jobs {
        eprintln!("[peko] {} x {} …", spec.name, model.label());
        match run_peko(spec, model, &opts) {
            Ok(row) => {
                eprintln!(
                    "[peko]   ratio {:.4} (dpwl {:.0} / opt {:.0}), overflow {:.3}, \
                     {} iters, {:.1}s, audit {}",
                    row.ratio,
                    row.dpwl,
                    row.optimal_hpwl,
                    row.overflow,
                    row.iterations,
                    row.rt,
                    row.audit
                );
                if !row.audit.is_clean() {
                    eprintln!(
                        "[peko]   AUDIT FAIL: {} — {}",
                        row.audit,
                        audit_json(&row.audit)
                    );
                    failures += 1;
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("[peko]   FAIL: {} x {}: {e}", spec.name, model.label());
                failures += 1;
            }
        }
    }

    // the ratio table, one row per bench, one column per model
    let mut table = Table::new(["bench"].into_iter().chain(MODELS.map(ModelKind::label)));
    for spec in &specs {
        let cells = MODELS.iter().map(|m| {
            rows.iter()
                .find(|r| r.bench == spec.name && r.model == *m)
                .map(|r| format!("{:.4}", r.ratio))
                .unwrap_or_else(|| "-".into())
        });
        let mut row = vec![spec.name.clone()];
        row.extend(cells);
        table.push(row);
    }
    println!("{}", table.to_text());
    println!("(suboptimality ratio = final legal HPWL / exact optimum; 1.0 is perfect)");

    if let Err(e) = write_peko_jsonl(&out_path, &rows) {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} runs)", rows.len());

    // refresh the guard baseline from the Moreau guard rows
    let baseline_rows: Vec<&PekoRow> = GUARD_SIZES
        .iter()
        .filter_map(|&size| {
            rows.iter()
                .find(|r| r.movable == size && r.model == ModelKind::Moreau)
        })
        .collect();
    if !baseline_rows.is_empty() {
        let mut o = JsonObject::new();
        o.field_str("bench", "peko_suboptimality")
            .field_str(
                "description",
                "Moreau suboptimality ratios on the known-optimum ladder. \
                 The flow is deterministic, so the guard compares ratios exactly: a drift \
                 beyond the tolerance is a real quality change.",
            )
            .field_f64("tolerance", 0.02)
            .field_u64("max_iters", GUARD_ITERS as u64);
        for r in &baseline_rows {
            o.field_f64(&format!("moreau_ratio_{}", r.movable), round4(r.ratio));
        }
        o.field_raw_array("runs", baseline_rows.iter().map(|r| row_json(r)));
        match std::fs::write(&baseline_path, format!("{}\n", o.finish())) {
            Ok(()) => println!("wrote {baseline_path}"),
            Err(e) => {
                eprintln!("could not write {baseline_path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if failures > 0 {
        eprintln!("[peko] {failures} run(s) failed or produced illegal placements");
        std::process::exit(1);
    }
}

/// CI quality-regression guard: re-run Moreau on the guard rungs and fail
/// on a ratio regression beyond the baseline's `tolerance` field.
fn run_guard(args: &[String], fast: bool) {
    let baseline_path =
        flag_value(args, "--guard").unwrap_or_else(|| "results/peko_baseline.json".to_string());
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[guard] cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline = match parse_json(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[guard] baseline {baseline_path} is not JSON: {e}");
            std::process::exit(1);
        }
    };
    let field = |name: &str| baseline.get(name).and_then(JsonValue::as_f64);
    let Some(tolerance) = field("tolerance") else {
        eprintln!("[guard] baseline {baseline_path} has no tolerance");
        std::process::exit(1);
    };
    let max_iters = field("max_iters")
        .map(|v| v as usize)
        .unwrap_or(GUARD_ITERS);

    let sizes: &[usize] = if fast {
        &GUARD_SIZES[..1]
    } else {
        &GUARD_SIZES
    };
    let opts = PekoOptions { max_iters };
    let mut failed = false;
    for (i, &size) in sizes.iter().enumerate() {
        let key = format!("moreau_ratio_{size}");
        let Some(baseline_ratio) = field(&key) else {
            eprintln!("[guard] baseline {baseline_path} has no {key}");
            std::process::exit(1);
        };
        let spec = peko_spec(size, 9001 + i as u64);
        let row = match run_peko(&spec, ModelKind::Moreau, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[guard] FAIL: {} did not place: {e}", spec.name);
                std::process::exit(1);
            }
        };
        if !row.audit.is_clean() {
            eprintln!(
                "[guard] FAIL: {} placement is illegal: {}",
                spec.name, row.audit
            );
            failed = true;
        }
        let limit = baseline_ratio * (1.0 + tolerance);
        println!(
            "[guard] {}: ratio {:.4} vs baseline {:.4} (limit {:.4}, tolerance +{:.0}%)",
            spec.name,
            row.ratio,
            baseline_ratio,
            limit,
            tolerance * 100.0
        );
        if row.ratio > limit {
            eprintln!(
                "[guard] FAIL: {} Moreau suboptimality regressed beyond tolerance",
                spec.name
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("[guard] OK");
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}
