//! **Known-optimum suboptimality sweep** (DESIGN.md §15): places the
//! PEKO-style ladder (`peko_600` / `peko_2400` / `peko_9600`, optima
//! exact by construction) with every wirelength model through the full
//! GP → LG → DP pipeline and reports how far each final *legal* placement
//! is from the true optimum — the one number ordinary model-vs-model
//! tables cannot produce.
//!
//! ```text
//! cargo run -p mep-bench --release --bin peko_suboptimality -- [--fast]
//! cargo run -p mep-bench --release --bin peko_suboptimality -- --guard BASELINE
//! ```
//!
//! The sweep prints the ratio table and exits non-zero, writing nothing,
//! if any run fails (an illegal placement is a failed run) or does not
//! converge. Otherwise it writes one JSONL record per run (with full
//! telemetry and the certificate) to `results/peko_reports.jsonl`.
//! `--fast` sweeps the smallest rung only and writes no file. The sweep
//! never writes the guard's baseline: re-pinning it is a deliberate hand
//! edit of its `moreau_ratio_{600,2400}` from the Ours column of the
//! printed table.
//!
//! `--guard` is the CI quality-regression mode: it re-runs Moreau on the
//! guard rungs and exits non-zero if the suboptimality ratio regressed
//! more than the baseline's `tolerance` (0.02 = 2%). It writes nothing.
//! The whole flow is deterministic, so unlike a wall-clock guard this one
//! is noise-free: any drift is a real quality change.

use mep_bench::{run_peko, Args, Artifacts, PekoRow, Table};
use mep_netlist::synth::peko::peko_suite;
use mep_obs::parse::{parse_json, JsonValue};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;

/// Ladder rungs re-measured by `--guard` (the smallest two: exhaustive
/// enough to see drift, fast enough for every CI run).
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

fn main() -> Result<(), String> {
    let args = Args::read("peko_suboptimality", &["--fast", "--guard BASELINE"]);
    let fast = args.switch("--fast");
    if let Some(baseline) = args.value("--guard") {
        if fast {
            args.refuse("--guard takes no other flag");
        }
        return run_guard(baseline);
    }

    let mut specs = peko_suite();
    if fast {
        specs.truncate(1);
    }

    let mut rows: Vec<PekoRow> = Vec::new();
    let mut failures = 0usize;
    // the sweep: every model on every rung
    let jobs = specs
        .iter()
        .flat_map(|spec| MODELS.map(|model| (spec, model)));
    for (spec, model) in jobs {
        eprintln!("[peko] {} x {} …", spec.name, model.label());
        let global = GlobalConfig {
            model,
            ..GlobalConfig::default()
        };
        match run_peko(spec, global) {
            Ok(row) => {
                eprintln!(
                    "[peko]   ratio {:.4} (dpwl {:.0} / opt {:.0}), overflow {:.3}, \
                     {} iters, {:.1}s",
                    row.ratio,
                    row.run.dpwl,
                    row.optimal_hpwl,
                    row.run.overflow,
                    row.run.iterations,
                    row.run.rt
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("[peko]   FAIL: {e}");
                failures += 1;
            }
        }
    }

    // the ratio table, one row per bench, one column per model
    let mut table = Table::new(["bench"].into_iter().chain(MODELS.map(ModelKind::label)));
    for spec in &specs {
        let cells = MODELS.iter().map(|m| {
            rows.iter()
                .find(|r| r.run.bench == spec.name && r.run.model == *m)
                .map(|r| format!("{:.4}", r.ratio))
                .unwrap_or_else(|| "-".into())
        });
        let mut row = vec![spec.name.clone()];
        row.extend(cells);
        table.push(row);
    }
    println!("{}", table.to_text());
    println!("(suboptimality ratio = final legal HPWL / exact optimum; 1.0 is perfect)");

    let mut out = Artifacts::default();
    out.jsonl(
        "results/peko_reports.jsonl",
        rows.iter().map(PekoRow::to_json),
    );
    out.commit(!fast && failures == 0)?;
    if failures > 0 {
        return Err(format!(
            "{failures} run(s) failed, did not converge or were illegal"
        ));
    }
    Ok(())
}

/// CI quality-regression guard: re-run Moreau on the guard rungs of the
/// suite and fail on a ratio regression beyond the baseline's
/// `tolerance` field.
fn run_guard(baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("[guard] cannot read baseline {baseline_path}: {e}"))?;
    let baseline = parse_json(&text)
        .map_err(|e| format!("[guard] baseline {baseline_path} is not JSON: {e}"))?;
    let field = |name: &str| {
        let value = baseline.get(name).and_then(JsonValue::as_f64);
        value.ok_or_else(|| format!("[guard] baseline {baseline_path} has no {name}"))
    };
    let tolerance = field("tolerance")?;

    let rungs = peko_suite()
        .into_iter()
        .filter(|s| GUARD_SIZES.contains(&s.movable));
    let mut failed = false;
    for spec in rungs {
        let baseline_ratio = field(&format!("moreau_ratio_{}", spec.movable))?;
        let global = GlobalConfig {
            model: ModelKind::Moreau,
            ..GlobalConfig::default()
        };
        let row = run_peko(&spec, global).map_err(|e| format!("[guard] FAIL: {e}"))?;
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
        return Err("[guard] FAIL".into());
    }
    println!("[guard] OK");
    Ok(())
}
