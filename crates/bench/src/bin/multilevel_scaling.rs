//! **Multilevel scaling** (DESIGN.md §12): on a seeded ≥100k-cell
//! hierarchical synthetic design, the 2-level flow (one cold coarse solve,
//! prolonged into the finest level) must reach the flat flow's final
//! quality (within 1%) in fewer finest-level iterations and, as printed,
//! less wall-clock — plus an incremental (ECO) re-placement of a ~10%
//! dirty window, which must finish in a small fraction of a full solve
//! with every frozen coordinate bit-identical.
//!
//! ```text
//! cargo run -p mep-bench --release --bin multilevel_scaling [--fast]
//! ```
//!
//! A full-size run whose checks pass writes `results/multilevel_reports.jsonl`
//! (one JSON line per variant: `cold`, `warm2`, `eco`; the `warm2` report
//! carries `ml.cmp.*` comparison metrics, the `eco` report `eco.cmp.*`).
//! `--fast` runs a 10k-cell design and writes no file.

use mep_bench::{Args, Artifacts, BenchmarkRow, FAST_SHRINK};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{synth, Rect};
use mep_placer::flow::{replace_region, run_multilevel, EcoConfig, MultilevelConfig};
use mep_placer::pipeline::{run, PipelineConfig};
use mep_wirelength::ModelKind;
use std::time::Instant;

/// Largest 2-level / flat DPWL ratio the harness accepts at the size its
/// module doc names (≥ 100k cells; measured +0.945 %, deterministic; the
/// price of `WARM_LAMBDA_SCALE`, DESIGN.md §12).
const MAX_DPWL_RATIO: f64 = 1.01;
/// The same bar for the shrunk `--fast` design: at 10k cells a second level
/// costs +1.290 % (deterministic), which is what the size supports, not a
/// regression to tune away.
const MAX_DPWL_RATIO_SHRUNK: f64 = 1.015;

fn main() -> Result<(), String> {
    let fast = Args::read("multilevel_scaling", &["--fast"]).switch("--fast");
    // --fast scales the 100k-cell headline design down for smoke-level
    // turnaround (the CI job runs --fast)
    let movable = if fast { 100_000 / FAST_SHRINK } else { 100_000 };
    let spec = synth::scaled_clustered_spec(movable, 7);
    eprintln!(
        "[ml-scale] generating `{}` ({} movable cells, seed {}) …",
        spec.name, spec.movable, spec.seed
    );
    let circuit = synth::generate(&spec);
    // the default pipeline: the Moreau model at the default iteration cap
    let config = PipelineConfig::default();

    // ---- cold start: the flat flow from the center pile ----
    eprintln!("[ml-scale] cold flat flow …");
    let t0 = Instant::now();
    let cold = run(&circuit, &config).expect("cold placement flow");
    let cold_rt = t0.elapsed().as_secs_f64();
    eprintln!(
        "[ml-scale] cold: DPWL {:.4e}  {} iters  {:.1}s",
        cold.dpwl, cold.iterations, cold_rt
    );

    // ---- warm start: coarsen once, solve coarse, prolong ----
    eprintln!("[ml-scale] 2-level flow …");
    let t1 = Instant::now();
    let warm = run_multilevel(
        &circuit,
        &MultilevelConfig {
            levels: 2,
            pipeline: config.clone(),
        },
    )
    .expect("warm multilevel flow");
    let warm_rt = t1.elapsed().as_secs_f64();
    for s in &warm.level_stats {
        eprintln!(
            "[ml-scale]   level {}: {} movable  {} iters  HPWL {:.4e}  {:.2}s",
            s.level, s.movable, s.iterations, s.hpwl, s.rt_seconds
        );
    }
    let dpwl_ratio = warm.result.dpwl / cold.dpwl;
    let speedup = cold_rt / warm_rt;
    eprintln!(
        "[ml-scale] warm2: DPWL {:.4e} ({:+.3}% vs cold)  {} finest iters \
         (cold {})  {:.1}s  speedup {:.2}x",
        warm.result.dpwl,
        100.0 * (dpwl_ratio - 1.0),
        warm.result.iterations,
        cold.iterations,
        warm_rt,
        speedup
    );

    // comparison metrics ride on the warm row's report
    let mut warm_report = warm.result.report.clone();
    warm_report.set_gauge("ml.cmp.cold_dpwl", cold.dpwl);
    warm_report.set_gauge("ml.cmp.warm_dpwl", warm.result.dpwl);
    warm_report.set_gauge("ml.cmp.dpwl_ratio", dpwl_ratio);
    warm_report.set_gauge("ml.cmp.cold_rt_seconds", cold_rt);
    warm_report.set_gauge("ml.cmp.warm_rt_seconds", warm_rt);
    warm_report.set_gauge("ml.cmp.speedup", speedup);
    warm_report.set_counter("ml.cmp.cold_iterations", cold.iterations as u64);
    warm_report.set_counter(
        "ml.cmp.warm_finest_iterations",
        warm.result.iterations as u64,
    );

    // ---- ECO: re-place a ~10%-area dirty window of the warm result ----
    let die = circuit.design.die;
    let frac = 0.316; // ~10% of the die area
    let window = Rect::new(
        die.xl,
        die.yl,
        die.xl + frac * die.width(),
        die.yl + frac * die.height(),
    );
    let placed = BookshelfCircuit {
        design: circuit.design.clone(),
        placement: warm.result.placement.clone(),
    };
    eprintln!("[ml-scale] ECO re-placement within {window} …");
    let eco = replace_region(
        &placed,
        window,
        &EcoConfig {
            pipeline: config.clone(),
        },
    )
    .expect("ECO flow");
    // hard check: every frozen coordinate bit-identical
    let nl = &circuit.design.netlist;
    for cell in nl.movable_cells() {
        if !placed.placement.cell_rect(nl, cell).intersects(&window) {
            assert_eq!(
                eco.placement.x[cell.index()].to_bits(),
                placed.placement.x[cell.index()].to_bits(),
                "frozen cell moved"
            );
            assert_eq!(
                eco.placement.y[cell.index()].to_bits(),
                placed.placement.y[cell.index()].to_bits(),
                "frozen cell moved"
            );
        }
    }
    // and the window's cost follows what moved: with cells frozen, some
    // nets have no movable pin left and must not have been evaluated
    assert!(eco.frozen > 0, "the window must freeze some cells");
    assert!(
        eco.report.counter("engine.wl.inactive_nets") > Some(0),
        "an ECO run with frozen cells skipped no net"
    );
    let eco_fraction = eco.rt_seconds / cold_rt;
    eprintln!(
        "[ml-scale] eco: {} replaced / {} frozen (bit-identical)  HPWL {:.4e} -> {:.4e}  \
         {:.1}s = {:.1}% of a full cold solve",
        eco.replaced,
        eco.frozen,
        eco.hpwl_before,
        eco.hpwl_after,
        eco.rt_seconds,
        100.0 * eco_fraction
    );
    let mut eco_report = eco.report.clone();
    eco_report.set_gauge("eco.cmp.rt_seconds", eco.rt_seconds);
    eco_report.set_gauge("eco.cmp.full_solve_rt_seconds", cold_rt);
    eco_report.set_gauge("eco.cmp.rt_fraction", eco_fraction);
    eco_report.set_counter("eco.cmp.frozen_bit_identical", eco.frozen as u64);

    let rows = [
        BenchmarkRow {
            bench: format!("{}/cold", spec.name),
            model: ModelKind::Moreau,
            lgwl: cold.lgwl,
            dpwl: cold.dpwl,
            rt: cold_rt,
            iterations: cold.iterations,
            overflow: cold.overflow,
            report: cold.report.clone(),
        },
        BenchmarkRow {
            bench: format!("{}/warm2", spec.name),
            model: ModelKind::Moreau,
            lgwl: warm.result.lgwl,
            dpwl: warm.result.dpwl,
            rt: warm_rt,
            iterations: warm.result.iterations,
            overflow: warm.result.overflow,
            report: warm_report,
        },
        BenchmarkRow {
            bench: format!("{}/eco", spec.name),
            model: ModelKind::Moreau,
            lgwl: eco.hpwl_after,
            dpwl: eco.hpwl_after,
            rt: eco.rt_seconds,
            iterations: eco.iterations,
            overflow: 0.0,
            report: eco_report,
        },
    ];
    println!(
        "cold  DPWL {:.4e}  iters {:<5}  RT {:.1}s",
        cold.dpwl, cold.iterations, cold_rt
    );
    println!(
        "warm2 DPWL {:.4e}  iters {:<5}  RT {:.1}s  ({:+.3}% quality, {:.2}x speedup)",
        warm.result.dpwl,
        warm.result.iterations,
        warm_rt,
        100.0 * (dpwl_ratio - 1.0),
        speedup
    );
    println!(
        "eco   HPWL {:.4e}  iters {:<5}  RT {:.1}s  ({:.1}% of full solve)",
        eco.hpwl_after,
        eco.iterations,
        eco.rt_seconds,
        100.0 * eco_fraction
    );
    assert!(
        warm.result.iterations < cold.iterations,
        "the prolonged start saved no finest-level iteration: {} vs {} cold",
        warm.result.iterations,
        cold.iterations
    );
    let max_ratio = if fast {
        MAX_DPWL_RATIO_SHRUNK
    } else {
        MAX_DPWL_RATIO
    };
    if dpwl_ratio > max_ratio {
        return Err(format!(
            "2-level DPWL {:.3}% worse than the flat flow (budget: {:.1}%)",
            100.0 * (dpwl_ratio - 1.0),
            100.0 * (max_ratio - 1.0)
        ));
    }
    let mut out = Artifacts::default();
    let reports = rows.iter().map(BenchmarkRow::to_json);
    out.jsonl("results/multilevel_reports.jsonl", reports);
    out.commit(!fast)
}
