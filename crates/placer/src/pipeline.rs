//! The full placement pipeline: global placement → legalization →
//! detailed placement, with the timing and quality metrics the paper's
//! Tables II/III report (LGWL, DPWL, RT).

use crate::detail::{refine_with_cuts, DetailConfig, DetailReport};
use crate::error::PlacerError;
use crate::global::{place, GlobalConfig, GlobalResult, RampStart};
use crate::guard::{RecoveryLog, Termination};
use crate::legalize::{check_legal, legalize_with_cuts, LegalizeReport};
use crate::objective::EngineStats;
use crate::telemetry::{build_run_report, DispHistogram};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{total_hpwl, Design, Placement};
use mep_obs::{RunReport, StageStats};
use mep_wirelength::engine::EvalEngine;
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Global placement settings (model, iterations, schedules).
    pub global: GlobalConfig,
    /// Detailed placement settings.
    pub detail: DetailConfig,
}

/// Everything the paper's tables need from one run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// HPWL after global placement (unlegalized).
    pub gpwl: f64,
    /// HPWL after legalization (the LGWL column).
    pub lgwl: f64,
    /// HPWL after detailed placement (the DPWL column).
    pub dpwl: f64,
    /// Global placement wall time, seconds.
    pub rt_gp: f64,
    /// Legalization wall time, seconds.
    pub rt_lg: f64,
    /// Detailed placement wall time, seconds.
    pub rt_dp: f64,
    /// GP iterations executed.
    pub iterations: usize,
    /// Nesterov trial points GP evaluated: one per iteration plus one per
    /// backtracking retry.
    pub trials: usize,
    /// Final density overflow after GP.
    pub overflow: f64,
    /// Where GP's density ramp started.
    pub ramp: RampStart,
    /// Legalization report.
    pub legalize: LegalizeReport,
    /// Detailed-placement report.
    pub detail: DetailReport,
    /// Final legal placement.
    pub placement: Placement,
    /// The evaluation counters of the global-placement stage.
    pub engine_stats: EngineStats,
    /// Every recovery the numerical guard performed during GP (empty on a
    /// clean run).
    pub recovery: RecoveryLog,
    /// Why the global-placement loop stopped.
    pub termination: Termination,
    /// Owned end-of-run telemetry snapshot: every quality metric, stage
    /// timing, engine counter, guard event count, and displacement /
    /// acceptance histogram of this run, serializable via
    /// [`RunReport::to_json`] and renderable via
    /// [`RunReport::summary_table`].
    pub report: RunReport,
}

impl PipelineResult {
    /// Total runtime (the RT column), seconds.
    pub fn rt_total(&self) -> f64 {
        self.rt_gp + self.rt_lg + self.rt_dp
    }
}

/// Runs the full GP → LG → DP flow on a circuit.
///
/// Degenerate inputs (no movable cells, zero-area die, non-finite starting
/// coordinates) and unrecoverable numerical faults surface as
/// [`PlacerError`] instead of panicking; recoverable faults are handled by
/// the guard inside global placement and reported in
/// [`PipelineResult::recovery`]. A final placement that fails
/// [`check_legal`] is [`PlacerError::Illegal`], so every `Ok` is legal.
pub fn run(
    circuit: &BookshelfCircuit,
    config: &PipelineConfig,
) -> Result<PipelineResult, PlacerError> {
    let design = &circuit.design;

    let [mut gp_clock, mut lg_clock, mut dp_clock] = [StageStats::default(); 3];
    let gp: GlobalResult = gp_clock.time(|| place(circuit, &config.global))?;
    let (legal, lg_report, cuts) = lg_clock.time(|| legalize_with_cuts(design, &gp.placement))?;
    let lgwl = total_hpwl(&design.netlist, &legal);

    let legal_snapshot = legal.clone();
    let mut refined = legal;
    // DP starts from the legalizer's obstacle cuts and LGWL, and measures
    // its last total on the final placement
    let dp_report =
        dp_clock.time(|| refine_with_cuts(design, &mut refined, &config.detail, cuts, lgwl));
    let dpwl = dp_report.hpwl_after;

    ensure_legal(design, &refined)?;

    let dp_disp = DispHistogram::between(design, &legal_snapshot, &refined);
    let mut result = PipelineResult {
        gpwl: gp.hpwl,
        lgwl,
        dpwl,
        rt_gp: gp_clock.seconds(),
        rt_lg: lg_clock.seconds(),
        rt_dp: dp_clock.seconds(),
        iterations: gp.iterations,
        trials: gp.trials,
        overflow: gp.overflow,
        ramp: gp.ramp,
        legalize: lg_report,
        detail: dp_report,
        placement: refined,
        engine_stats: gp.engine_stats,
        recovery: gp.recovery,
        termination: gp.termination,
        report: RunReport::default(),
    };
    result.report = build_run_report(&result, &config.global.model.to_string(), &dp_disp);
    Ok(result)
}

/// The flow's one legality verdict: `Ok` when [`check_legal`] finds
/// nothing, else [`PlacerError::Illegal`] with the count and the first
/// five violations.
fn ensure_legal(design: &Design, placement: &Placement) -> Result<(), PlacerError> {
    let violations = check_legal(design, placement);
    if violations.is_empty() {
        return Ok(());
    }
    Err(PlacerError::Illegal {
        count: violations.len(),
        first: violations.into_iter().take(5).collect(),
    })
}

/// [`run`]; the engine is ignored. Called by the frozen
/// `examples/bench_e2e`; goes with the benchmark PR that deletes
/// `EvalEngine` (ROADMAP item 1(d)).
pub fn run_with_engine(
    circuit: &BookshelfCircuit,
    config: &PipelineConfig,
    _engine: Arc<EvalEngine>,
) -> Result<PipelineResult, PlacerError> {
    run(circuit, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;
    use mep_wirelength::ModelKind;

    #[test]
    fn full_flow_produces_legal_improving_result() {
        let c = synth::generate(&synth::smoke_spec());
        let config = PipelineConfig {
            global: GlobalConfig {
                model: ModelKind::Moreau,
                max_iters: 400,
                ..GlobalConfig::default()
            },
            ..PipelineConfig::default()
        };
        let r = run(&c, &config).unwrap();
        // DP's last total is the final placement's HPWL, bit for bit
        assert_eq!(
            r.dpwl.to_bits(),
            total_hpwl(&c.design.netlist, &r.placement).to_bits()
        );
        assert!(r.recovery.is_empty(), "clean run must not trip the guard");
        // DP never worsens the legal placement
        assert!(
            r.dpwl <= r.lgwl + 1e-9,
            "dpwl {} vs lgwl {}",
            r.dpwl,
            r.lgwl
        );
        // legalization stays close to GP quality once converged
        assert!(r.lgwl < 1.3 * r.gpwl, "lgwl {} vs gpwl {}", r.lgwl, r.gpwl);
        assert!(r.rt_total() > 0.0);
        assert!(r.overflow < 0.15);

        // the owned RunReport mirrors the flow metrics
        let rep = &r.report;
        assert_eq!(
            rep.label("flow.model"),
            Some(ModelKind::Moreau.label()),
            "flow.model carries the paper-table label"
        );
        assert_eq!(rep.counter("gp.iterations"), Some(r.iterations as u64));
        assert_eq!(rep.counter("optim.nesterov.trials"), Some(r.trials as u64));
        assert!(r.trials >= r.iterations);
        assert_eq!(rep.gauge("dp.hpwl"), Some(r.dpwl));
        assert_eq!(rep.counter("guard.recoveries"), Some(0));
        assert!(rep.gauge("gp.rt_seconds").unwrap() > 0.0);
        assert!(
            rep.counter("engine.wl_grad.count").unwrap() >= r.iterations as u64,
            "engine stage counters in the report"
        );
        assert_eq!(
            rep.counter("engine.wl_grad.count"),
            Some(r.trials as u64 + 1),
            "one evaluation per trial, plus the first λ0 probe"
        );
        assert_eq!(
            rep.counter("engine.density.count"),
            rep.counter("engine.wl_grad.count"),
            "every evaluation executes both stages"
        );
        assert_eq!(
            rep.counter("engine.reused"),
            Some(r.iterations as u64 + 1),
            "the second λ0 probe and every step's opening reuse both held terms"
        );
        // the wirelength ledger, a work count no clock can blur: per
        // gradient evaluation every net of at least two pins with a
        // movable pin is served by exactly one path and the others are
        // skipped, and the assembly sub-stage is clocked inside the stage
        // it belongs to
        let nl = &c.design.netlist;
        let multi_pin = nl.nets().filter(|&n| nl.net_degree(n) >= 2);
        let (active, inactive): (Vec<_>, Vec<_>) =
            multi_pin.partition(|&n| nl.net_pins(n).any(|p| nl.is_movable(nl.pin_cell(p))));
        let evals = rep.counter("engine.wl_grad.count").unwrap();
        assert_eq!(
            rep.counter("engine.wl.class_nets").unwrap()
                + rep.counter("engine.wl.generic_nets").unwrap(),
            active.len() as u64 * evals
        );
        assert_eq!(
            rep.counter("engine.wl.inactive_nets"),
            Some(inactive.len() as u64 * evals)
        );
        assert!(rep.counter("engine.wl.class_nets").unwrap() > 0);
        assert_eq!(rep.counter("engine.wl_scatter.count"), Some(evals));
        assert!(
            rep.gauge("engine.wl_scatter.seconds").unwrap()
                <= rep.gauge("engine.wl_grad.seconds").unwrap()
        );
        assert!(
            rep.counter("engine.density_transform.count").unwrap() > 0,
            "density transform counter in the report"
        );
        // displacement histograms cover every movable cell
        let movable = c.design.netlist.num_movable() as u64;
        for name in ["lg.displacement_rows", "dp.displacement_rows"] {
            match rep.get(name) {
                Some(mep_obs::MetricValue::Histogram { count, .. }) => {
                    assert_eq!(*count, movable, "{name}");
                }
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
        // and carry the observed sum: the LG mean is the reported average
        if let Some(mep_obs::MetricValue::Histogram { count, sum, .. }) =
            rep.get("lg.displacement_rows")
        {
            let mean = sum / *count as f64;
            assert_eq!(Some(mean), rep.gauge("lg.avg_displacement_rows"));
        }
        // acceptance counters are consistent
        assert!(r.detail.reorders <= r.detail.reorders_attempted);
        assert!(r.detail.swaps <= r.detail.swaps_attempted);
        assert!(rep
            .gauge("dp.swaps.acceptance_pct")
            .is_some_and(|pct| pct <= 100.0));
        // the move classes are clocked inside the DP stage
        let classes: f64 = ["dp.reorder_seconds", "dp.swap_seconds"]
            .iter()
            .map(|name| rep.gauge(name).unwrap())
            .sum();
        assert!(classes > 0.0);
        assert!(classes <= rep.gauge("dp.rt_seconds").unwrap());
        // and the report serializes
        let json = rep.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"flow.termination\""));
        assert!(!rep.summary_table().is_empty());
    }

    /// FNV-1a over the `smoke` run's report JSON, every `*seconds*` key
    /// (wall clock) removed: every other metric, name and bit. Re-pinned
    /// when the report gained the `gp.lambda0`,
    /// `gp.bootstrap_smoothing` and `gp.smoothing0` gauges and the λ₀
    /// bootstrap began to read `‖∇D‖₁` from the held density term, and
    /// again when the density energy began to come from the spectrum by
    /// Parseval (three transforms per stage, not four, on half-length
    /// FFTs), which moves `engine.density_transform.count` and the last
    /// bits of the GP trajectory, and again when detailed placement lost
    /// independent-set matching (its metric keys went, and `dp.hpwl` moved
    /// 6995.25 → 6997.24), and again when `flow.violations` left the
    /// report (an illegal run is an error).
    #[test]
    fn run_report_is_pinned() {
        let c = synth::generate(&synth::smoke_spec());
        let r = run(&c, &PipelineConfig::default()).unwrap();
        let fnv = crate::telemetry::timeless_fnv(&r.report);
        assert_eq!(fnv, 5_443_801_847_638_480_325, "{}", r.report.to_json());
    }

    /// The engine the frozen benchmark passes is inert: the aliases return
    /// the bits and counters of `place` and `run`.
    #[test]
    fn engine_aliases_are_place_and_run() {
        let c = synth::generate(&synth::smoke_spec());
        let config = PipelineConfig {
            global: GlobalConfig {
                max_iters: 60,
                ..GlobalConfig::default()
            },
            ..PipelineConfig::default()
        };
        let bits =
            |p: &Placement| -> Vec<u64> { p.x.iter().chain(&p.y).map(|v| v.to_bits()).collect() };
        let counts = |s: &EngineStats| {
            let stages = [s.wl_grad, s.wl_scatter, s.density, s.density_transform];
            let nets = [s.wl_class_nets, s.wl_generic_nets, s.wl_inactive_nets];
            let runs = [s.parallel_runs, s.serial_runs, s.workspace_allocs, s.reused];
            (stages.map(|stage| stage.count), nets, runs)
        };
        let engine = || Arc::new(EvalEngine::new(8));
        let want = place(&c, &config.global).unwrap();
        let got = crate::global::place_with_engine(&c, &config.global, engine()).unwrap();
        assert_eq!(bits(&got.placement), bits(&want.placement));
        assert_eq!(counts(&got.engine_stats), counts(&want.engine_stats));
        let want = run(&c, &config).unwrap();
        let got = run_with_engine(&c, &config, engine()).unwrap();
        assert_eq!(bits(&got.placement), bits(&want.placement));
        assert_eq!(counts(&got.engine_stats), counts(&want.engine_stats));
    }

    /// Seven cells on one row, each overlapping the next: the flow's
    /// legality verdict is `Illegal` with all six overlaps counted and the
    /// first five carried in row order; spaced apart, the same cells are
    /// legal.
    #[test]
    fn an_overlapping_placement_is_illegal() {
        use crate::legalize::Violation;
        let mut b = mep_netlist::NetlistBuilder::new();
        let cells: Vec<_> = (0..7)
            .map(|i| b.add_cell(format!("c{i}"), 2.0, 1.0, true).unwrap())
            .collect();
        let die = mep_netlist::Rect::new(0.0, 0.0, 20.0, 1.0);
        let design = Design::with_uniform_rows("t", b.build(), die, 1.0, 1.0, 1.0).unwrap();
        let mut pl = Placement::zeros(cells.len());
        for (i, c) in cells.iter().enumerate() {
            pl.x[c.index()] = 2.0 * i as f64;
        }
        assert_eq!(ensure_legal(&design, &pl), Ok(()));

        for (i, c) in cells.iter().enumerate() {
            pl.x[c.index()] = i as f64;
        }
        let err = ensure_legal(&design, &pl).unwrap_err();
        let first: Vec<_> = cells
            .windows(2)
            .take(5)
            .map(|pair| Violation::Overlap(pair[0], pair[1]))
            .collect();
        assert_eq!(err, PlacerError::Illegal { count: 6, first });
    }

    #[test]
    fn moreau_beats_wa_on_smoke_design() {
        // the paper's headline claim, on our smoke circuit
        let c = synth::generate(&synth::smoke_spec());
        let mut results = Vec::new();
        for model in [ModelKind::Wa, ModelKind::Moreau] {
            let config = PipelineConfig {
                global: GlobalConfig {
                    model,
                    max_iters: 500,
                    ..GlobalConfig::default()
                },
                ..PipelineConfig::default()
            };
            results.push(run(&c, &config).unwrap().dpwl);
        }
        let (wa, ours) = (results[0], results[1]);
        assert!(
            ours < wa,
            "expected Moreau ({ours}) to beat WA ({wa}) on the smoke design"
        );
    }
}
