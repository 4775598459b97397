//! Multilevel and incremental placement drivers on top of the flat
//! pipeline (DESIGN.md §12).
//!
//! Two entry points:
//!
//! * [`run_multilevel`] — cluster-based coarsening ([`mep_netlist::cluster`])
//!   builds a stack of progressively smaller placement problems; each level
//!   is solved by the guarded global placer and interpolated one level
//!   finer, so the finest (and most expensive) level starts from a nearly
//!   converged picture instead of everything piled at the die center. The
//!   coarsest level itself starts from the center pile like the flat flow.
//! * [`replace_region`] — incremental (ECO) re-placement: everything
//!   outside a dirty window is frozen in place (bit-identical coordinates)
//!   and only the cells touching the window are re-placed by the full
//!   guarded pipeline.
//!
//! The multilevel driver adds up the evaluation counters of every level
//! into its finest result ([`replace_region`] is one pipeline run); both
//! drivers stamp `level`/`stage` into the per-iteration trace records
//! (the multilevel one only when it placed a coarse level) so a single
//! JSONL trace tells the whole story of a run.

use crate::error::PlacerError;
use crate::global::{place, GlobalConfig, GlobalResult};
use crate::guard::Termination;
use crate::objective::EngineStats;
use crate::pipeline::{run, PipelineConfig, PipelineResult};
use crate::telemetry::export_engine_stats;
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::cluster::{coarsen, Coarsened};
use mep_netlist::{total_hpwl, Design, Placement, Rect};
use mep_obs::{RunReport, StageStats};

/// Configuration of the multilevel flow.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Number of levels including the finest one (`1` = flat flow; `2`
    /// adds one coarse level; …). Coarsening stops early at a level of at
    /// most 64 movable cells or when clustering stops making progress.
    pub levels: usize,
    /// The finest-level pipeline configuration (model, schedules,
    /// legalization, detailed placement).
    pub pipeline: PipelineConfig,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            levels: 2,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// What one level of the multilevel flow did.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Hierarchy level (0 = finest / original netlist).
    pub level: usize,
    /// Movable cells at this level.
    pub movable: usize,
    /// Global-placement iterations spent at this level (for the finest
    /// level: the pipeline's GP iterations).
    pub iterations: usize,
    /// HPWL at the end of this level (coarse netlist HPWL for coarse
    /// levels, final DPWL for the finest).
    pub hpwl: f64,
    /// Density overflow at the end of this level's global placement.
    pub overflow: f64,
    /// Wall-clock seconds spent on this level.
    pub rt_seconds: f64,
}

/// Result of [`run_multilevel`].
#[derive(Debug, Clone)]
pub struct MultilevelResult {
    /// The finest-level pipeline result (legal placement, tables metrics,
    /// recovery log). Its [`report`](PipelineResult::report) additionally
    /// carries the `ml.*` multilevel metrics when a coarse level was
    /// placed.
    pub result: PipelineResult,
    /// Levels actually placed (≤ the configured count when coarsening
    /// stopped early).
    pub levels: usize,
    /// Per-level statistics, coarsest first, finest (level 0) last.
    pub level_stats: Vec<LevelStats>,
}

/// Stop coarsening once a level has no more movable cells than this.
const MIN_COARSE_MOVABLE: usize = 64;

/// Global-placement iteration cap per coarse level (the finest level uses
/// the pipeline's own cap).
const COARSE_ITERS: usize = 90;

/// Density-overflow target at coarse levels — looser than the finest
/// target because legality is only decided at the finest level.
const COARSE_TARGET_OVERFLOW: f64 = 0.20;

/// λ₀ multiplier for levels that start from a prolonged coarse solution —
/// they are already spread and skip the early part of the Eq. (15) density
/// ramp instead of re-walking it. A measured trade (DESIGN.md §12): on the
/// seeded 100k-cell `multilevel_scaling` design, 5 against 1 takes the
/// finest level from 398 to 312 iterations and about 1.5 s off the
/// two-level wall, and costs 0.76 points of DPWL (+0.945 % over the flat
/// flow, against +0.186 %).
const WARM_LAMBDA_SCALE: f64 = 5.0;

/// Runs the multilevel flow: coarsen, solve the coarsest level from the
/// center pile, prolong and refine level by level, finish with the full
/// flat pipeline on the original netlist. When no coarse level exists
/// (`levels: 1`, or a netlist the first coarsening pass cannot shrink) the
/// flow *is* [`run`], bit for bit: the same
/// report (no `ml.*` key) and trace (no `stage`).
///
/// The cancel token in `config.pipeline.global.cancel` is honored before
/// each coarsening pass, in addition to the per-iteration check inside
/// each global-placement loop. A token that trips during the coarse phase
/// bounds every remaining level to a single checked iteration, so the
/// result still carries a legal placement and the mapped termination
/// ([`Termination::WallClock`] for a deadline, [`Termination::Cancelled`]
/// for an explicit cancel).
///
/// # Errors
///
/// [`PlacerError`] on degenerate inputs or unrecoverable numerical faults
/// at any level.
pub fn run_multilevel(
    circuit: &BookshelfCircuit,
    config: &MultilevelConfig,
) -> Result<MultilevelResult, PlacerError> {
    if config.levels == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: "multilevel flow needs at least one level".to_string(),
        });
    }
    let cancel = &config.pipeline.global.cancel;

    // Build the coarsening stack bottom-up. `stack[k]` is the coarsening
    // that turns level-k geometry into level-(k+1) geometry; the level-k
    // circuit is `stack[k-1].design` (or the input for k = 0).
    let mut stack: Vec<Coarsened> = Vec::new();
    for _ in 1..config.levels {
        // a deadline/cancel during coarsening: stop building levels and
        // let the (checked) runs below wind the flow down
        if cancel.termination().is_some() {
            break;
        }
        let (fine_design, fine_placement) = match stack.last() {
            None => (&circuit.design, &circuit.placement),
            Some(c) => (&c.design, &c.placement),
        };
        if fine_design.netlist.num_movable() <= MIN_COARSE_MOVABLE {
            break;
        }
        let coarse = coarsen(fine_design, fine_placement)?;
        // no progress ⇒ further passes would loop forever on the same size
        if coarse.stats.coarse_movable >= coarse.stats.fine_movable {
            break;
        }
        stack.push(coarse);
    }
    let levels = stack.len() + 1;

    // the coarse levels' counters, added to the finest result's so that
    // its `engine.*` metrics cover the whole flow
    let mut coarse_stats = EngineStats::default();
    let mut level_stats: Vec<LevelStats> = Vec::new();

    // ---- coarse levels, coarsest first: the coarsest from its own
    // center pile, every finer one from the prolonged solution above it ----
    let mut solved: Option<Placement> = None;
    for k in (1..=stack.len()).rev() {
        let level = &stack[k - 1];
        let mut clock = StageStats::default();
        let gp = clock.time(|| -> Result<GlobalResult, PlacerError> {
            let mut gcfg = GlobalConfig {
                max_iters: COARSE_ITERS,
                min_iters: config.pipeline.global.min_iters.min(COARSE_ITERS),
                target_overflow: COARSE_TARGET_OVERFLOW,
                level: k as u32,
                stage: Some("coarse".to_string()),
                ..config.pipeline.global.clone()
            };
            let mut placement = level.placement.clone();
            if let Some(coarser) = &solved {
                let above = &stack[k];
                above
                    .map
                    .prolong(&level.design, &above.design, coarser, &mut placement)?;
                gcfg.lambda_scale = WARM_LAMBDA_SCALE;
            }
            let level_circuit = BookshelfCircuit {
                design: level.design.clone(),
                placement,
            };
            place(&level_circuit, &gcfg)
        })?;
        coarse_stats += gp.engine_stats;
        level_stats.push(LevelStats {
            level: k,
            movable: level.design.netlist.num_movable(),
            iterations: gp.iterations,
            hpwl: gp.hpwl,
            overflow: gp.overflow,
            rt_seconds: clock.seconds(),
        });
        solved = Some(gp.placement);
    }

    // ---- finest level: prolong and run the full pipeline; without a
    // coarse level, the flat flow as it is ----
    let mut clock = StageStats::default();
    let mut result = clock.time(|| match (stack.first(), &solved) {
        (Some(first), Some(coarser)) => {
            let mut finest = circuit.clone();
            first.map.prolong(
                &circuit.design,
                &first.design,
                coarser,
                &mut finest.placement,
            )?;
            let mut final_config = config.pipeline.clone();
            final_config.global.level = 0;
            final_config.global.stage = Some("final".to_string());
            final_config.global.lambda_scale = WARM_LAMBDA_SCALE;
            run(&finest, &final_config)
        }
        _ => run(circuit, &config.pipeline),
    })?;
    level_stats.push(LevelStats {
        level: 0,
        movable: circuit.design.netlist.num_movable(),
        iterations: result.iterations,
        hpwl: result.dpwl,
        overflow: result.overflow,
        rt_seconds: clock.seconds(),
    });

    if levels > 1 {
        let report = &mut result.report;
        result.engine_stats += coarse_stats;
        export_engine_stats(report, &result.engine_stats);
        report.set_counter("ml.levels", levels as u64);
        for s in &level_stats {
            let p = format!("ml.level{}", s.level);
            report.set_counter(&format!("{p}.movable"), s.movable as u64);
            report.set_counter(&format!("{p}.iterations"), s.iterations as u64);
            report.set_gauge(&format!("{p}.hpwl"), s.hpwl);
            report.set_gauge(&format!("{p}.overflow"), s.overflow);
            report.set_gauge(&format!("{p}.rt_seconds"), s.rt_seconds);
        }
    }

    Ok(MultilevelResult {
        result,
        levels,
        level_stats,
    })
}

/// Configuration of incremental (ECO) re-placement.
#[derive(Debug, Clone, Default)]
pub struct EcoConfig {
    /// Pipeline settings for the re-placement run (model, iteration cap,
    /// detailed placement). The driver overrides the trace `stage` to
    /// `"eco"`.
    pub pipeline: PipelineConfig,
}

/// Result of [`replace_region`].
#[derive(Debug, Clone)]
pub struct EcoResult {
    /// The full placement after the ECO run; frozen cells are
    /// bit-identical to the input.
    pub placement: Placement,
    /// Total HPWL of the input placement.
    pub hpwl_before: f64,
    /// Total HPWL after the ECO run.
    pub hpwl_after: f64,
    /// Movable cells frozen because they do not touch the window.
    pub frozen: usize,
    /// Movable cells re-placed.
    pub replaced: usize,
    /// Global-placement iterations spent.
    pub iterations: usize,
    /// Wall-clock seconds of the whole ECO run.
    pub rt_seconds: f64,
    /// Why the re-placement loop stopped.
    pub termination: Termination,
    /// Legality violations after the run (on the derived netlist, i.e.
    /// counting frozen cells as obstacles).
    pub violations: usize,
    /// End-of-run telemetry of the inner pipeline plus `eco.*` metrics.
    pub report: RunReport,
}

/// Incremental (ECO) re-placement: freezes every movable cell whose
/// bounding box does not intersect `window` and re-runs the guarded
/// pipeline on the remaining cells only. Frozen cells keep bit-identical
/// coordinates and act as fixed obstacles for legalization.
///
/// # Errors
///
/// [`PlacerError::DegenerateInput`] when the window does not overlap the
/// die or selects no movable cell; any inner pipeline error otherwise.
pub fn replace_region(
    circuit: &BookshelfCircuit,
    window: Rect,
    config: &EcoConfig,
) -> Result<EcoResult, PlacerError> {
    let mut clock = StageStats::default();
    let mut eco = clock.time(|| replace_unclocked(circuit, window, config))?;
    eco.rt_seconds = clock.seconds();
    Ok(eco)
}

/// [`replace_region`] without its wall clock: `rt_seconds` is left at 0.
fn replace_unclocked(
    circuit: &BookshelfCircuit,
    window: Rect,
    config: &EcoConfig,
) -> Result<EcoResult, PlacerError> {
    let die = circuit.design.die;
    let (xl, yl) = (window.xl.max(die.xl), window.yl.max(die.yl));
    let (xh, yh) = (window.xh.min(die.xh), window.yh.min(die.yh));
    if xh <= xl || yh <= yl {
        return Err(PlacerError::DegenerateInput {
            reason: format!("ECO window {window} does not overlap the die {die}"),
        });
    }
    let dirty = Rect::new(xl, yl, xh, yh);
    let nl = &circuit.design.netlist;
    let mut movable = vec![false; nl.num_cells()];
    let mut replaced = 0usize;
    let mut frozen = 0usize;
    for cell in nl.movable_cells() {
        let rect = circuit.placement.cell_rect(nl, cell);
        if rect.intersects(&dirty) {
            movable[cell.index()] = true;
            replaced += 1;
        } else {
            frozen += 1;
        }
    }
    if replaced == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: format!("ECO window {dirty} selects no movable cell"),
        });
    }
    // field by field: a `Design::clone` would copy the netlist (names,
    // name index, CSR) a second time, only to have it replaced
    let design = &circuit.design;
    let derived = BookshelfCircuit {
        design: Design {
            name: design.name.clone(),
            netlist: nl.with_movability(&movable)?,
            die,
            rows: design.rows.clone(),
            target_density: design.target_density,
            regions: design.regions.clone(),
            cell_region: design.cell_region.clone(),
        },
        placement: circuit.placement.clone(),
    };
    let hpwl_before = total_hpwl(nl, &circuit.placement);

    let mut eco_config = config.pipeline.clone();
    eco_config.global.stage = Some("eco".to_string());
    let result = run(&derived, &eco_config)?;
    // the derived netlist differs from `nl` in movability only
    let hpwl_after = result.dpwl;

    let mut report = result.report;
    report.set_counter("eco.replaced", replaced as u64);
    report.set_counter("eco.frozen", frozen as u64);
    report.set_gauge("eco.hpwl_before", hpwl_before);
    report.set_gauge("eco.hpwl_after", hpwl_after);
    report.set_gauge("eco.hpwl_delta", hpwl_after - hpwl_before);

    Ok(EcoResult {
        placement: result.placement,
        hpwl_before,
        hpwl_after,
        frozen,
        replaced,
        iterations: result.iterations,
        rt_seconds: 0.0,
        termination: result.termination,
        violations: result.violations,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;

    #[test]
    fn zero_levels_is_a_typed_error() {
        let c = synth::generate(&synth::smoke_spec());
        let cfg = MultilevelConfig {
            levels: 0,
            ..MultilevelConfig::default()
        };
        assert!(matches!(
            run_multilevel(&c, &cfg),
            Err(PlacerError::DegenerateInput { .. })
        ));
    }

    #[test]
    fn deadline_during_coarsening_terminates_wall_clock() {
        // an already-expired deadline trips before the first coarsening
        // pass: the flow must skip the coarse phase and return a legal
        // partial result tagged WallClock, not hang or report Converged
        let c = synth::generate(&synth::smoke_clustered_spec());
        let mut cfg = MultilevelConfig {
            levels: 3,
            ..MultilevelConfig::default()
        };
        cfg.pipeline.global.cancel =
            crate::cancel::CancelToken::with_deadline_in(std::time::Duration::ZERO);
        let r = run_multilevel(&c, &cfg).unwrap();
        assert_eq!(r.result.termination, Termination::WallClock);
        assert!(r.result.termination.is_partial());
        assert_eq!(r.result.violations, 0, "partial result is still legal");
        assert!(
            r.level_stats.iter().all(|s| s.iterations <= 1),
            "tripped token bounds every level to one checked iteration: {:?}",
            r.level_stats
        );
    }

    #[test]
    fn explicit_cancel_mid_coarse_terminates_cancelled() {
        let c = synth::generate(&synth::smoke_clustered_spec());
        let mut cfg = MultilevelConfig {
            levels: 2,
            ..MultilevelConfig::default()
        };
        let token = crate::cancel::CancelToken::new();
        cfg.pipeline.global.cancel = token.clone();
        token.cancel();
        let r = run_multilevel(&c, &cfg).unwrap();
        assert_eq!(r.result.termination, Termination::Cancelled);
        assert_eq!(r.result.violations, 0);
    }

    /// The 2-level report pinned like `pipeline`'s `run_report_is_pinned`:
    /// its `engine.*` counters are the sum over both levels, overwriting
    /// the finest pipeline run's, and the `ml.*` metrics ride along.
    #[test]
    fn multilevel_report_is_pinned() {
        let c = synth::generate(&synth::smoke_clustered_spec());
        let r = run_multilevel(&c, &MultilevelConfig::default()).unwrap();
        assert_eq!(r.levels, 2);
        let fnv = crate::telemetry::timeless_fnv(&r.result.report);
        assert_eq!(
            fnv,
            17_641_938_171_464_941_573,
            "{}",
            r.result.report.to_json()
        );
    }

    /// The ECO report pinned the same way: the inner pipeline's metrics
    /// plus `eco.*`, over the lower-left quarter of the `smoke` die.
    #[test]
    fn eco_report_is_pinned() {
        let c = synth::generate(&synth::smoke_spec());
        let die = c.design.die;
        let window = Rect::new(
            die.xl,
            die.yl,
            die.xl + 0.5 * die.width(),
            die.yl + 0.5 * die.height(),
        );
        let eco = replace_region(&c, window, &EcoConfig::default()).unwrap();
        assert!(eco.frozen > 0 && eco.replaced > 0);
        let fnv = crate::telemetry::timeless_fnv(&eco.report);
        assert_eq!(fnv, 2_462_602_065_383_102_450, "{}", eco.report.to_json());
    }

    #[test]
    fn eco_window_off_die_is_a_typed_error() {
        let c = synth::generate(&synth::smoke_spec());
        let off = Rect::new(-100.0, -100.0, -50.0, -50.0);
        assert!(matches!(
            replace_region(&c, off, &EcoConfig::default()),
            Err(PlacerError::DegenerateInput { .. })
        ));
    }
}
