//! Multilevel and incremental placement drivers on top of the flat
//! pipeline (DESIGN.md §12).
//!
//! Three entry points:
//!
//! * [`run_multilevel`] — cluster-based coarsening ([`mep_netlist::cluster`])
//!   builds a stack of progressively smaller placement problems; each level
//!   is solved by the guarded global placer and interpolated one level
//!   finer, so the finest (and most expensive) level starts from a nearly
//!   converged picture instead of everything piled at the die center.
//! * The **LB/UB warm-start alternation** inside it — at the coarsest
//!   level, B2B quadratic solves (the density-free *lower bound* on
//!   wirelength, [`crate::quadratic`]) alternate with short guarded
//!   Moreau/density runs (the legal-leaning *upper bound*); each LB round
//!   is anchored toward the last UB placement with a geometrically growing
//!   force factor, converging the two bounds the way SimPL/Coloquinte
//!   flows do.
//! * [`replace_region`] — incremental (ECO) re-placement: everything
//!   outside a dirty window is frozen in place (bit-identical coordinates)
//!   and only the cells touching the window are re-placed by the full
//!   guarded pipeline.
//!
//! The multilevel driver reports into one [`EvalEngine`] across every
//! level and stage ([`replace_region`] is one pipeline run on an engine of
//! its own); all drivers stamp `level`/`stage` into the per-iteration trace
//! records so a single JSONL trace tells the whole story of a run.

use crate::error::PlacerError;
use crate::global::{place_with_engine, GlobalConfig};
use crate::guard::Termination;
use crate::pipeline::{run_with_engine, PipelineConfig, PipelineResult};
use crate::quadratic::{place_b2b, place_b2b_anchored, AnchorSet, B2bConfig};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::cluster::{coarsen, Coarsened};
use mep_netlist::{total_hpwl, Design, Placement, Rect};
use mep_obs::{Registry, RunReport};
use mep_wirelength::engine::EvalEngine;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the multilevel flow. The LB/UB quadratic/nonlinear
/// alternation always runs at the coarsest level before the coarse density
/// run (at `levels == 1` too, warm-starting the flat flow).
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Number of levels including the finest one (`1` = flat flow; `2`
    /// adds one coarse level; …). Coarsening stops early if a level would
    /// fall below [`min_coarse_movable`](Self::min_coarse_movable) cells
    /// or clustering stops making progress.
    pub levels: usize,
    /// Global-placement iteration cap per coarse level (the finest level
    /// uses [`pipeline`](Self::pipeline)'s own cap).
    pub coarse_iters: usize,
    /// Stop coarsening once a level has fewer movable cells than this.
    pub min_coarse_movable: usize,
    /// The finest-level pipeline configuration (model, schedules,
    /// legalization, detailed placement).
    pub pipeline: PipelineConfig,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            levels: 2,
            coarse_iters: 90,
            min_coarse_movable: 64,
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
    /// carries the `ml.*` multilevel metrics.
    pub result: PipelineResult,
    /// Levels actually placed (≤ the configured count when coarsening
    /// stopped early).
    pub levels: usize,
    /// LB/UB alternation rounds actually run.
    pub warm_rounds: usize,
    /// Per-level statistics, coarsest first, finest (level 0) last.
    pub level_stats: Vec<LevelStats>,
}

/// Density-overflow target at coarse levels — looser than the finest
/// target because legality is only decided at the finest level.
const COARSE_TARGET_OVERFLOW: f64 = 0.20;

/// Derives the global config used at a coarse level.
fn coarse_global(cfg: &MultilevelConfig, level: usize, stage: &str, iters: usize) -> GlobalConfig {
    GlobalConfig {
        max_iters: iters,
        min_iters: cfg.pipeline.global.min_iters.min(iters),
        target_overflow: COARSE_TARGET_OVERFLOW,
        level: level as u32,
        stage: Some(stage.to_string()),
        ..cfg.pipeline.global.clone()
    }
}

/// Runs the multilevel flow: coarsen, solve coarse→fine with warm-started
/// LB/UB alternation at the coarsest level, finish with the full flat
/// pipeline on the original netlist.
///
/// The cancel token in `config.pipeline.global.cancel` is honored at
/// every stage boundary — before each coarsening pass, each LB/UB round,
/// and each intermediate level — in addition to the per-iteration check
/// inside each global-placement loop. A token that trips during the
/// coarse phase skips the remaining coarse work; the finest pipeline then
/// runs a single checked iteration so the result still carries a legal
/// placement and the mapped termination ([`Termination::WallClock`] for a
/// deadline, [`Termination::Cancelled`] for an explicit cancel).
///
/// # Errors
///
/// [`PlacerError`] on degenerate inputs or unrecoverable numerical faults
/// at any level. A coarsest level whose netlist cannot support a
/// quadratic solve (e.g. every net collapsed) silently skips the LB
/// rounds and falls back to the plain coarse density run.
pub fn run_multilevel(
    circuit: &BookshelfCircuit,
    config: &MultilevelConfig,
) -> Result<MultilevelResult, PlacerError> {
    // one engine for every level and stage: the final report's `engine.*`
    // metrics cover the whole flow
    let engine = Arc::<EvalEngine>::default();
    if config.levels == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: "multilevel flow needs at least one level".to_string(),
        });
    }
    let cancel = config.pipeline.global.cancel.clone();

    // Build the coarsening stack bottom-up. `stack[k]` is the coarsening
    // that turns level-k geometry into level-(k+1) geometry; the level-k
    // circuit is `stack[k-1].design` (or the input for k = 0).
    let mut stack: Vec<Coarsened> = Vec::new();
    for _ in 1..config.levels {
        // a deadline/cancel during coarsening: stop building levels and
        // let the (checked) finest run wind the flow down
        if cancel.is_tripped() {
            break;
        }
        let (fine_design, fine_placement) = match stack.last() {
            None => (&circuit.design, &circuit.placement),
            Some(c) => (&c.design, &c.placement),
        };
        if fine_design.netlist.num_movable() <= config.min_coarse_movable {
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

    let mut level_stats: Vec<LevelStats> = Vec::new();
    let metrics = Registry::new();
    metrics.counter("ml.levels").add(levels as u64);

    // ---- coarsest level: LB/UB warm-start alternation + density run ----
    let coarsest = stack.len();
    let mut level_circuit = match stack.last() {
        None => circuit.clone(),
        Some(c) => BookshelfCircuit {
            design: c.design.clone(),
            placement: c.placement.clone(),
        },
    };
    // lint:allow(determinism): stage wall-time telemetry; durations never feed back into results
    let t_coarsest = Instant::now();
    let mut warm_rounds = 0usize;
    let mut coarsest_iters = 0usize;
    let mut coarsest_overflow = f64::NAN;
    // LB/UB alternation rounds
    const LB_ROUNDS: usize = 3;
    // anchor force factor of the first anchored LB round, and its
    // geometric growth per round
    const FORCE_FACTOR0: f64 = 0.02;
    const FORCE_GROWTH: f64 = 2.0;
    // A lower bound only seeds the UB run — looser CG than the standalone
    // quadratic placer is plenty and keeps the LB cost sublinear in the
    // coarse instance size.
    const LB_B2B: B2bConfig = B2bConfig {
        rounds: 2,
        cg_iters: 150,
        cg_tol: 1e-5,
    };
    let ub_budget = (config.coarse_iters / LB_ROUNDS).max(20);
    let mut force = FORCE_FACTOR0;
    let mut target: Option<Placement> = None;
    for _round in 0..LB_ROUNDS {
        // the LB quadratic solve has no token poll of its own: check
        // here so a tripped token skips whole rounds, not just the
        // guarded UB iterations inside them
        if cancel.is_tripped() {
            break;
        }
        let lb = match &target {
            None => place_b2b(&level_circuit, &LB_B2B),
            Some(t) => place_b2b_anchored(
                &level_circuit,
                &LB_B2B,
                Some(AnchorSet {
                    target: t,
                    force_factor: force,
                }),
            ),
        };
        let lb_placement = match lb {
            Ok((pl, _)) => pl,
            // a coarse netlist that cannot constrain any movable cell
            // (all nets collapsed) has nothing for the LB engine to
            // do; the density run below still works
            Err(PlacerError::DegenerateInput { .. }) => break,
            Err(e) => return Err(e),
        };
        level_circuit.placement = lb_placement;
        let gcfg = coarse_global(config, coarsest, "warm-ub", ub_budget);
        let ub = place_with_engine(&level_circuit, &gcfg, Arc::clone(&engine))?;
        coarsest_iters += ub.iterations;
        coarsest_overflow = ub.overflow;
        level_circuit.placement = ub.placement;
        target = Some(level_circuit.placement.clone());
        force *= FORCE_GROWTH;
        warm_rounds += 1;
    }
    if warm_rounds == 0 {
        // cold coarse run (LB degenerate, or the token tripped first)
        let gcfg = coarse_global(config, coarsest, "coarse", config.coarse_iters);
        let gp = place_with_engine(&level_circuit, &gcfg, Arc::clone(&engine))?;
        coarsest_iters = gp.iterations;
        coarsest_overflow = gp.overflow;
        level_circuit.placement = gp.placement;
    }
    metrics.counter("ml.warm_rounds").add(warm_rounds as u64);
    level_stats.push(LevelStats {
        level: coarsest,
        movable: level_circuit.design.netlist.num_movable(),
        iterations: coarsest_iters,
        hpwl: total_hpwl(&level_circuit.design.netlist, &level_circuit.placement),
        overflow: coarsest_overflow,
        rt_seconds: t_coarsest.elapsed().as_secs_f64(),
    });

    // λ₀ multiplier for stages that start from an already-spread placement
    // (prolonged intermediate levels and the finest level after a coarse
    // solve) — they skip the early part of the Eq. (15) density ramp
    // instead of re-walking it.
    const WARM_LAMBDA_SCALE: f64 = 5.0;

    // ---- walk down the stack: prolong, refine each intermediate level ----
    for k in (1..stack.len()).rev() {
        // lint:allow(determinism): stage wall-time telemetry; durations never feed back into results
        let t_level = Instant::now();
        let fine = &stack[k - 1]; // level-k problem
        let mut fine_placement = fine.placement.clone();
        stack[k].map.prolong(
            &fine.design,
            &stack[k].design,
            &level_circuit.placement,
            &mut fine_placement,
        )?;
        level_circuit = BookshelfCircuit {
            design: fine.design.clone(),
            placement: fine_placement,
        };
        let mut gcfg = coarse_global(config, k, "coarse", config.coarse_iters);
        gcfg.lambda_scale = WARM_LAMBDA_SCALE;
        let gp = place_with_engine(&level_circuit, &gcfg, Arc::clone(&engine))?;
        level_stats.push(LevelStats {
            level: k,
            movable: level_circuit.design.netlist.num_movable(),
            iterations: gp.iterations,
            hpwl: gp.hpwl,
            overflow: gp.overflow,
            rt_seconds: t_level.elapsed().as_secs_f64(),
        });
        level_circuit.placement = gp.placement;
    }

    // ---- finest level: prolong and run the full pipeline ----
    // lint:allow(determinism): stage wall-time telemetry; durations never feed back into results
    let t_finest = Instant::now();
    let mut finest_circuit = circuit.clone();
    if let Some(first) = stack.first() {
        let mut fine_placement = circuit.placement.clone();
        first.map.prolong(
            &circuit.design,
            &first.design,
            &level_circuit.placement,
            &mut fine_placement,
        )?;
        finest_circuit.placement = fine_placement;
    } else {
        // flat flow: the "coarsest" level was the original netlist
        finest_circuit.placement = level_circuit.placement.clone();
    }
    let mut final_config = config.pipeline.clone();
    final_config.global.level = 0;
    final_config.global.stage = Some("final".to_string());
    if !stack.is_empty() {
        // the finest level starts from a prolonged coarse solution, not a
        // center pile: begin the density ramp further along
        final_config.global.lambda_scale = WARM_LAMBDA_SCALE;
    }
    let mut result = run_with_engine(&finest_circuit, &final_config, Arc::clone(&engine))?;
    level_stats.push(LevelStats {
        level: 0,
        movable: circuit.design.netlist.num_movable(),
        iterations: result.iterations,
        hpwl: result.dpwl,
        overflow: result.overflow,
        rt_seconds: t_finest.elapsed().as_secs_f64(),
    });

    for s in &level_stats {
        let p = format!("ml.level{}", s.level);
        metrics
            .counter(&format!("{p}.movable"))
            .add(s.movable as u64);
        metrics
            .counter(&format!("{p}.iterations"))
            .add(s.iterations as u64);
        metrics.gauge(&format!("{p}.hpwl")).set(s.hpwl);
        metrics.gauge(&format!("{p}.overflow")).set(s.overflow);
        metrics.gauge(&format!("{p}.rt_seconds")).set(s.rt_seconds);
    }
    result.report.merge_registry(&metrics);

    Ok(MultilevelResult {
        result,
        levels,
        warm_rounds,
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
    // lint:allow(determinism): stage wall-time telemetry; durations never feed back into results
    let t0 = Instant::now();
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
    let result = run_with_engine(&derived, &eco_config, Arc::default())?;
    let hpwl_after = total_hpwl(nl, &result.placement);

    let metrics = Registry::new();
    metrics.counter("eco.replaced").add(replaced as u64);
    metrics.counter("eco.frozen").add(frozen as u64);
    metrics.gauge("eco.hpwl_before").set(hpwl_before);
    metrics.gauge("eco.hpwl_after").set(hpwl_after);
    metrics
        .gauge("eco.hpwl_delta")
        .set(hpwl_after - hpwl_before);
    let mut report = result.report;
    report.merge_registry(&metrics);

    Ok(EcoResult {
        placement: result.placement,
        hpwl_before,
        hpwl_after,
        frozen,
        replaced,
        iterations: result.iterations,
        rt_seconds: t0.elapsed().as_secs_f64(),
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
