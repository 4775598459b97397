//! The global-placement objective `Σ_e W_e(x, y) + λ D(x, y)` (Eq. (1))
//! as an optimizable [`Problem`].
//!
//! The parameter vector packs the **centers of movable cells** as
//! `[x_0 … x_{m−1}, y_0 … y_{m−1}]`; fixed cells stay at their input
//! positions. Projection clamps each movable cell inside the die.

use mep_density::electro::{DensityReport, Electrostatics};
use mep_netlist::{CellId, Design, Placement};
use mep_obs::StageStats;
use mep_optim::Problem;
use mep_wirelength::engine::EvalEngine;
use mep_wirelength::{AnyModel, NetlistEvaluator, WirelengthGrad};
use std::ops::AddAssign;
use std::sync::Arc;

/// Statistics of the most recent objective evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Smoothed wirelength `Σ W_e` over the nets with a movable pin (the
    /// others are constants of the parameters). Telemetry and the guard's
    /// finiteness and divergence tests read it; no optimizer does.
    pub wirelength: f64,
    /// Density energy `D`.
    pub density_energy: f64,
    /// Density overflow `φ`.
    pub overflow: f64,
}

/// The counters of one GP run's evaluations ([`PlacementProblem::stats`]),
/// added up by value over the levels of a multilevel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Always 0. Read by the frozen `examples/bench_e2e`; goes with the
    /// benchmark PR that retires `wirelength.engine.parallel_runs`
    /// (ROADMAP item 1(d)).
    pub parallel_runs: u64,
    /// `wl_grad.count`. Read by the frozen `examples/bench_e2e`; goes with
    /// the benchmark PR that retires `wirelength.engine.serial_runs`
    /// (ROADMAP item 1(d)).
    pub serial_runs: u64,
    /// Wirelength workspace (re)builds; one per netlist instance.
    pub workspace_allocs: u64,
    /// Evaluations that recombined both terms held from the previous
    /// evaluation at the same point instead of executing either stage (not
    /// counted in `wl_grad` or `density`).
    pub reused: u64,
    /// Wirelength value+gradient stage.
    pub wl_grad: StageStats,
    /// Assembly + cell scatter sub-stage of `wl_grad` (included in it).
    pub wl_scatter: StageStats,
    /// Net evaluations served by the degree-class Moreau kernel.
    pub wl_class_nets: u64,
    /// Net evaluations served by the per-net path.
    pub wl_generic_nets: u64,
    /// Nets the gradient stage skipped for want of a movable pin
    /// (`mep_wirelength::WirelengthStats::inactive_nets`).
    pub wl_inactive_nets: u64,
    /// Density stage (executed raster + Poisson solve + gather).
    pub density: StageStats,
    /// Spectral transforms of the Poisson solver (four per solve), inside
    /// `density` or the problem's `density_report`.
    pub density_transform: StageStats,
}

impl AddAssign for EngineStats {
    fn add_assign(&mut self, o: Self) {
        self.parallel_runs += o.parallel_runs;
        self.serial_runs += o.serial_runs;
        self.workspace_allocs += o.workspace_allocs;
        self.reused += o.reused;
        self.wl_grad += o.wl_grad;
        self.wl_scatter += o.wl_scatter;
        self.wl_class_nets += o.wl_class_nets;
        self.wl_generic_nets += o.wl_generic_nets;
        self.wl_inactive_nets += o.wl_inactive_nets;
        self.density += o.density;
        self.density_transform += o.density_transform;
    }
}

/// The placement objective bound to one design.
pub struct PlacementProblem<'a> {
    design: &'a Design,
    movable: Vec<CellId>,
    evaluator: NetlistEvaluator,
    /// The held wirelength term of the last [`Problem::eval`].
    wl: WirelengthGrad,
    /// The smoothing `wl` was computed at, which the uncached oracle
    /// recomputes it under.
    #[cfg(test)]
    wl_smoothing: f64,
    es: Electrostatics,
    /// The held density term: `∂D/∂x`, `∂D/∂y` per cell and the report of
    /// the last executed density stage (buffers zeroed per execution,
    /// never reallocated).
    dgx: Vec<f64>,
    dgy: Vec<f64>,
    /// `None` until a density stage has run.
    density: Option<DensityReport>,
    /// Executed density stages.
    density_stage: StageStats,
    /// Evaluations that recombined the held terms.
    reused: u64,
    /// The parameter vector of the last [`Problem::eval`], which both held
    /// terms were computed at; a [`Problem::reeval`] at the same bits
    /// reuses both.
    held_at: Vec<f64>,
    scratch: Placement,
    /// Current density weight `λ`.
    pub lambda: f64,
    last: EvalStats,
    /// Fault-injection hook (tests): skip `nan_after` more evals, then
    /// poison the next `nan_remaining` evaluations with NaN.
    nan_after: u64,
    nan_remaining: u64,
}

impl<'a> std::fmt::Debug for PlacementProblem<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementProblem")
            .field("design", &self.design.name)
            .field("movable", &self.movable.len())
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl<'a> PlacementProblem<'a> {
    /// Builds the problem. `initial` provides fixed-cell positions (and the
    /// starting movable positions extracted by
    /// [`PlacementProblem::pack_params`]); `model` is the wirelength model.
    /// The engine is ignored: the frozen `examples/bench_e2e` passes one,
    /// and the argument goes with the benchmark PR that deletes
    /// `EvalEngine` (ROADMAP item 1(d)).
    pub fn new(
        design: &'a Design,
        initial: &Placement,
        model: AnyModel,
        _engine: Arc<EvalEngine>,
    ) -> Self {
        let netlist = &design.netlist;
        let movable: Vec<CellId> = netlist.movable_cells().collect();
        Self {
            held_at: vec![0.0; 2 * movable.len()],
            movable,
            evaluator: NetlistEvaluator::serial(model),
            wl: WirelengthGrad::zeros(netlist.num_cells()),
            #[cfg(test)]
            wl_smoothing: 0.0,
            es: Electrostatics::new(design, initial),
            dgx: vec![0.0; netlist.num_cells()],
            dgy: vec![0.0; netlist.num_cells()],
            density: None,
            density_stage: StageStats::default(),
            reused: 0,
            scratch: initial.clone(),
            lambda: 0.0,
            design,
            last: EvalStats::default(),
            nan_after: 0,
            nan_remaining: 0,
        }
    }

    /// The counters of every evaluation so far. The spectral transforms
    /// of [`PlacementProblem::density_report`] count too, so a run reads
    /// this before its closing report.
    pub fn stats(&self) -> EngineStats {
        let wl = self.evaluator.stats();
        EngineStats {
            parallel_runs: 0,
            serial_runs: wl.grad.count,
            workspace_allocs: wl.workspace_allocs,
            reused: self.reused,
            wl_grad: wl.grad,
            wl_scatter: wl.scatter,
            wl_class_nets: wl.class_nets,
            wl_generic_nets: wl.generic_nets,
            wl_inactive_nets: wl.inactive_nets,
            density: self.density_stage,
            density_transform: self.es.transform_stats(),
        }
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.movable.len()
    }

    /// The movable-cell ids, in parameter order.
    pub fn movable(&self) -> &[CellId] {
        &self.movable
    }

    /// Stats of the last evaluation ([`Problem::eval`] or
    /// [`Problem::reeval`]).
    pub fn last_stats(&self) -> EvalStats {
        self.last
    }

    /// Sets the wirelength model's smoothing parameter.
    pub fn set_smoothing(&mut self, s: f64) {
        self.evaluator.model_mut().set_smoothing(s);
    }

    /// Current smoothing parameter.
    pub fn smoothing(&self) -> f64 {
        self.evaluator.model().smoothing()
    }

    /// `‖∇D‖₁` of the held density term over the movable cells: the
    /// density gradient of the last [`Problem::eval`], whatever `λ`
    /// combined it.
    pub fn density_grad_norm(&self) -> f64 {
        let abs = |g: &[f64], c: &CellId| g.get(c.index()).map_or(0.0, |v| v.abs());
        self.movable
            .iter()
            .map(|c| abs(&self.dgx, c) + abs(&self.dgy, c))
            .sum()
    }

    /// The electrostatic system (e.g. for its bin grid).
    pub fn electrostatics(&self) -> &Electrostatics {
        &self.es
    }

    /// Test hook: after `after` more evaluations, poison the following
    /// `count` evaluations with NaN (value, gradient, and stats). Used to
    /// exercise the recovery guard; never active in production flows.
    pub fn inject_nan(&mut self, after: u64, count: u64) {
        self.nan_after = after;
        self.nan_remaining = count;
    }

    /// Packs the movable-cell centers of `placement` into a parameter
    /// vector.
    pub fn pack_params(&self, placement: &Placement) -> Vec<f64> {
        let m = self.movable.len();
        let netlist = &self.design.netlist;
        let mut p = vec![0.0; 2 * m];
        for (i, &cell) in self.movable.iter().enumerate() {
            let c = placement.center(netlist, cell);
            p[i] = c.x;
            p[m + i] = c.y;
        }
        p
    }

    /// Writes a parameter vector back into `placement` (movable cells
    /// only).
    pub fn unpack_params(&self, params: &[f64], placement: &mut Placement) {
        let m = self.movable.len();
        let netlist = &self.design.netlist;
        for (i, &cell) in self.movable.iter().enumerate() {
            placement.set_center(netlist, cell, (params[i], params[m + i]).into());
        }
    }

    /// Exact HPWL at a parameter vector (reporting metric, not the model).
    pub fn exact_hpwl(&mut self, params: &[f64]) -> f64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(params, &mut scratch);
        let h = mep_netlist::total_hpwl(&self.design.netlist, &scratch);
        self.scratch = scratch;
        h
    }

    /// Density report (energy + overflow) at a parameter vector; does not
    /// disturb the gradient buffers, nor therefore the held density term.
    pub fn density_report(&mut self, params: &[f64]) -> DensityReport {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(params, &mut scratch);
        let report = self.es.update(&self.design.netlist, &scratch);
        self.scratch = scratch;
        report
    }

    /// The density term at `placement`: leaves `∂D/∂x`, `∂D/∂y` in
    /// `dgx`/`dgy` and returns the report.
    fn density_term(&mut self, placement: &Placement) -> DensityReport {
        let netlist = &self.design.netlist;
        self.dgx.iter_mut().for_each(|g| *g = 0.0);
        self.dgy.iter_mut().for_each(|g| *g = 0.0);
        let es = &mut self.es;
        let (dgx, dgy) = (&mut self.dgx, &mut self.dgy);
        self.density_stage.time(|| {
            let report = es.update(netlist, placement);
            es.accumulate_gradient(netlist, placement, dgx, dgy);
            report
        })
    }

    /// Combines the wirelength term in `wl` and the density term in
    /// `dgx`/`dgy`/`report` under the current `λ` into `grad`; returns the
    /// objective value.
    fn combine(&mut self, report: DensityReport, grad: &mut [f64]) -> f64 {
        let m = self.movable.len();
        for (i, &cell) in self.movable.iter().enumerate() {
            let c = cell.index();
            grad[i] = self.wl.grad_x[c] + self.lambda * self.dgx[c];
            grad[m + i] = self.wl.grad_y[c] + self.lambda * self.dgy[c];
        }
        self.last = EvalStats {
            wirelength: self.wl.value,
            density_energy: report.energy,
            overflow: report.overflow,
        };
        // fault-injection countdown (test hook, see `inject_nan`)
        if self.nan_remaining > 0 {
            if self.nan_after > 0 {
                self.nan_after -= 1;
            } else {
                self.nan_remaining -= 1;
                for g in grad.iter_mut() {
                    *g = f64::NAN;
                }
                self.last = EvalStats {
                    wirelength: f64::NAN,
                    density_energy: f64::NAN,
                    overflow: f64::NAN,
                };
                return f64::NAN;
            }
        }
        self.wl.value + self.lambda * report.energy
    }
}

impl<'a> Problem for PlacementProblem<'a> {
    fn dim(&self) -> usize {
        2 * self.movable.len()
    }

    fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let m = self.movable.len();
        assert_eq!(x.len(), 2 * m);
        assert_eq!(grad.len(), 2 * m);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.unpack_params(x, &mut scratch);
        // both stages always execute (the wirelength one timed inside the
        // evaluator): only `reeval` reuses the held terms
        self.evaluator
            .evaluate(&self.design.netlist, &scratch, &mut self.wl);
        #[cfg(test)]
        {
            self.wl_smoothing = self.smoothing();
        }
        let report = self.density_term(&scratch);
        self.scratch = scratch;
        self.held_at.copy_from_slice(x);
        self.density = Some(report);
        self.combine(report, grad)
    }

    /// At the point of the last `eval`, recombines both held terms under
    /// the current `λ` and executes neither stage. The wirelength term keeps
    /// the smoothing it was computed at, even if `set_smoothing` has moved
    /// it since. At any other point (or before the first `eval`) this is an
    /// `eval`.
    fn reeval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let held = match self.density {
            Some(held) if same_bits(&self.held_at, x) => held,
            _ => return self.eval(x, grad),
        };
        #[cfg(test)]
        if oracle::reuse_disabled() {
            // recompute what the hit holds: the wirelength at its held
            // smoothing, the density afresh
            let now = self.smoothing();
            self.set_smoothing(self.wl_smoothing);
            let f = self.eval(x, grad);
            self.set_smoothing(now);
            return f;
        }
        self.reused += 1;
        self.combine(held, grad)
    }

    fn project(&self, x: &mut [f64]) {
        let m = self.movable.len();
        let die = self.design.die;
        let netlist = &self.design.netlist;
        for (i, &cell) in self.movable.iter().enumerate() {
            let hw = 0.5 * netlist.cell_width(cell);
            let hh = 0.5 * netlist.cell_height(cell);
            // region-constrained cells are boxed into their fence
            let fence = self.design.region_of(cell).map(|r| r.rect).unwrap_or(die);
            // degenerate box smaller than the cell: pin to the box center
            let (lo_x, hi_x) = (fence.xl + hw, fence.xh - hw);
            let (lo_y, hi_y) = (fence.yl + hh, fence.yh - hh);
            let die = fence;
            x[i] = if lo_x <= hi_x {
                x[i].clamp(lo_x, hi_x)
            } else {
                0.5 * (die.xl + die.xh)
            };
            x[m + i] = if lo_y <= hi_y {
                x[m + i].clamp(lo_y, hi_y)
            } else {
                0.5 * (die.yl + die.yh)
            };
        }
    }
}

/// Whether two parameter vectors are the same point bit for bit (stops at
/// the first differing coordinate).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// The uncached oracle for tests: while a guard is alive on this thread,
/// every `reeval` recomputes both terms instead of recombining the held
/// ones.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    thread_local! {
        static REUSE_DISABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn reuse_disabled() -> bool {
        REUSE_DISABLED.with(Cell::get)
    }

    /// Disables term reuse on this thread until dropped.
    pub(crate) struct NoReuse(());

    impl NoReuse {
        pub(crate) fn new() -> Self {
            REUSE_DISABLED.with(|c| c.set(true));
            Self(())
        }
    }

    impl Drop for NoReuse {
        fn drop(&mut self) {
            REUSE_DISABLED.with(|c| c.set(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;
    use mep_wirelength::ModelKind;

    fn problem(c: &mep_netlist::bookshelf::BookshelfCircuit) -> PlacementProblem<'_> {
        PlacementProblem::new(
            &c.design,
            &c.placement,
            ModelKind::Moreau.instantiate(1.0),
            Arc::default(),
        )
    }

    #[test]
    fn engine_instrumentation_sees_both_stages() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut g = vec![0.0; p.dim()];
        p.eval(&params, &mut g);
        p.eval(&params, &mut g);
        let stats = p.stats();
        // an eval executes both stages, even at the point of the last one
        assert_eq!((stats.wl_grad.count, stats.density.count), (2, 2));
        assert_eq!(stats.reused, 0);
        // one density update runs 4 spectral sweeps (DCT2, DCT3, ×2 field)
        assert_eq!(stats.density_transform.count, 8);
        assert!(stats.density_transform.nanos <= stats.density.nanos);
    }

    /// A spread, in-die point (the input placement piles every cell on the
    /// die center).
    fn spread_point(
        c: &mep_netlist::bookshelf::BookshelfCircuit,
        p: &PlacementProblem<'_>,
        phase: f64,
    ) -> Vec<f64> {
        let mut x = p.pack_params(&c.placement);
        for (i, v) in x.iter_mut().enumerate() {
            *v += (i as f64 * 0.7 + phase).sin() * 0.2 * c.design.die.width();
        }
        p.project(&mut x);
        x
    }

    /// Bits of one evaluation: value first, then the gradient.
    fn eval_bits(p: &mut PlacementProblem<'_>, x: &[f64]) -> Vec<u64> {
        let mut g = vec![0.0; p.dim()];
        let f = p.eval(x, &mut g);
        std::iter::once(f).chain(g).map(f64::to_bits).collect()
    }

    /// Bits of one re-evaluation: value first, then the gradient.
    fn reeval_bits(p: &mut PlacementProblem<'_>, x: &[f64]) -> Vec<u64> {
        let mut g = vec![0.0; p.dim()];
        let f = p.reeval(x, &mut g);
        std::iter::once(f).chain(g).map(f64::to_bits).collect()
    }

    #[test]
    fn a_different_point_misses() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 1e-3;
        let x = spread_point(&c, &p, 0.0);
        let mut y = x.clone();
        // one ulp on the last coordinate: the compare must reach it
        let last = y.last_mut().unwrap();
        *last = f64::from_bits(last.to_bits() - 1);
        eval_bits(&mut p, &x);
        let at_y = eval_bits(&mut p, &y);
        let stats = p.stats();
        assert_eq!((stats.density.count, stats.reused), (2, 0));
        let mut fresh = problem(&c);
        fresh.lambda = 1e-3;
        assert_eq!(at_y, eval_bits(&mut fresh, &y));
    }

    #[test]
    fn density_report_elsewhere_does_not_corrupt_the_hit() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 1e-3;
        let x = spread_point(&c, &p, 0.0);
        let elsewhere = spread_point(&c, &p, 1.9);
        let first = eval_bits(&mut p, &x);
        let before = p.last_stats();
        let other = p.density_report(&elsewhere);
        assert_ne!(other.energy, before.density_energy);
        assert_eq!(first, reeval_bits(&mut p, &x));
        assert_eq!(p.last_stats(), before);
        assert_eq!(p.stats().reused, 1);
    }

    #[test]
    fn reeval_hit_is_a_fresh_eval_at_the_held_smoothing() {
        let c = synth::generate(&synth::smoke_spec());
        let mut held = problem(&c);
        held.lambda = 1e-3;
        let x = spread_point(&c, &held, 0.0);
        eval_bits(&mut held, &x);
        held.set_smoothing(0.37);
        held.lambda = 3.25e-3;
        let hit = reeval_bits(&mut held, &x);
        let s = held.stats();
        assert_eq!(
            (s.wl_grad.count, s.density.count, s.reused),
            (1, 1, 1),
            "no stage ran"
        );

        // the held wirelength term keeps the smoothing it was taken at (1.0)
        let mut fresh = problem(&c);
        fresh.lambda = 3.25e-3;
        assert_eq!(hit, eval_bits(&mut fresh, &x));
        assert_eq!(held.last_stats(), fresh.last_stats());

        // and the oracle recomputes those bits, then restores the smoothing
        let recomputed = {
            let _oracle = oracle::NoReuse::new();
            reeval_bits(&mut held, &x)
        };
        assert_eq!(hit, recomputed);
        assert_eq!(held.smoothing(), 0.37);
        assert_eq!(held.stats().reused, 1);
    }

    #[test]
    fn reeval_anywhere_else_is_an_eval() {
        let c = synth::generate(&synth::smoke_spec());
        let fresh = || {
            let mut p = problem(&c);
            p.lambda = 1e-3;
            p
        };
        let x = spread_point(&c, &fresh(), 0.0);
        // before any eval there is nothing held
        assert_eq!(reeval_bits(&mut fresh(), &x), eval_bits(&mut fresh(), &x));

        let mut y = x.clone();
        let last = y.last_mut().unwrap();
        *last = f64::from_bits(last.to_bits() - 1);
        let mut p = fresh();
        eval_bits(&mut p, &x);
        p.set_smoothing(0.37);
        let at_y = reeval_bits(&mut p, &y);
        let s = p.stats();
        assert_eq!((s.wl_grad.count, s.density.count, s.reused), (2, 2, 0));
        let mut want = fresh();
        want.set_smoothing(0.37);
        assert_eq!(at_y, eval_bits(&mut want, &y));
    }

    #[test]
    fn injected_nan_counts_reevals() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 1e-3;
        let x = spread_point(&c, &p, 0.0);
        p.inject_nan(1, 1);
        let clean = eval_bits(&mut p, &x);
        let poisoned = reeval_bits(&mut p, &x);
        assert!(poisoned.iter().all(|&b| f64::from_bits(b).is_nan()));
        assert!(p.last_stats().wirelength.is_nan());
        assert_eq!(clean, reeval_bits(&mut p, &x), "one poisoned reeval");
        assert_eq!(p.stats().reused, 2);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let c = synth::generate(&synth::smoke_spec());
        let p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut pl = c.placement.clone();
        p.unpack_params(&params, &mut pl);
        for i in 0..pl.len() {
            assert!((pl.x[i] - c.placement.x[i]).abs() < 1e-12);
            assert!((pl.y[i] - c.placement.y[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_combines_terms() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        let params = p.pack_params(&c.placement);
        let mut g = vec![0.0; p.dim()];
        p.lambda = 0.0;
        let f_wl = p.eval(&params, &mut g);
        let stats = p.last_stats();
        assert!((f_wl - stats.wirelength).abs() < 1e-9);
        p.lambda = 2.0;
        let f_both = p.eval(&params, &mut g);
        assert!((f_both - (stats.wirelength + 2.0 * stats.density_energy)).abs() < 1e-6);
    }

    #[test]
    fn wirelength_gradient_matches_finite_difference() {
        // λ = 0 isolates the wirelength path through pack/unpack; the
        // density force is the physical field, which matches the exact
        // derivative of the *rasterized* energy only up to discretization
        // (verified with its own tolerance in mep-density).
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 0.0;
        let mut params = p.pack_params(&c.placement);
        let die = c.design.die;
        for (i, v) in params.iter_mut().enumerate() {
            *v += ((i as f64) * 0.7).sin() * 0.2 * die.width();
        }
        p.project(&mut params);
        let mut g = vec![0.0; p.dim()];
        p.eval(&params, &mut g);
        let h = 1e-5 * die.width();
        for idx in [3usize, 77, 200, 555] {
            let mut plus = params.clone();
            plus[idx] += h;
            let mut gg = vec![0.0; p.dim()];
            let fp = p.eval(&plus, &mut gg);
            let mut minus = params.clone();
            minus[idx] -= h;
            let fm = p.eval(&minus, &mut gg);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - g[idx]).abs() < 1e-3 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                g[idx]
            );
        }
    }

    #[test]
    fn combined_gradient_is_a_descent_direction() {
        let c = synth::generate(&synth::smoke_spec());
        let mut p = problem(&c);
        p.lambda = 1.0;
        let mut params = p.pack_params(&c.placement);
        for (i, v) in params.iter_mut().enumerate() {
            *v += ((i as f64) * 1.3).cos() * 0.1 * c.design.die.width();
        }
        p.project(&mut params);
        let mut g = vec![0.0; p.dim()];
        let f0 = p.eval(&params, &mut g);
        let gnorm = g.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
        let step = 1e-3 * c.design.die.width() / gnorm * g.len() as f64;
        // a short move along −∇f must reduce the objective
        let trial: Vec<f64> = params
            .iter()
            .zip(&g)
            .map(|(&x, &gi)| x - step.min(1e-2) * gi)
            .collect();
        let mut gg = vec![0.0; p.dim()];
        let f1 = p.eval(&trial, &mut gg);
        assert!(f1 < f0, "f0 {f0} -> f1 {f1}");
    }

    #[test]
    fn projection_keeps_cells_inside_die() {
        let c = synth::generate(&synth::smoke_spec());
        let p = problem(&c);
        let mut params = p.pack_params(&c.placement);
        for v in params.iter_mut() {
            *v += 1e6; // push far outside
        }
        p.project(&mut params);
        let mut pl = c.placement.clone();
        p.unpack_params(&params, &mut pl);
        let nl = &c.design.netlist;
        for cell in nl.movable_cells() {
            let r = pl.cell_rect(nl, cell);
            assert!(
                c.design.die.contains_rect(&r),
                "cell {cell} at {r} outside die"
            );
        }
    }
}
