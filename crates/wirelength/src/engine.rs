//! Stage clocks and counters of the evaluation hot loop.
//!
//! Global placement evaluates the objective hundreds of times, all of it
//! on the calling thread. [`EvalEngine`] is what the stages of one run
//! share to account for that work ([`EngineStats`]): per-stage evaluation
//! counts and wall time, workspace (re)allocations, evaluations served
//! from held terms and which path served the nets of the wirelength
//! gradient. It executes nothing and holds no threads; building one is
//! free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pipeline stages the engine attributes evaluation time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wirelength value + gradient evaluation.
    WlGrad,
    /// Fixed-order assembly inside the wirelength gradient stage: the net-
    /// order value sum and the cell scatter of the pin gradients (a subset
    /// of [`Stage::WlGrad`] wall time, one per gradient evaluation).
    WlScatter,
    /// Density update + gradient accumulation.
    Density,
    /// 2-D spectral transforms inside the density stage (a subset of
    /// [`Stage::Density`] wall time, one count per `Spectral2d::execute`
    /// sweep: four per Poisson solve).
    DensityTransform,
}

/// Count and cumulative wall time of one [`Stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Evaluations attributed to the stage.
    pub count: u64,
    /// Cumulative wall time, nanoseconds.
    pub nanos: u64,
}

impl StageStats {
    /// Cumulative wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Snapshot of the engine's instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Always 0. Read by the frozen `examples/bench_e2e`; goes with the
    /// benchmark PR that retires `wirelength.engine.parallel_runs`.
    pub parallel_runs: u64,
    /// Whole-netlist wirelength evaluations, `wl_grad.count`. Read by the
    /// frozen `examples/bench_e2e`; goes with the benchmark PR that retires
    /// `wirelength.engine.serial_runs`.
    pub serial_runs: u64,
    /// Workspace arena (re)allocations noted by evaluators; stays flat
    /// across iterations once topology is warm.
    pub workspace_allocs: u64,
    /// Evaluations that recombined both terms held from the previous
    /// evaluation at the same point instead of executing either stage (not
    /// counted in `wl_grad` or `density`).
    pub reused: u64,
    /// Wirelength value+gradient stage.
    pub wl_grad: StageStats,
    /// Assembly + cell scatter sub-stage of `wl_grad` (included in it).
    pub wl_scatter: StageStats,
    /// Net evaluations of the gradient stage served by the degree-class
    /// Moreau kernel (2..=16 pins, `moreau::MAX_CLASS_DEGREE`), summed over
    /// evaluations.
    pub wl_class_nets: u64,
    /// Net evaluations of the gradient stage served by the per-net path
    /// (more than 16 pins, or a model without a class kernel).
    pub wl_generic_nets: u64,
    /// Nets of at least two pins the gradient stage skipped because none
    /// of their pins can move, summed over evaluations. Nets of fewer than
    /// two pins are not counted anywhere, so `wl_class_nets +
    /// wl_generic_nets + wl_inactive_nets + (such nets × wl_grad.count)`
    /// is `nets × wl_grad.count`.
    pub wl_inactive_nets: u64,
    /// Density stage (executed raster + Poisson solve + gather).
    pub density: StageStats,
    /// Spectral-transform sub-stage of density (included in `density`).
    pub density_transform: StageStats,
}

#[derive(Debug, Default)]
struct StageCounter {
    count: AtomicU64,
    nanos: AtomicU64,
}

/// The instrumentation of one placement run (see the module docs).
///
/// Create one per run (e.g. per `place()` call) and share it with `Arc`
/// between the stages that report into it.
#[derive(Debug, Default)]
pub struct EvalEngine {
    workspace_allocs: AtomicU64,
    reused: AtomicU64,
    wl_class_nets: AtomicU64,
    wl_generic_nets: AtomicU64,
    wl_inactive_nets: AtomicU64,
    wl_grad: StageCounter,
    wl_scatter: StageCounter,
    density: StageCounter,
    density_transform: StageCounter,
}

impl EvalEngine {
    /// [`EvalEngine::default`]; the argument is ignored. Called by the
    /// frozen `examples/bench_e2e`; goes with the benchmark PR that
    /// retires `nb6_flat_t2`.
    pub fn new(_threads: usize) -> Self {
        Self::default()
    }

    fn counter(&self, stage: Stage) -> &StageCounter {
        match stage {
            Stage::WlGrad => &self.wl_grad,
            Stage::WlScatter => &self.wl_scatter,
            Stage::Density => &self.density,
            Stage::DensityTransform => &self.density_transform,
        }
    }

    /// Times `f`, attributing the wall time (and one evaluation) to
    /// `stage`.
    pub fn time_stage<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        // lint:allow(determinism): EngineStats stage timing; durations never feed back into results
        let t0 = Instant::now();
        let r = f();
        let c = self.counter(stage);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Attributes `count` evaluations and `nanos` of wall time measured
    /// elsewhere to `stage` — for sub-stages timed by subsystems (e.g. the
    /// density crate's spectral transforms) whose clocks the engine cannot
    /// wrap directly.
    pub fn add_stage_sample(&self, stage: Stage, count: u64, nanos: u64) {
        let c = self.counter(stage);
        c.count.fetch_add(count, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one workspace arena (re)allocation. Evaluators call this
    /// when they (re)build topology-derived buffers; a warmed-up hot loop
    /// must keep this counter flat.
    pub fn note_workspace_alloc(&self) {
        self.workspace_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evaluation served from the terms held from the previous
    /// evaluation at the same point (no stage executed).
    pub fn note_reuse(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Records which path served the nets of one wirelength gradient
    /// evaluation: `class` through the degree-class kernel, `generic`
    /// through the per-net path, `inactive` skipped for want of a movable
    /// pin.
    pub fn note_wl_nets(&self, class: u64, generic: u64, inactive: u64) {
        self.wl_class_nets.fetch_add(class, Ordering::Relaxed);
        self.wl_generic_nets.fetch_add(generic, Ordering::Relaxed);
        self.wl_inactive_nets.fetch_add(inactive, Ordering::Relaxed);
    }

    /// Snapshot of all instrumentation counters.
    pub fn stats(&self) -> EngineStats {
        let stage = |s: Stage| {
            let c = self.counter(s);
            StageStats {
                count: c.count.load(Ordering::Relaxed),
                nanos: c.nanos.load(Ordering::Relaxed),
            }
        };
        let wl_grad = stage(Stage::WlGrad);
        EngineStats {
            parallel_runs: 0,
            serial_runs: wl_grad.count,
            workspace_allocs: self.workspace_allocs.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            wl_grad,
            wl_scatter: stage(Stage::WlScatter),
            wl_class_nets: self.wl_class_nets.load(Ordering::Relaxed),
            wl_generic_nets: self.wl_generic_nets.load(Ordering::Relaxed),
            wl_inactive_nets: self.wl_inactive_nets.load(Ordering::Relaxed),
            density: stage(Stage::Density),
            density_transform: stage(Stage::DensityTransform),
        }
    }

    /// Resets every counter.
    pub fn reset_stats(&self) {
        self.workspace_allocs.store(0, Ordering::Relaxed);
        self.reused.store(0, Ordering::Relaxed);
        self.wl_class_nets.store(0, Ordering::Relaxed);
        self.wl_generic_nets.store(0, Ordering::Relaxed);
        self.wl_inactive_nets.store(0, Ordering::Relaxed);
        for c in [
            &self.wl_grad,
            &self.wl_scatter,
            &self.density,
            &self.density_transform,
        ] {
            c.count.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timing_accumulates() {
        let engine = EvalEngine::default();
        let x = engine.time_stage(Stage::WlGrad, || 41 + 1);
        assert_eq!(x, 42);
        engine.time_stage(Stage::WlGrad, || {});
        engine.time_stage(Stage::Density, || {});
        engine.note_reuse();
        engine.note_wl_nets(7, 3, 2);
        engine.note_wl_nets(7, 3, 2);
        let s = engine.stats();
        assert_eq!(s.wl_grad.count, 2);
        assert_eq!(
            (s.wl_class_nets, s.wl_generic_nets, s.wl_inactive_nets),
            (14, 6, 4)
        );
        assert_eq!(s.wl_scatter.count, 0);
        assert_eq!(s.density.count, 1, "a reuse is not an executed stage");
        assert_eq!(s.reused, 1);
        assert_eq!((s.parallel_runs, s.serial_runs), (0, 2));
        engine.reset_stats();
        assert_eq!(engine.stats().wl_grad.count, 0);
        assert_eq!(engine.stats().reused, 0);
        assert_eq!(engine.stats().wl_class_nets, 0);
        assert_eq!(engine.stats().wl_inactive_nets, 0);
    }
}
