//! Persistent parallel evaluation engine for the placement hot loop.
//!
//! Global placement evaluates the objective hundreds of times; spawning
//! threads and allocating gradient buffers per evaluation dominates the
//! small-to-medium design profile. [`EvalEngine`] fixes both:
//!
//! * a **long-lived worker pool** is spawned lazily on the first parallel
//!   run and reused until the engine is dropped — zero thread spawns per
//!   evaluation after warm-up;
//! * a generic [`EvalEngine::run`] primitive executes a closure over `P`
//!   *parts* (work items claimed dynamically by the pool **and** the
//!   calling thread), on top of which evaluators keep per-part workspace
//!   arenas alive across iterations;
//! * lightweight **instrumentation** ([`EngineStats`]) counts thread
//!   spawns, parallel/serial runs, workspace (re)allocations, and
//!   per-stage evaluation counts and wall time.
//!
//! # Determinism contract
//!
//! `run(parts, f)` guarantees each part index in `0..parts` is executed
//! exactly once, but on an unspecified thread in unspecified order.
//! Callers that want results independent of the thread count must make
//! each part's output depend only on its part index (disjoint output
//! slots), then combine the parts in a fixed order on the calling thread.
//! [`crate::NetlistEvaluator`] does exactly this, and is bit-identical
//! across thread counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Below this item count (nets, cells, …) parallel dispatch is not worth
/// the synchronization; evaluators fall back to the serial path.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// The workspace-wide thread-count policy: available parallelism capped at
/// 16 (beyond that, memory bandwidth dominates wirelength evaluation).
///
/// The `MEP_THREADS` environment variable overrides the detected count
/// (clamped to `1..=256`). Unset falls back to detection silently; a set
/// but unparsable value (empty string, `0x8`, `four`, …) is **rejected**
/// with a one-line stderr warning — printed once per process — and also
/// falls back to detection, so a typo degrades noisily instead of being
/// silently swallowed. This is the single source of truth — config
/// defaults in every crate route through it.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MEP_THREADS") {
        match parse_mep_threads(&v) {
            Ok(n) => return n,
            Err(reason) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring MEP_THREADS={v:?} ({reason}); using detected parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Strict parser behind the `MEP_THREADS` override: a plain base-10
/// integer (surrounding whitespace allowed), clamped to `1..=256`.
/// Anything else — empty string, hex like `0x8`, signs, words — is an
/// error carrying the reason; [`default_threads`] turns that into a
/// one-line warning plus detection fallback rather than guessing.
pub fn parse_mep_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        // lint:allow(no-alloc-hot): cold env-parsing error path, runs at most once per process
        return Err("empty value".to_string());
    }
    if !trimmed.bytes().all(|b| b.is_ascii_digit()) {
        // digit-strict: `parse::<usize>` would accept a leading `+`,
        // which is exactly the kind of almost-a-number this rejects
        // lint:allow(no-alloc-hot): cold env-parsing error path, runs at most once per process
        return Err(format!("not a base-10 thread count: {trimmed:?}"));
    }
    match trimmed.parse::<usize>() {
        Ok(n) => Ok(n.clamp(1, 256)),
        // lint:allow(no-alloc-hot): cold env-parsing error path, runs at most once per process
        Err(_) => Err(format!("not a base-10 thread count: {trimmed:?}")),
    }
}

/// Pipeline stages the engine attributes evaluation time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wirelength value + gradient evaluation.
    WlGrad,
    /// Fixed-order assembly inside the wirelength gradient stage: the net-
    /// order value sum and the cell scatter of the pin gradients (a subset
    /// of [`Stage::WlGrad`] wall time, one per gradient evaluation).
    WlScatter,
    /// Wirelength value-only evaluation.
    WlValue,
    /// Density update + gradient accumulation.
    Density,
    /// 2-D spectral transforms inside the density stage (a subset of
    /// [`Stage::Density`] wall time, one count per `Spectral2d::execute`
    /// sweep: four per Poisson solve).
    DensityTransform,
}

impl Stage {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            Stage::WlGrad => 0,
            Stage::WlValue => 1,
            Stage::Density => 2,
            Stage::DensityTransform => 3,
            Stage::WlScatter => 4,
        }
    }
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
    /// Configured worker-thread budget.
    pub threads: usize,
    /// OS threads spawned so far (pool construction only; a warmed-up
    /// engine performs zero spawns per evaluation).
    pub spawned_threads: u64,
    /// `run` calls dispatched to the pool. Only the wirelength stages
    /// dispatch through the engine, so this counts wirelength dispatches.
    pub parallel_runs: u64,
    /// `run`/`run_serial` calls executed on the calling thread (wirelength
    /// dispatches only, as above).
    pub serial_runs: u64,
    /// Workspace arena (re)allocations noted by evaluators; stays flat
    /// across iterations once topology is warm.
    pub workspace_allocs: u64,
    /// Wirelength value+gradient stage.
    pub wl_grad: StageStats,
    /// Assembly + cell scatter sub-stage of `wl_grad` (included in it).
    pub wl_scatter: StageStats,
    /// Net evaluations of the gradient stage served by the degree-class
    /// Moreau kernel (2..=8 pins), summed over evaluations.
    pub wl_class_nets: u64,
    /// Net evaluations of the gradient stage served by the per-net path
    /// (more than 8 pins, or a model without a class kernel).
    pub wl_generic_nets: u64,
    /// Nets of at least two pins the gradient stage skipped because none
    /// of their pins can move, summed over evaluations. Nets of fewer than
    /// two pins are not counted anywhere, so `wl_class_nets +
    /// wl_generic_nets + wl_inactive_nets + (such nets × wl_grad.count)`
    /// is `nets × wl_grad.count`.
    pub wl_inactive_nets: u64,
    /// Wirelength value-only stage.
    pub wl_value: StageStats,
    /// Density stage (executed raster + Poisson solve + gather).
    pub density: StageStats,
    /// Evaluations that reused the density term already held for the same
    /// point instead of executing the stage (not counted in `density`).
    pub density_reused: u64,
    /// Spectral-transform sub-stage of density (included in `density`).
    pub density_transform: StageStats,
}

#[derive(Debug, Default)]
struct StageCounter {
    count: AtomicU64,
    nanos: AtomicU64,
}

/// A unit of work shipped to a pool worker: a borrowed claiming loop.
///
/// The pointee lives on the stack frame of [`EvalEngine::run`], which does
/// not return before every worker acknowledges completion, so the borrow
/// is erased (and restored inside the worker) soundly.
struct Task {
    func: *const (dyn Fn() + Sync),
}

// SAFETY: `Task` is only constructed by `EvalEngine::run`, which holds the
// pool lock from dispatch until it has received one completion
// acknowledgement per dispatched task. The pointee therefore outlives
// every dereference, and `dyn Fn() + Sync` is safe to call from another
// thread.
unsafe impl Send for Task {}

enum Msg {
    Run(Task),
    Exit,
}

#[derive(Debug)]
struct PoolState {
    workers: Vec<std::thread::JoinHandle<()>>,
    senders: Vec<mpsc::Sender<Msg>>,
    done_tx: mpsc::Sender<()>,
    done_rx: mpsc::Receiver<()>,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Run(_) => f.write_str("Run(..)"),
            Msg::Exit => f.write_str("Exit"),
        }
    }
}

/// Persistent parallel evaluation engine (see the module docs).
///
/// Create one per placement run (e.g. per `place()` call), share it with
/// `Arc`, and let the wirelength stages dispatch through it; the density
/// stage is single-threaded and only reports its clocks here.
#[derive(Debug)]
pub struct EvalEngine {
    threads: usize,
    parallel_threshold: usize,
    pool: Mutex<Option<PoolState>>,
    panicked: AtomicBool,
    spawned_threads: AtomicU64,
    parallel_runs: AtomicU64,
    serial_runs: AtomicU64,
    workspace_allocs: AtomicU64,
    density_reused: AtomicU64,
    wl_class_nets: AtomicU64,
    wl_generic_nets: AtomicU64,
    wl_inactive_nets: AtomicU64,
    stages: [StageCounter; Stage::COUNT],
}

impl EvalEngine {
    /// Engine with a worker budget of `threads` (`1` = strictly serial; the
    /// pool is never spawned).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            pool: Mutex::new(None),
            panicked: AtomicBool::new(false),
            spawned_threads: AtomicU64::new(0),
            parallel_runs: AtomicU64::new(0),
            serial_runs: AtomicU64::new(0),
            workspace_allocs: AtomicU64::new(0),
            density_reused: AtomicU64::new(0),
            wl_class_nets: AtomicU64::new(0),
            wl_generic_nets: AtomicU64::new(0),
            wl_inactive_nets: AtomicU64::new(0),
            stages: Default::default(),
        }
    }

    /// Overrides the work-size threshold below which evaluators should stay
    /// serial (mostly for tests forcing the parallel path on tiny inputs).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold.max(1);
        self
    }

    /// Configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Work-size threshold below which evaluators should stay serial.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Executes `f(part)` for every part in `0..parts`, using the worker
    /// pool (plus the calling thread) when the engine has one.
    ///
    /// Parts are claimed dynamically, so per-part work may be uneven; the
    /// call returns once every part completed. Panics in `f` are caught on
    /// the workers and re-raised here.
    pub fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        if parts == 0 {
            return;
        }
        if self.threads <= 1 || parts == 1 {
            self.run_serial(parts, f);
            return;
        }
        self.parallel_runs.fetch_add(1, Ordering::Relaxed);
        // lint:allow(no-panic-lib): a poisoned pool lock means a worker thread already panicked; propagating is correct
        let mut guard = self.pool.lock().expect("engine pool lock");
        let pool = self.ensure_spawned(&mut guard);

        let next = AtomicUsize::new(0);
        let panicked = &self.panicked;
        let claim_loop = move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                panicked.store(true, Ordering::Relaxed);
            }
        };
        let local: &(dyn Fn() + Sync) = &claim_loop;
        // SAFETY: erases the stack lifetime of `claim_loop`; sound because
        // this function does not return before every dispatched task has
        // been acknowledged (see `Task`).
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), _>(local) };
        let dispatched = pool.senders.len();
        for s in &pool.senders {
            s.send(Msg::Run(Task {
                func: erased as *const _,
            }))
            // lint:allow(no-panic-lib): a worker hangup only happens after a worker panic; crashing is the engine contract
            .expect("engine worker hung up");
        }
        // the calling thread is worker 0
        claim_loop();
        for _ in 0..dispatched {
            // lint:allow(no-panic-lib): a worker hangup only happens after a worker panic; crashing is the engine contract
            pool.done_rx.recv().expect("engine worker hung up");
        }
        drop(guard);
        if self.panicked.swap(false, Ordering::Relaxed) {
            // lint:allow(no-panic-lib): re-raises a caught worker panic on the caller thread; the guarded loop handles it
            panic!("evaluation engine worker panicked");
        }
    }

    /// Executes `f(part)` for every part in `0..parts` on the calling
    /// thread, in ascending part order.
    ///
    /// Evaluators use this below [`EvalEngine::parallel_threshold`]; by the
    /// determinism contract it produces outputs bit-identical to
    /// [`EvalEngine::run`].
    pub fn run_serial(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        self.serial_runs.fetch_add(1, Ordering::Relaxed);
        for i in 0..parts {
            f(i);
        }
    }

    fn ensure_spawned<'a>(&self, guard: &'a mut Option<PoolState>) -> &'a PoolState {
        guard.get_or_insert_with(|| {
            let workers_needed = self.threads - 1;
            let (done_tx, done_rx) = mpsc::channel();
            // lint:allow(no-alloc-hot): one-time pool construction, amortized across the whole run
            let mut workers = Vec::with_capacity(workers_needed);
            // lint:allow(no-alloc-hot): one-time pool construction, amortized across the whole run
            let mut senders = Vec::with_capacity(workers_needed);
            for w in 0..workers_needed {
                let (tx, rx) = mpsc::channel::<Msg>();
                let done = done_tx.clone();
                let handle = std::thread::Builder::new()
                    // lint:allow(no-alloc-hot): one-time pool construction, amortized across the whole run
                    .name(format!("mep-eval-{w}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Run(task) => {
                                    // SAFETY: see `Task`.
                                    let f = unsafe { &*task.func };
                                    f();
                                    if done.send(()).is_err() {
                                        break;
                                    }
                                }
                                Msg::Exit => break,
                            }
                        }
                    })
                    // lint:allow(no-panic-lib): thread-spawn failure at pool construction is unrecoverable resource exhaustion
                    .expect("spawn engine worker");
                // lint:allow(no-alloc-hot): one-time pool construction, amortized across the whole run
                workers.push(handle);
                // lint:allow(no-alloc-hot): one-time pool construction, amortized across the whole run
                senders.push(tx);
            }
            self.spawned_threads
                .fetch_add(workers_needed as u64, Ordering::Relaxed);
            PoolState {
                workers,
                senders,
                done_tx,
                done_rx,
            }
        })
    }

    /// Times `f`, attributing the wall time (and one evaluation) to
    /// `stage`.
    pub fn time_stage<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        // lint:allow(determinism): EngineStats stage timing; durations never feed back into results
        let t0 = Instant::now();
        let r = f();
        let c = &self.stages[stage.index()];
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
        let c = &self.stages[stage.index()];
        c.count.fetch_add(count, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one workspace arena (re)allocation. Evaluators call this
    /// when they (re)build topology-derived buffers; a warmed-up hot loop
    /// must keep this counter flat.
    pub fn note_workspace_alloc(&self) {
        self.workspace_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evaluation whose density term was reused from the
    /// previous evaluation at the same point (no density stage executed).
    pub fn note_density_reuse(&self) {
        self.density_reused.fetch_add(1, Ordering::Relaxed);
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

    /// Determinism self-check, for long-lived drivers reusing one engine
    /// across many jobs (the `mep-serve` daemon runs it after any job
    /// panic before the pool serves the next job).
    ///
    /// Dispatches a fixed known-answer workload through
    /// [`EvalEngine::run`] — more parts than any worker count, each part
    /// writing a deterministic bit pattern into its own slot — and checks
    /// every slot bitwise. Returns `false` when the pool mutex is
    /// poisoned, the workload itself panics, or any slot is missing or
    /// wrong (a wedged or dead worker); callers must then discard the
    /// engine and build a fresh one. Returns `true` on a healthy engine,
    /// which stays fully usable afterwards.
    pub fn revalidate(&self) -> bool {
        // a mutex poisoned by a panic while spawning/dispatching can
        // never be locked again; the pool is unrecoverable
        if self.pool.lock().is_err() {
            return false;
        }
        // odd and larger than the 256-thread cap would ever claim per
        // worker at once: exercises dynamic claiming across every worker
        const PARTS: usize = 97;
        fn known_answer(i: usize) -> u64 {
            (((i as f64) + 0.5).sin() * 1e9).to_bits()
        }
        // lint:allow(no-alloc-hot): cold re-validation path, runs only after a job panic
        let slots: Vec<AtomicU64> = (0..PARTS).map(|_| AtomicU64::new(u64::MAX)).collect();
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.run(PARTS, &|i| {
                slots[i].store(known_answer(i), Ordering::Relaxed);
            });
        }));
        if run.is_err() {
            return false;
        }
        (0..PARTS).all(|i| slots[i].load(Ordering::Relaxed) == known_answer(i))
    }

    /// Snapshot of all instrumentation counters.
    pub fn stats(&self) -> EngineStats {
        let stage = |s: Stage| {
            let c = &self.stages[s.index()];
            StageStats {
                count: c.count.load(Ordering::Relaxed),
                nanos: c.nanos.load(Ordering::Relaxed),
            }
        };
        EngineStats {
            threads: self.threads,
            spawned_threads: self.spawned_threads.load(Ordering::Relaxed),
            parallel_runs: self.parallel_runs.load(Ordering::Relaxed),
            serial_runs: self.serial_runs.load(Ordering::Relaxed),
            workspace_allocs: self.workspace_allocs.load(Ordering::Relaxed),
            wl_grad: stage(Stage::WlGrad),
            wl_scatter: stage(Stage::WlScatter),
            wl_class_nets: self.wl_class_nets.load(Ordering::Relaxed),
            wl_generic_nets: self.wl_generic_nets.load(Ordering::Relaxed),
            wl_inactive_nets: self.wl_inactive_nets.load(Ordering::Relaxed),
            wl_value: stage(Stage::WlValue),
            density: stage(Stage::Density),
            density_reused: self.density_reused.load(Ordering::Relaxed),
            density_transform: stage(Stage::DensityTransform),
        }
    }

    /// Resets every counter except `spawned_threads` (the pool persists, so
    /// forgetting historical spawns would let a benchmark miss them).
    pub fn reset_stats(&self) {
        self.parallel_runs.store(0, Ordering::Relaxed);
        self.serial_runs.store(0, Ordering::Relaxed);
        self.workspace_allocs.store(0, Ordering::Relaxed);
        self.density_reused.store(0, Ordering::Relaxed);
        self.wl_class_nets.store(0, Ordering::Relaxed);
        self.wl_generic_nets.store(0, Ordering::Relaxed);
        self.wl_inactive_nets.store(0, Ordering::Relaxed);
        for c in &self.stages {
            c.count.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for EvalEngine {
    fn drop(&mut self) {
        if let Ok(mut guard) = self.pool.lock() {
            if let Some(pool) = guard.take() {
                for s in &pool.senders {
                    let _ = s.send(Msg::Exit);
                }
                drop(pool.senders);
                drop(pool.done_tx);
                for w in pool.workers {
                    let _ = w.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn covers_every_part_exactly_once() {
        let engine = EvalEngine::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        engine.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "part {i}");
        }
    }

    #[test]
    fn pool_spawns_once_across_runs() {
        let engine = EvalEngine::new(3);
        for _ in 0..10 {
            engine.run(64, &|_| {});
        }
        let s = engine.stats();
        assert_eq!(s.spawned_threads, 2, "3 threads = caller + 2 workers");
        assert_eq!(s.parallel_runs, 10);
        assert_eq!(s.serial_runs, 0);
    }

    #[test]
    fn serial_engine_never_spawns() {
        let engine = EvalEngine::new(1);
        let sum = AtomicU32::new(0);
        engine.run(100, &|i| {
            sum.fetch_add(i as u32, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        let s = engine.stats();
        assert_eq!(s.spawned_threads, 0);
        assert_eq!(s.serial_runs, 1);
        assert_eq!(s.parallel_runs, 0);
    }

    #[test]
    fn single_part_stays_on_caller() {
        let engine = EvalEngine::new(8);
        engine.run(1, &|_| {});
        let s = engine.stats();
        assert_eq!(s.spawned_threads, 0);
        assert_eq!(s.serial_runs, 1);
    }

    #[test]
    fn worker_panic_propagates_and_engine_survives() {
        let engine = EvalEngine::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // engine remains usable
        let ok = AtomicU32::new(0);
        engine.run(16, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn stage_timing_accumulates() {
        let engine = EvalEngine::new(1);
        let x = engine.time_stage(Stage::WlGrad, || 41 + 1);
        assert_eq!(x, 42);
        engine.time_stage(Stage::WlGrad, || {});
        engine.time_stage(Stage::Density, || {});
        engine.note_density_reuse();
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
        assert_eq!(s.density_reused, 1);
        assert_eq!(s.wl_value.count, 0);
        engine.reset_stats();
        assert_eq!(engine.stats().wl_grad.count, 0);
        assert_eq!(engine.stats().density_reused, 0);
        assert_eq!(engine.stats().wl_class_nets, 0);
        assert_eq!(engine.stats().wl_inactive_nets, 0);
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let t = default_threads();
        assert!((1..=256).contains(&t));
    }

    /// `MEP_THREADS` override, including clamping and fallback on garbage.
    /// Runs all cases in one test (env vars are process-global and the
    /// harness runs tests concurrently; no other test reads the variable).
    #[test]
    fn mep_threads_env_overrides_detection() {
        let detected = default_threads();
        for (val, want) in [("3", Some(3)), ("0", Some(1)), ("9999", Some(256))] {
            std::env::set_var("MEP_THREADS", val);
            assert_eq!(default_threads(), want.unwrap(), "MEP_THREADS={val}");
        }
        std::env::set_var("MEP_THREADS", "not-a-number");
        assert_eq!(default_threads(), detected);
        std::env::set_var("MEP_THREADS", "");
        assert_eq!(default_threads(), detected);
        std::env::remove_var("MEP_THREADS");
        assert_eq!(default_threads(), detected);
    }

    /// The strict parser: accepted shapes clamp, everything else is a
    /// typed rejection (no silent guessing for `0x8`-style garbage).
    #[test]
    fn parse_mep_threads_edge_cases() {
        assert_eq!(parse_mep_threads("8"), Ok(8));
        assert_eq!(parse_mep_threads(" 8 "), Ok(8), "whitespace trimmed");
        assert_eq!(parse_mep_threads("1"), Ok(1));
        assert_eq!(parse_mep_threads("0"), Ok(1), "clamped up");
        assert_eq!(parse_mep_threads("9999"), Ok(256), "clamped down");
        for garbage in [
            "",
            "   ",
            "0x8",
            "eight",
            "-1",
            "+4",
            "3.5",
            "2,000",
            "8 threads",
        ] {
            assert!(
                parse_mep_threads(garbage).is_err(),
                "{garbage:?} must be rejected, not coerced"
            );
        }
    }

    #[test]
    fn revalidate_passes_on_a_healthy_engine() {
        for threads in [1, 4] {
            let engine = EvalEngine::new(threads);
            assert!(engine.revalidate(), "threads = {threads}");
            // revalidation is repeatable and leaves the engine usable
            assert!(engine.revalidate());
            let hits = AtomicUsize::new(0);
            engine.run(8, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8);
        }
    }

    #[test]
    fn revalidate_passes_after_a_caught_worker_panic() {
        let engine = EvalEngine::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run(16, &|i| {
                if i == 3 {
                    panic!("chaos");
                }
            });
        }));
        assert!(result.is_err());
        assert!(
            engine.revalidate(),
            "a re-raised worker panic must not poison the pool"
        );
    }
}
