//! The placement server: bounded scheduling, per-job fault isolation,
//! budgets, and graceful drain.
//!
//! # Isolation model
//!
//! One process hosts every job; jobs are *logically* isolated:
//!
//! * every job runs under `catch_unwind` — a panicking job (hostile
//!   input, injected chaos) marks **itself** failed with
//!   [`JobError::Panicked`] and the daemon lives on;
//! * every job builds its own placement state, evaluation counters
//!   included, so nothing a panicking job touched outlives it;
//! * admission control is explicit: a bounded queue refuses work
//!   (reject-with-retry-after), a per-job memory estimate screens
//!   oversized circuits before they allocate, and per-job wall-clock
//!   budgets ride the [`CancelToken`] deadline that the placement loops
//!   poll every iteration;
//! * the chaos harness proves that no per-job residue is left by
//!   replaying a clean job after the storm and comparing placement
//!   fingerprints bitwise.

use crate::events::{Event, EventSink, JobTraceSink};
use crate::job::{
    estimate_bytes, placement_fingerprint, ChaosMode, JobError, JobOutcome, JobRequest, JobSummary,
};
use crate::queue::BoundedQueue;
use mep_obs::report::bucket_of;
use mep_obs::RunReport;
use mep_placer::flow::{run_multilevel, MultilevelConfig};
use mep_placer::pipeline::PipelineConfig;
use mep_placer::CancelToken;
use mep_wirelength::ModelKind;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with retry-after.
    pub queue_capacity: usize,
    /// Per-job memory-estimate budget, bytes.
    pub memory_budget_bytes: u64,
    /// Default per-job wall-clock budget applied when a request carries
    /// none; `None` = unlimited.
    pub default_budget: Option<Duration>,
    /// Hard cap on any job's GP iteration count.
    pub max_iters_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            memory_budget_bytes: 2 << 30,
            default_budget: Some(Duration::from_secs(300)),
            max_iters_cap: 2000,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry after the hinted backoff.
    Backpressure {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// The job id is already known to this server (active or terminal).
    DuplicateId,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
}

impl SubmitError {
    /// Protocol reason string.
    pub fn reason(&self) -> &'static str {
        match self {
            SubmitError::Backpressure { .. } => "queue full",
            SubmitError::DuplicateId => "duplicate job id",
            SubmitError::ShuttingDown => "server shutting down",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Terminal,
}

#[derive(Debug)]
struct JobEntry {
    cancel: CancelToken,
    state: JobState,
}

#[derive(Debug)]
struct QueuedJob {
    id: u64,
    request: JobRequest,
    cancel: CancelToken,
    sink: Arc<dyn EventSink>,
}

#[derive(Debug)]
struct Sched {
    queue: BoundedQueue<QueuedJob>,
    jobs: BTreeMap<u64, JobEntry>,
    terminal: u64,
    /// Jobs claimed by a worker and not yet finished.
    running: usize,
    /// Set once by the drain: `submit` refuses, and each worker exits
    /// when it finds the queue empty and no slot reserved.
    draining: bool,
    metrics: ServeMetrics,
}

/// The daemon's metrics. They live under the `sched` lock and each is
/// updated inside the critical section that decides its event, so a
/// snapshot never shows a count lagging an event a client has read.
/// The queue depth is not stored: a snapshot reads it off the queue.
#[derive(Debug, Clone, Copy, Default)]
struct ServeMetrics {
    accepted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    panicked: u64,
    emit_panics: u64,
    cancel_requests: u64,
    /// The deepest queue (`len + reserved`) any admission saw.
    peak_depth: usize,
    /// Job latencies bucketed by [`bucket_of`] against
    /// [`LATENCY_BUCKETS_MS`] (then overflow), and their sum.
    latency_counts: [u64; LATENCY_BUCKETS_MS.len() + 1],
    latency_sum_ms: f64,
}

impl ServeMetrics {
    /// The metrics as a report, `depth` the current queue depth. Every
    /// name is present, at zero on a fresh server.
    fn report(&self, depth: usize) -> RunReport {
        let mut r = RunReport::default();
        for (name, v) in [
            ("serve.jobs.accepted", self.accepted),
            ("serve.jobs.rejected", self.rejected),
            ("serve.jobs.completed", self.completed),
            ("serve.jobs.failed", self.failed),
            ("serve.jobs.panicked", self.panicked),
            ("serve.jobs.emit_panics", self.emit_panics),
            ("serve.jobs.cancel_requests", self.cancel_requests),
        ] {
            r.set_counter(name, v);
        }
        r.set_gauge("serve.queue.depth", depth as f64);
        r.set_gauge("serve.queue.peak_depth", self.peak_depth as f64);
        r.add_bucketed(
            "serve.job.latency_ms",
            &LATENCY_BUCKETS_MS,
            &self.latency_counts,
            self.latency_sum_ms,
        );
        r
    }

    /// Counts a finished job's outcome and latency.
    fn tally(&mut self, outcome: &JobOutcome, latency_ms: f64) {
        if let Some(c) = self
            .latency_counts
            .get_mut(bucket_of(&LATENCY_BUCKETS_MS, latency_ms))
        {
            *c += 1;
        }
        self.latency_sum_ms += latency_ms;
        match outcome {
            JobOutcome::Done(_) => self.completed += 1,
            JobOutcome::Failed(error) => {
                self.failed += 1;
                if matches!(error, JobError::Panicked { .. }) {
                    self.panicked += 1;
                }
            }
        }
    }
}

#[derive(Debug)]
struct Shared {
    cfg: ServerConfig,
    sched: Mutex<Sched>,
    /// Workers sleep here for new work / the drain.
    work_cv: Condvar,
    /// Wait callers sleep here; notified on every terminal job.
    idle_cv: Condvar,
}

/// Recovers the inner value of a poisoned mutex: scheduler state is only
/// ever mutated in short, panic-free critical sections (job execution
/// happens *outside* the lock, under `catch_unwind`), so the data is
/// consistent even if a poisoned flag ever appears.
fn lock_sched(shared: &Shared) -> MutexGuard<'_, Sched> {
    match shared.sched.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The placement daemon: spawns its worker pool on construction and
/// schedules submitted jobs onto it.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts a server with `cfg.workers` job threads.
    pub fn start(cfg: ServerConfig) -> Self {
        let cfg = ServerConfig {
            workers: cfg.workers.max(1),
            max_iters_cap: cfg.max_iters_cap.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                queue: BoundedQueue::with_capacity(cfg.queue_capacity),
                jobs: BTreeMap::new(),
                terminal: 0,
                running: 0,
                draining: false,
                metrics: ServeMetrics::default(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            cfg,
        });
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for w in 0..shared.cfg.workers {
            let s = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mep-serve-worker-{w}"))
                .spawn(move || worker_loop(&s));
            match handle {
                Ok(h) => workers.push(h),
                // thread exhaustion at startup: run degraded with the
                // workers that did spawn (submit still works; jobs queue)
                Err(e) => eprintln!("mep serve: failed to spawn worker {w}: {e}"),
            }
        }
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job. On success the job is queued (its `accepted` event
    /// has already been emitted to `sink`) and the returned depth is the
    /// queue depth right after admission. All refusals are typed and have
    /// had their `rejected` event emitted.
    pub fn submit(
        &self,
        id: u64,
        request: JobRequest,
        sink: Arc<dyn EventSink>,
    ) -> Result<usize, SubmitError> {
        let shared = &self.shared;
        // admission reserves a queue slot under the lock; the job reaches
        // the workers only after its `accepted` event, so no event of its
        // own can precede that one
        let mut sched = lock_sched(shared);
        let admitted = if sched.draining {
            Err(SubmitError::ShuttingDown)
        } else if sched.jobs.contains_key(&id) {
            Err(SubmitError::DuplicateId)
        } else {
            match sched.queue.try_reserve() {
                Ok(slot) => {
                    let cancel = CancelToken::new();
                    let state = JobState::Queued;
                    sched.jobs.insert(
                        id,
                        JobEntry {
                            cancel: cancel.clone(),
                            state,
                        },
                    );
                    let depth = sched.queue.len() + sched.queue.reserved();
                    sched.metrics.accepted += 1;
                    sched.metrics.peak_depth = sched.metrics.peak_depth.max(depth);
                    Ok((slot, cancel, depth))
                }
                // back off proportionally to how much work one slot
                // represents: a deeper queue drains slower
                Err(full) => Err(SubmitError::Backpressure {
                    retry_after_ms: (25 * full.capacity.max(1) as u64 / shared.cfg.workers as u64)
                        .clamp(10, 1000),
                }),
            }
        };
        if admitted.is_err() {
            sched.metrics.rejected += 1;
        }
        drop(sched);
        match admitted {
            Ok((slot, cancel, depth)) => {
                // a panicking sink loses this notification but must not
                // strand the reserved slot, which the drain waits for
                let accepted = Event::Accepted {
                    id,
                    queue_depth: depth,
                };
                let emit_panicked =
                    catch_unwind(AssertUnwindSafe(|| sink.emit(&accepted))).is_err();
                let job = QueuedJob {
                    id,
                    request,
                    cancel,
                    sink,
                };
                let mut sched = lock_sched(shared);
                sched.metrics.emit_panics += u64::from(emit_panicked);
                sched.queue.publish(slot, job);
                let draining = sched.draining;
                drop(sched);
                // a drain may have found the queue empty and this slot
                // reserved: every waiting worker must look again
                if draining {
                    shared.work_cv.notify_all();
                } else {
                    shared.work_cv.notify_one();
                }
                Ok(depth)
            }
            Err(err) => {
                let retry_after_ms = match err {
                    SubmitError::Backpressure { retry_after_ms } => Some(retry_after_ms),
                    _ => None,
                };
                sink.emit(&Event::Rejected {
                    id,
                    reason: err.reason().to_string(),
                    retry_after_ms,
                });
                Err(err)
            }
        }
    }

    /// Requests cancellation of a job. Cancelling an unknown or finished
    /// job is benign; the returned status says which case was hit.
    pub fn cancel(&self, id: u64) -> &'static str {
        let mut sched = lock_sched(&self.shared);
        let status = match sched.jobs.get(&id) {
            None => "unknown-id",
            Some(entry) => match entry.state {
                JobState::Terminal => "already-terminal",
                JobState::Queued | JobState::Running => {
                    entry.cancel.cancel();
                    "cancelling"
                }
            },
        };
        if status == "cancelling" {
            sched.metrics.cancel_requests += 1;
        }
        status
    }

    /// A snapshot of the server metrics.
    pub fn metrics(&self) -> RunReport {
        let sched = lock_sched(&self.shared);
        let (metrics, depth) = (sched.metrics, sched.queue.len() + sched.queue.reserved());
        drop(sched);
        metrics.report(depth)
    }

    /// The server metrics as a JSON object string.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Blocks until job `id` reaches a terminal state. Returns `false`
    /// if the id is unknown.
    pub fn wait_job(&self, id: u64) -> bool {
        let mut sched = lock_sched(&self.shared);
        loop {
            match sched.jobs.get(&id) {
                None => return false,
                Some(e) if e.state == JobState::Terminal => return true,
                Some(_) => {
                    sched = match self.shared.idle_cv.wait(sched) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
            }
        }
    }

    /// Blocks until no job is queued, reserved or running.
    pub fn wait_idle(&self) {
        let mut sched = lock_sched(&self.shared);
        while !(sched.queue.is_empty() && sched.queue.reserved() == 0 && sched.running == 0) {
            sched = match self.shared.idle_cv.wait(sched) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Graceful drain: stop accepting, let the workers run every queued
    /// job to a terminal state, then join them. Returns the number of jobs
    /// that terminated during the drain.
    pub fn shutdown_and_drain(&self) -> u64 {
        let shared = &self.shared;
        let before = {
            let mut sched = lock_sched(shared);
            sched.draining = true;
            sched.terminal
        };
        shared.work_cv.notify_all();
        // held across the joins, so a second caller returns only once the
        // workers are gone
        let mut workers = match self.workers.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        for h in workers.drain(..) {
            let _ = h.join();
        }
        lock_sched(shared).terminal - before
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // an owner that never drained still gets every queued job run
        self.shutdown_and_drain();
    }
}

/// Replaces the process panic hook with a one-line stderr note (no
/// backtrace). Job panics are an expected, isolated condition in the
/// daemon — the default hook's multi-page backtrace per chaos-injected
/// panic would drown the logs. Call once from a daemon/harness binary;
/// never from library code or tests.
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown".to_string());
        eprintln!(
            "panic isolated at {location}: {}",
            panic_message(info.payload())
        );
    }));
}

/// Latency histogram buckets, milliseconds.
const LATENCY_BUCKETS_MS: [f64; 12] = [
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// The worker thread body. Everything here runs *outside* the per-job
/// `catch_unwind` — a panic escaping this loop silently kills a worker —
/// so `worker_loop`, [`claim_next_job`], and [`finish_job`] are protected
/// roots of the panic-surface lint (`mep-lint`'s `protected_roots`
/// config): nothing they call may reach a panic site except through an
/// explicit `catch_unwind` shield.
fn worker_loop(shared: &Shared) {
    loop {
        let Some(job) = claim_next_job(shared) else {
            return;
        };

        let t0 = Instant::now();
        let outcome = run_one(shared, &job);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        // counted before the terminal event goes out: a client that reads
        // `done` and then asks for `metrics` sees this job in the counts
        lock_sched(shared).metrics.tally(&outcome, latency_ms);

        // the sink is caller-supplied code (the chaos harness makes it
        // panic on purpose): a panicking sink loses this notification but
        // must not take the worker thread down with it
        let emitted = catch_unwind(AssertUnwindSafe(|| match &outcome {
            JobOutcome::Done(summary) => job.sink.emit(&Event::Done {
                id: job.id,
                summary: summary.clone(),
            }),
            JobOutcome::Failed(error) => job.sink.emit(&Event::Failed {
                id: job.id,
                error: error.clone(),
            }),
        }));

        finish_job(shared, job.id, emitted.is_err());
    }
}

/// Claims the next queued job, blocking on the work condvar until work
/// arrives or the drain finds the queue empty (`None`: the worker exits).
/// Protected root: runs on the worker thread outside any `catch_unwind`.
fn claim_next_job(shared: &Shared) -> Option<QueuedJob> {
    let mut sched = lock_sched(shared);
    loop {
        if let Some(job) = sched.queue.pop() {
            if let Some(entry) = sched.jobs.get_mut(&job.id) {
                entry.state = JobState::Running;
            }
            sched.running += 1;
            return Some(job);
        }
        // a reserved slot is a job its submitter is about to publish
        if sched.draining && sched.queue.reserved() == 0 {
            return None;
        }
        sched = match shared.work_cv.wait(sched) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
}

/// Marks job `id` terminal, counting a panic of its terminal event's
/// sink, and wakes drain/wait callers. Protected root: runs on the worker
/// thread outside any `catch_unwind`.
fn finish_job(shared: &Shared, id: u64, emit_panicked: bool) {
    let mut sched = lock_sched(shared);
    if let Some(entry) = sched.jobs.get_mut(&id) {
        entry.state = JobState::Terminal;
    }
    sched.metrics.emit_panics += u64::from(emit_panicked);
    sched.terminal += 1;
    sched.running -= 1;
    drop(sched);
    shared.idle_cv.notify_all();
}

/// Executes one job with full isolation: panics are caught and typed.
fn run_one(shared: &Shared, job: &QueuedJob) -> JobOutcome {
    // cancelled while still queued: terminal immediately, nothing ran
    if let Some(termination) = job.cancel.termination() {
        return JobOutcome::Done(JobSummary {
            termination,
            hpwl: f64::NAN,
            iterations: 0,
            overflow: f64::NAN,
            violations: 0,
            placement_hash: 0,
            elapsed_ms: 0,
        });
    }
    let result = catch_unwind(AssertUnwindSafe(|| execute_job(shared, job)));
    match result {
        Ok(Ok(summary)) => JobOutcome::Done(summary),
        Ok(Err(error)) => JobOutcome::Failed(error),
        Err(payload) => {
            let detail = panic_message(payload.as_ref());
            JobOutcome::Failed(JobError::Panicked { detail })
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn parse_model(name: Option<&str>) -> Result<ModelKind, JobError> {
    let Some(name) = name else {
        return Ok(ModelKind::Moreau);
    };
    ModelKind::from_name(name).ok_or_else(|| JobError::Load {
        detail: format!("unknown wirelength model {name:?}"),
    })
}

/// The job body proper (runs under `catch_unwind`).
fn execute_job(shared: &Shared, job: &QueuedJob) -> Result<JobSummary, JobError> {
    let cfg = &shared.cfg;
    let req = &job.request;
    let t0 = Instant::now();

    // admission screen 1: cost model over the request alone, before any
    // circuit memory exists
    let estimated = req.circuit.estimated_bytes();
    if estimated > cfg.memory_budget_bytes {
        return Err(JobError::MemoryBudget {
            estimated,
            budget: cfg.memory_budget_bytes,
        });
    }

    if let Some(ChaosMode::PanicBefore) = req.chaos {
        // lint:allow(no-panic-lib): deliberate chaos-injection panic, caught by the per-job isolation boundary
        panic!("chaos: deliberate pre-solve panic");
    }

    let circuit = req.circuit.load()?;
    // admission screen 2: re-estimate from the parsed circuit (matters
    // for .aux files, whose size is unknown until parse time)
    let nl = &circuit.design.netlist;
    let estimated = estimate_bytes(nl.num_cells(), nl.num_nets(), nl.num_pins());
    if estimated > cfg.memory_budget_bytes {
        return Err(JobError::MemoryBudget {
            estimated,
            budget: cfg.memory_budget_bytes,
        });
    }

    // the execution budget starts when the job starts running, not when
    // it was submitted: queue time is the server's fault, not the job's
    if let Some(budget) = req.budget.or(cfg.default_budget) {
        job.cancel.arm_deadline_in(budget);
    }

    let model = parse_model(req.model.as_deref())?;
    let max_iters = req
        .max_iters
        .unwrap_or(cfg.max_iters_cap)
        .min(cfg.max_iters_cap);

    let mut pipeline = PipelineConfig::default();
    pipeline.global.model = model;
    pipeline.global.max_iters = max_iters;
    pipeline.global.cancel = job.cancel.clone();
    pipeline.global.fault_injection = req.fault_injection;
    let trace_sink = match req.chaos {
        Some(ChaosMode::PanicMid(n)) => {
            JobTraceSink::new(job.id, Arc::clone(&job.sink), true).with_panic_after(n)
        }
        _ => JobTraceSink::new(job.id, Arc::clone(&job.sink), req.trace),
    };
    pipeline.global.trace = Arc::new(trace_sink);

    let ml = MultilevelConfig {
        levels: req.levels,
        pipeline,
    };
    let result = run_multilevel(&circuit, &ml)
        .map_err(|e| JobError::Placer {
            detail: e.to_string(),
        })?
        .result;

    Ok(JobSummary {
        termination: result.termination,
        hpwl: result.dpwl,
        iterations: result.iterations,
        overflow: result.overflow,
        violations: result.violations,
        placement_hash: placement_fingerprint(&result.placement),
        elapsed_ms: t0.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectSink;
    use crate::job::CircuitSource;
    use mep_placer::Termination;
    use std::sync::mpsc;

    fn tiny_request() -> JobRequest {
        JobRequest {
            circuit: CircuitSource::Builtin("smoke".to_string()),
            model: None,
            max_iters: Some(60),
            levels: 1,
            budget: None,
            trace: false,
            fault_injection: None,
            chaos: None,
        }
    }

    fn test_server(workers: usize, queue: usize) -> Server {
        Server::start(ServerConfig {
            workers,
            queue_capacity: queue,
            ..ServerConfig::default()
        })
    }

    /// A job that fails at load: it goes through every lifecycle step in
    /// microseconds.
    fn unknown_circuit() -> JobRequest {
        JobRequest {
            circuit: CircuitSource::Builtin("nope".to_string()),
            ..tiny_request()
        }
    }

    fn terminal_events(events: &[Event], id: u64) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, Event::Done { id: i, .. } | Event::Failed { id: i, .. } if *i == id))
            .count()
    }

    /// Runs `body` on its own thread and fails if it takes over a minute,
    /// so a lost wakeup (a worker that never returns to `join`) fails the
    /// test instead of hanging the suite.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        let waited = done_rx.recv_timeout(Duration::from_secs(60));
        assert_ne!(waited, Err(mpsc::RecvTimeoutError::Timeout), "hung");
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn start_submit_drain_cycles_never_hang() {
        within_a_minute(|| {
            for id in 0..200 {
                let server = test_server(2, 4);
                let sink = Arc::new(CollectSink::new());
                server.submit(id, unknown_circuit(), sink.clone()).unwrap();
                assert!(server.shutdown_and_drain() <= 1);
                assert_eq!(terminal_events(&sink.events(), id), 1, "cycle {id}");
            }
        });
    }

    #[test]
    fn submits_racing_the_drain_are_refused_or_run_to_one_terminal_event() {
        within_a_minute(|| {
            for round in 0..50 {
                let server = Arc::new(test_server(2, 64));
                let sink = Arc::new(CollectSink::new());
                let (first_tx, first_rx) = mpsc::channel();
                let submitter = {
                    let (server, sink) = (Arc::clone(&server), Arc::clone(&sink));
                    std::thread::spawn(move || {
                        let mut outcomes = Vec::new();
                        for id in 0.. {
                            let outcome = server.submit(id, unknown_circuit(), sink.clone());
                            let _ = first_tx.send(());
                            let closed = outcome == Err(SubmitError::ShuttingDown);
                            outcomes.push((id, outcome));
                            if closed {
                                break;
                            }
                        }
                        outcomes
                    })
                };
                first_rx.recv().unwrap();
                server.shutdown_and_drain();
                let outcomes = submitter.join().unwrap();
                let events = sink.events();
                for (id, outcome) in &outcomes {
                    let expected = match outcome {
                        Ok(_) => 1,
                        Err(SubmitError::ShuttingDown | SubmitError::Backpressure { .. }) => 0,
                        Err(other) => panic!("round {round}, job {id}: unexpected {other:?}"),
                    };
                    assert_eq!(
                        terminal_events(&events, *id),
                        expected,
                        "round {round}, job {id}"
                    );
                }
            }
        });
    }

    /// Two submitters race two workers through 200 bursts. Each snapshot
    /// taken once the server is idle must read an empty queue, and the
    /// peak must cover every depth an `accepted` event reported.
    #[test]
    fn queue_depth_reads_the_queue_and_the_peak_covers_every_admission() {
        within_a_minute(|| {
            let server = Arc::new(test_server(2, 8));
            let sink = Arc::new(CollectSink::new());
            for burst in 0..200u64 {
                let submitters: Vec<_> = (0..2u64)
                    .map(|t| {
                        let (server, sink) = (Arc::clone(&server), Arc::clone(&sink));
                        std::thread::spawn(move || {
                            for k in 0..2 {
                                let id = 4 * burst + 2 * t + k;
                                server.submit(id, unknown_circuit(), sink.clone()).unwrap();
                            }
                        })
                    })
                    .collect();
                for s in submitters {
                    s.join().unwrap();
                }
                server.wait_idle();
                let report = server.metrics();
                assert_eq!(
                    report.gauge("serve.queue.depth"),
                    Some(0.0),
                    "burst {burst}"
                );
                let peak = report.gauge("serve.queue.peak_depth").unwrap();
                let deepest = sink
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        Event::Accepted { queue_depth, .. } => Some(*queue_depth),
                        _ => None,
                    })
                    .max();
                assert!(Some(peak as usize) >= deepest, "burst {burst}: {peak}");
            }
        });
    }

    /// Sleeps inside every `accepted`: a job published to the workers
    /// before that event would send its `failed` first.
    #[derive(Debug, Default)]
    struct SlowAccept(CollectSink);

    impl EventSink for SlowAccept {
        fn emit(&self, event: &Event) {
            if matches!(event, Event::Accepted { .. }) {
                std::thread::sleep(Duration::from_millis(20));
            }
            self.0.emit(event);
        }
    }

    #[test]
    fn accepted_precedes_every_other_event_of_its_job() {
        within_a_minute(|| {
            let server = test_server(2, 8);
            let sink = Arc::new(SlowAccept::default());
            for id in 0..4 {
                server.submit(id, unknown_circuit(), sink.clone()).unwrap();
            }
            // a drain that begins while a slot is reserved still runs it
            let late = {
                let (server, sink) = (Arc::new(server), Arc::clone(&sink));
                let submitter = {
                    let server = Arc::clone(&server);
                    std::thread::spawn(move || server.submit(4, unknown_circuit(), sink))
                };
                std::thread::sleep(Duration::from_millis(5));
                server.shutdown_and_drain();
                submitter.join().unwrap()
            };
            let events = sink.0.events();
            assert_eq!(crate::events::job_grammar(&events, true), Ok(()));
            let refused = late == Err(SubmitError::ShuttingDown);
            assert_eq!(terminal_events(&events, 4), usize::from(!refused));
        });
    }

    #[test]
    fn model_names_are_the_clis_and_unknown_ones_a_typed_load_error() {
        assert_eq!(parse_model(None).unwrap(), ModelKind::Moreau);
        assert_eq!(parse_model(Some("big_chks")).unwrap(), ModelKind::BigChks);
        assert_eq!(parse_model(Some("HPWL")).unwrap(), ModelKind::Hpwl);
        let err = parse_model(Some("big_wa")).unwrap_err();
        assert_eq!(err.kind(), "load");
    }

    #[test]
    fn clean_job_completes_with_typed_summary() {
        let server = test_server(1, 4);
        let sink = Arc::new(CollectSink::new());
        server.submit(1, tiny_request(), sink.clone()).unwrap();
        assert!(server.wait_job(1));
        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(Event::Accepted { id: 1, .. })
        ));
        match events.last() {
            Some(Event::Done { id: 1, summary }) => {
                assert_eq!(summary.violations, 0);
                assert!(summary.hpwl.is_finite());
                assert_ne!(summary.placement_hash, 0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let report = server.metrics();
        assert_eq!(report.counter("serve.jobs.completed"), Some(1));
        assert_eq!(report.counter("serve.jobs.failed"), Some(0));
    }

    #[test]
    fn duplicate_id_and_backpressure_are_typed_rejections() {
        // a server whose single worker is busy with job 1 while the
        // 1-slot queue holds job 2: job 3 must bounce with retry-after
        let server = test_server(1, 1);
        let sink = Arc::new(CollectSink::new());
        server.submit(1, tiny_request(), sink.clone()).unwrap();
        assert_eq!(
            server.submit(1, tiny_request(), sink.clone()).unwrap_err(),
            SubmitError::DuplicateId
        );
        // fill the queue slot, then overflow it; ids stay unique
        let mut backpressured = false;
        for id in 2..200u64 {
            match server.submit(id, tiny_request(), sink.clone()) {
                Ok(_) => {}
                Err(SubmitError::Backpressure { retry_after_ms }) => {
                    assert!(retry_after_ms >= 10);
                    backpressured = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(backpressured, "1-slot queue must reject under load");
        server.wait_idle();
        let report = server.metrics();
        assert!(report.counter("serve.jobs.rejected").unwrap() >= 2);
        assert_eq!(report.gauge("serve.queue.depth"), Some(0.0));
    }

    #[test]
    fn panicking_job_is_isolated_and_server_survives() {
        let server = test_server(1, 8);
        let sink = Arc::new(CollectSink::new());
        let mut chaos = tiny_request();
        chaos.chaos = Some(ChaosMode::PanicBefore);
        server.submit(1, chaos, sink.clone()).unwrap();
        server.submit(2, tiny_request(), sink.clone()).unwrap();
        assert!(server.wait_job(1));
        assert!(server.wait_job(2));
        let events = sink.events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Failed {
                    id: 1,
                    error: JobError::Panicked { .. }
                }
            )),
            "job 1 must fail typed: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Done { id: 2, .. })),
            "job 2 must complete after the panic: {events:?}"
        );
        let report = server.metrics();
        assert_eq!(report.counter("serve.jobs.panicked"), Some(1));
    }

    #[test]
    fn oversized_job_rejected_before_allocation() {
        let server = test_server(1, 4);
        let sink = Arc::new(CollectSink::new());
        let mut huge = tiny_request();
        huge.circuit = CircuitSource::Scaled {
            movable: 50_000_000,
            seed: 1,
        };
        server.submit(1, huge, sink.clone()).unwrap();
        assert!(server.wait_job(1));
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                Event::Failed {
                    id: 1,
                    error: JobError::MemoryBudget { .. }
                }
            )),
            "{:?}",
            sink.events()
        );
    }

    #[test]
    fn cancel_while_queued_and_graceful_drain() {
        let server = test_server(1, 8);
        let sink = Arc::new(CollectSink::new());
        for id in 1..=4 {
            server.submit(id, tiny_request(), sink.clone()).unwrap();
        }
        // job 4 sits at the back of a 1-worker queue: cancel it now
        assert!(matches!(
            server.cancel(4),
            "cancelling" | "already-terminal"
        ));
        assert_eq!(server.cancel(99), "unknown-id");
        let drained = server.shutdown_and_drain();
        assert_eq!(drained, 4, "every submitted job reaches terminal state");
        // post-drain submissions bounce
        assert_eq!(
            server.submit(5, tiny_request(), sink.clone()).unwrap_err(),
            SubmitError::ShuttingDown
        );
        let events = sink.events();
        let done4 = events.iter().find_map(|e| match e {
            Event::Done { id: 4, summary } => Some(summary.clone()),
            Event::Failed { id: 4, error } => panic!("job 4 failed: {error:?}"),
            _ => None,
        });
        let s = done4.expect("job 4 must terminate");
        assert_eq!(s.termination, Termination::Cancelled);
        assert_eq!(server.cancel(4), "already-terminal");
    }
}
