//! serve_soak — the chaos/soak harness for the placement daemon.
//!
//! Storms a live [`mep_serve::Server`] with hundreds of concurrent jobs
//! from parallel client threads: clean placements, injected NaN faults
//! (transient and persistent), random cancellations, oversized and
//! degenerate netlists, deliberate in-job panics, and malformed protocol
//! frames — all against a deliberately small queue so backpressure and
//! retry paths are exercised too.
//!
//! Then it proves the survivors:
//!
//! * the daemon never died: every accepted job reached a typed terminal
//!   event, and the accounting identities hold
//!   (`accepted == completed + failed`, queue depth back to 0, latency
//!   histogram count == accepted);
//! * no cross-job state leakage: a clean job replayed after the storm is
//!   **bit-identical** to the same job run on the cold server.
//!
//! A full storm with no failure writes `results/serve_soak_reports.jsonl`
//! (one JSON line per phase). `--fast` runs a reduced storm for CI and
//! writes no file: the committed report is the full storm's. Exits
//! non-zero on any failure.

use mep_obs::json::JsonObject;
use mep_placer::Termination;
use mep_serve::{
    install_quiet_panic_hook, job_grammar, serve_connection, ChaosMode, CircuitSource, CollectSink,
    Event, JobRequest, Server, ServerConfig, SubmitError,
};
use std::io::Cursor;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a storm job must end as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Must reach `done` (any termination).
    Done,
    /// Must reach `done` with `Termination::GuardExhausted` (under a
    /// persistent NaN the third consecutive strike halts).
    DoneGuardExhausted,
    /// Must reach `failed` with this error kind.
    Failed(&'static str),
}

fn clean_request(max_iters: usize) -> JobRequest {
    JobRequest {
        circuit: CircuitSource::Builtin("smoke".to_string()),
        model: None,
        max_iters: Some(max_iters),
        levels: 1,
        budget: None,
        trace: false,
        fault_injection: None,
        chaos: None,
    }
}

/// Submits with retry-on-backpressure (the protocol's documented client
/// behavior). Returns the retry count.
fn submit_with_retry(
    server: &Server,
    id: u64,
    req: JobRequest,
    sink: Arc<CollectSink>,
) -> Result<u64, SubmitError> {
    let mut retries = 0u64;
    loop {
        match server.submit(id, req.clone(), sink.clone()) {
            Ok(_) => return Ok(retries),
            Err(SubmitError::Backpressure { retry_after_ms }) => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
            }
            Err(other) => return Err(other),
        }
    }
}

/// Runs the deterministic reference job and returns
/// `(placement_hash, hpwl_bits)` from its `done` event.
fn run_reference(server: &Server, sink: &Arc<CollectSink>, id: u64) -> Result<(u64, u64), String> {
    server
        .submit(id, clean_request(60), sink.clone())
        .map_err(|e| format!("reference job {id} rejected: {e:?}"))?;
    if !server.wait_job(id) {
        return Err(format!("reference job {id} unknown to the server"));
    }
    for e in sink.events().iter().rev() {
        match e {
            Event::Done { id: eid, summary } if *eid == id => {
                return Ok((summary.placement_hash, summary.hpwl.to_bits()));
            }
            Event::Failed { id: eid, error } if *eid == id => {
                return Err(format!("reference job {id} failed: {error:?}"));
            }
            _ => {}
        }
    }
    Err(format!("reference job {id} has no terminal event"))
}

/// Feeds deliberately hostile frames (truncated JSON, wrong types,
/// unknown ops, depth bombs) through a live connection and checks every
/// response line is still valid JSON.
fn malformed_frame_session(server: &Server) -> Result<(usize, usize), String> {
    let mut depth_bomb = String::new();
    for _ in 0..500 {
        depth_bomb.push('[');
    }
    let hostile = format!(
        concat!(
            "{{\"op\":\"place\"}}\n",
            "{{\"op\":\"place\",\"id\":\"nine\",\"circuit\":\"smoke\"}}\n",
            "{{\"op\":\"place\",\"id\":7,\"circuit\":42}}\n",
            "{{\"op\":\"cancel\"}}\n",
            "{{\"op\":17}}\n",
            "{{\"op\":\"selfdestruct\"}}\n",
            "{{\"op\":\"place\",\"id\":8,\"circuit\":\"smoke\",\"max_iters\":20,\"truncated\":\n",
            "garbage that is not json\n",
            "{}\n",
            "\u{1}\u{2}\n",
            "{{\"op\":\"metrics\"}}\n",
        ),
        depth_bomb
    );
    let buf = Arc::new(Mutex::new(Vec::new()));
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let writer: Arc<Mutex<Box<dyn std::io::Write + Send>>> =
        Arc::new(Mutex::new(Box::new(SharedBuf(Arc::clone(&buf)))));
    let shutdown = serve_connection(server, Cursor::new(hostile), writer);
    if shutdown {
        return Err("hostile session must not trigger shutdown".to_string());
    }
    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).map_err(|e| format!("non-UTF8 response: {e}"))?;
    let mut errors = 0;
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        let v = mep_serve::parse_json(line)
            .map_err(|e| format!("daemon emitted invalid JSON {line:?}: {e}"))?;
        if v.get("event").and_then(mep_serve::JsonValue::as_str) == Some("error") {
            errors += 1;
        }
    }
    Ok((lines, errors))
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let fast = mep_bench::Args::read("serve_soak", &["--fast"]).switch("--fast");
    let client_threads = 8usize;
    let jobs_per_thread = if fast { 8 } else { 30 };
    let mut failures: Vec<String> = Vec::new();
    macro_rules! check {
        ($cond:expr, $($msg:tt)+) => {
            if !$cond {
                failures.push(format!($($msg)+));
            }
        };
    }

    let server = Arc::new(Server::start(ServerConfig {
        workers: 4,
        queue_capacity: 12, // deliberately small: force backpressure
        memory_budget_bytes: 2 << 30,
        default_budget: Some(Duration::from_secs(120)),
        max_iters_cap: 200,
    }));
    let sink = Arc::new(CollectSink::new());

    // ---- phase 0: cold deterministic reference --------------------------
    let cold = match run_reference(&server, &sink, 1_000_000) {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("cold reference: placement_hash {:016x}", cold.0);

    // a syntactically broken .aux for the degenerate-netlist class
    let garbage_dir = std::env::temp_dir().join("mep_serve_soak");
    let _ = std::fs::create_dir_all(&garbage_dir);
    let garbage_aux = garbage_dir.join("truncated.aux");
    let _ = std::fs::write(&garbage_aux, "RowBasedPlacement : trunc.nodes trunc.ne");
    let garbage_aux = garbage_aux.to_string_lossy().to_string();

    // ---- phase 1: the storm --------------------------------------------
    let next_id = Arc::new(AtomicU64::new(1));
    let total_retries = Arc::new(AtomicU64::new(0));
    let jobs: Arc<Mutex<Vec<(u64, Expect)>>> = Arc::new(Mutex::new(Vec::new()));
    let storm_failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let t_storm = std::time::Instant::now();
    let mut handles = Vec::new();
    for t in 0..client_threads {
        let server = Arc::clone(&server);
        let sink = Arc::clone(&sink);
        let next_id = Arc::clone(&next_id);
        let total_retries = Arc::clone(&total_retries);
        let jobs = Arc::clone(&jobs);
        let storm_failures = Arc::clone(&storm_failures);
        let garbage_aux = garbage_aux.clone();
        handles.push(std::thread::spawn(move || {
            for k in 0..jobs_per_thread {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                let class = (t * 31 + k * 7) % 12;
                let (req, expect, cancel_after_ms) = match class {
                    // the bulk: clean jobs of varying length
                    0..=2 => (clean_request(20 + 20 * (k % 3)), Expect::Done, None),
                    // tight wall-clock budget → partial result, still Done
                    3 => {
                        let mut r = clean_request(200);
                        r.budget = Some(Duration::from_millis(1));
                        (r, Expect::Done, None)
                    }
                    // transient NaN fault: the guard recovers
                    4 => {
                        let mut r = clean_request(60);
                        r.fault_injection = Some((5, 2));
                        (r, Expect::Done, None)
                    }
                    // persistent NaN fault: two rollbacks, then the guard halts
                    5 => {
                        let mut r = clean_request(60);
                        r.fault_injection = Some((5, u64::MAX));
                        (r, Expect::DoneGuardExhausted, None)
                    }
                    // random cancellation mid-run (or while queued)
                    6..=7 => (clean_request(200), Expect::Done, Some(1 + (k as u64 % 5))),
                    // oversized: screened out by the memory cost model
                    8 => {
                        let mut r = clean_request(60);
                        r.circuit = CircuitSource::Scaled {
                            movable: 50_000_000,
                            seed: 1,
                        };
                        (r, Expect::Failed("memory_budget"), None)
                    }
                    // degenerate netlists: missing and truncated .aux
                    9 => {
                        let mut r = clean_request(60);
                        r.circuit = CircuitSource::Aux("/no/such/file.aux".to_string());
                        (r, Expect::Failed("load"), None)
                    }
                    10 => {
                        let mut r = clean_request(60);
                        r.circuit = CircuitSource::Aux(garbage_aux.clone());
                        (r, Expect::Failed("load"), None)
                    }
                    // deliberate in-job panics (pre-solve and mid-solve)
                    _ => {
                        let mut r = clean_request(60);
                        r.chaos = Some(if k % 2 == 0 {
                            ChaosMode::PanicBefore
                        } else {
                            ChaosMode::PanicMid(2)
                        });
                        (r, Expect::Failed("panicked"), None)
                    }
                };
                match submit_with_retry(&server, id, req, sink.clone()) {
                    Ok(retries) => {
                        total_retries.fetch_add(retries, Ordering::Relaxed);
                        jobs.lock().unwrap().push((id, expect));
                        if let Some(ms) = cancel_after_ms {
                            std::thread::sleep(Duration::from_millis(ms));
                            server.cancel(id);
                        }
                    }
                    Err(e) => storm_failures
                        .lock()
                        .unwrap()
                        .push(format!("job {id}: unexpected rejection {e:?}")),
                }
            }
        }));
    }
    // hostile protocol frames against the same live server, mid-storm
    let hostile = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || malformed_frame_session(&server))
    };
    for h in handles {
        let _ = h.join();
    }
    let hostile_result = hostile
        .join()
        .unwrap_or_else(|_| Err("panicked".to_string()));
    failures.extend(storm_failures.lock().unwrap().drain(..));

    let jobs = jobs.lock().unwrap().clone();
    for &(id, _) in &jobs {
        check!(
            server.wait_job(id),
            "job {id} never reached a terminal state"
        );
    }
    let storm_secs = t_storm.elapsed().as_secs_f64();

    // ---- verify every job's terminal event matches its class ------------
    let events = sink.events();
    // per job: `accepted`, progress, exactly one terminal; or `rejected`
    if let Err(violation) = job_grammar(&events, true) {
        check!(false, "event grammar: {violation}");
    }
    let mut done = 0u64;
    let mut failed = 0u64;
    for &(id, expect) in &jobs {
        let terminal = events.iter().rev().find_map(|e| match e {
            Event::Done { id: eid, summary } if *eid == id => Some(Ok(summary.clone())),
            Event::Failed { id: eid, error } if *eid == id => Some(Err(error.clone())),
            _ => None,
        });
        match (expect, terminal) {
            (_, None) => check!(false, "job {id} has no terminal event"),
            (Expect::Done, Some(Ok(_))) => done += 1,
            (Expect::DoneGuardExhausted, Some(Ok(s))) => {
                done += 1;
                check!(
                    s.termination == Termination::GuardExhausted,
                    "job {id}: persistent NaN must exhaust the guard, got {}",
                    s.termination
                );
            }
            (Expect::Failed(kind), Some(Err(err))) => {
                failed += 1;
                check!(
                    err.kind() == kind,
                    "job {id}: expected {kind} failure, got {} ({err:?})",
                    err.kind()
                );
            }
            (Expect::Done | Expect::DoneGuardExhausted, Some(Err(err))) => {
                check!(false, "job {id}: expected done, failed with {err:?}")
            }
            (Expect::Failed(kind), Some(Ok(s))) => check!(
                false,
                "job {id}: expected {kind} failure, finished {} in {} iters",
                s.termination,
                s.iterations
            ),
        }
    }
    match hostile_result {
        Ok((lines, errors)) => {
            check!(
                errors >= 8,
                "hostile session: expected ≥8 protocol errors, saw {errors} in {lines} lines"
            );
        }
        Err(e) => check!(false, "hostile session: {e}"),
    }

    // ---- accounting identities -----------------------------------------
    let report = server.metrics();
    let accepted = report.counter("serve.jobs.accepted").unwrap_or(0);
    let completed = report.counter("serve.jobs.completed").unwrap_or(0);
    let failed_ctr = report.counter("serve.jobs.failed").unwrap_or(0);
    let panicked = report.counter("serve.jobs.panicked").unwrap_or(0);
    let rejected = report.counter("serve.jobs.rejected").unwrap_or(0);
    let retries = total_retries.load(Ordering::Relaxed);
    // +1: the cold reference job also went through the books
    check!(
        accepted == jobs.len() as u64 + 1,
        "accepted {accepted} != submitted {}",
        jobs.len() + 1
    );
    check!(
        completed + failed_ctr == accepted,
        "completed {completed} + failed {failed_ctr} != accepted {accepted}"
    );
    check!(
        rejected >= retries,
        "rejected {rejected} < observed backpressure retries {retries}"
    );
    check!(
        panicked >= 1,
        "chaos jobs must register panics, got {panicked}"
    );
    check!(
        report.gauge("serve.queue.depth") == Some(0.0),
        "queue depth must return to 0, got {:?}",
        report.gauge("serve.queue.depth")
    );
    let peak = report.gauge("serve.queue.peak_depth").unwrap_or(-1.0);
    check!(
        (0.0..=12.0).contains(&peak),
        "peak queue depth {peak} outside [0, capacity]"
    );

    // ---- phase 2: post-chaos bit-identical replay -----------------------
    let replay = match run_reference(&server, &sink, 2_000_000) {
        Ok(fp) => fp,
        Err(e) => {
            failures.push(format!("replay: {e}"));
            (0, 0)
        }
    };
    check!(
        replay == cold,
        "cross-job state leak: replay hash {:016x} != cold hash {:016x}",
        replay.0,
        cold.0
    );
    let drained = server.shutdown_and_drain();

    // ---- report ---------------------------------------------------------
    let mut cold_line = JsonObject::new();
    cold_line
        .field_str("phase", "cold")
        .field_str("placement_hash", &format!("{:016x}", cold.0));
    let mut storm_line = JsonObject::new();
    storm_line
        .field_str("phase", "storm")
        .field_bool("fast", fast)
        .field_u64("client_threads", client_threads as u64)
        .field_u64("jobs", jobs.len() as u64)
        .field_u64("done", done)
        .field_u64("failed", failed)
        .field_u64("backpressure_retries", retries)
        .field_f64("storm_secs", storm_secs)
        .field_raw("report", &server.metrics_json());
    let mut replay_line = JsonObject::new();
    replay_line
        .field_str("phase", "replay")
        .field_str("placement_hash", &format!("{:016x}", replay.0))
        .field_bool("bit_identical", replay == cold)
        .field_u64("drained_at_shutdown", drained)
        .field_u64("failures", failures.len() as u64);
    let mut out = mep_bench::Artifacts::default();
    let lines = [cold_line, storm_line, replay_line].map(JsonObject::finish);
    out.jsonl("results/serve_soak_reports.jsonl", lines);
    if let Err(e) = out.commit(!fast && failures.is_empty()) {
        failures.push(e);
    }

    println!(
        "storm: {} jobs ({} done / {} failed) in {:.1}s, {} backpressure retries, \
         {} panics isolated",
        jobs.len(),
        done,
        failed,
        storm_secs,
        retries,
        panicked
    );
    if failures.is_empty() {
        println!("serve_soak: PASS (replay bit-identical to cold run)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("serve_soak: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}
