//! Compact chaos test for the daemon: a miniature version of the
//! `serve_soak` storm that runs inside the normal test suite. Hostile
//! jobs (NaN injection, panics, oversized and broken inputs, mid-run
//! cancellation) run concurrently with clean jobs on one server; every
//! job must reach a typed terminal state, the daemon must survive, and a
//! clean job replayed afterwards must be bit-identical to the cold run.

use mep_placer::Termination;
use mep_serve::{
    ChaosMode, CircuitSource, CollectSink, Event, JobError, JobRequest, Server, ServerConfig,
    SubmitError,
};
use std::sync::Arc;
use std::time::Duration;

fn clean(max_iters: usize) -> JobRequest {
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

fn terminal_for(events: &[Event], id: u64) -> Option<Result<mep_serve::JobSummary, JobError>> {
    events.iter().rev().find_map(|e| match e {
        Event::Done { id: eid, summary } if *eid == id => Some(Ok(summary.clone())),
        Event::Failed { id: eid, error } if *eid == id => Some(Err(error.clone())),
        _ => None,
    })
}

#[test]
fn chaos_storm_leaves_the_daemon_deterministic() {
    let server = Server::start(ServerConfig {
        workers: 3,
        queue_capacity: 8,
        memory_budget_bytes: 2 << 30,
        default_budget: Some(Duration::from_secs(60)),
        max_iters_cap: 120,
    });
    let sink = Arc::new(CollectSink::new());

    // cold deterministic reference
    server.submit(1000, clean(50), sink.clone()).unwrap();
    assert!(server.wait_job(1000));
    let cold = match terminal_for(&sink.events(), 1000) {
        Some(Ok(s)) => (s.placement_hash, s.hpwl.to_bits()),
        other => panic!("cold reference must complete: {other:?}"),
    };

    // the storm: ~30 jobs across every hostile class, submitted with
    // retry-on-backpressure against the deliberately small queue
    let mut expectations: Vec<(u64, &str)> = Vec::new();
    for round in 0..5u64 {
        let base = round * 10;
        let mut submit = |id: u64, req: JobRequest, expect: &'static str| {
            loop {
                match server.submit(id, req.clone(), sink.clone()) {
                    Ok(_) => break,
                    Err(SubmitError::Backpressure { retry_after_ms }) => {
                        std::thread::sleep(Duration::from_millis(retry_after_ms.min(10)));
                    }
                    Err(e) => panic!("job {id}: unexpected rejection {e:?}"),
                }
            }
            expectations.push((id, expect));
        };
        submit(base + 1, clean(30), "done");
        let mut transient = clean(60);
        transient.fault_injection = Some((5, 2));
        submit(base + 2, transient, "done");
        let mut persistent = clean(60);
        persistent.fault_injection = Some((5, u64::MAX));
        submit(base + 3, persistent, "guard_exhausted");
        let mut boom = clean(40);
        boom.chaos = Some(ChaosMode::PanicBefore);
        submit(base + 4, boom, "panicked");
        let mut boom_mid = clean(40);
        boom_mid.chaos = Some(ChaosMode::PanicMid(2));
        submit(base + 5, boom_mid, "panicked");
        let mut huge = clean(40);
        huge.circuit = CircuitSource::Scaled {
            movable: 50_000_000,
            seed: 1,
        };
        submit(base + 6, huge, "memory_budget");
        let mut broken = clean(40);
        broken.circuit = CircuitSource::Aux("/no/such/file.aux".to_string());
        submit(base + 7, broken, "load");
        submit(base + 8, clean(120), "done");
        server.cancel(base + 8); // race between queued and running: both fine
    }

    for &(id, _) in &expectations {
        assert!(server.wait_job(id), "job {id} never terminated");
    }
    let events = sink.events();
    for &(id, expect) in &expectations {
        let terminal =
            terminal_for(&events, id).unwrap_or_else(|| panic!("job {id} has no terminal event"));
        match (expect, terminal) {
            ("done", Ok(_)) => {}
            ("guard_exhausted", Ok(s)) => assert_eq!(
                s.termination,
                Termination::GuardExhausted,
                "job {id}: persistent NaN must exhaust the guard"
            ),
            (kind, Err(e)) if e.kind() == kind => {}
            (expect, got) => panic!("job {id}: expected {expect}, got {got:?}"),
        }
    }

    // accounting identities
    let report = server.metrics();
    let accepted = report.counter("serve.jobs.accepted").unwrap();
    let completed = report.counter("serve.jobs.completed").unwrap();
    let failed = report.counter("serve.jobs.failed").unwrap();
    assert_eq!(accepted, expectations.len() as u64 + 1); // +1 cold ref
    assert_eq!(
        completed + failed,
        accepted,
        "every accepted job is terminal"
    );
    assert!(report.counter("serve.jobs.panicked").unwrap() >= 10);
    assert_eq!(report.gauge("serve.queue.depth"), Some(0.0));

    // the decisive check: a clean job after the storm is bit-identical to
    // the cold run — no cross-job state leakage
    server.submit(2000, clean(50), sink.clone()).unwrap();
    assert!(server.wait_job(2000));
    let replay = match terminal_for(&sink.events(), 2000) {
        Some(Ok(s)) => (s.placement_hash, s.hpwl.to_bits()),
        other => panic!("replay must complete: {other:?}"),
    };
    assert_eq!(replay, cold, "post-chaos replay must be bit-identical");

    assert_eq!(server.shutdown_and_drain(), 0, "nothing left to drain");
}
