//! Protocol events streamed back to clients, and the trace adapter that
//! forwards per-iteration records from inside the placement loop.

use crate::job::{JobError, JobSummary};
use mep_obs::json::JsonObject;
use mep_obs::{IterationRecord, TraceSink};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One server→client event. Serialized as a single JSONL line.
#[derive(Debug, Clone)]
pub enum Event {
    /// The job was admitted to the queue.
    Accepted {
        /// Client-chosen job id.
        id: u64,
        /// Queue depth right after admission.
        queue_depth: usize,
    },
    /// The job was refused at admission (backpressure, duplicate id,
    /// drain in progress).
    Rejected {
        /// Client-chosen job id.
        id: u64,
        /// Refusal reason.
        reason: String,
        /// Suggested client backoff before resubmitting, when the
        /// refusal is transient (a full queue); `None` for permanent
        /// refusals (duplicate id, shutdown).
        retry_after_ms: Option<u64>,
    },
    /// One placement iteration (only for jobs submitted with `trace`).
    Iter {
        /// Job id.
        id: u64,
        /// The iteration record, pre-serialized to JSON.
        record_json: String,
    },
    /// The job reached a successful (possibly partial) terminal state.
    Done {
        /// Job id.
        id: u64,
        /// Result summary.
        summary: JobSummary,
    },
    /// The job reached a failed terminal state.
    Failed {
        /// Job id.
        id: u64,
        /// Typed failure.
        error: JobError,
    },
    /// A protocol-level error on the connection (malformed frame, unknown
    /// op). The connection stays open.
    ProtocolError {
        /// What was wrong with the frame.
        reason: String,
    },
    /// Response to a `metrics` request: the server metrics as JSON.
    Metrics {
        /// Metrics snapshot, pre-serialized.
        report_json: String,
    },
    /// Response to a `cancel` request.
    CancelAck {
        /// Job id.
        id: u64,
        /// `"cancelling"` when the job was live, `"already-terminal"` or
        /// `"unknown-id"` otherwise — cancelling a finished job is
        /// benign, not an error.
        status: &'static str,
    },
    /// The server finished draining after a `shutdown` request.
    ShutdownComplete {
        /// Jobs that reached a terminal state during the drain.
        drained: u64,
    },
}

impl Event {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::Accepted { id, queue_depth } => {
                let mut o = JsonObject::new();
                o.field_str("event", "accepted")
                    .field_u64("id", *id)
                    .field_u64("queue_depth", *queue_depth as u64);
                o.finish()
            }
            Event::Rejected {
                id,
                reason,
                retry_after_ms,
            } => {
                let mut o = JsonObject::new();
                o.field_str("event", "rejected")
                    .field_u64("id", *id)
                    .field_str("reason", reason);
                if let Some(ms) = retry_after_ms {
                    o.field_u64("retry_after_ms", *ms);
                }
                o.finish()
            }
            Event::Iter { id, record_json } => {
                let mut o = JsonObject::new();
                o.field_str("event", "iter")
                    .field_u64("id", *id)
                    .field_raw("record", record_json);
                o.finish()
            }
            Event::Done { id, summary } => {
                let mut o = JsonObject::new();
                o.field_str("event", "done")
                    .field_u64("id", *id)
                    .field_str("termination", &summary.termination.to_string())
                    .field_f64("hpwl", summary.hpwl)
                    .field_u64("iterations", summary.iterations as u64)
                    .field_f64("overflow", summary.overflow)
                    .field_u64("violations", summary.violations as u64)
                    .field_str(
                        "placement_hash",
                        &format!("{:016x}", summary.placement_hash),
                    )
                    .field_u64("elapsed_ms", summary.elapsed_ms);
                o.finish()
            }
            Event::Failed { id, error } => {
                let mut o = JsonObject::new();
                o.field_str("event", "failed")
                    .field_u64("id", *id)
                    .field_str("error", error.kind())
                    .field_str("detail", &error.detail());
                o.finish()
            }
            Event::ProtocolError { reason } => {
                let mut o = JsonObject::new();
                o.field_str("event", "error").field_str("reason", reason);
                o.finish()
            }
            Event::Metrics { report_json } => {
                let mut o = JsonObject::new();
                o.field_str("event", "metrics")
                    .field_raw("report", report_json);
                o.finish()
            }
            Event::CancelAck { id, status } => {
                let mut o = JsonObject::new();
                o.field_str("event", "cancel_ack")
                    .field_u64("id", *id)
                    .field_str("status", status);
                o.finish()
            }
            Event::ShutdownComplete { drained } => {
                let mut o = JsonObject::new();
                o.field_str("event", "shutdown_complete")
                    .field_u64("drained", *drained);
                o.finish()
            }
        }
    }
}

/// Where a job's events go. One sink per client connection; workers call
/// it from job threads, so it must be thread-safe. Sinks must never
/// panic on delivery — a disconnected client must not take down the job
/// that is streaming to it.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Delivers one event. Errors are swallowed by implementations (a
    /// dead client is not the daemon's problem).
    fn emit(&self, event: &Event);
}

/// Collects events in memory (tests, the soak harness).
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Mutex<Vec<Event>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything collected so far. Every snapshot is checked
    /// against the per-job event grammar ([`job_grammar`], jobs still
    /// running allowed): a violation fails the reader.
    pub fn events(&self) -> Vec<Event> {
        let events = self.events.lock().map(|g| g.clone()).unwrap_or_default();
        let verdict = job_grammar(&events, false);
        assert!(verdict.is_ok(), "{verdict:?}");
        events
    }
}

/// Checks the per-job event grammar over `events`, every job's events
/// interleaved in delivery order. Per job id: `accepted`, then `iter`
/// events, then exactly one terminal event (`done` or `failed`); or
/// `rejected` alone. A `rejected` refuses one submission, so it may also
/// share the id of an accepted job (a duplicate id, a resubmission after
/// backpressure). With `complete` false a job may still be running, and its
/// terminal event may be missing. Connection-level replies (`metrics`,
/// `cancel_ack`, …) are no job's events.
pub fn job_grammar(events: &[Event], complete: bool) -> Result<(), String> {
    #[derive(PartialEq)]
    enum Job {
        Running,
        Terminal,
    }
    let mut jobs = std::collections::BTreeMap::new();
    for event in events {
        let (id, name) = match event {
            Event::Accepted { id, .. } => (*id, "accepted"),
            Event::Iter { id, .. } => (*id, "iter"),
            Event::Done { id, .. } => (*id, "done"),
            Event::Failed { id, .. } => (*id, "failed"),
            _ => continue,
        };
        match (jobs.get(&id), name) {
            (None, "accepted") => {
                jobs.insert(id, Job::Running);
            }
            (Some(Job::Running), "done" | "failed") => {
                jobs.insert(id, Job::Terminal);
            }
            (Some(Job::Running), "iter") => {}
            (None, _) => return Err(format!("job {id}: `{name}` before `accepted`")),
            (Some(Job::Running), _) => return Err(format!("job {id}: `accepted` twice")),
            (Some(Job::Terminal), _) => {
                return Err(format!("job {id}: `{name}` after its terminal event"))
            }
        }
    }
    match jobs.iter().find(|(_, job)| **job == Job::Running) {
        Some((id, _)) if complete => Err(format!("job {id}: no terminal event")),
        _ => Ok(()),
    }
}

impl EventSink for CollectSink {
    fn emit(&self, event: &Event) {
        if let Ok(mut g) = self.events.lock() {
            g.push(event.clone());
        }
    }
}

/// Writes each event as one JSONL line to a shared writer (the
/// connection's write half), in one `write_all` and a flush. Write errors
/// are swallowed: the job keeps running to its terminal state even if the
/// client went away.
pub struct WriterSink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for WriterSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterSink").finish_non_exhaustive()
    }
}

impl WriterSink {
    /// Wraps a shared writer.
    pub fn new(writer: Arc<Mutex<Box<dyn Write + Send>>>) -> Self {
        Self { writer }
    }
}

impl EventSink for WriterSink {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    }
}

/// Adapts a job's [`EventSink`] into the placement loop's
/// [`TraceSink`], wrapping each [`IterationRecord`] in an
/// [`Event::Iter`] frame tagged with the job id. Also hosts the
/// chaos-mid-solve panic hook: when `panic_after` is set, delivery of
/// that many records ends in a deliberate panic *inside the solve*,
/// which is exactly the hostile condition the isolation layer must
/// survive.
#[derive(Debug)]
pub struct JobTraceSink {
    job_id: u64,
    sink: Arc<dyn EventSink>,
    enabled: bool,
    delivered: std::sync::atomic::AtomicU64,
    panic_after: Option<u64>,
}

impl JobTraceSink {
    /// A sink forwarding records for `job_id`; `enabled == false` keeps
    /// the loop's fast path (records are never built).
    pub fn new(job_id: u64, sink: Arc<dyn EventSink>, enabled: bool) -> Self {
        Self {
            job_id,
            sink,
            enabled,
            delivered: std::sync::atomic::AtomicU64::new(0),
            panic_after: None,
        }
    }

    /// Chaos hook: panic after delivering `n` records.
    pub fn with_panic_after(mut self, n: u64) -> Self {
        self.panic_after = Some(n);
        self.enabled = true;
        self
    }
}

impl TraceSink for JobTraceSink {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&self, rec: &IterationRecord) {
        let n = self
            .delivered
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(limit) = self.panic_after {
            if n >= limit {
                // lint:allow(no-panic-lib): deliberate chaos-injection panic, caught by the per-job isolation boundary
                panic!("chaos: deliberate mid-solve panic after {limit} records");
            }
        }
        self.sink.emit(&Event::Iter {
            id: self.job_id,
            record_json: rec.to_json(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_json;

    #[test]
    fn job_grammar_accepts_each_jobs_sentence_and_names_each_violation() {
        let accepted = |id| Event::Accepted { id, queue_depth: 1 };
        let iter = |id| Event::Iter {
            id,
            record_json: "{}".to_string(),
        };
        let failed = |id| Event::Failed {
            id,
            error: JobError::Panicked {
                detail: String::new(),
            },
        };
        let rejected = |id| Event::Rejected {
            id,
            reason: "queue full".to_string(),
            retry_after_ms: Some(10),
        };
        let metrics = Event::Metrics {
            report_json: "{}".to_string(),
        };
        // interleaved jobs, a resubmission after backpressure, a refusal
        // alone, a connection reply
        let good = [
            rejected(1),
            accepted(1),
            accepted(2),
            iter(1),
            metrics,
            iter(2),
            failed(2),
            rejected(3),
            failed(1),
            rejected(2),
        ];
        assert_eq!(job_grammar(&good, true), Ok(()));
        // a running job is a prefix, not a whole sentence
        assert_eq!(job_grammar(&good[..4], false), Ok(()));
        assert_eq!(
            job_grammar(&good[..4], true),
            Err("job 1: no terminal event".to_string())
        );
        for (bad, why) in [
            (
                vec![failed(4), accepted(4)],
                "job 4: `failed` before `accepted`",
            ),
            (vec![iter(4)], "job 4: `iter` before `accepted`"),
            (vec![accepted(4), accepted(4)], "job 4: `accepted` twice"),
            (
                vec![accepted(4), failed(4), failed(4)],
                "job 4: `failed` after its terminal event",
            ),
            (
                vec![accepted(4), failed(4), iter(4)],
                "job 4: `iter` after its terminal event",
            ),
        ] {
            assert_eq!(job_grammar(&bad, false), Err(why.to_string()));
        }
    }

    #[test]
    fn every_event_serializes_to_valid_json() {
        let events = [
            Event::Accepted {
                id: 1,
                queue_depth: 3,
            },
            Event::Rejected {
                id: 2,
                reason: "queue full".to_string(),
                retry_after_ms: Some(50),
            },
            Event::Iter {
                id: 3,
                record_json: "{\"iter\":0}".to_string(),
            },
            Event::Failed {
                id: 4,
                error: JobError::MemoryBudget {
                    estimated: 10,
                    budget: 5,
                },
            },
            Event::ProtocolError {
                reason: "bad \"frame\"".to_string(),
            },
            Event::Metrics {
                report_json: "{}".to_string(),
            },
            Event::CancelAck {
                id: 5,
                status: "cancelling",
            },
            Event::ShutdownComplete { drained: 9 },
        ];
        for e in &events {
            let line = e.to_json();
            let v = parse_json(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert!(v.get("event").is_some(), "{line}");
        }
    }

    #[test]
    fn done_event_round_trips_the_summary() {
        let e = Event::Done {
            id: 11,
            summary: JobSummary {
                termination: mep_placer::Termination::Cancelled,
                hpwl: 123.5,
                iterations: 42,
                overflow: 0.07,
                violations: 0,
                placement_hash: 0xdead_beef,
                elapsed_ms: 17,
            },
        };
        let v = parse_json(&e.to_json()).unwrap();
        assert_eq!(
            v.get("termination").and_then(|t| t.as_str()),
            Some("cancelled")
        );
        assert_eq!(v.get("iterations").and_then(|i| i.as_u64()), Some(42));
        assert_eq!(
            v.get("placement_hash").and_then(|h| h.as_str()),
            Some("00000000deadbeef")
        );
    }

    #[test]
    fn writer_sink_writes_each_event_in_one_call() {
        // one call per event keeps a line in one TCP segment
        struct CountWrites(Arc<Mutex<Vec<Vec<u8>>>>);
        impl Write for CountWrites {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let writes = Arc::new(Mutex::new(Vec::new()));
        let sink = WriterSink::new(Arc::new(Mutex::new(Box::new(CountWrites(Arc::clone(
            &writes,
        ))))));
        let events = [
            Event::Metrics {
                report_json: "{}".to_string(),
            },
            Event::ShutdownComplete { drained: 3 },
        ];
        for e in &events {
            sink.emit(e);
        }
        let writes = writes.lock().unwrap();
        assert_eq!(writes.len(), events.len(), "one write per event");
        for (w, e) in writes.iter().zip(&events) {
            assert_eq!(*w, format!("{}\n", e.to_json()).into_bytes());
        }
    }

    #[test]
    fn trace_adapter_forwards_and_panics_on_cue() {
        let collect = Arc::new(CollectSink::new());
        // the collector checks the job grammar: iterations follow `accepted`
        collect.emit(&Event::Accepted {
            id: 7,
            queue_depth: 1,
        });
        let sink = JobTraceSink::new(7, collect.clone(), true);
        let rec = IterationRecord {
            iter: 0,
            level: 0,
            stage: None,
            objective: 1.0,
            hpwl: 2.0,
            overflow: 0.5,
            lambda: 1e-4,
            smoothing: 0.9,
            step: 0.1,
            grad_norm: 3.0,
            guard: None,
            elapsed_secs: 0.0,
        };
        sink.record(&rec);
        assert_eq!(collect.events().len(), 2);

        let chaotic = JobTraceSink::new(8, collect, true).with_panic_after(1);
        chaotic.record(&rec); // first record fine
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaotic.record(&rec);
        }));
        assert!(caught.is_err(), "second record must trip the chaos panic");
    }
}
