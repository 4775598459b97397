//! Placement-as-a-service: a fault-isolated daemon (`mep serve`) that
//! accepts placement jobs over a JSONL line protocol (stdin/stdout or
//! TCP), schedules them on a bounded worker pool, and streams typed
//! events — including per-iteration traces — back to clients.
//!
//! Robustness is the point, not a feature: jobs are isolated by
//! `catch_unwind` and share no placement state, admission is
//! controlled by a bounded queue (reject-with-retry-after), per-job
//! wall-clock budgets ride the [`mep_placer::CancelToken`] deadline the
//! placement loops poll, and oversized circuits are screened by a memory
//! cost model before they allocate. The chaos harness
//! (`crates/bench/src/bin/serve_soak.rs`) storms a live server with
//! faults, cancellations, panics, and hostile frames, then proves the
//! survivors: zero daemon deaths, every job typed-terminal, and a
//! post-chaos clean job bit-identical to a cold run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connection;
pub mod events;
pub mod job;
pub mod queue;
pub mod server;

pub use connection::{decode_place, serve_connection, serve_stdio, serve_tcp};
pub use events::{job_grammar, CollectSink, Event, EventSink, JobTraceSink, WriterSink};
pub use job::{
    placement_fingerprint, ChaosMode, CircuitSource, JobError, JobOutcome, JobRequest, JobSummary,
};
pub use mep_obs::parse;
pub use mep_obs::parse::{parse_json, JsonValue};
pub use queue::{BoundedQueue, QueueFull, Slot};
pub use server::{install_quiet_panic_hook, Server, ServerConfig, SubmitError};
