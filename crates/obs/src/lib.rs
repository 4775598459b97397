//! Zero-dependency telemetry for the placement flow.
//!
//! Three layers, smallest first:
//!
//! * [`json`] — a hand-rolled JSON writer (the crate has no serde and must
//!   not grow one); [`parse`] — its reading half, a strict RFC 8259
//!   recursive-descent parser shared by the daemon's line protocol and
//!   `mep-lint`'s committed artifacts.
//! * [`metrics`] — a [`Registry`] of named [`Counter`]s, [`Gauge`]s,
//!   [`Label`]s and fixed-bucket [`Histogram`]s. Handles are cheap `Arc`
//!   clones and can be updated lock-free from the hot loop.
//! * [`trace`] — a per-iteration [`TraceSink`] fed one [`IterationRecord`]
//!   per Nesterov step. The default [`NoopSink`] answers
//!   `enabled() == false` so callers can skip building records entirely;
//!   [`JsonlSink`] streams JSON lines to a file; [`RingSink`] keeps the
//!   last N records in memory for tests.
//! * [`report`] — [`RunReport`], an owned end-of-run snapshot of a registry
//!   that renders as JSON or an aligned text table.
//! * [`stage`] — [`StageStats`], the one stage clock: a count and a wall
//!   time owned by value by the stage that does the work.
//!
//! Overhead contract: with the no-op sink the hot loop pays one virtual
//! call returning a constant `false` (branch-predictable, no allocation);
//! metric handles touch a single atomic each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod parse;
pub mod report;
pub mod stage;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Label, MetricValue, Registry};
pub use report::RunReport;
pub use stage::StageStats;
pub use trace::{IterationRecord, JsonlSink, NoopSink, RingSink, TraceSink};
