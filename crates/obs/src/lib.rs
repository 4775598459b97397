//! Zero-dependency telemetry for the placement flow.
//!
//! Its layers, smallest first:
//!
//! * [`json`] — a hand-rolled JSON writer (the crate has no serde and must
//!   not grow one); [`parse`] — its reading half, a strict RFC 8259
//!   recursive-descent parser shared by the daemon's line protocol and
//!   `mep-lint`'s committed artifacts.
//! * [`trace`] — a per-iteration [`TraceSink`] fed one [`IterationRecord`]
//!   per Nesterov step. The default [`NoopSink`] answers
//!   `enabled() == false` so callers can skip building records entirely;
//!   [`JsonlSink`] streams JSON lines to a file; [`RingSink`] keeps the
//!   last N records in memory for tests.
//! * [`report`] — [`RunReport`], the one metric store: named counters,
//!   gauges, labels and fixed-bucket histograms, written in place by the
//!   stage that owns them, rendered as JSON or an aligned text table.
//! * [`stage`] — [`StageStats`], the one stage clock: a count and a wall
//!   time owned by value by the stage that does the work.
//!
//! Overhead contract: with the no-op sink the hot loop pays one virtual
//! call returning a constant `false` (branch-predictable, no allocation);
//! metrics are written once per run, after the loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod parse;
pub mod report;
pub mod stage;
pub mod trace;

pub use report::{MetricValue, RunReport};
pub use stage::StageStats;
pub use trace::{IterationRecord, JsonlSink, NoopSink, RingSink, TraceSink};
