//! Per-iteration tracing: one [`IterationRecord`] per Nesterov step, fed
//! to a [`TraceSink`].
//!
//! The contract with the hot loop: callers check [`TraceSink::enabled`]
//! before building a record, so the disabled path costs one virtual call
//! returning a constant — no record construction, no HPWL recomputation,
//! no allocation.

use crate::json::JsonObject;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Everything the flow knows about one global-placement iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iter: u64,
    /// Multilevel hierarchy level this iteration ran on (0 = the original
    /// finest netlist; higher = coarser cluster levels).
    pub level: u64,
    /// Flow stage that produced the record (`None` for the plain flat
    /// flow; `"coarse"`, `"final"` or `"eco"` for the
    /// multilevel/incremental drivers).
    pub stage: Option<String>,
    /// Smoothed objective `Σ W_e + λ D` at this step, `e` over the nets
    /// with a movable pin.
    pub objective: f64,
    /// Exact half-perimeter wirelength at this step.
    pub hpwl: f64,
    /// Density overflow φ.
    pub overflow: f64,
    /// Density penalty weight λ.
    pub lambda: f64,
    /// Smoothing parameter in effect (γ for LSE/WA, t for Moreau).
    pub smoothing: f64,
    /// Optimizer steplength taken this iteration.
    pub step: f64,
    /// Gradient norm seen by the optimizer this iteration.
    pub grad_norm: f64,
    /// `None` on a healthy step; `Some("fault -> action")` when the
    /// numerical guard intervened.
    pub guard: Option<String>,
    /// Wall-clock seconds since the start of global placement.
    pub elapsed_secs: f64,
}

impl IterationRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("iter", self.iter)
            .field_u64("level", self.level)
            .field_opt_str("stage", self.stage.as_deref())
            .field_f64("objective", self.objective)
            .field_f64("hpwl", self.hpwl)
            .field_f64("overflow", self.overflow)
            .field_f64("lambda", self.lambda)
            .field_f64("smoothing", self.smoothing)
            .field_f64("step", self.step)
            .field_f64("grad_norm", self.grad_norm)
            .field_opt_str("guard", self.guard.as_deref())
            .field_f64("elapsed_secs", self.elapsed_secs);
        o.finish()
    }
}

/// Destination for per-iteration records.
///
/// Implementations must be callable from any thread; the flow calls
/// [`record`](TraceSink::record) once per iteration and
/// [`flush`](TraceSink::flush) once at the end of a run.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Whether records will be kept. The hot loop skips building records
    /// (and the exact-HPWL computation feeding them) when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one iteration record.
    fn record(&self, rec: &IterationRecord);

    /// Flushes buffered output, if any.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The default sink: drops everything, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _rec: &IterationRecord) {}
}

/// Streams records as JSON lines to a file.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, rec: &IterationRecord) {
        // poison recovery: the writer is only touched in these two short
        // critical sections, so its state is consistent either way — and
        // sinks are called from daemon worker threads, where a panic
        // outside the per-job catch_unwind would kill the worker
        let mut w = match self.writer.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        // I/O errors here must not abort a placement run; they surface at
        // the explicit end-of-run flush instead.
        let _ = writeln!(w, "{}", rec.to_json());
    }

    fn flush(&self) -> std::io::Result<()> {
        match self.writer.lock() {
            Ok(mut g) => g.flush(),
            Err(p) => p.into_inner().flush(),
        }
    }
}

/// Keeps the last `cap` records in memory. Intended for tests.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<IterationRecord>>,
}

impl RingSink {
    /// Creates a ring holding at most `cap` records (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be at least 1");
        Self {
            cap,
            buf: Mutex::new(VecDeque::with_capacity(cap)),
        }
    }

    /// The ring buffer, recovering from poison (the buffer is only
    /// mutated in short, panic-free critical sections).
    fn locked_buf(&self) -> std::sync::MutexGuard<'_, VecDeque<IterationRecord>> {
        match self.buf.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.locked_buf().len()
    }

    /// Whether no records have been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the held records, oldest first.
    pub fn records(&self) -> Vec<IterationRecord> {
        self.locked_buf().iter().cloned().collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, rec: &IterationRecord) {
        let mut buf = self.locked_buf();
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(iter: u64) -> IterationRecord {
        IterationRecord {
            iter,
            level: 0,
            stage: None,
            objective: 10.0,
            hpwl: 9.0,
            overflow: 0.5,
            lambda: 1e-4,
            smoothing: 4.0,
            step: 0.1,
            grad_norm: 2.0,
            guard: None,
            elapsed_secs: 0.01,
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(&rec(0));
        assert!(s.flush().is_ok());
    }

    #[test]
    fn ring_sink_keeps_last_cap_records() {
        let s = RingSink::new(2);
        assert!(s.is_empty());
        for i in 0..5 {
            s.record(&rec(i));
        }
        let held: Vec<u64> = s.records().iter().map(|r| r.iter).collect();
        assert_eq!(held, vec![3, 4]);
    }

    #[test]
    fn record_json_has_all_fields_and_null_guard() {
        let json = rec(7).to_json();
        for key in [
            "\"iter\":7",
            "\"level\":0",
            "\"stage\":null",
            "\"objective\":",
            "\"hpwl\":",
            "\"overflow\":",
            "\"lambda\":",
            "\"smoothing\":",
            "\"step\":",
            "\"grad_norm\":",
            "\"guard\":null",
            "\"elapsed_secs\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("mep_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let s = JsonlSink::create(&path).unwrap();
        assert!(s.enabled());
        s.record(&rec(0));
        s.record(&rec(1));
        s.flush().unwrap();
        let text = std::fs::read_to_string(s.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"iter\":0,"));
        assert!(lines[1].starts_with("{\"iter\":1,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
