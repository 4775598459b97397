//! Benchmark-side spans: one per public call into a layer, kept in memory
//! and written out as JSONL when the traced run ends. Spans inside the
//! crates are ROADMAP item 1 and a later change.

use moreau_placer::obs::json::JsonObject;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one repetition / client share an identifier.
    pub run_id: u64,
}

/// An in-memory span recorder. All recorders of one invocation share
/// `origin`, so spans merged from client threads stay on one clock.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, run_id: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            run_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, run_id);
        let r = f();
        self.close(id);
        (r, id)
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    pub fn ms(&self, id: usize) -> f64 {
        self.secs(id) * 1e3
    }

    /// Durations in ms of every span with this name.
    pub fn all_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.ms(i))
            .collect()
    }

    /// Share of `parent`'s duration its direct children cover, in percent.
    /// The remainder is the parent's self time.
    pub fn coverage_pct(&self, parent: usize) -> f64 {
        let covered: f64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(parent))
            .map(|i| self.secs(i))
            .sum();
        100.0 * covered / self.secs(parent).max(1e-12)
    }

    /// Appends another recorder's spans (a client thread's), re-basing
    /// their parent links.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans to `out/trace_<workload>.jsonl`, one per line.
    pub fn save(&self, workload: &str) -> Result<(), String> {
        let path = crate::out_dir().join(format!("trace_{workload}.jsonl"));
        self.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", id as u64)
                .field_str("name", &s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_raw("parent", "null"),
            };
            o.field_u64("run_id", s.run_id);
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}
