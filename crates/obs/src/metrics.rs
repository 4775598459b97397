//! Named metrics in a [`Registry`]: counters, gauges, labels, and
//! fixed-bucket histograms.
//!
//! Handles returned by the registry are cheap `Arc` clones; updating them
//! touches one or two atomics and never allocates, so they are safe to use
//! from the placement hot loop. The registry itself is only locked when
//! registering a metric or taking a snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not in any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float metric, stored as `f64` bits in an atomic.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Creates a detached gauge initialized to zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A last-write-wins string metric (model name, termination reason, …).
///
/// Setting a label takes a mutex; it is meant for once-per-run facts, not
/// the hot loop.
#[derive(Debug, Clone, Default)]
pub struct Label(Arc<Mutex<String>>);

impl Label {
    /// Creates a detached empty label.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: &str) {
        match self.0.lock() {
            Ok(mut g) => v.clone_into(&mut g),
            Err(p) => v.clone_into(&mut p.into_inner()),
        }
    }

    /// Current value.
    pub fn get(&self) -> String {
        match self.0.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing. A value
    /// `v` lands in the first bucket with `v <= bound`; values above the
    /// last bound land in the implicit overflow bucket.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Total observation count.
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram.
///
/// Bucket bounds are fixed at registration; observing scans the (small)
/// bound list and bumps one bucket counter — no allocation, no lock.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Creates a detached histogram with the given finite-bucket upper
    /// bounds (must be non-empty and strictly increasing).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.iter().zip(bounds.iter().skip(1)).all(|(a, b)| a < b),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation. Non-finite values are counted in the
    /// overflow bucket and excluded from the sum.
    pub fn observe(&self, v: f64) {
        let inner = &*self.inner;
        let idx = if v.is_finite() {
            // first bucket whose bound covers `v`, or the overflow slot
            inner.bounds.iter().take_while(|&&b| v > b).count()
        } else {
            inner.bounds.len()
        };
        // counts has bounds.len()+1 slots so idx is always in range, but
        // observe runs on daemon worker threads outside catch_unwind —
        // stay provably panic-free rather than rely on the invariant
        if let Some(c) = inner.counts.get(idx) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        inner.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            // CAS loop: contention is negligible (observations come from
            // the flow's single driver thread).
            let _ = inner
                .sum_bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + v).to_bits())
                });
        }
    }

    /// Records a batch bucketed elsewhere against the same bounds: `counts`
    /// per bucket (finite buckets, then overflow) and the batch's `sum`
    /// (excluded when non-finite, as in [`Histogram::observe`]).
    pub fn add_bucketed(&self, counts: &[u64], sum: f64) {
        let inner = &*self.inner;
        for (slot, &n) in inner.counts.iter().zip(counts) {
            slot.fetch_add(n, Ordering::Relaxed);
            inner.count.fetch_add(n, Ordering::Relaxed);
        }
        if sum.is_finite() {
            let _ = inner
                .sum_bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + sum).to_bits())
                });
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of finite observations, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Per-bucket counts (finite buckets in bound order, then overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The finite-bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Label(Label),
    Histogram(Histogram),
}

/// A point-in-time value of one metric, as captured by
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Label value.
    Label(String),
    /// Histogram state.
    Histogram {
        /// Finite-bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (finite buckets, then overflow).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of finite observations.
        sum: f64,
    },
}

/// A named collection of metrics.
///
/// Registration is idempotent: asking twice for the same name returns
/// handles to the same underlying metric. Asking for a name that is
/// already registered as a *different* kind is a programming error, but
/// a recoverable one: the caller gets a detached metric of the kind it
/// asked for (updates work but are invisible to [`Registry::snapshot`])
/// instead of a panic — metrics code runs on daemon worker threads,
/// where a panic outside the per-job `catch_unwind` would kill the
/// worker, so the registry is deliberately panic-free.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric map, recovering from poison: entries are only mutated
    /// under short, panic-free critical sections, so the data is
    /// consistent even if a poisoned flag ever appears.
    fn locked_metrics(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Returns the counter `name`, registering it on first use. On kind
    /// mismatch, returns a detached counter (see the type docs).
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.locked_metrics();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Returns the gauge `name`, registering it on first use. On kind
    /// mismatch, returns a detached gauge (see the type docs).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.locked_metrics();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Returns the label `name`, registering it on first use. On kind
    /// mismatch, returns a detached label (see the type docs).
    pub fn label(&self, name: &str) -> Label {
        let mut m = self.locked_metrics();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Label(Label::new()))
        {
            Metric::Label(l) => l.clone(),
            _ => Label::new(),
        }
    }

    /// Returns the histogram `name`, registering it with `bounds` on first
    /// use. Later calls ignore `bounds` and return the existing histogram.
    /// On kind mismatch, returns a detached histogram (see the type docs).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut m = self.locked_metrics();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(bounds),
        }
    }

    /// Captures every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let m = self.locked_metrics();
        m.iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Label(l) => MetricValue::Label(l.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                };
                (name.clone(), value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("flow.iters");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("flow.iters").get(), 5);

        let g = r.gauge("flow.hpwl");
        g.set(12.5);
        assert_eq!(r.gauge("flow.hpwl").get(), 12.5);

        let l = r.label("flow.model");
        l.set("moreau");
        assert_eq!(r.label("flow.model").get(), "moreau");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 10.0, f64::NAN] {
            h.observe(v);
        }
        // v <= bound: 0.5,1.0 → b0; 1.5 → b1; 3.0 → b2; 10.0,NaN → overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 16.0).abs() < 1e-12);
        assert!((h.mean() - 16.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bucketed_batch_adds_counts_and_its_own_sum() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.add_bucketed(&[1, 0, 2], 21.25);
        assert_eq!(h.bucket_counts(), vec![2, 0, 2]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 21.75);
        h.add_bucketed(&[0, 1, 0], f64::NAN);
        assert_eq!((h.count(), h.sum()), (5, 21.75));
    }

    #[test]
    fn kind_mismatch_yields_detached_metric() {
        let r = Registry::new();
        r.counter("x").add(3);
        // wrong kind for a taken name: the handle works but records
        // nowhere visible; the original registration is untouched
        let g = r.gauge("x");
        g.set(7.5);
        assert_eq!(g.get(), 7.5);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.snapshot()[0].1, MetricValue::Counter(3));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.gauge("b").set(1.0);
        r.counter("a").inc();
        r.histogram("c", &[1.0]).observe(0.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(snap[0].1, MetricValue::Counter(1));
    }
}
