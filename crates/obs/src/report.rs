//! [`RunReport`]: the one metric store.
//!
//! Every stage driver writes its metrics straight into a report: the
//! pipeline builds one per run, and the drivers that wrap a run (the
//! multilevel and ECO flows, the bench harnesses) set their own names on
//! the report they are handed. Setting a name twice keeps the last write,
//! so a driver overwrites an inner run's value by setting it again. The
//! report renders as JSON (the JSONL/report schema of DESIGN.md §10) or as
//! an aligned text table.

use crate::json::{push_f64, JsonObject};

/// The value of one named metric.
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

/// The bucket `v` falls in against the finite-bucket upper bounds
/// `bounds`: the first bucket with `v <= bound`, else the overflow bucket
/// `bounds.len()`. Non-finite values (NaN included) overflow. Every
/// histogram of the workspace buckets through this one rule.
pub fn bucket_of(bounds: &[f64], v: f64) -> usize {
    if v.is_finite() {
        bounds.iter().take_while(|&&b| v > b).count()
    } else {
        bounds.len()
    }
}

/// Named metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    metrics: Vec<(String, MetricValue)>,
}

impl RunReport {
    /// All metrics, sorted by name.
    pub fn metrics(&self) -> &[(String, MetricValue)] {
        &self.metrics
    }

    /// The slot of `name`, inserted as a zero counter when absent; the
    /// vector stays sorted by name.
    fn slot(&mut self, name: &str) -> Option<&mut MetricValue> {
        let i = self
            .metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .unwrap_or_else(|i| {
                self.metrics
                    .insert(i, (name.to_string(), MetricValue::Counter(0)));
                i
            });
        self.metrics.get_mut(i).map(|(_, v)| v)
    }

    fn put(&mut self, name: &str, value: MetricValue) {
        if let Some(slot) = self.slot(name) {
            *slot = value;
        }
    }

    /// Sets the counter `name` to `v`, replacing any earlier value.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.put(name, MetricValue::Counter(v));
    }

    /// Sets the gauge `name` to `v`, replacing any earlier value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.put(name, MetricValue::Gauge(v));
    }

    /// Sets the label `name` to `v`, replacing any earlier value.
    pub fn set_label(&mut self, name: &str, v: &str) {
        self.put(name, MetricValue::Label(v.to_string()));
    }

    /// Adds a batch bucketed by [`bucket_of`] against `bounds` to the
    /// histogram `name`: `counts` per bucket (finite buckets, then
    /// overflow) and the batch's `sum`, left out when non-finite. A name
    /// that holds anything but a histogram over `bounds` starts again
    /// from an empty one.
    pub fn add_bucketed(&mut self, name: &str, bounds: &[f64], counts: &[u64], sum: f64) {
        let Some(slot) = self.slot(name) else {
            return;
        };
        if !matches!(slot, MetricValue::Histogram { bounds: b, .. } if b.as_slice() == bounds) {
            *slot = MetricValue::Histogram {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                count: 0,
                sum: 0.0,
            };
        }
        if let MetricValue::Histogram {
            counts: have,
            count,
            sum: total,
            ..
        } = slot
        {
            for (h, &n) in have.iter_mut().zip(counts) {
                *h += n;
                *count += n;
            }
            if sum.is_finite() {
                *total += sum;
            }
        }
    }

    /// Records one observation `v` in the histogram `name` (a batch of
    /// one for [`RunReport::add_bucketed`]).
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        let mut one = vec![0; bounds.len() + 1];
        if let Some(c) = one.get_mut(bucket_of(bounds, v)) {
            *c = 1;
        }
        self.add_bucketed(name, bounds, &one, v);
    }

    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .and_then(|i| self.metrics.get(i))
            .map(|(_, v)| v)
    }

    /// Counter value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Label value, if `name` is a label.
    pub fn label(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            MetricValue::Label(v) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Renders the report as one JSON object keyed by metric name.
    ///
    /// Counters become integers, gauges floats (non-finite → `null`),
    /// labels strings, histograms objects with `bounds`/`counts`/`count`/
    /// `sum`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    o.field_u64(name, *v);
                }
                MetricValue::Gauge(v) => {
                    o.field_f64(name, *v);
                }
                MetricValue::Label(v) => {
                    o.field_str(name, v);
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let mut h = JsonObject::new();
                    h.field_f64_array("bounds", bounds)
                        .field_u64_array("counts", counts)
                        .field_u64("count", *count)
                        .field_f64("sum", *sum);
                    o.field_raw(name, &h.finish());
                }
            }
        }
        o.finish()
    }

    /// Renders the report as an aligned two-column text table.
    pub fn summary_table(&self) -> String {
        let width = self.metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("{name:<width$}  "));
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => push_f64(&mut out, *v),
                MetricValue::Label(v) => out.push_str(v),
                MetricValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
                    out.push_str(&format!("n={count} mean={mean:.4} ["));
                    // with no finite bucket, the overflow bucket holds all
                    let last = bounds.last().copied().unwrap_or(f64::NEG_INFINITY);
                    for (i, c) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        match bounds.get(i) {
                            Some(b) => out.push_str(&format!("≤{b}:{c}")),
                            None => out.push_str(&format!(">{last}:{c}")),
                        }
                    }
                    out.push(']');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::default();
        r.set_counter("gp.iterations", 42);
        r.set_gauge("gp.hpwl", 123.5);
        r.set_label("flow.termination", "converged");
        r.observe("lg.displacement", &[1.0, 2.0], 0.5);
        r.observe("lg.displacement", &[1.0, 2.0], 5.0);
        r
    }

    #[test]
    fn lookup_by_name_and_kind() {
        let rep = sample();
        assert_eq!(rep.counter("gp.iterations"), Some(42));
        assert_eq!(rep.gauge("gp.hpwl"), Some(123.5));
        assert_eq!(rep.label("flow.termination"), Some("converged"));
        assert_eq!(rep.counter("gp.hpwl"), None, "kind mismatch is None");
        assert_eq!(rep.gauge("missing"), None);
        assert!(matches!(
            rep.get("lg.displacement"),
            Some(MetricValue::Histogram { count: 2, .. })
        ));
    }

    #[test]
    fn last_write_wins_and_lookup_stays_sorted() {
        let mut rep = sample();
        rep.set_counter("ml.levels", 2);
        rep.set_gauge("gp.hpwl", 99.0);
        // a later write of another kind replaces the name's value too
        rep.set_gauge("gp.iterations", 7.5);
        assert_eq!(rep.counter("ml.levels"), Some(2));
        assert_eq!(rep.gauge("gp.hpwl"), Some(99.0));
        assert_eq!(rep.gauge("gp.iterations"), Some(7.5));
        assert_eq!(rep.label("flow.termination"), Some("converged"));
        let names: Vec<&str> = rep.metrics().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "flow.termination",
                "gp.hpwl",
                "gp.iterations",
                "lg.displacement",
                "ml.levels"
            ]
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut r = RunReport::default();
        for v in [0.5, 1.0, 1.5, 3.0, 10.0, f64::NAN, f64::NEG_INFINITY] {
            r.observe("h", &[1.0, 2.0, 4.0], v);
        }
        // v <= bound: 0.5,1.0 → b0; 1.5 → b1; 3.0 → b2; 10, NaN, -inf → overflow
        assert_eq!(
            r.get("h"),
            Some(&MetricValue::Histogram {
                bounds: vec![1.0, 2.0, 4.0],
                counts: vec![2, 1, 1, 3],
                count: 7,
                sum: 16.0,
            })
        );
    }

    #[test]
    fn bucketed_batch_adds_counts_and_its_own_sum() {
        let mut r = RunReport::default();
        r.observe("h", &[1.0, 2.0], 0.5);
        r.add_bucketed("h", &[1.0, 2.0], &[1, 0, 2], 21.25);
        r.add_bucketed("h", &[1.0, 2.0], &[0, 1, 0], f64::NAN);
        let Some(MetricValue::Histogram {
            counts, count, sum, ..
        }) = r.get("h")
        else {
            panic!("not a histogram");
        };
        assert_eq!(
            (counts.as_slice(), *count, *sum),
            (&[2, 1, 2][..], 5, 21.75)
        );
        // other bounds start the name again from an empty histogram
        r.add_bucketed("h", &[3.0], &[0, 4], 40.0);
        assert!(matches!(
            r.get("h"),
            Some(MetricValue::Histogram { count: 4, sum, .. }) if *sum == 40.0
        ));
    }

    #[test]
    fn json_round_trips_every_kind() {
        let json = sample().to_json();
        assert!(json.contains("\"gp.iterations\":42"));
        assert!(json.contains("\"gp.hpwl\":123.5"));
        assert!(json.contains("\"flow.termination\":\"converged\""));
        assert!(json.contains("\"lg.displacement\":{\"bounds\":[1,2],\"counts\":[1,0,1]"));
    }

    #[test]
    fn summary_table_lists_every_metric() {
        let rep = sample();
        let table = rep.summary_table();
        for name in [
            "gp.iterations",
            "gp.hpwl",
            "flow.termination",
            "lg.displacement",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        assert!(table.contains("n=2"));
        assert!(table.contains("[≤1:1 ≤2:0 >2:1]"), "{table}");
    }

    #[test]
    fn summary_table_renders_a_histogram_without_finite_buckets() {
        let mut rep = RunReport::default();
        rep.observe("h", &[], 3.0);
        rep.observe("h", &[], f64::NAN);
        assert!(rep.summary_table().contains("n=2 mean=1.5000 [>-inf:2]"));
    }
}
