//! Flow-level telemetry helpers: the `Copy`-able displacement histogram
//! embedded in stage reports, and the writer that puts one pipeline run's
//! metrics into its [`mep_obs::RunReport`].

use crate::objective::EngineStats;
use crate::pipeline::PipelineResult;
use mep_netlist::{Design, Placement};
use mep_obs::report::bucket_of;
use mep_obs::RunReport;

/// Displacement histogram bucket upper bounds, in row-height multiples.
pub const DISP_BOUNDS: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// A fixed-bucket histogram of per-cell displacement, in row heights.
///
/// Kept as a plain `Copy` struct so stage reports stay `Copy`; the
/// pipeline adds it to the run's report afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispHistogram {
    /// Bucket counts: one per [`DISP_BOUNDS`] entry, then overflow.
    pub counts: [u64; DISP_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of the finite observed displacements (row heights).
    pub sum: f64,
}

impl DispHistogram {
    /// Records one displacement of `rows` row heights; a non-finite one
    /// lands in the overflow bucket and stays out of the sum.
    pub fn observe(&mut self, rows: f64) {
        // bucket_of is always in range (counts has one slot past the last
        // bound), but stay provably panic-free: this runs on daemon
        // worker threads where a stray panic would kill the worker
        if let Some(c) = self.counts.get_mut(bucket_of(&DISP_BOUNDS, rows)) {
            *c += 1;
        }
        self.count += 1;
        if rows.is_finite() {
            self.sum += rows;
        }
    }

    /// Mean displacement in row heights (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Builds the histogram of Manhattan displacements between two
    /// placements of the same design, normalized by row height.
    pub fn between(design: &Design, from: &Placement, to: &Placement) -> Self {
        let row_h = design.rows.first().map(|r| r.height).unwrap_or(1.0);
        let mut h = Self::default();
        for cell in design.netlist.movable_cells() {
            let i = cell.index();
            let d = (to.x[i] - from.x[i]).abs() + (to.y[i] - from.y[i]).abs();
            h.observe(d / row_h);
        }
        h
    }

    /// Adds this histogram, bucket counts and observed sum, to `report`
    /// under `name`.
    pub fn export(&self, report: &mut RunReport, name: &str) {
        report.add_bucketed(name, &DISP_BOUNDS, &self.counts, self.sum);
    }
}

/// Builds the end-of-run [`RunReport`] of one pipeline run from its
/// result, the wirelength model's label and detailed placement's
/// displacement histogram. Metric names are stable — they are the
/// JSONL/report schema documented in DESIGN.md §10.
pub(crate) fn build_run_report(
    result: &PipelineResult,
    model: &str,
    dp_disp: &DispHistogram,
) -> RunReport {
    let mut r = RunReport::default();

    r.set_label("flow.model", model);
    r.set_label("flow.termination", &result.termination.to_string());
    r.set_gauge("gp.hpwl", result.gpwl);
    r.set_gauge("lg.hpwl", result.lgwl);
    r.set_gauge("dp.hpwl", result.dpwl);
    r.set_gauge("gp.rt_seconds", result.rt_gp);
    r.set_gauge("lg.rt_seconds", result.rt_lg);
    r.set_gauge("dp.rt_seconds", result.rt_dp);
    r.set_gauge("flow.rt_seconds", result.rt_total());
    r.set_counter("gp.iterations", result.iterations as u64);
    r.set_counter("optim.nesterov.trials", result.trials as u64);
    r.set_gauge("gp.overflow", result.overflow);
    // the ramp start: λ₀, the width its ‖∇W‖₁ was measured at, and the
    // width the first step opened with
    r.set_gauge("gp.lambda0", result.ramp.lambda0);
    r.set_gauge("gp.bootstrap_smoothing", result.ramp.bootstrap_smoothing);
    r.set_gauge("gp.smoothing0", result.ramp.smoothing0);

    export_engine_stats(&mut r, &result.engine_stats);

    // guard events (formerly only on RecoveryLog)
    r.set_counter("guard.recoveries", result.recovery.len() as u64);
    if let Some(event) = result.recovery.events().last() {
        r.set_label("guard.last_event", &event.to_string());
    }

    // legalization
    let lg = &result.legalize;
    r.set_gauge("lg.avg_displacement_rows", lg.disp_hist.mean());
    r.set_gauge("lg.avg_displacement", lg.avg_displacement);
    r.set_gauge("lg.max_displacement", lg.max_displacement);
    r.set_counter("lg.macros", lg.macros as u64);
    lg.disp_hist.export(&mut r, "lg.displacement_rows");

    // detailed placement
    let d = &result.detail;
    r.set_counter("dp.passes", d.passes as u64);
    for (name, accepted, attempted) in [
        ("dp.reorders", d.reorders, d.reorders_attempted),
        ("dp.swaps", d.swaps, d.swaps_attempted),
    ] {
        r.set_counter(&format!("{name}.accepted"), accepted as u64);
        r.set_counter(&format!("{name}.attempted"), attempted as u64);
        let pct = if attempted > 0 {
            100.0 * accepted as f64 / attempted as f64
        } else {
            0.0
        };
        r.observe(
            "dp.acceptance_pct",
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
            pct,
        );
        r.set_gauge(&format!("{name}.acceptance_pct"), pct);
    }
    r.set_gauge("dp.hpwl_gain", d.hpwl_before - d.hpwl_after);
    // the wall of each move class, summed over passes (inside dp.rt_seconds)
    r.set_gauge("dp.reorder_seconds", d.reorder_clock.seconds());
    r.set_gauge("dp.swap_seconds", d.swap_clock.seconds());
    dp_disp.export(&mut r, "dp.displacement_rows");

    r
}

/// Writes a run's evaluation counters into `r` as the `engine.*` metrics
/// (stage counts and seconds, reuses, net routes, workspace builds),
/// replacing any earlier `engine.*` values.
pub(crate) fn export_engine_stats(r: &mut RunReport, e: &EngineStats) {
    for (name, stage) in [
        ("engine.wl_grad", &e.wl_grad),
        ("engine.wl_scatter", &e.wl_scatter),
        ("engine.density", &e.density),
        ("engine.density_transform", &e.density_transform),
    ] {
        r.set_counter(&format!("{name}.count"), stage.count);
        r.set_gauge(&format!("{name}.seconds"), stage.seconds());
    }
    // evaluations that recombined both held terms instead of executing
    // either stage; every other evaluation executes both, so
    // `engine.wl_grad.count` = `engine.density.count`; on a clean run
    // `engine.reused` is one per GP iteration plus one per GP run whose
    // λ0 bootstrap width is its own (DESIGN.md §7)
    r.set_counter("engine.reused", e.reused);
    // which path served the nets of the wirelength gradient stage (class
    // kernel: 2..=`MAX_CLASS_DEGREE` pins under Moreau; per-net path: the
    // rest), and how many it skipped because no pin of theirs can move; with the nets of
    // fewer than two pins they add up to nets x `engine.wl_grad.count`
    r.set_counter("engine.wl.class_nets", e.wl_class_nets);
    r.set_counter("engine.wl.generic_nets", e.wl_generic_nets);
    r.set_counter("engine.wl.inactive_nets", e.wl_inactive_nets);
    r.set_counter("engine.workspace_allocs", e.workspace_allocs);
}

/// FNV-1a over `report`'s JSON with every `*seconds*` key (wall clock)
/// removed: every other metric, name and bit. The report pins hash this.
#[cfg(test)]
pub(crate) fn timeless_fnv(report: &RunReport) -> u64 {
    let Ok(mep_obs::parse::JsonValue::Obj(mut metrics)) =
        mep_obs::parse::parse_json(&report.to_json())
    else {
        panic!("the report is not a JSON object");
    };
    metrics.retain(|name, _| !name.contains("seconds"));
    format!("{metrics:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disp_histogram_buckets_by_row_multiples() {
        let mut h = DispHistogram::default();
        for d in [0.25, 0.5, 0.75, 3.0, 100.0] {
            h.observe(d);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.counts[0], 2, "0.25 and 0.5 land in ≤0.5");
        assert_eq!(h.counts[1], 1, "0.75 lands in ≤1");
        assert_eq!(h.counts[3], 1, "3.0 lands in ≤4");
        assert_eq!(h.counts[DISP_BOUNDS.len()], 1, "100 overflows");
        assert!((h.mean() - (0.25 + 0.5 + 0.75 + 3.0 + 100.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn export_preserves_bucket_counts_and_sum() {
        let mut h = DispHistogram::default();
        h.observe(0.3);
        h.observe(5.0);
        h.observe(1e9);
        let mut r = RunReport::default();
        h.export(&mut r, "t.disp");
        let Some(mep_obs::MetricValue::Histogram {
            counts, count, sum, ..
        }) = r.get("t.disp")
        else {
            panic!("t.disp is not a histogram");
        };
        assert_eq!(*count, 3);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1, "5.0 lands in ≤8");
        assert_eq!(counts[DISP_BOUNDS.len()], 1);
        // the observed sum, not one replayed from the bucket bounds
        assert_eq!(*sum, h.sum);
    }

    /// The displacement histogram and the report bucket alike: a NaN or
    /// infinite displacement overflows and stays out of the sum (it used
    /// to land in the `≤ 0.5` bucket, since `NaN > b` is false).
    #[test]
    fn non_finite_displacements_overflow_like_the_report() {
        let values = [0.25, f64::NAN, f64::INFINITY, 3.0, f64::NEG_INFINITY];
        let mut h = DispHistogram::default();
        let mut r = RunReport::default();
        for v in values {
            h.observe(v);
            r.observe("t.disp", &DISP_BOUNDS, v);
        }
        assert_eq!(h.counts[0], 1, "only 0.25 lands in ≤0.5");
        assert_eq!(h.counts[DISP_BOUNDS.len()], 3);
        assert_eq!((h.count, h.sum), (5, 3.25));
        let mut exported = RunReport::default();
        h.export(&mut exported, "t.disp");
        assert_eq!(exported, r);
    }
}
