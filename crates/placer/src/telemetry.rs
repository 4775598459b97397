//! Flow-level telemetry helpers: the `Copy`-able displacement histogram
//! embedded in stage reports, and the registry aggregation that turns one
//! pipeline run into an owned [`mep_obs::RunReport`].

use crate::objective::EngineStats;
use crate::pipeline::PipelineResult;
use mep_netlist::{Design, Placement};
use mep_obs::{Registry, RunReport};

/// Displacement histogram bucket upper bounds, in row-height multiples.
pub const DISP_BOUNDS: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// A fixed-bucket histogram of per-cell displacement, in row heights.
///
/// Kept as a plain `Copy` struct (not an [`mep_obs::Histogram`] handle) so
/// stage reports stay `Copy` and stages don't need a registry; the
/// pipeline re-exports it into the run's registry afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispHistogram {
    /// Bucket counts: one per [`DISP_BOUNDS`] entry, then overflow.
    pub counts: [u64; DISP_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of observed displacements (row heights).
    pub sum: f64,
}

impl DispHistogram {
    /// Records one displacement of `rows` row heights.
    pub fn observe(&mut self, rows: f64) {
        // first bucket whose bound covers `rows`, or the overflow slot
        let idx = DISP_BOUNDS.iter().take_while(|&&b| rows > b).count();
        // idx is always in range (counts has one slot past the last
        // bound), but stay provably panic-free: this runs on daemon
        // worker threads where a stray panic would kill the worker
        if let Some(c) = self.counts.get_mut(idx) {
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

    /// Copies this histogram, bucket counts and observed sum, into
    /// `registry` under `name`.
    pub fn export(&self, registry: &Registry, name: &str) {
        registry
            .histogram(name, &DISP_BOUNDS)
            .add_bucketed(&self.counts, self.sum);
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
    let r = Registry::new();

    r.label("flow.model").set(model);
    r.label("flow.termination")
        .set(&result.termination.to_string());
    r.gauge("gp.hpwl").set(result.gpwl);
    r.gauge("lg.hpwl").set(result.lgwl);
    r.gauge("dp.hpwl").set(result.dpwl);
    r.gauge("gp.rt_seconds").set(result.rt_gp);
    r.gauge("lg.rt_seconds").set(result.rt_lg);
    r.gauge("dp.rt_seconds").set(result.rt_dp);
    r.gauge("flow.rt_seconds").set(result.rt_total());
    r.counter("gp.iterations").add(result.iterations as u64);
    r.counter("optim.nesterov.trials").add(result.trials as u64);
    r.gauge("gp.overflow").set(result.overflow);
    // the ramp start: λ₀, the width its ‖∇W‖₁ was measured at, and the
    // width the first step opened with
    r.gauge("gp.lambda0").set(result.ramp.lambda0);
    r.gauge("gp.bootstrap_smoothing")
        .set(result.ramp.bootstrap_smoothing);
    r.gauge("gp.smoothing0").set(result.ramp.smoothing0);
    r.counter("flow.violations").add(result.violations as u64);

    export_engine_stats(&r, &result.engine_stats);

    // guard events (formerly only on RecoveryLog)
    r.counter("guard.recoveries")
        .add(result.recovery.len() as u64);
    if let Some(event) = result.recovery.events().last() {
        r.label("guard.last_event").set(&event.to_string());
    }

    // legalization
    r.gauge("lg.avg_displacement_rows")
        .set(result.legalize.disp_hist.mean());
    r.gauge("lg.avg_displacement")
        .set(result.legalize.avg_displacement);
    r.gauge("lg.max_displacement")
        .set(result.legalize.max_displacement);
    r.counter("lg.macros").add(result.legalize.macros as u64);
    r.counter("lg.spills").add(result.legalize.spills as u64);
    result.legalize.disp_hist.export(&r, "lg.displacement_rows");

    // detailed placement
    let d = &result.detail;
    r.counter("dp.passes").add(d.passes as u64);
    for (name, accepted, attempted) in [
        ("dp.reorders", d.reorders, d.reorders_attempted),
        ("dp.swaps", d.swaps, d.swaps_attempted),
        ("dp.matchings", d.matchings, d.matchings_attempted),
    ] {
        r.counter(&format!("{name}.accepted")).add(accepted as u64);
        r.counter(&format!("{name}.attempted"))
            .add(attempted as u64);
        let pct = if attempted > 0 {
            100.0 * accepted as f64 / attempted as f64
        } else {
            0.0
        };
        r.histogram(
            "dp.acceptance_pct",
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
        )
        .observe(pct);
        r.gauge(&format!("{name}.acceptance_pct")).set(pct);
    }
    r.gauge("dp.hpwl_gain").set(d.hpwl_before - d.hpwl_after);
    // the wall of each move class, summed over passes (inside dp.rt_seconds)
    r.gauge("dp.reorder_seconds").set(d.reorder_seconds);
    r.gauge("dp.swap_seconds").set(d.swap_seconds);
    r.gauge("dp.matching_seconds").set(d.matching_seconds);
    dp_disp.export(&r, "dp.displacement_rows");

    RunReport::from_registry(&r)
}

/// Copies a run's evaluation counters into `r` as the `engine.*` metrics
/// (stage counts and seconds, reuses, net routes, workspace builds).
pub(crate) fn export_engine_stats(r: &Registry, e: &EngineStats) {
    for (name, stage) in [
        ("engine.wl_grad", &e.wl_grad),
        ("engine.wl_scatter", &e.wl_scatter),
        ("engine.density", &e.density),
        ("engine.density_transform", &e.density_transform),
    ] {
        r.counter(&format!("{name}.count")).add(stage.count);
        r.gauge(&format!("{name}.seconds")).set(stage.seconds());
    }
    // evaluations that recombined both held terms instead of executing
    // either stage; every other evaluation executes both, so
    // `engine.wl_grad.count` = `engine.density.count`; on a clean run
    // `engine.reused` is one per GP iteration plus one per GP run whose
    // λ0 bootstrap width is its own (DESIGN.md §7)
    r.counter("engine.reused").add(e.reused);
    // which path served the nets of the wirelength gradient stage (class
    // kernel: 2..=`MAX_CLASS_DEGREE` pins under Moreau; per-net path: the
    // rest), and how many it skipped because no pin of theirs can move; with the nets of
    // fewer than two pins they add up to nets x `engine.wl_grad.count`
    r.counter("engine.wl.class_nets").add(e.wl_class_nets);
    r.counter("engine.wl.generic_nets").add(e.wl_generic_nets);
    r.counter("engine.wl.inactive_nets").add(e.wl_inactive_nets);
    r.counter("engine.workspace_allocs").add(e.workspace_allocs);
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
        let r = Registry::new();
        h.export(&r, "t.disp");
        let exported = r.histogram("t.disp", &DISP_BOUNDS);
        assert_eq!(exported.count(), 3);
        let counts = exported.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1, "5.0 lands in ≤8");
        assert_eq!(counts[DISP_BOUNDS.len()], 1);
        // the observed sum, not one replayed from the bucket bounds
        assert_eq!(exported.sum(), h.sum);
    }
}
