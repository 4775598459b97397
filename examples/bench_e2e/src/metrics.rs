//! The benchmark's declared schema — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! each is expected to move — plus the order statistics every workload
//! reports with. `BENCHMARK.json` at the repository root repeats the
//! names, units, directions and bounds; `--smoke` fails when the two
//! disagree.

use moreau_placer::obs::json::JsonObject;
use std::collections::BTreeMap;

/// One workload: name and the reason it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "nb6_flat",
        "newblue6 stand-in (12.5k cells, 128x128 bins) read from Bookshelf, full GP-LG-DP at 1 thread: density ~55%, wirelength ~36% of the wall",
    ),
    (
        "nb6_flat_t2",
        "same input and config at 2 threads through the fork-join dispatch path, no faster here, as on newblue7; dpwl must equal the 1-thread run bit for bit",
    ),
    (
        "nb6_eco16",
        "16 chained replace_region windows on the placed circuit: wirelength over all nets, density over window cells only",
    ),
    (
        "serve_mix",
        "closed loop, 2 clients against a child mep serve daemon, many short cold jobs: load, parse, queue and wire time show",
    ),
];

/// An end-to-end metric: what a user of the placer sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "flat/t2/eco16: median of 10 x (read_aux + EvalEngine::new) before every repetition; serve: median of 9 x (daemon spawn -> listening -> 2 connects -> first metrics reply)",
    },
    EndToEnd {
        name: "place_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median wall of one repetition: flat/t2 run_with_engine; eco16 the 16-window sequence; serve one client's round of 6 jobs",
    },
    EndToEnd {
        name: "dpwl",
        unit: "hpwl",
        better: "lower",
        bound: 0.01,
        what: "exact HPWL of the final legal placement; eco16: after window 16; serve: sum over the mix's four distinct circuits of done.hpwl",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
        what: "VmHWM of the process that places: the benchmark process after its second repetition for the flows, the daemon after the rounds for serve",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// How it is measured and which end-to-end number it explains.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Sources: *replay* = median ms per call over [`crate::replay::CALLS`]
/// calls on the GP-output placement of the traced run; *report* = read
/// from the traced run's public `GlobalResult`/`EcoResult.report`; *span* =
/// a span the benchmark records around a public call. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    // netlist
    l("netlist.bookshelf.read_aux_ms", "ms", "lower", "span -> setup_s on nb6_flat"),
    l("netlist.synth.generate_ms", "ms", "lower", "span -> place_wall_s on serve_mix via job load"),
    l("netlist.total_hpwl_ms", "ms", "lower", "replay -> trace.overhead_pct only"),
    l("netlist.cells", "count", "lower", "input size"),
    l("netlist.nets", "count", "lower", "input size"),
    l("netlist.pins", "count", "lower", "input size"),
    // wirelength
    l("wirelength.netgrad.evaluate_ms", "ms", "lower", "replay, Moreau -> place_wall_s on nb6_eco16 first, nb6_flat second"),
    l("wirelength.netgrad.ns_per_pin", "ns", "lower", "evaluate_ms per pin"),
    l("wirelength.netgrad.evaluate_wa_ms", "ms", "lower", "replay, WA model: moves nothing end to end, must not worsen when Moreau is tuned"),
    l("wirelength.engine.wl_grad_s", "s", "lower", "report -> place_wall_s"),
    l("wirelength.engine.wl_grad_calls", "count", "lower", "report -> place_wall_s"),
    l("wirelength.engine.parallel_runs", "count", "lower", "report -> place_wall_s on nb6_flat_t2"),
    l("wirelength.engine.serial_runs", "count", "lower", "report -> place_wall_s on nb6_flat"),
    // density
    l("density.grid.raster_ms", "ms", "lower", "replay DensityMap::update_movable -> place_wall_s on nb6_flat/nb6_flat_t2, no move on nb6_eco16"),
    l("density.grid.total_into_ms", "ms", "lower", "replay -> place_wall_s on nb6_flat"),
    l("density.grid.overflow_ms", "ms", "lower", "replay -> place_wall_s on nb6_flat"),
    l("density.poisson.solve_ms", "ms", "lower", "replay PoissonSolver::solve -> place_wall_s on nb6_flat"),
    l("density.electro.update_ms", "ms", "lower", "replay Electrostatics::update (raster + solve + energy) -> place_wall_s on nb6_flat"),
    l("density.electro.gather_ms", "ms", "lower", "replay accumulate_gradient -> place_wall_s on nb6_flat/nb6_flat_t2"),
    l("density.grid.bins", "count", "lower", "grid size"),
    l("density.engine.density_s", "s", "lower", "report -> place_wall_s"),
    l("density.engine.density_calls", "count", "lower", "report -> place_wall_s"),
    l("density.transform.s", "s", "lower", "report: spectral share of density_s"),
    l("density.transform.calls", "count", "lower", "report"),
    // optim + placer.objective
    l("optim.nesterov.iterations", "count", "lower", "report -> place_wall_s on nb6_flat"),
    l("optim.nesterov.evals_per_iter", "1/iter", "lower", "wl_grad_calls / iterations (2.0 today) -> place_wall_s on nb6_flat"),
    l("placer.objective.eval_ms", "ms", "lower", "replay PlacementProblem::eval at the workload's thread count -> place_wall_s"),
    l("placer.objective.project_ms", "ms", "lower", "replay PlacementProblem::project"),
    // placer
    l("placer.global.gp_s", "s", "lower", "span place_with_engine -> place_wall_s"),
    l("placer.legalize.lg_s", "s", "lower", "span legalize -> place_wall_s"),
    l("placer.detail.dp_s", "s", "lower", "span refine -> place_wall_s"),
    l("placer.global.self_s", "s", "lower", "gp_s - wl_grad_s - density_s: optimizer, projection, guard, schedules"),
    l("placer.global.iter_ms_p50", "ms", "lower", "in-memory TraceSink elapsed_secs deltas -> place_wall_s"),
    l("placer.global.iter_ms_p95", "ms", "lower", "same samples"),
    l("placer.pipeline.gpwl", "hpwl", "lower", "report -> dpwl"),
    l("placer.pipeline.lgwl", "hpwl", "lower", "report -> dpwl"),
    l("placer.legalize.audit_ms", "ms", "lower", "span audit_legality"),
    l("placer.legalize.avg_disp_rows", "rows", "lower", "report -> dpwl"),
    l("placer.detail.passes", "count", "lower", "report -> dp_s"),
    l("placer.detail.hpwl_gain_pct", "%", "higher", "report -> dpwl"),
    l("placer.guard.recoveries", "count", "lower", "report, must be 0"),
    l("placer.flow.eco_window_ms_p50", "ms", "lower", "span replace_region -> place_wall_s on nb6_eco16"),
    l("placer.flow.eco_window_ms_max", "ms", "lower", "span replace_region: the slowest window of the traced sequence"),
    l("placer.flow.eco_base_s", "s", "lower", "wall of the base placement nb6_eco16 starts from: one nb6_flat flow, outside place_wall_s"),
    l("placer.flow.eco_replaced_cells", "count", "lower", "report, summed over the 16 windows"),
    l("placer.flow.eco_hpwl_drift_pct", "%", "lower", "HPWL after window 16 vs the base placement -> dpwl on nb6_eco16"),
    l("placer.flow.eco_wl_share_pct", "%", "lower", "report wl_grad_s / sequence wall: above 50 is what makes nb6_eco16 the wirelength workload"),
    l("placer.flow.eco_density_share_pct", "%", "lower", "report density_s / sequence wall: below 20 on nb6_eco16"),
    // serve
    l("serve.server.startup_ms", "ms", "lower", "span spawn -> listening -> setup_s on serve_mix"),
    l("serve.server.elapsed_ms_p50", "ms", "lower", "the done event's own clock -> place_wall_s on serve_mix"),
    l("serve.connection.latency_ms_p50", "ms", "lower", "submit -> done as the client sees it, all jobs of the untraced rounds -> place_wall_s on serve_mix"),
    l("serve.connection.latency_ms_p90", "ms", "lower", "same samples: the tail is the peko_2400 jobs"),
    l("serve.connection.overhead_ms_p50", "ms", "lower", "client latency - elapsed_ms: wire + parse + queue wait -> place_wall_s on serve_mix"),
    l("serve.connection.overhead_ms_p90", "ms", "lower", "same samples"),
    l("serve.queue.rejected", "count", "lower", "daemon registry, expected 0"),
    l("serve.job.smoke_ms_p50", "ms", "lower", "client latency by circuit -> place_wall_s on serve_mix"),
    l("serve.job.peko_600_ms_p50", "ms", "lower", "client latency by circuit"),
    l("serve.job.ispd19_test2_ms_p50", "ms", "lower", "client latency by circuit"),
    l("serve.job.peko_2400_ms_p50", "ms", "lower", "client latency by circuit -> latency_ms_p90"),
    l("serve.job.peko_600_subopt_ratio", "ratio", "lower", "done.hpwl / generate_peko(..).optimal_hpwl -> dpwl on serve_mix"),
    l("serve.job.peko_2400_subopt_ratio", "ratio", "lower", "done.hpwl / known optimum -> dpwl on serve_mix"),
    l("serve.job.load_ms_p50", "ms", "lower", "CircuitSource::load timed from outside, over the mix -> place_wall_s on serve_mix"),
    l("serve.server.metrics_op_ms", "ms", "lower", "metrics request round trip"),
    // process + trace
    l("proc.cpu_s", "s", "lower", "CPU time of the placing process over the traced region"),
    l("proc.cpu_util", "cpu/wall", "higher", "CPU / wall -> place_wall_s on nb6_flat_t2"),
    l("trace.overhead_pct", "%", "lower", "traced wall vs the untraced median of the same invocation"),
    l("trace.coverage_pct", "%", "higher", "child spans / parent span, warn below 95"),
    l("replay.agreement_pct", "%", "lower", "replay ms x report call counts vs wl_grad_s + density_s, warn outside 85-115"),
];

/// Metric values of one run, by declared name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// Median; for an even count the mean of the two middle samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The result line the driver reads: exactly the declared metrics of the
/// requested kind, each with its unit. A metric that failed operations left
/// unmeasured reads 0 next to `"correct": false`.
///
/// # Panics
///
/// Panics when a declared metric is missing although nothing failed — a bug
/// in the workload.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = JsonObject::new();
    for (name, unit) in declared {
        let value = match outcome.values.get(name) {
            Some(v) if v.is_finite() => *v,
            _ if outcome.failed > 0 => 0.0,
            other => panic!("declared metric {name} was not measured: {other:?}"),
        };
        let mut m = JsonObject::new();
        m.field_f64("value", value).field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    let mut o = JsonObject::new();
    o.field_bool("correct", outcome.failed == 0)
        .field_u64("attempted", outcome.attempted.max(1))
        .field_u64("failed", outcome.failed)
        .field_raw("metrics", &metrics.finish());
    o.finish()
}

/// The values a workload starts from: for a traced run every per-layer
/// metric at 0, to be overwritten for the layers the workload runs.
pub fn start_values(trace: bool) -> Values {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
    } else {
        Values::new()
    }
}
