//! The flat workloads (`nb6_flat`, `nb6_flat_t2`) and the pieces the other
//! workloads share with them: input generation from the seed, the pipeline
//! configuration, and the traced (stage-by-stage) run.

use crate::metrics::{median, percentile, start_values, Outcome, Values};
use crate::spans::Spans;
use crate::{env, replay, Args};
use moreau_placer::netlist::bookshelf::{read_aux, write_dir, BookshelfCircuit};
use moreau_placer::netlist::{synth, total_hpwl};
use moreau_placer::obs::RingSink;
use moreau_placer::placer::detail::refine;
use moreau_placer::placer::global::{place_with_engine, GlobalConfig, GlobalResult};
use moreau_placer::placer::legalize::{audit_legality, legalize};
use moreau_placer::placer::pipeline::{run_with_engine, PipelineConfig};
use moreau_placer::placer::Termination;
use moreau_placer::wirelength::engine::EvalEngine;
use moreau_placer::wirelength::ModelKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Iteration cap of the flat flows; they converge well below it.
const MAX_ITERS: usize = 1000;
/// Set-ups timed before every repetition; the median of all of them is
/// `setup_s`. One takes ~45 ms, the host's noise comes in bursts of about
/// that length and in drifts of tens of seconds, so the samples have to be
/// many and spread over the whole window.
pub const SETUPS_PER_REP: usize = 10;

/// A generated Bookshelf input on disk.
pub struct Input {
    pub aux: PathBuf,
    pub target_density: f64,
    pub generate_ms: f64,
}

/// splitmix64: the benchmark's own generator, so inputs depend on nothing
/// but the seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the workload's circuit and writes it as Bookshelf files.
///
/// The netlist is the catalogue's `newblue6` stand-in (`smoke` under
/// `--smoke`); the seed draws the initial placement of the movable cells
/// (die centre ± 2% of the die side, as the generator does). Final HPWL
/// differs by ~3% between netlists drawn from different generator seeds
/// but by ~0.15% between initial placements of one netlist, so this keeps
/// `dpwl` comparable across seeds at a bound that means something.
pub fn prepare_input(args: &Args) -> Result<Input, String> {
    let spec = if args.smoke {
        synth::smoke_spec()
    } else {
        synth::spec_by_name("newblue6").ok_or("newblue6 left the catalogue")?
    };
    let t = Instant::now();
    let mut circuit = synth::generate(&spec);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let die = circuit.design.die;
    let (centre, jitter) = (die.center(), 0.02 * die.width());
    let mut state = args.seed;
    let mut draw = || (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    for cell in circuit.design.netlist.movable_cells() {
        circuit.placement.x[cell.index()] = centre.x + jitter * draw();
        circuit.placement.y[cell.index()] = centre.y + jitter * draw();
    }

    let dir = crate::out_dir().join(format!("in_{}_{}", args.workload, args.seed));
    write_dir(&dir, &circuit).map_err(|e| format!("write {}: {e}", dir.display()))?;
    Ok(Input {
        aux: dir.join(format!("{}.aux", circuit.design.name)),
        target_density: spec.target_density,
        generate_ms,
    })
}

/// The flow every workload runs: Moreau model, Nesterov, explicit thread
/// count (never `default_threads()`, so `MEP_THREADS` cannot leak in).
pub fn pipeline_config(threads: usize, max_iters: usize) -> PipelineConfig {
    PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Moreau,
            max_iters,
            threads,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One set-up: parse the input, build the engine.
pub fn set_up(
    input: &Input,
    threads: usize,
) -> Result<(BookshelfCircuit, Arc<EvalEngine>), String> {
    let circuit = read_aux(&input.aux, input.target_density)
        .map_err(|e| format!("read {}: {e}", input.aux.display()))?;
    Ok((circuit, Arc::new(EvalEngine::new(threads))))
}

/// Times `n` set-ups and appends their seconds to `samples`.
pub fn time_set_ups(input: &Input, threads: usize, n: usize, samples: &mut Vec<f64>) {
    for _ in 0..n {
        let t = Instant::now();
        if std::hint::black_box(set_up(input, threads)).is_ok() {
            samples.push(t.elapsed().as_secs_f64());
        }
    }
}

/// One untraced repetition through the product entry point. Returns the
/// wall of `run_with_engine` and the final HPWL, or why it failed.
fn repetition(input: &Input, threads: usize) -> Result<(f64, f64), String> {
    let (circuit, engine) = set_up(input, threads)?;
    let config = pipeline_config(threads, MAX_ITERS);
    let t = Instant::now();
    let result = run_with_engine(&circuit, &config, engine).map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    if result.termination != Termination::Converged {
        return Err(format!("termination {}", result.termination));
    }
    let audit = audit_legality(&circuit.design, &result.placement);
    if !audit.is_clean() {
        return Err(format!("illegal placement: {audit}"));
    }
    Ok((wall, result.dpwl))
}

/// Untraced repetitions of one workload run.
/// A repetition fails on an error, a non-converged or illegal result, or a
/// `dpwl` whose bits differ from the first repetition's.
pub struct Reps {
    pub walls: Vec<f64>,
    /// Seconds of each timed set-up ([`SETUPS_PER_REP`] per repetition).
    pub setups: Vec<f64>,
    pub dpwl: f64,
    /// `VmHWM` after the second repetition: the peak of a fixed amount of
    /// work, whatever number of repetitions the window has room for.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Whether a window of `seconds` that began at `start` has room for at
/// least half of one more repetition of the typical length, so that a run
/// takes `seconds` on average; the first two always run.
pub fn window_has_room(start: Instant, seconds: f64, walls: &[f64]) -> bool {
    walls.len() < 2 || start.elapsed().as_secs_f64() + 0.5 * median(walls) <= seconds
}

/// Repeats the flow until the window that began at `start` is used up.
pub fn repeat(input: &Input, threads: usize, start: Instant, seconds: f64) -> Reps {
    let mut reps = Reps {
        walls: Vec::new(),
        setups: Vec::new(),
        dpwl: f64::NAN,
        peak_rss_mb: f64::NAN,
        attempted: 0,
        failed: 0,
    };
    while window_has_room(start, seconds, &reps.walls) {
        time_set_ups(input, threads, SETUPS_PER_REP, &mut reps.setups);
        reps.attempted += 1;
        match repetition(input, threads) {
            Ok((wall, dpwl)) => {
                if reps.dpwl.is_nan() {
                    reps.dpwl = dpwl;
                }
                if dpwl.to_bits() == reps.dpwl.to_bits() {
                    reps.walls.push(wall);
                    if reps.walls.len() == 2 {
                        reps.peak_rss_mb = env::peak_rss_mb(None).unwrap_or(f64::NAN);
                    }
                } else {
                    eprintln!(
                        "repetition {}: dpwl {dpwl} != first {}",
                        reps.attempted, reps.dpwl
                    );
                    reps.failed += 1;
                }
            }
            Err(why) => {
                eprintln!("repetition {} failed: {why}", reps.attempted);
                reps.failed += 1;
            }
        }
        if reps.failed > 2 {
            break; // a broken build should not spin for the whole window
        }
    }
    eprintln!(
        "{} repetition walls (s): {:.3?}",
        reps.walls.len(),
        reps.walls
    );
    reps
}

/// Everything the traced run saw.
pub struct Traced {
    pub circuit: BookshelfCircuit,
    pub gp: GlobalResult,
    pub dpwl: f64,
    /// Wall of the stages `run_with_engine` covers (GP through the final
    /// legality check), comparable to an untraced repetition.
    pub place_wall_s: f64,
}

/// The same program as [`repetition`], stage by stage, each public call
/// wrapped in a span and an in-memory `TraceSink` installed in GP. The
/// caller proves it is the same program by comparing `dpwl` bits.
pub fn traced_flow(
    input: &Input,
    threads: usize,
    spans: &mut Spans,
    run_id: u64,
    layers: &mut Values,
) -> Result<Traced, String> {
    let root = spans.open("flow", None, run_id);
    let (circuit, read_id) = spans.time("netlist.bookshelf.read_aux", Some(root), run_id, || {
        read_aux(&input.aux, input.target_density)
    });
    let circuit = circuit.map_err(|e| e.to_string())?;
    let (engine, _) = spans.time("wirelength.engine.new", Some(root), run_id, || {
        Arc::new(EvalEngine::new(threads))
    });
    let traced = traced_stages(
        circuit, engine, threads, MAX_ITERS, spans, root, run_id, layers,
    )?;
    spans.close(root);
    layers.insert("netlist.bookshelf.read_aux_ms", spans.ms(read_id));
    layers.insert("trace.coverage_pct", spans.coverage_pct(root));
    Ok(traced)
}

/// Milliseconds between consecutive iteration records of GP. `elapsed_secs`
/// restarts with every GP run; the negative deltas at those seams are dropped.
pub fn iteration_ms(sink: &RingSink) -> Vec<f64> {
    sink.records()
        .windows(2)
        .map(|w| (w[1].elapsed_secs - w[0].elapsed_secs) * 1e3)
        .filter(|&d| d > 0.0)
        .collect()
}

/// GP → LG → DP → audit on an already loaded circuit, under `parent`.
#[allow(clippy::too_many_arguments)] // one flat call per traced run; a struct would only rename these
pub fn traced_stages(
    circuit: BookshelfCircuit,
    engine: Arc<EvalEngine>,
    threads: usize,
    max_iters: usize,
    spans: &mut Spans,
    parent: usize,
    run_id: u64,
    layers: &mut Values,
) -> Result<Traced, String> {
    let design = &circuit.design;
    let sink = Arc::new(RingSink::new(max_iters + 1));
    let mut config = pipeline_config(threads, max_iters);
    config.global.trace = sink.clone();

    let (cpu0, t0) = (env::cpu_s(None)?, Instant::now());
    let (gp, gp_id) = spans.time(
        "placer.global.place_with_engine",
        Some(parent),
        run_id,
        || place_with_engine(&circuit, &config.global, engine),
    );
    let gp = gp.map_err(|e| e.to_string())?;
    let (lg, lg_id) = spans.time("placer.legalize.legalize", Some(parent), run_id, || {
        legalize(design, &gp.placement)
    });
    let (legal, lg_report) = lg.map_err(|e| e.to_string())?;
    let (lgwl, _) = spans.time("netlist.total_hpwl", Some(parent), run_id, || {
        total_hpwl(&design.netlist, &legal)
    });
    let mut refined = legal;
    let (dp_report, dp_id) = spans.time("placer.detail.refine", Some(parent), run_id, || {
        refine(design, &mut refined, &config.detail)
    });
    let (dpwl, _) = spans.time("netlist.total_hpwl", Some(parent), run_id, || {
        total_hpwl(&design.netlist, &refined)
    });
    let (audit, audit_id) = spans.time(
        "placer.legalize.audit_legality",
        Some(parent),
        run_id,
        || audit_legality(design, &refined),
    );
    let (place_wall_s, cpu) = (t0.elapsed().as_secs_f64(), env::cpu_s(None)? - cpu0);
    if !audit.is_clean() {
        return Err(format!("traced run is illegal: {audit}"));
    }

    let e = &gp.engine_stats;
    let iters = gp.iterations.max(1) as f64;
    let (gp_s, wl_s, density_s) = (spans.secs(gp_id), e.wl_grad.seconds(), e.density.seconds());
    let iter_ms = iteration_ms(&sink);
    for (name, value) in [
        ("wirelength.engine.wl_grad_s", wl_s),
        ("wirelength.engine.wl_grad_calls", e.wl_grad.count as f64),
        ("wirelength.engine.parallel_runs", e.parallel_runs as f64),
        ("wirelength.engine.serial_runs", e.serial_runs as f64),
        ("density.engine.density_s", density_s),
        ("density.engine.density_calls", e.density.count as f64),
        ("density.transform.s", e.density_transform.seconds()),
        ("density.transform.calls", e.density_transform.count as f64),
        ("optim.nesterov.iterations", gp.iterations as f64),
        (
            "optim.nesterov.evals_per_iter",
            e.wl_grad.count as f64 / iters,
        ),
        ("placer.global.gp_s", gp_s),
        ("placer.legalize.lg_s", spans.secs(lg_id)),
        ("placer.detail.dp_s", spans.secs(dp_id)),
        ("placer.global.self_s", gp_s - wl_s - density_s),
        ("placer.global.iter_ms_p50", median(&iter_ms)),
        ("placer.global.iter_ms_p95", percentile(&iter_ms, 95.0)),
        ("placer.pipeline.gpwl", gp.hpwl),
        ("placer.pipeline.lgwl", lgwl),
        ("placer.legalize.audit_ms", spans.ms(audit_id)),
        ("placer.legalize.avg_disp_rows", lg_report.disp_hist.mean()),
        ("placer.detail.passes", dp_report.passes as f64),
        (
            "placer.detail.hpwl_gain_pct",
            100.0 * (dp_report.hpwl_before - dp_report.hpwl_after) / dp_report.hpwl_before,
        ),
        ("placer.guard.recoveries", gp.recovery.len() as f64),
        ("proc.cpu_s", cpu),
        ("proc.cpu_util", cpu / place_wall_s),
    ] {
        layers.insert(name, value);
    }
    Ok(Traced {
        circuit,
        gp,
        dpwl,
        place_wall_s,
    })
}

/// Replays the layers at three points of the traced GP trajectory: the
/// input placement (density overflow ~1), the same trajectory stopped half
/// way, and the GP output. Per-call cost peaks in between (measured ~1.5x
/// the ends on `nb6_flat`), so the ends alone under-count the flow.
pub fn replay_trajectory(
    args: &Args,
    traced: &Traced,
    threads: usize,
    layers: &mut Values,
) -> Result<(), String> {
    let half = pipeline_config(threads, traced.gp.iterations / 2).global;
    let mid = place_with_engine(&traced.circuit, &half, Arc::new(EvalEngine::new(threads)))
        .map_err(|e| e.to_string())?;
    let points = [
        (&traced.circuit.placement, 1.0),
        (&mid.placement, mid.overflow),
        (&traced.gp.placement, traced.gp.overflow),
    ];
    replay::replay(&traced.circuit.design, &points, threads, layers);
    accounting_warnings(args, layers);
    Ok(())
}

/// Warns when the traced run stopped accounting for the flow (not on the
/// smoke inputs, whose microsecond layers agree with nothing).
pub fn accounting_warnings(args: &Args, layers: &Values) {
    if args.smoke {
        return;
    }
    let workload = &args.workload;
    let coverage = layers["trace.coverage_pct"];
    if coverage < 95.0 {
        eprintln!("warning: {workload}: trace.coverage_pct {coverage:.1} < 95: spans miss part of the flow");
    }
    let agreement = layers["replay.agreement_pct"];
    if !(85.0..=115.0).contains(&agreement) {
        eprintln!(
            "warning: {workload}: replay.agreement_pct {agreement:.1} outside 85-115: \
             the layer replay is not representative of the flow"
        );
    }
}

/// `nb6_flat` (`threads` = 1) and `nb6_flat_t2` (`threads` = 2).
pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let input = prepare_input(args)?;
    let start = Instant::now();
    // same input, 1 thread: the parallel path must not change a bit. It runs
    // first and inside the window, so both flat workloads take the same time.
    let serial = (threads > 1).then(|| repetition(&input, 1));
    let mut reps = repeat(&input, threads, start, args.untraced_seconds());
    let reference = median(&reps.walls);
    if let Some(serial) = serial {
        reps.attempted += 1;
        match serial {
            Ok((_, serial)) if serial.to_bits() == reps.dpwl.to_bits() => {}
            Ok((_, serial)) => {
                eprintln!(
                    "dpwl at {threads} threads {} != at 1 thread {serial}",
                    reps.dpwl
                );
                reps.failed += 1;
            }
            Err(why) => {
                eprintln!("1-thread cross-check failed: {why}");
                reps.failed += 1;
            }
        }
    }

    let mut values = start_values(args.trace);
    if args.trace {
        let mut spans = Spans::new(Instant::now());
        reps.attempted += 1;
        match traced_flow(&input, threads, &mut spans, 0, &mut values) {
            Ok(traced) if traced.dpwl.to_bits() == reps.dpwl.to_bits() => {
                values.insert("netlist.synth.generate_ms", input.generate_ms);
                values.insert(
                    "trace.overhead_pct",
                    100.0 * (traced.place_wall_s / reference - 1.0),
                );
                replay_trajectory(args, &traced, threads, &mut values)?;
            }
            Ok(traced) => {
                eprintln!(
                    "traced dpwl {} != untraced {}: not the same program",
                    traced.dpwl, reps.dpwl
                );
                reps.failed += 1;
            }
            Err(why) => {
                eprintln!("traced run failed: {why}");
                reps.failed += 1;
            }
        }
        spans.save(&args.workload)?;
    } else {
        values.insert("setup_s", median(&reps.setups));
        values.insert("place_wall_s", reference);
        values.insert("dpwl", reps.dpwl);
        values.insert("peak_rss_mb", reps.peak_rss_mb);
    }
    Ok(Outcome {
        values,
        attempted: reps.attempted,
        failed: reps.failed,
    })
}
