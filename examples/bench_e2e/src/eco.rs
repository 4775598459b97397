//! `nb6_eco16`: the placed circuit is re-placed window by window with 16
//! chained `replace_region` calls over a 4×4 tiling of the die. Wirelength
//! is evaluated over the whole netlist, density only over the window's
//! cells, so this is the workload a wirelength-kernel gain moves most and a
//! density gain should not move at all.

use crate::flow::{self, pipeline_config};
use crate::metrics::{median, percentile, start_values, Outcome};
use crate::spans::Spans;
use crate::{env, replay, Args};
use moreau_placer::netlist::bookshelf::BookshelfCircuit;
use moreau_placer::netlist::{total_hpwl, Placement, Rect};
use moreau_placer::obs::{RingSink, RunReport};
use moreau_placer::placer::flow::{replace_region, EcoConfig};
use moreau_placer::placer::legalize::audit_legality;
use moreau_placer::placer::pipeline::run_with_engine;
use moreau_placer::placer::Termination;
use std::sync::Arc;
use std::time::Instant;

const TILES: usize = 4;
/// Iteration cap of one warm window run.
const WINDOW_ITERS: usize = 30;
/// Iteration cap of the base placement.
const BASE_ITERS: usize = 1000;

fn windows(die: Rect) -> Vec<Rect> {
    let (w, h) = (die.width() / TILES as f64, die.height() / TILES as f64);
    (0..TILES * TILES)
        .map(|k| {
            let (ix, iy) = ((k % TILES) as f64, (k / TILES) as f64);
            Rect::new(
                die.xl + ix * w,
                die.yl + iy * h,
                die.xl + (ix + 1.0) * w,
                die.yl + (iy + 1.0) * h,
            )
        })
        .collect()
}

/// One pass over the 16 windows.
struct Sequence {
    wall_s: f64,
    hpwl_after: f64,
    reports: Vec<RunReport>,
    replaced: u64,
    failed: u64,
}

/// Cells `replace_region` must leave bit-identical: those whose box does
/// not touch the window.
fn moved_frozen_cells(before: &BookshelfCircuit, after: &Placement, window: &Rect) -> usize {
    let nl = &before.design.netlist;
    nl.movable_cells()
        .filter(|&c| !before.placement.cell_rect(nl, c).intersects(window))
        .filter(|&c| {
            let i = c.index();
            after.x[i].to_bits() != before.placement.x[i].to_bits()
                || after.y[i].to_bits() != before.placement.y[i].to_bits()
        })
        .count()
}

fn sequence(
    base: &BookshelfCircuit,
    config: &EcoConfig,
    mut spans: Option<(&mut Spans, usize, u64)>,
) -> Sequence {
    let mut seq = Sequence {
        wall_s: 0.0,
        hpwl_after: f64::NAN,
        reports: Vec::new(),
        replaced: 0,
        failed: 0,
    };
    let mut current = base.clone();
    let start = Instant::now();
    for (k, window) in windows(base.design.die).into_iter().enumerate() {
        let span = spans
            .as_mut()
            .map(|(s, parent, run)| s.open("placer.flow.replace_region", Some(*parent), *run));
        let result = replace_region(&current, window, config);
        if let (Some((s, _, _)), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        match result {
            Ok(eco) => {
                let moved = moved_frozen_cells(&current, &eco.placement, &window);
                if eco.violations != 0 || moved != 0 {
                    eprintln!(
                        "window {k}: {} violations, {moved} frozen cells moved",
                        eco.violations
                    );
                    seq.failed += 1;
                }
                seq.replaced += eco.replaced as u64;
                seq.hpwl_after = eco.hpwl_after;
                seq.reports.push(eco.report);
                current.placement = eco.placement;
            }
            Err(e) => {
                eprintln!("window {k}: {e}");
                seq.failed += 1;
            }
        }
    }
    seq.wall_s = start.elapsed().as_secs_f64();
    let audit = audit_legality(&base.design, &current.placement);
    if !audit.is_clean() {
        eprintln!("after window 16: {audit}");
        seq.failed += 1;
    }
    seq
}

fn sum_gauge(reports: &[RunReport], name: &str) -> f64 {
    reports.iter().filter_map(|r| r.gauge(name)).sum()
}

fn sum_counter(reports: &[RunReport], name: &str) -> f64 {
    reports.iter().filter_map(|r| r.counter(name)).sum::<u64>() as f64
}

/// The circuit `replace_region` derives for `window`: everything outside
/// it frozen. Only the layer replay needs it.
fn derived(base: &BookshelfCircuit, window: &Rect) -> Result<BookshelfCircuit, String> {
    let nl = &base.design.netlist;
    let mut mask = vec![false; nl.num_cells()];
    for cell in nl.movable_cells() {
        mask[cell.index()] = base.placement.cell_rect(nl, cell).intersects(window);
    }
    let mut design = base.design.clone();
    design.netlist = nl.with_movability(&mask).map_err(|e| e.to_string())?;
    Ok(BookshelfCircuit {
        design,
        placement: base.placement.clone(),
    })
}

/// Places the parsed input once, through the same flow as the flat
/// workloads. Returns the placed circuit and the wall of the placement.
fn base_placement(input: &flow::Input) -> Result<(BookshelfCircuit, f64), String> {
    let (circuit, engine) = flow::set_up(input, 1)?;
    let t = Instant::now();
    let placed = run_with_engine(&circuit, &pipeline_config(1, BASE_ITERS), engine)
        .map_err(|e| format!("base placement: {e}"))?;
    let base_s = t.elapsed().as_secs_f64();
    let audit = audit_legality(&circuit.design, &placed.placement);
    if placed.termination != Termination::Converged || !audit.is_clean() {
        return Err(format!("base placement: {} / {audit}", placed.termination));
    }
    let base = BookshelfCircuit {
        design: circuit.design,
        placement: placed.placement,
    };
    Ok((base, base_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let input = flow::prepare_input(args)?;
    // the base placement is part of the window, so the run takes `--seconds`
    let start = Instant::now();
    let (circuit, base_s) = base_placement(&input)?;
    let base_hpwl = total_hpwl(&circuit.design.netlist, &circuit.placement);

    let mut config = EcoConfig {
        pipeline: pipeline_config(1, WINDOW_ITERS),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut walls, mut setups, mut dpwl) = (Vec::new(), Vec::new(), f64::NAN);
    let mut peak_rss_mb = f64::NAN;
    while flow::window_has_room(start, args.untraced_seconds(), &walls) {
        flow::time_set_ups(&input, 1, flow::SETUPS_PER_REP, &mut setups);
        let seq = sequence(&circuit, &config, None);
        attempted += (TILES * TILES) as u64;
        failed += seq.failed;
        if dpwl.is_nan() {
            dpwl = seq.hpwl_after;
        }
        if seq.hpwl_after.to_bits() != dpwl.to_bits() {
            eprintln!(
                "sequence {}: hpwl {} != first {dpwl}",
                walls.len() + 1,
                seq.hpwl_after
            );
            failed += 1;
        }
        walls.push(seq.wall_s);
        if walls.len() == 2 {
            // the peak of a fixed amount of work, as in `flow::repeat`
            peak_rss_mb = env::peak_rss_mb(None)?;
        }
        if failed > 2 * (TILES * TILES) as u64 {
            break;
        }
    }
    eprintln!("{} sequence walls (s): {walls:.3?}", walls.len());

    let mut values = start_values(args.trace);
    if args.trace {
        let sink = Arc::new(RingSink::new(TILES * TILES * (WINDOW_ITERS + 1)));
        config.pipeline.global.trace = sink.clone();
        let mut spans = Spans::new(Instant::now());
        let root = spans.open("eco_sequence", None, 0);
        let cpu0 = env::cpu_s(None)?;
        let seq = sequence(&circuit, &config, Some((&mut spans, root, 0)));
        let cpu = env::cpu_s(None)? - cpu0;
        spans.close(root);
        attempted += (TILES * TILES) as u64;
        failed += seq.failed;
        if seq.hpwl_after.to_bits() != dpwl.to_bits() {
            eprintln!(
                "traced hpwl {} != untraced {dpwl}: not the same program",
                seq.hpwl_after
            );
            failed += 1;
        }

        let r = &seq.reports;
        let (wl_s, density_s) = (
            sum_gauge(r, "engine.wl_grad.seconds"),
            sum_gauge(r, "engine.density.seconds"),
        );
        let (gp_s, iters) = (
            sum_gauge(r, "gp.rt_seconds"),
            sum_counter(r, "gp.iterations"),
        );
        let wl_calls = sum_counter(r, "engine.wl_grad.count");
        let iter_ms = flow::iteration_ms(&sink);
        let ms = spans.all_ms("placer.flow.replace_region");
        let last = r.last();
        for (name, value) in [
            ("netlist.bookshelf.read_aux_ms", 1e3 * median(&setups)),
            ("netlist.synth.generate_ms", input.generate_ms),
            ("wirelength.engine.wl_grad_s", wl_s),
            ("wirelength.engine.wl_grad_calls", wl_calls),
            (
                "wirelength.engine.parallel_runs",
                sum_counter(r, "engine.parallel_runs"),
            ),
            (
                "wirelength.engine.serial_runs",
                sum_counter(r, "engine.serial_runs"),
            ),
            ("density.engine.density_s", density_s),
            (
                "density.engine.density_calls",
                sum_counter(r, "engine.density.count"),
            ),
            (
                "density.transform.s",
                sum_gauge(r, "engine.density_transform.seconds"),
            ),
            (
                "density.transform.calls",
                sum_counter(r, "engine.density_transform.count"),
            ),
            ("optim.nesterov.iterations", iters),
            ("optim.nesterov.evals_per_iter", wl_calls / iters.max(1.0)),
            ("placer.global.gp_s", gp_s),
            ("placer.legalize.lg_s", sum_gauge(r, "lg.rt_seconds")),
            ("placer.detail.dp_s", sum_gauge(r, "dp.rt_seconds")),
            ("placer.global.self_s", gp_s - wl_s - density_s),
            ("placer.global.iter_ms_p50", median(&iter_ms)),
            ("placer.global.iter_ms_p95", percentile(&iter_ms, 95.0)),
            (
                "placer.pipeline.gpwl",
                last.and_then(|l| l.gauge("gp.hpwl")).unwrap_or(0.0),
            ),
            (
                "placer.pipeline.lgwl",
                last.and_then(|l| l.gauge("lg.hpwl")).unwrap_or(0.0),
            ),
            (
                "placer.legalize.avg_disp_rows",
                sum_gauge(r, "lg.avg_displacement_rows") / r.len().max(1) as f64,
            ),
            ("placer.detail.passes", sum_counter(r, "dp.passes")),
            (
                "placer.detail.hpwl_gain_pct",
                100.0 * sum_gauge(r, "dp.hpwl_gain") / sum_gauge(r, "lg.hpwl").max(1e-9),
            ),
            (
                "placer.guard.recoveries",
                sum_counter(r, "guard.recoveries"),
            ),
            ("placer.flow.eco_window_ms_p50", median(&ms)),
            ("placer.flow.eco_window_ms_max", percentile(&ms, 100.0)),
            ("placer.flow.eco_base_s", base_s),
            ("placer.flow.eco_replaced_cells", seq.replaced as f64),
            (
                "placer.flow.eco_hpwl_drift_pct",
                100.0 * (seq.hpwl_after / base_hpwl - 1.0),
            ),
            ("placer.flow.eco_wl_share_pct", 100.0 * wl_s / seq.wall_s),
            (
                "placer.flow.eco_density_share_pct",
                100.0 * density_s / seq.wall_s,
            ),
            ("proc.cpu_s", cpu),
            ("proc.cpu_util", cpu / seq.wall_s),
            (
                "trace.overhead_pct",
                100.0 * (seq.wall_s / median(&walls) - 1.0),
            ),
            ("trace.coverage_pct", spans.coverage_pct(root)),
        ] {
            values.insert(name, value);
        }
        // replay on an interior window's derived circuit, where density
        // sees only that window's cells
        let interior = windows(circuit.design.die)[TILES + 1];
        let overflow = last.and_then(|l| l.gauge("gp.overflow")).unwrap_or(0.1);
        let replay_on = derived(&circuit, &interior)?;
        replay::replay(
            &replay_on.design,
            &[(&replay_on.placement, overflow)],
            1,
            &mut values,
        );
        flow::accounting_warnings(args, &values);
        if !args.smoke {
            eprintln!(
                "{}: wirelength {:.1}% / density {:.1}% of the sequence wall (expected > 50 / < 20)",
                args.workload,
                values["placer.flow.eco_wl_share_pct"],
                values["placer.flow.eco_density_share_pct"]
            );
        }
        spans.save(&args.workload)?;
    } else {
        values.insert("setup_s", median(&setups));
        values.insert("place_wall_s", median(&walls));
        values.insert("dpwl", dpwl);
        values.insert("peak_rss_mb", peak_rss_mb);
    }
    Ok(Outcome {
        values,
        attempted,
        failed,
    })
}
