//! `mep` — the command-line front end of the Moreau-envelope placer.
//!
//! ```text
//! mep place  <circuit> [--model ours|wa|lse|big|hpwl] [--out DIR]
//!            [--iters N] [--density F] [--lef FILE]
//!            [--levels N | --eco XL,YL,XH,YH]
//!            [--trace-out FILE.jsonl] [--metrics]
//! mep stats  <circuit> [--lef FILE]
//! mep gen    <benchmark> <out-dir>
//! mep bench-list
//! mep serve  [--stdio | --tcp ADDR] [--workers N] [--queue N]
//!            [--engine-threads N] [--mem-budget-mb N] [--budget-ms N]
//! ```
//!
//! `<circuit>` is a Bookshelf `.aux` path, a DEF path (pass the library
//! with `--lef`), or the name of a built-in synthetic benchmark
//! (`newblue1`, `ispd19_test5`, `smoke`, …).

use mep_obs::{JsonlSink, TraceSink};
use moreau_placer::netlist::bookshelf::{self, BookshelfCircuit};
use moreau_placer::netlist::synth::{self, Builtin};
use moreau_placer::netlist::Rect;
use moreau_placer::placer::flow::{replace_region, run_multilevel, EcoConfig, MultilevelConfig};
use moreau_placer::placer::guard::Termination;
use moreau_placer::placer::pipeline::{run, PipelineConfig, PipelineResult};
use moreau_placer::placer::GlobalConfig;
use moreau_placer::wirelength::ModelKind;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mep place <circuit> [--model ours|wa|lse|big|hpwl] [--out DIR]\n            \
         [--iters N] [--density F] [--lef FILE]\n            \
         [--levels N | --eco XL,YL,XH,YH]\n            \
         [--trace-out FILE.jsonl] [--metrics]\n  \
         mep stats <circuit> [--lef FILE]\n  mep gen <benchmark> <out-dir>\n  mep bench-list\n  \
         mep serve [--stdio | --tcp ADDR] [--workers N] [--queue N]\n            \
         [--engine-threads N] [--mem-budget-mb N] [--budget-ms N]\n\n\
         <circuit> = a Bookshelf .aux path, a DEF path (with --lef), or a\n\
         built-in synthetic benchmark name (see `mep bench-list`).\n\
         --density F sets the target density in (0, 1] (default: 1.0 for a\n\
         file, the benchmark's own for a built-in).\n\
         --levels N runs the multilevel flow (cluster coarsening, N levels,\n\
         each finer level started from the one above it; DESIGN.md \u{a7}12).\n\
         --eco re-places only the cells touching the given die window and\n\
         keeps everything else bit-identical (incremental ECO mode).\n\
         --trace-out streams one JSON line per global iteration; --metrics\n\
         prints the end-of-run telemetry report (DESIGN.md \u{a7}10).\n\
         `mep serve` runs the placement daemon (JSONL line protocol, see\n\
         README \u{a7}Serving and DESIGN.md \u{a7}14); --stdio (default) serves one\n\
         session on stdin/stdout, --tcp ADDR accepts concurrent clients;\n\
         --engine-threads N is accepted and ignored (every job evaluates on\n\
         its worker thread)."
    );
    ExitCode::from(2)
}

/// Loads `spec`. A given `density` is the design's target density; without
/// it a Bookshelf or DEF design gets 1.0 and a built-in keeps its spec's.
fn load_circuit(
    spec: &str,
    lef: Option<&str>,
    density: Option<f64>,
) -> Result<BookshelfCircuit, String> {
    if spec.ends_with(".aux") {
        return bookshelf::read_aux(spec, density.unwrap_or(1.0)).map_err(|e| e.to_string());
    }
    if spec.ends_with(".def") {
        let lef_path = lef.ok_or("DEF input needs --lef <library.lef>")?;
        let lef_text = std::fs::read_to_string(lef_path).map_err(|e| e.to_string())?;
        let def_text = std::fs::read_to_string(spec).map_err(|e| e.to_string())?;
        let lib =
            moreau_placer::netlist::lefdef::parse_lef(&lef_text).map_err(|e| e.to_string())?;
        return moreau_placer::netlist::lefdef::parse_def(&def_text, &lib, density.unwrap_or(1.0))
            .map_err(|e| e.to_string());
    }
    let mut circuit = generate_builtin(spec)?;
    if let Some(density) = density {
        if !(density > 0.0 && density <= 1.0) {
            return Err(format!("target density {density} outside (0, 1]"));
        }
        circuit.design.target_density = density;
    }
    Ok(circuit)
}

/// The built-in benchmark `name` (any `mep bench-list` row), generated. A
/// known-optimum (PEKO) rung is placeable like any other; its certificate
/// is reported by `mep stats` and exploited by the `peko_suboptimality`
/// harness.
fn generate_builtin(name: &str) -> Result<BookshelfCircuit, String> {
    synth::builtin(name)
        .map(|b| b.generate())
        .ok_or_else(|| format!("unknown circuit `{name}` (try `mep bench-list`)"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "bench-list" => {
            println!("built-in synthetic benchmarks (Table I stand-ins, demos, known optima):");
            for builtin in synth::builtins() {
                let (movable, note) = match &builtin {
                    Builtin::Synth(s) | Builtin::Demo(s) => (s.movable, ""),
                    Builtin::Peko(p) => (p.movable, " (optimal HPWL known exactly)"),
                };
                let (name, group) = (builtin.name(), builtin.group());
                println!("  {name:<16} {group:<9} {movable:>7} movable cells{note}");
            }
            ExitCode::SUCCESS
        }
        "stats" => {
            let Some(circuit) = args.get(1) else {
                return usage();
            };
            let lef = args
                .iter()
                .position(|a| a == "--lef")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            match load_circuit(circuit, lef, None) {
                Ok(c) => {
                    let nl = &c.design.netlist;
                    println!("circuit     : {}", c.design.name);
                    println!("die         : {}", c.design.die);
                    println!("rows        : {}", c.design.rows.len());
                    println!("movable     : {}", nl.num_movable());
                    println!("fixed       : {}", nl.num_fixed());
                    println!("nets        : {}", nl.num_nets());
                    println!("pins        : {}", nl.num_pins());
                    println!("utilization : {:.3}", c.design.utilization());
                    println!(
                        "initial HPWL: {:.6e}",
                        moreau_placer::netlist::total_hpwl(nl, &c.placement)
                    );
                    let hist = nl.degree_histogram(10);
                    println!("net degrees : {:?} (last bucket = ≥10)", &hist[2..]);
                    if let Some(Builtin::Peko(p)) = synth::builtin(circuit) {
                        let peko = synth::peko::generate_peko(&p);
                        println!(
                            "optimal HPWL: {:.6e} (exact, by construction)",
                            peko.optimal_hpwl
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "gen" => {
            let (Some(bench), Some(dir)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let c = match generate_builtin(bench) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match bookshelf::write_dir(dir, &c) {
                Ok(()) => {
                    println!(
                        "wrote {dir}/{}.{{aux,nodes,nets,pl,scl,wts}}",
                        c.design.name
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => {
            mep_serve::install_quiet_panic_hook();
            let mut cfg = mep_serve::ServerConfig::default();
            let mut tcp_addr: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--stdio" => tcp_addr = None,
                    "--tcp" => {
                        i += 1;
                        match args.get(i) {
                            Some(a) => tcp_addr = Some(a.clone()),
                            None => return usage(),
                        }
                    }
                    "--workers" => {
                        i += 1;
                        cfg.workers = match args.get(i).and_then(|s| s.parse().ok()) {
                            Some(v) if v >= 1 => v,
                            _ => return usage(),
                        };
                    }
                    "--queue" => {
                        i += 1;
                        cfg.queue_capacity = match args.get(i).and_then(|s| s.parse().ok()) {
                            Some(v) if v >= 1 => v,
                            _ => return usage(),
                        };
                    }
                    // checked, then discarded: the frozen `examples/bench_e2e`
                    // passes it; goes with the benchmark PR that retires
                    // `nb6_flat_t2`
                    "--engine-threads" => {
                        i += 1;
                        match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                            Some(v) if v >= 1 => {}
                            _ => return usage(),
                        }
                    }
                    "--mem-budget-mb" => {
                        i += 1;
                        cfg.memory_budget_bytes =
                            match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                                Some(v) if v >= 1 => v << 20,
                                _ => return usage(),
                            };
                    }
                    "--budget-ms" => {
                        i += 1;
                        cfg.default_budget = match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                            Some(0) => None,
                            Some(v) => Some(std::time::Duration::from_millis(v)),
                            None => return usage(),
                        };
                    }
                    _ => return usage(),
                }
                i += 1;
            }
            match tcp_addr {
                Some(addr) => {
                    let server = std::sync::Arc::new(mep_serve::Server::start(cfg));
                    match mep_serve::serve_tcp(server, &addr) {
                        Ok(()) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                None => {
                    let server = mep_serve::Server::start(cfg);
                    mep_serve::serve_stdio(&server);
                    ExitCode::SUCCESS
                }
            }
        }
        "place" => {
            let Some(circuit_arg) = args.get(1) else {
                return usage();
            };
            let mut model = ModelKind::Moreau;
            let mut out: Option<String> = None;
            let mut iters = GlobalConfig::default().max_iters;
            let mut density: Option<f64> = None;
            let mut levels = 1usize;
            let mut eco_window: Option<Rect> = None;
            let mut lef: Option<String> = None;
            let mut trace_out: Option<String> = None;
            let mut metrics = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--model" => {
                        i += 1;
                        match args.get(i).and_then(|s| ModelKind::from_name(s)) {
                            Some(m) => model = m,
                            None => return usage(),
                        }
                    }
                    "--out" => {
                        i += 1;
                        match args.get(i) {
                            Some(p) => out = Some(p.clone()),
                            None => return usage(),
                        }
                    }
                    "--iters" => {
                        i += 1;
                        iters = match args.get(i).and_then(|s| s.parse().ok()) {
                            Some(v) => v,
                            None => return usage(),
                        };
                    }
                    "--density" => {
                        i += 1;
                        density = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                            Some(v) if v.is_finite() && v > 0.0 => Some(v),
                            _ => return usage(),
                        };
                    }
                    "--levels" => {
                        i += 1;
                        levels = match args.get(i).and_then(|s| s.parse().ok()) {
                            Some(v) if v >= 1 => v,
                            _ => return usage(),
                        };
                    }
                    "--eco" => {
                        i += 1;
                        let coords: Vec<f64> = args
                            .get(i)
                            .map(|s| s.split(',').filter_map(|v| v.parse().ok()).collect())
                            .unwrap_or_default();
                        match coords.as_slice() {
                            [xl, yl, xh, yh] if xh > xl && yh > yl => {
                                eco_window = Some(Rect::new(*xl, *yl, *xh, *yh));
                            }
                            _ => {
                                eprintln!("error: --eco expects XL,YL,XH,YH with XH>XL, YH>YL");
                                return usage();
                            }
                        }
                    }
                    "--lef" => {
                        i += 1;
                        match args.get(i) {
                            Some(p) => lef = Some(p.clone()),
                            None => return usage(),
                        }
                    }
                    "--trace-out" => {
                        i += 1;
                        match args.get(i) {
                            Some(p) => trace_out = Some(p.clone()),
                            None => return usage(),
                        }
                    }
                    "--metrics" => metrics = true,
                    _ => return usage(),
                }
                i += 1;
            }
            if eco_window.is_some() && levels > 1 {
                eprintln!("error: --eco runs the flat flow on one window; it cannot take --levels {levels}");
                return usage();
            }
            let circuit = match load_circuit(circuit_arg, lef.as_deref(), density) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut global = GlobalConfig {
                model,
                max_iters: iters,
                ..GlobalConfig::default()
            };
            let mut trace_sink: Option<std::sync::Arc<JsonlSink>> = None;
            if let Some(path) = &trace_out {
                match JsonlSink::create(std::path::Path::new(path)) {
                    Ok(sink) => {
                        let sink = std::sync::Arc::new(sink);
                        global.trace = sink.clone();
                        trace_sink = Some(sink);
                    }
                    Err(e) => {
                        eprintln!("error: cannot open trace output `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(window) = eco_window {
                eprintln!(
                    "[mep] ECO re-placement of `{}` within {window} …",
                    circuit.design.name
                );
                let eco = match replace_region(
                    &circuit,
                    window,
                    &EcoConfig {
                        pipeline: PipelineConfig {
                            global: global.clone(),
                            ..PipelineConfig::default()
                        },
                    },
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(sink) = &trace_sink {
                    if let Err(e) = sink.flush() {
                        eprintln!("error: writing trace `{}`: {e}", sink.path().display());
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "HPWL  {:.6e} -> {:.6e} ({:+.3}%)",
                    eco.hpwl_before,
                    eco.hpwl_after,
                    100.0 * (eco.hpwl_after / eco.hpwl_before - 1.0)
                );
                println!("cells {} replaced / {} frozen", eco.replaced, eco.frozen);
                println!(
                    "iters {}  RT {:.2}s  stop {}",
                    eco.iterations, eco.rt_seconds, eco.termination
                );
                if metrics {
                    println!("\n-- run metrics (DESIGN.md \u{a7}10) --");
                    print!("{}", eco.report.summary_table());
                }
                if let Some(dir) = out {
                    let placed = BookshelfCircuit {
                        design: circuit.design.clone(),
                        placement: eco.placement.clone(),
                    };
                    match bookshelf::write_dir(&dir, &placed) {
                        Ok(()) => println!("wrote Bookshelf files to {dir}/"),
                        Err(e) => {
                            eprintln!("error writing output: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if eco.violations > 0 {
                    eprintln!(
                        "error: {} legality violations remain after ECO re-placement",
                        eco.violations
                    );
                    return ExitCode::FAILURE;
                }
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "[mep] placing `{}` with model {} ({} movable cells) …",
                circuit.design.name,
                model.label(),
                circuit.design.netlist.num_movable()
            );
            let pipeline_config = PipelineConfig {
                global,
                ..PipelineConfig::default()
            };
            // each GP iteration of every level writes one trace record
            let (trace_records, result): (usize, PipelineResult) = if levels > 1 {
                eprintln!("[mep] multilevel flow: {levels} levels requested …");
                match run_multilevel(
                    &circuit,
                    &MultilevelConfig {
                        levels,
                        pipeline: pipeline_config,
                        ..MultilevelConfig::default()
                    },
                ) {
                    Ok(ml) => {
                        for s in &ml.level_stats {
                            eprintln!(
                                "[mep] level {}: {} movable  {} iters  HPWL {:.4e}  {:.2}s",
                                s.level, s.movable, s.iterations, s.hpwl, s.rt_seconds
                            );
                        }
                        (ml.level_stats.iter().map(|s| s.iterations).sum(), ml.result)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match run(&circuit, &pipeline_config) {
                    Ok(r) => (r.iterations, r),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            if let Some(sink) = &trace_sink {
                if let Err(e) = sink.flush() {
                    eprintln!("error: writing trace `{}`: {e}", sink.path().display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "[mep] wrote {} trace records to {}",
                    trace_records,
                    sink.path().display()
                );
            }
            println!("GPWL  {:.6e}", result.gpwl);
            println!("LGWL  {:.6e}", result.lgwl);
            println!("DPWL  {:.6e}", result.dpwl);
            println!(
                "RT    {:.2}s (gp {:.2} + lg {:.2} + dp {:.2})",
                result.rt_total(),
                result.rt_gp,
                result.rt_lg,
                result.rt_dp
            );
            println!(
                "iters {}  overflow {:.4}  violations {}  stop {}",
                result.iterations, result.overflow, result.violations, result.termination
            );
            if !result.recovery.is_empty() {
                println!("recoveries ({}):", result.recovery.len());
                for event in result.recovery.events() {
                    println!("  {event}");
                }
            }
            let es = &result.engine_stats;
            println!("engine workspace allocs {}", es.workspace_allocs);
            println!(
                "stage wl-grad {}x {:.3}s (scatter {:.3}s, nets {} class / {} generic / {} inactive)  \
                 density {}x {:.3}s (spectral {}x {:.3}s)  {} reused  nesterov {} trials",
                es.wl_grad.count,
                es.wl_grad.seconds(),
                es.wl_scatter.seconds(),
                es.wl_class_nets,
                es.wl_generic_nets,
                es.wl_inactive_nets,
                es.density.count,
                es.density.seconds(),
                es.density_transform.count,
                es.density_transform.seconds(),
                es.reused,
                result.trials
            );
            if metrics {
                println!("\n-- run metrics (DESIGN.md \u{a7}10) --");
                print!("{}", result.report.summary_table());
            }
            if let Some(dir) = out {
                let placed = BookshelfCircuit {
                    design: circuit.design.clone(),
                    placement: result.placement.clone(),
                };
                match bookshelf::write_dir(&dir, &placed) {
                    Ok(()) => println!("wrote Bookshelf files to {dir}/"),
                    Err(e) => {
                        eprintln!("error writing output: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if result.termination == Termination::GuardExhausted {
                eprintln!(
                    "error: guard exhausted after {} recoveries — best snapshot returned, \
                     placement quality is not trustworthy",
                    result.recovery.len()
                );
                return ExitCode::FAILURE;
            }
            if result.violations > 0 {
                eprintln!(
                    "error: {} legality violations remain after detailed placement",
                    result.violations
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
