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
use moreau_placer::placer::pipeline::PipelineConfig;
use moreau_placer::placer::GlobalConfig;
use moreau_placer::wirelength::ModelKind;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str =
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
     its worker thread).";

/// Why `mep` stops short: a bad command line prints the usage and exits 2,
/// a failed run exits 1. Either prints its reason as one `error:` line.
enum Fail {
    Usage(Option<String>),
    Run(String),
}

/// A failed run, `e` its reason.
fn failed(e: impl std::fmt::Display) -> Fail {
    Fail::Run(e.to_string())
}

/// The command line, read left to right: the subcommand and its
/// positional arguments, then its flags.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// A positional argument; a missing one is a usage error.
    fn positional(&mut self) -> Result<&'a str, Fail> {
        self.next().ok_or(Fail::Usage(None))
    }

    /// The value of `flag`, read and checked by `parse`: a missing value
    /// or one `parse` refuses is a usage error.
    fn value<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, Fail> {
        self.next()
            .and_then(parse)
            .ok_or_else(|| Fail::Usage(Some(format!("bad or missing value for {flag}"))))
    }

    /// The line must end here: any argument left is a usage error.
    fn end(mut self) -> Result<(), Fail> {
        self.next().map_or(Ok(()), |arg| Err(unknown(arg)))
    }
}

/// The usage error of an argument the subcommand does not take.
fn unknown(arg: &str) -> Fail {
    Fail::Usage(Some(format!("unknown flag or argument `{arg}`")))
}

fn parsed<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn positive<T: FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    parsed(s).filter(|v| *v >= T::from(1))
}

/// `XL,YL,XH,YH` with `XH > XL` and `YH > YL`.
fn window(s: &str) -> Option<Rect> {
    let coords: Option<Vec<f64>> = s.split(',').map(parsed).collect();
    match coords?.as_slice() {
        &[xl, yl, xh, yh] if xh > xl && yh > yl => Some(Rect::new(xl, yl, xh, yh)),
        _ => None,
    }
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
    match run(Flags(args.iter())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(why)) => {
            if let Some(why) = why {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Fail::Run(why)) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the subcommand the command line names.
fn run(mut args: Flags<'_>) -> Result<(), Fail> {
    match args.positional()? {
        "place" => place(args.positional()?, args),
        "stats" => stats(args.positional()?, args),
        "gen" => gen(args.positional()?, args.positional()?, args),
        "serve" => serve(args),
        "bench-list" => bench_list(args),
        _ => Err(Fail::Usage(None)),
    }
}

fn bench_list(flags: Flags<'_>) -> Result<(), Fail> {
    flags.end()?;
    println!("built-in synthetic benchmarks (Table I stand-ins, demos, known optima):");
    for builtin in synth::builtins() {
        let (movable, note) = match &builtin {
            Builtin::Synth(s) | Builtin::Demo(s) => (s.movable, ""),
            Builtin::Peko(p) => (p.movable, " (optimal HPWL known exactly)"),
        };
        let (name, group) = (builtin.name(), builtin.group());
        println!("  {name:<16} {group:<9} {movable:>7} movable cells{note}");
    }
    Ok(())
}

fn stats(circuit: &str, mut flags: Flags<'_>) -> Result<(), Fail> {
    let mut lef = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--lef" => lef = Some(flags.value(flag, Some)?),
            _ => return Err(unknown(flag)),
        }
    }
    let c = load_circuit(circuit, lef, None).map_err(Fail::Run)?;
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
    Ok(())
}

fn gen(bench: &str, dir: &str, flags: Flags<'_>) -> Result<(), Fail> {
    flags.end()?;
    let c = generate_builtin(bench).map_err(Fail::Run)?;
    bookshelf::write_dir(dir, &c).map_err(failed)?;
    println!(
        "wrote {dir}/{}.{{aux,nodes,nets,pl,scl,wts}}",
        c.design.name
    );
    Ok(())
}

fn serve(mut flags: Flags<'_>) -> Result<(), Fail> {
    mep_serve::install_quiet_panic_hook();
    let mut cfg = mep_serve::ServerConfig::default();
    let mut tcp_addr: Option<&str> = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--stdio" => tcp_addr = None,
            "--tcp" => tcp_addr = Some(flags.value(flag, Some)?),
            "--workers" => cfg.workers = flags.value(flag, positive)?,
            "--queue" => cfg.queue_capacity = flags.value(flag, positive)?,
            // checked, then discarded: the frozen `examples/bench_e2e`
            // passes it; goes with the benchmark PR that retires
            // `nb6_flat_t2`
            "--engine-threads" => {
                flags.value(flag, positive::<usize>)?;
            }
            "--mem-budget-mb" => {
                cfg.memory_budget_bytes = flags.value(flag, positive::<u64>)? << 20
            }
            "--budget-ms" => {
                let ms = flags.value(flag, parsed::<u64>)?;
                cfg.default_budget = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            _ => return Err(unknown(flag)),
        }
    }
    match tcp_addr {
        Some(addr) => {
            mep_serve::serve_tcp(Arc::new(mep_serve::Server::start(cfg)), addr).map_err(Fail::Run)
        }
        None => {
            mep_serve::serve_stdio(&mep_serve::Server::start(cfg));
            Ok(())
        }
    }
}

fn place(circuit_arg: &str, mut flags: Flags<'_>) -> Result<(), Fail> {
    let mut global = GlobalConfig::default();
    let (mut out, mut density, mut lef, mut trace_out, mut eco) = (None, None, None, None, None);
    let mut levels = 1usize;
    let mut metrics = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--model" => global.model = flags.value(flag, ModelKind::from_name)?,
            "--out" => out = Some(flags.value(flag, Some)?),
            "--iters" => global.max_iters = flags.value(flag, parsed)?,
            "--density" => {
                let finite = |s| parsed::<f64>(s).filter(|v| v.is_finite() && *v > 0.0);
                density = Some(flags.value(flag, finite)?);
            }
            "--levels" => levels = flags.value(flag, positive)?,
            "--eco" => eco = Some(flags.value(flag, window)?),
            "--lef" => lef = Some(flags.value(flag, Some)?),
            "--trace-out" => trace_out = Some(flags.value(flag, Some)?),
            "--metrics" => metrics = true,
            _ => return Err(unknown(flag)),
        }
    }
    if eco.is_some() && levels > 1 {
        return Err(Fail::Usage(Some(format!(
            "--eco runs the flat flow on one window; it cannot take --levels {levels}"
        ))));
    }
    let circuit = load_circuit(circuit_arg, lef, density).map_err(Fail::Run)?;
    let trace = match trace_out {
        Some(path) => {
            let sink = JsonlSink::create(std::path::Path::new(path))
                .map_err(|e| Fail::Run(format!("cannot open trace output `{path}`: {e}")))?;
            let sink = Arc::new(sink);
            global.trace = sink.clone();
            Some(sink)
        }
        None => None,
    };
    let pipeline = PipelineConfig {
        global,
        ..PipelineConfig::default()
    };

    // one run, ECO or (multi)level flow, then one epilogue: trace,
    // metrics, output, exit status
    let (placement, report, trace_records, failure) = match eco {
        Some(window) => {
            eprintln!(
                "[mep] ECO re-placement of `{}` within {window} …",
                circuit.design.name
            );
            let eco = replace_region(&circuit, window, &EcoConfig { pipeline }).map_err(failed)?;
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
            (eco.placement, eco.report, eco.iterations, None)
        }
        None => {
            eprintln!(
                "[mep] placing `{}` with model {} ({} movable cells, up to {levels} levels) …",
                circuit.design.name,
                pipeline.global.model.label(),
                circuit.design.netlist.num_movable()
            );
            let ml =
                run_multilevel(&circuit, &MultilevelConfig { levels, pipeline }).map_err(failed)?;
            for s in &ml.level_stats {
                eprintln!(
                    "[mep] level {}: {} movable  {} iters  HPWL {:.4e}  {:.2}s",
                    s.level, s.movable, s.iterations, s.hpwl, s.rt_seconds
                );
            }
            // each GP iteration of every level writes one trace record
            let trace_records = ml.level_stats.iter().map(|s| s.iterations).sum();
            let result = ml.result;
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
                "iters {}  overflow {:.4}  stop {}",
                result.iterations, result.overflow, result.termination
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
            let failure = (result.termination == Termination::GuardExhausted).then(|| {
                format!(
                    "guard exhausted after {} recoveries — best snapshot returned, \
                     placement quality is not trustworthy",
                    result.recovery.len()
                )
            });
            (result.placement, result.report, trace_records, failure)
        }
    };
    if let Some(sink) = &trace {
        let path = sink.path().display();
        sink.flush()
            .map_err(|e| Fail::Run(format!("writing trace `{path}`: {e}")))?;
        eprintln!("[mep] wrote {trace_records} trace records to {path}");
    }
    if metrics {
        println!("\n-- run metrics (DESIGN.md \u{a7}10) --");
        print!("{}", report.summary_table());
    }
    if let Some(dir) = out {
        let placed = BookshelfCircuit {
            design: circuit.design,
            placement,
        };
        bookshelf::write_dir(dir, &placed)
            .map_err(|e| Fail::Run(format!("writing output: {e}")))?;
        println!("wrote Bookshelf files to {dir}/");
    }
    failure.map_or(Ok(()), |why| Err(Fail::Run(why)))
}
