//! `bench_e2e` — the repository's end-to-end benchmark. See `README.md`
//! next to this file for the workloads, the metrics and how to read them.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! bench_e2e [--seed N] [--seconds S] [--check]            all workloads, both kinds, as child processes
//! bench_e2e --smoke                                         schema check on smoke-sized inputs
//! ```
//!
//! Run it from the repository root (it reads `BENCHMARK.json`, writes under
//! `examples/bench_e2e/out/` and builds the `mep` binary there).

mod eco;
mod env;
mod flow;
mod metrics;
mod replay;
mod runner;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments; the same struct drives one workload and the
/// full run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Empty for the full run.
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window of one workload.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-sized inputs (schema check only; never a result).
    pub smoke: bool,
    pub check: bool,
}

impl Args {
    /// Length of the untraced window: with tracing on, half of `--seconds`
    /// gives the reference wall and the rest is left to the traced run.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Where the benchmark writes: generated inputs, traces, the last run.
pub fn out_dir() -> PathBuf {
    PathBuf::from("examples/bench_e2e/out")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<metrics::Outcome, String> {
    match args.workload.as_str() {
        "nb6_flat" => flow::run(args, 1),
        "nb6_flat_t2" => flow::run(args, 2),
        "nb6_eco16" => eco::run(args),
        "serve_mix" => serve::run(args),
        other => Err(format!(
            "unknown workload {other}; one of {}",
            metrics::WORKLOADS
                .iter()
                .map(|w| w.0)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = env::check_release_profiles().and_then(|()| {
        if args.workload.is_empty() {
            runner::run(&args)
        } else {
            run_workload(&args)
                .map(|outcome| println!("{}", metrics::result_line(&outcome, args.trace)))
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
