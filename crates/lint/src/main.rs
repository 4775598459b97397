//! The `mep-lint` command-line driver.
//!
//! ```text
//! mep-lint check [--root DIR]
//! mep-lint rules
//! ```
//!
//! `check` exits 0 when there are no new violations and no malformed or
//! unused suppressions, 1 on findings, 2 on usage or I/O errors. It writes
//! the machine-readable posture to `results/lint_report.json` and the
//! freshly computed panic-surface ratchet to `results/panic_surface.json`
//! under the workspace root; the run fails if the surface *grew* relative
//! to the committed artifact. Committing the rewrite is how the author
//! accepts a change of the surface, growth or shrinkage; CI `git diff`s
//! it, so neither goes in unseen.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mep_lint::surface::{PanicSurface, SURFACE_FILE};
use mep_lint::{Config, Engine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mep-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    root: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root requires a path")?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            mep_lint::workspace::find_root(&cwd).ok_or(
                "no workspace root found (no Cargo.toml with [workspace] above cwd); pass --root",
            )?
        }
    };
    Ok(Options { root })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args
        .split_first()
        .map(|(c, r)| (c.as_str(), r))
        .unwrap_or(("check", &[]));
    match cmd {
        "check" => check(&parse_options(rest)?),
        "rules" => {
            let engine = Engine::new(Config::default());
            for (name, summary) in engine.describe_rules() {
                println!("{name:<16} {summary}");
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command `{other}` (expected `check` or `rules`)"
        )),
    }
}

fn check(opts: &Options) -> Result<ExitCode, String> {
    let mut engine = Engine::new(Config::default());

    // load the committed panic-surface ratchet; a missing file means a
    // first run (no growth check), a malformed one is an error
    let surface_path = opts.root.join(SURFACE_FILE);
    match std::fs::read_to_string(&surface_path) {
        Ok(text) => engine.panic_ratchet = Some(PanicSurface::parse(&text)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("reading {}: {e}", surface_path.display())),
    }

    let outcome = engine.check_workspace(&opts.root)?;

    for (path, err) in &outcome.suppress_errors {
        println!("{path}:{} suppression {}", err.line, err.message);
    }
    for v in &outcome.new {
        println!("{v}");
    }
    for (path, s) in &outcome.unused {
        println!(
            "{path}:{} unused suppression lint:allow({}) silences nothing; remove it",
            s.comment_line, s.rule
        );
    }
    print!("{}", mep_lint::report::render_summary(&outcome));

    let path = opts.root.join("results").join("lint_report.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let json = mep_lint::report::render_json(&outcome);
    std::fs::write(&path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("report: {}", path.display());

    // rewrite the ratchet with the freshly computed surface: shrinkage,
    // and growth the author accepts, show up as a committable diff
    if let Some(surface) = &outcome.panic_surface {
        std::fs::write(&surface_path, surface.render())
            .map_err(|e| format!("writing {}: {e}", surface_path.display()))?;
        println!(
            "panic surface: {} public function(s) across {} crate(s) -> {}",
            surface.len(),
            surface.crates.len(),
            surface_path.display()
        );
    }

    Ok(if outcome.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
