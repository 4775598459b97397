//! What the benchmark reads from the machine: process counters from
//! `/proc`, the environment block, and the shipped `mep` binary.

use moreau_placer::obs::json::JsonObject;
use std::path::PathBuf;
use std::process::Command;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` = this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User + system CPU seconds a process has used; `None` = this process.
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (USER_HZ = 100 on Linux)
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => match (u.parse::<f64>(), s.parse::<f64>()) {
            (Ok(u), Ok(s)) => Ok((u + s) / 100.0),
            _ => Err(format!("{path}: unparseable utime/stime")),
        },
        _ => Err(format!("{path}: too few fields")),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The effective rustflags: `RUSTFLAGS` if set, else the `rustflags` line
/// of `.cargo/config.toml` under the current directory.
fn rustflags() -> String {
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return flags;
    }
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.trim().strip_prefix("rustflags"))
                .map(|v| v.trim_start_matches([' ', '=']).to_string())
        })
        .unwrap_or_else(|| "none".to_string())
}

/// The environment block printed with every full run and stored with the
/// recorded baseline.
pub fn environment(seed: u64) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let mut o = JsonObject::new();
    o.field_u64("nproc", nproc as u64)
        .field_u64(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )
        .field_str("rustc", &command_line("rustc", &["--version"]))
        .field_str("git_commit", &command_line("git", &["rev-parse", "HEAD"]))
        .field_str("rustflags", &rustflags())
        .field_bool("mep_threads_set", std::env::var_os("MEP_THREADS").is_some())
        .field_u64("seed", seed);
    o.finish()
}

/// The entries of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("{manifest}: {e} (run from the repository root)"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// The benchmark is a package of its own, so it has a release profile of its
/// own. It must equal the root's: otherwise the flows measured in-process
/// are compiled differently from the `mep` binary `serve_mix` drives.
pub fn check_release_profiles() -> Result<(), String> {
    let root = release_profile("Cargo.toml")?;
    let own = release_profile("examples/bench_e2e/Cargo.toml")?;
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] of examples/bench_e2e/Cargo.toml {own:?} differs from the root's {root:?}"
        ))
    }
}

/// Builds the shipped `mep` binary from the checkout in the current
/// directory and returns its path. A no-op after the first call.
pub fn mep_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "mep"])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build --bin mep: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --release --bin mep: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("mep");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found after the build", bin.display()))
    }
}
