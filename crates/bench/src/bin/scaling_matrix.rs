//! **Density-step scaling** (DESIGN.md §13): wall-clock medians of the
//! spectral density step (the four 2-D sweeps of one Poisson solve) per
//! grid size.
//!
//! ```text
//! cargo run -p mep-bench --release --bin scaling_matrix [--fast] [--out PATH]
//! cargo run -p mep-bench --release --bin scaling_matrix --guard [BASELINE]
//! ```
//!
//! The default mode writes `BENCH_scaling.json` (or `--out PATH`).
//! `--guard` is the CI perf-regression mode: it re-measures only the
//! serial fused 512×512 density step and exits non-zero if it is more
//! than `MEP_PERF_GUARD_TOLERANCE` (default 0.10 = 10%) slower than the
//! committed baseline JSON.

use mep_density::transform::{Kind, Spectral2d};
use mep_obs::json::JsonObject;
use std::time::Instant;

/// The four sweeps of one spectral Poisson solve.
const SWEEPS: [(Kind, Kind); 4] = [
    (Kind::Dct2, Kind::Dct2),
    (Kind::Dct3, Kind::Dct3),
    (Kind::Dst3, Kind::Dct3),
    (Kind::Dct3, Kind::Dst3),
];

/// Median wall-clock of `reps` timed runs (after one warmup), in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: touch caches, fault pages, build plans
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Deterministic pseudo-random grid (the same LCG the spectral tests use).
fn test_grid(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// One density step (four sweeps) on an `n × n` grid, in ms.
fn density_step_ms(n: usize, reps: usize, rho: &[f64]) -> f64 {
    let mut engine = Spectral2d::new(n, n);
    let mut buf = vec![0.0; n * n];
    median_ms(reps, || {
        for &(kx, ky) in &SWEEPS {
            buf.copy_from_slice(rho);
            engine.execute(&mut buf, kx, ky);
        }
        std::hint::black_box(buf[0]);
    })
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let guard = args.iter().any(|a| a == "--guard");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    if guard {
        run_guard(&args);
        return;
    }

    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let reps = if fast { 3 } else { 7 };
    eprintln!("[scaling] available_parallelism = {avail}, reps = {reps}, fast = {fast}");

    let sizes: &[usize] = if fast { &[256, 512] } else { &[256, 512, 1024] };
    let mut density_json = JsonObject::new();
    let mut fused_512_serial = f64::NAN;
    for &n in sizes {
        let rho = test_grid(n * n, 17 + n as u64);
        let ms = density_step_ms(n, reps, &rho);
        eprintln!("[scaling] density {n}x{n}: {ms:.2} ms");
        if n == 512 {
            fused_512_serial = ms;
        }
        density_json.field_f64(&format!("{n}"), round3(ms));
    }

    let mut root = JsonObject::new();
    root.field_str("bench", "scaling_matrix")
        .field_str(
            "description",
            "Wall-clock medians. density_transform_ms: one spectral density step = the \
             four 2-D sweeps of a Poisson solve on Spectral2d::execute, per grid side; \
             single-threaded, as in the placer.",
        )
        .field_u64("available_parallelism", avail as u64)
        .field_bool("fast_mode", fast)
        .field_str("timer", &format!("median of {reps} runs after one warmup"));
    root.field_raw("density_transform_ms", &density_json.finish());
    let mut guard_json = JsonObject::new();
    guard_json
        .field_f64("density_512_serial_fused_ms", round3(fused_512_serial))
        .field_f64("tolerance", 0.10);
    root.field_raw("guard_baseline", &guard_json.finish());

    let text = root.finish();
    match std::fs::write(&out_path, format!("{text}\n")) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}

/// CI perf-regression guard: re-measure the serial fused 512×512 density
/// step and fail if it regressed more than the tolerance vs the committed
/// baseline. Tolerance can be widened for noisy runners via
/// `MEP_PERF_GUARD_TOLERANCE` (fraction, e.g. `0.25`).
fn run_guard(args: &[String]) {
    let baseline_path = args
        .iter()
        .position(|a| a == "--guard")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[guard] cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    // minimal field scrape (no JSON dependency): the artifact is generated
    // by this same binary, so the field layout is known
    let baseline_ms = scrape_f64(&text, "density_512_serial_fused_ms");
    let tolerance = std::env::var("MEP_PERF_GUARD_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .or_else(|| scrape_f64(&text, "tolerance"))
        .unwrap_or(0.10);
    let Some(baseline_ms) = baseline_ms else {
        eprintln!("[guard] baseline {baseline_path} has no density_512_serial_fused_ms");
        std::process::exit(1);
    };
    let n = 512usize;
    let rho = test_grid(n * n, 17 + n as u64);
    let ms = density_step_ms(n, 7, &rho);
    let ratio = ms / baseline_ms;
    println!(
        "[guard] serial fused 512x512 density step: {ms:.2} ms vs baseline \
         {baseline_ms:.2} ms (ratio {ratio:.3}, tolerance +{:.0}%)",
        tolerance * 100.0
    );
    if ratio > 1.0 + tolerance {
        eprintln!("[guard] FAIL: serial 512x512 density step regressed beyond tolerance");
        std::process::exit(1);
    }
    println!("[guard] OK");
}

/// Extracts `"name": <number>` from a flat JSON text.
fn scrape_f64(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
