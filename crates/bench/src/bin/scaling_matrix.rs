//! **Density-step perf guard** (DESIGN.md §13): re-measures the 512×512
//! spectral density step (the four 2-D sweeps of one Poisson solve) and
//! compares it with the committed baseline.
//!
//! ```text
//! cargo run -p mep-bench --release --bin scaling_matrix -- --guard [BASELINE]
//! ```
//!
//! `BASELINE` (default `BENCH_density.json`) carries a `guard_baseline`
//! object recorded with this binary's own timer; the run exits non-zero if
//! the step is more than `MEP_PERF_GUARD_TOLERANCE` (default: the
//! baseline's `tolerance`, 0.10 = 10%) slower. To re-record, run the guard
//! on a quiet box and copy the printed figure into the baseline file. The
//! per-size timings live in `benches/density_transform.rs`.

use mep_density::transform::{Kind, Spectral2d};
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

/// CI perf-regression guard: re-measure the 512×512 density step and fail
/// if it regressed more than the tolerance vs the committed baseline.
/// Tolerance can be widened for noisy runners via
/// `MEP_PERF_GUARD_TOLERANCE` (fraction, e.g. `0.25`).
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(guard_at) = args.iter().position(|a| a == "--guard") else {
        eprintln!("usage: scaling_matrix --guard [BASELINE]");
        std::process::exit(2);
    };
    let baseline_path = args
        .get(guard_at + 1)
        .cloned()
        .unwrap_or_else(|| "BENCH_density.json".to_string());
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[guard] cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    // minimal field scrape (no JSON dependency): both names occur once in
    // the baseline file, inside `guard_baseline`
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
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "[guard] 512x512 density step: {ms:.3} ms vs baseline {baseline_ms:.3} ms \
         (ratio {ratio:.3}, tolerance +{:.0}%, available_parallelism {avail})",
        tolerance * 100.0
    );
    if ratio > 1.0 + tolerance {
        eprintln!("[guard] FAIL: 512x512 density step regressed beyond tolerance");
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
