//! Criterion microbench: the spectral density step (`fused`: planned lane
//! kernels, column pass strided in place).
//!
//! One "density step" is the four 2-D sweeps of a Poisson solve (analysis
//! DCT2×DCT2, potential DCT3×DCT3, and the two field syntheses), which is
//! exactly the per-iteration spectral cost of the placer. Grid sizes span
//! 256×256 to 1024×1024 (`BinGrid::auto` caps at 1024).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mep_density::transform::{Kind, Spectral2d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The four sweeps of one spectral Poisson solve.
const SWEEPS: [(Kind, Kind); 4] = [
    (Kind::Dct2, Kind::Dct2),
    (Kind::Dct3, Kind::Dct3),
    (Kind::Dst3, Kind::Dct3),
    (Kind::Dct3, Kind::Dst3),
];

fn bench_density_transform(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut group = c.benchmark_group("density_transform");
    for &n in &[256usize, 512, 1024] {
        let rho: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut bufs = vec![vec![0.0; n * n]; SWEEPS.len()];

        let mut fused = Spectral2d::new(n, n);
        group.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
            b.iter(|| {
                for (buf, &(kx, ky)) in bufs.iter_mut().zip(&SWEEPS) {
                    buf.copy_from_slice(&rho);
                    fused.execute(buf, kx, ky);
                }
                black_box(bufs[0][0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_density_transform);
criterion_main!(benches);
