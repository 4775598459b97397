//! Criterion microbench: the spectral density step (planned kernels on
//! tiles of 8 lines, column pass strided in place) and one whole density
//! stage.
//!
//! `step` is the placer's per-iteration spectral cost, the three 2-D
//! sweeps of `Electrostatics::update` (analysis DCT2×DCT2 and the two field
//! syntheses; the energy comes from the spectrum by Parseval). `solve` is
//! `PoissonSolver::solve`, which adds the potential's DCT3×DCT3 and the
//! scaling pass. Grid sizes span 128×128 (a Table II stand-in) to
//! 1024×1024 (`BinGrid::auto` caps there). At 128² the solve is the smaller
//! part of a stage: the `density_stage` group times the stage as the placer
//! runs it, per-cell passes included. These numbers explain the end-to-end
//! figure; they are never the claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mep_density::grid::DensityMap;
use mep_density::transform::{Kind, Spectral2d};
use mep_density::{Electrostatics, PoissonSolver};
use mep_netlist::synth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The three sweeps of the placer's field solve.
const STEP: [(Kind, Kind); 3] = [
    (Kind::Dct2, Kind::Dct2),
    (Kind::Dst3, Kind::Dct3),
    (Kind::Dct3, Kind::Dst3),
];

fn bench_density_transform(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut group = c.benchmark_group("density_transform");
    for &n in &[128usize, 256, 512, 1024] {
        let rho: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut bufs: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; n * n]);
        let mut spectral = Spectral2d::new(n, n);
        group.bench_with_input(BenchmarkId::new("step", n), &n, |b, _| {
            b.iter(|| {
                for (buf, &(kx, ky)) in bufs.iter_mut().zip(&STEP) {
                    buf.copy_from_slice(&rho);
                    spectral.execute(buf, kx, ky);
                }
                black_box(bufs[0][0])
            })
        });
        let mut solver = PoissonSolver::new(n, n, n as f64, n as f64);
        let [psi, ex, ey] = &mut bufs;
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
            b.iter(|| {
                solver.solve(&rho, psi, ex, ey);
                black_box(ex[1])
            })
        });
    }
    group.finish();
}

/// One density stage on the `newblue6` stand-in (12.5k movable cells, 128²
/// bins) at a spread placement: `raster` is `DensityMap::update_movable`
/// alone (footprint table + raster), `update` adds the field solve,
/// `accumulate_gradient` is the field gather over the table.
fn bench_density_stage(c: &mut Criterion) {
    let spec = synth::spec_by_name("newblue6").expect("catalogue circuit");
    let circuit = synth::generate(&spec);
    let (nl, die) = (&circuit.design.netlist, circuit.design.die);
    let mut rng = StdRng::seed_from_u64(7);
    let mut spread = circuit.placement.clone();
    for cell in nl.movable_cells() {
        spread.x[cell.index()] = rng.gen_range(die.xl..die.xh);
        spread.y[cell.index()] = rng.gen_range(die.yl..die.yh);
    }
    let mut es = Electrostatics::new(&circuit.design, &spread);
    let mut map = DensityMap::new(es.grid().clone(), nl, &spread);
    let (mut gx, mut gy) = (vec![0.0; nl.num_cells()], vec![0.0; nl.num_cells()]);
    let mut group = c.benchmark_group("density_stage");
    group.bench_function(BenchmarkId::new("raster", "newblue6"), |b| {
        b.iter(|| {
            map.update_movable(nl, black_box(&spread));
            black_box(map.movable[0])
        })
    });
    group.bench_function(BenchmarkId::new("update", "newblue6"), |b| {
        b.iter(|| black_box(es.update(nl, black_box(&spread))))
    });
    group.bench_function(BenchmarkId::new("accumulate_gradient", "newblue6"), |b| {
        b.iter(|| {
            es.accumulate_gradient(nl, black_box(&spread), &mut gx, &mut gy);
            black_box(gx[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_density_transform, bench_density_stage);
criterion_main!(benches);
