//! Bitwise contract of the planned 2-D spectral transform: a grid out of
//! [`Spectral2d::execute`] (tiles of `LANES` lines, column pass strided in
//! place) is bit-identical (`to_bits`) to the 1-D kernel
//! [`DctPlan::apply`] at `W = 1` run over every row and then over every
//! gathered column.

use mep_density::transform::{DctPlan, Kind, Spectral2d, TransformScratch};

fn test_grid(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// The per-line oracle: `kind_x` along each row, then `kind_y` along each
/// column, one contiguous line at a time.
fn per_line_reference(data: &mut [f64], rows: usize, cols: usize, kind_x: Kind, kind_y: Kind) {
    let (row_plan, col_plan) = (DctPlan::new(cols), DctPlan::new(rows));
    let mut scratch = TransformScratch::new();
    for row in data.chunks_exact_mut(cols) {
        row_plan.apply::<1>(kind_x, row, 0, 1, 1, &mut scratch);
    }
    let mut line = vec![0.0; rows];
    for c in 0..cols {
        for (r, slot) in line.iter_mut().enumerate() {
            *slot = data[r * cols + c];
        }
        col_plan.apply::<1>(kind_y, &mut line, 0, 1, 1, &mut scratch);
        for (r, &val) in line.iter().enumerate() {
            data[r * cols + c] = val;
        }
    }
}

/// Over power-of-two grids spanning 2..=1024 on a side — square and both
/// rectangular aspect ratios, with dimensions below `LANES` (leftover
/// lines, one at a time) and well above it — the planned path matches the
/// oracle for each of the four sweeps `PoissonSolver::solve` runs (the
/// placer's field solve runs the three without DCT3×DCT3).
#[test]
fn execute_bit_identical_to_per_line_reference_across_sizes() {
    let shapes: &[(usize, usize)] = &[
        (2, 2),
        (4, 4),
        (8, 8),
        (16, 16),
        (128, 128),
        (1024, 1024),
        (2, 1024),
        (1024, 2),
        (4, 32),
        (32, 4),
        (8, 512),
        (512, 8),
        (16, 64),
        (64, 16),
        (64, 128),
        (256, 64),
        (1024, 32),
    ];
    let pairs = [
        (Kind::Dct2, Kind::Dct2),
        (Kind::Dct3, Kind::Dct3),
        (Kind::Dst3, Kind::Dct3),
        (Kind::Dct3, Kind::Dst3),
    ];
    for (si, &(rows, cols)) in shapes.iter().enumerate() {
        let mut engine = Spectral2d::new(rows, cols);
        for (i, &(kx, ky)) in pairs.iter().enumerate() {
            let x = test_grid(rows, cols, 1000 + (si * 4 + i) as u64);
            let mut want = x.clone();
            per_line_reference(&mut want, rows, cols, kx, ky);
            let mut got = x;
            engine.execute(&mut got, kx, ky);
            for j in 0..want.len() {
                assert_eq!(
                    got[j].to_bits(),
                    want[j].to_bits(),
                    "{rows}x{cols} pair {i} elem {j}: {} vs {}",
                    got[j],
                    want[j]
                );
            }
        }
        assert_eq!(engine.stats().count, pairs.len() as u64);
    }
}
