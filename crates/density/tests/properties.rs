//! Property-based tests for the density substrate: transform algebra,
//! rasterization conservation, the footprint table against the per-rect
//! path it replaced, and Poisson-solver physics on randomized inputs.

#[path = "reference/per_rect.rs"]
mod per_rect;
mod reference;

use mep_density::electro::Electrostatics;
use mep_density::fft::{FftPlan, LANES};
use mep_density::grid::{BinGrid, DensityMap};
use mep_density::poisson::PoissonSolver;
use mep_density::transform::{DctPlan, Kind, TransformScratch};
use mep_netlist::{Design, NetlistBuilder, Placement, Rect};
use proptest::prelude::*;
use reference::{dft_naive, naive};

/// `(w, h, x, y)` of a cell whose lower-left corner may lie anywhere from
/// well outside one side of the 12.3 × 9.3 die to well outside the other.
fn cell_anywhere(
    w: std::ops::Range<f64>,
    h: std::ops::Range<f64>,
) -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (w, h, -7.0f64..19.0, -7.0f64..16.0)
}

/// Planned-path coverage spans every grid size the placer can pick
/// (`BinGrid::auto` caps at 1024).
fn pow2_len_wide() -> impl Strategy<Value = usize> {
    (1u32..11).prop_map(|k| 1usize << k)
}

/// `LANES` interleaved sequences (element `u` of lane `l` at
/// `u * LANES + l`), lane `l` holding `x` scaled by `l + 1`.
fn scaled_tile(x: &[f64]) -> Vec<f64> {
    x.iter()
        .flat_map(|&v| (0..LANES).map(move |l| (l + 1) as f64 * v))
        .collect()
}

proptest! {
    /// The planned FFT matches the naive DFT in both directions across
    /// sizes 2..=1024, as one sequence (`W = 1`) and as a tile whose lane
    /// `l` carries the sequence scaled by `l + 1` (`W = LANES`; the DFT is
    /// linear, so one naive transform serves every lane).
    #[test]
    fn planned_fft_matches_naive(n in pow2_len_wide(), seed in 0u64..500, dir in 0u32..2) {
        let inverse = dir == 1;
        let re0: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.83).sin()).collect();
        let im0: Vec<f64> = (0..n).map(|i| ((seed as f64 - i as f64) * 0.29).cos()).collect();
        let (wr, wi) = dft_naive(&re0, &im0, inverse);
        let plan = FftPlan::new(n);
        let (mut tre, mut tim) = (scaled_tile(&re0), scaled_tile(&im0));
        let mut re = re0;
        let mut im = im0;
        plan.process::<1>(&mut re, &mut im, inverse);
        plan.process::<LANES>(&mut tre, &mut tim, inverse);
        // the naive reference itself drifts with n; scale the tolerance
        let tol = 1e-9 * n as f64;
        for i in 0..n {
            prop_assert!((re[i] - wr[i]).abs() < tol, "re[{i}]");
            prop_assert!((im[i] - wi[i]).abs() < tol, "im[{i}]");
            for l in 0..LANES {
                let k = (l + 1) as f64;
                prop_assert!((tre[i * LANES + l] - k * wr[i]).abs() < k * tol, "lane {l} re[{i}]");
                prop_assert!((tim[i * LANES + l] - k * wi[i]).abs() < k * tol, "lane {l} im[{i}]");
            }
        }
    }

    /// The planned real-FFT DCT/DST paths match the naive references
    /// across sizes 2..=1024, at `W = 1` and on a [`scaled_tile`] at
    /// `W = LANES`.
    #[test]
    fn planned_dct_matches_naive(n in pow2_len_wide(), seed in 0u64..500) {
        let x: Vec<f64> = (0..n).map(|i| ((seed as f64 * 1.7 + i as f64) * 0.47).sin()).collect();
        let plan = DctPlan::new(n);
        let mut scratch = TransformScratch::new();
        let tol = 1e-9 * n as f64;
        for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
            let want = match kind {
                Kind::Dct2 => naive::dct2(&x),
                Kind::Dct3 => naive::dct3(&x),
                Kind::Dst3 => naive::dst3(&x),
            };
            let mut got = x.clone();
            plan.apply::<1>(kind, &mut got, 0, 1, 1, &mut scratch);
            let mut tile = scaled_tile(&x);
            plan.apply::<LANES>(kind, &mut tile, 0, LANES, 1, &mut scratch);
            for i in 0..n {
                prop_assert!((got[i] - want[i]).abs() < tol, "{kind:?}[{i}]");
                for l in 0..LANES {
                    let k = (l + 1) as f64;
                    prop_assert!(
                        (tile[i * LANES + l] - k * want[i]).abs() < k * tol,
                        "{kind:?} lane {l} [{i}]"
                    );
                }
            }
        }
    }

    /// Rasterization conserves the splatted mass for arbitrary in-die
    /// rectangles and scales.
    #[test]
    fn splat_conserves_mass(
        xl in 0.0f64..8.0, yl in 0.0f64..8.0,
        w in 0.01f64..4.0, h in 0.01f64..4.0,
        scale in 0.1f64..3.0,
    ) {
        let die = Rect::new(0.0, 0.0, 12.0, 12.0);
        let grid = BinGrid::new(die, 16, 16);
        let rect = Rect::from_origin_size(xl, yl, w, h);
        let mut out = vec![0.0; grid.len()];
        grid.splat(&rect, scale, &mut out);
        let total: f64 = out.iter().sum();
        prop_assert!((total - scale * rect.area()).abs() < 1e-9 * (1.0 + rect.area()));
    }

    /// The footprint table (spans found once per stage, separable overlap,
    /// 4-lane steps over a fixed 3 × 3 window) against the per-rect path it
    /// replaced, `to_bits` on every bin and every gradient entry. 16 × 8
    /// bins of 0.76875 × 1.1625 over the die, so `√2` bins are 1.09 × 1.64:
    /// `small` cells are mostly inflated (`scale < 1`), `macros` in neither
    /// axis (`scale == 1.0`, footprints over up to 9 × 8 bins). `small` has
    /// 3 to 39 cells, so several whole lane steps and every tail length 0–3
    /// occur. The first two steps are pinned. Step one holds two cells
    /// that share bins, with a 4-column footprint between them, and then a
    /// NaN cell. Step two holds three 3 × 3 spans whose window crosses the
    /// right edge, the top edge or both. Its last cell is a footprint whose
    /// right and top edges lie one ulp past a bin edge that the bin range
    /// excludes. That bin's 1-D weight is positive, so the window must mask
    /// it. Every case also carries a cell hanging
    /// off each die edge, one wholly outside, a NaN coordinate (empty
    /// range), and coordinates that absorb the footprint (a rect of no
    /// area: no mass, gather of the nearest bin).
    #[test]
    fn footprint_table_matches_per_rect_path_bitwise(
        small in prop::collection::vec(cell_anywhere(0.05..1.3, 0.05..2.0), 3..40),
        macros in prop::collection::vec(cell_anywhere(1.1..5.5, 1.7..7.0), 1..4),
        fixed in prop::collection::vec(cell_anywhere(0.0..4.0, 0.0..4.0), 0..3),
    ) {
        let lead = [
            (0.5, 0.5, 1.0, 1.0),
            (2.4, 0.5, 3.1, 3.0),    // 4 columns wide
            (0.5, 0.5, 1.3, 1.2),    // shares bins with the first
            (0.5, 0.5, f64::NAN, 2.0),
            (0.5, 0.5, 11.3, 4.0),   // window past the right edge
            (0.5, 0.5, 4.0, 7.6),    // window past the top edge
            (0.5, 0.5, 11.3, 7.6),   // both
            // right and top edges one ulp past the start of column 5 and row 5
            (1.5, 2.0, 2.3437500000000004, 3.812500000000001),
        ];
        let pinned = [
            (0.4, 0.6, -0.3, 4.0),   // off the left edge
            (0.4, 0.6, 12.1, 4.0),   // off the right edge
            (2.0, 0.3, 5.0, -0.2),   // off the bottom edge
            (2.0, 3.0, 5.0, 7.5),    // off the top edge
            (0.5, 0.5, -4.0, 20.0),  // wholly outside
            (0.5, 0.5, f64::NAN, 3.0),
            (3.0, 3.0, 2.0, f64::NAN),
            (0.5, 0.5, 1e300, 3.0),
            (0.5, 0.5, 6.0, -1e300),
        ];
        let movable = lead.len() + small.len() + macros.len() + pinned.len();
        let mut b = NetlistBuilder::new();
        let mut pl = Placement::zeros(movable + fixed.len());
        let cells = lead.iter().chain(&small).chain(&macros).chain(&pinned).chain(&fixed);
        for (i, &(w, h, x, y)) in cells.enumerate() {
            b.add_cell(format!("c{i}"), w, h, i < movable).unwrap();
            (pl.x[i], pl.y[i]) = (x, y);
        }
        // bins of no exact binary width, so the ulp-edge case exists
        let die = Rect::new(0.0, 0.0, 12.3, 9.3);
        let design = Design::with_uniform_rows("t", b.build(), die, 1.0, 1.0, 1.0).unwrap();
        let nl = &design.netlist;
        let grid = BinGrid::new(die, 16, 8);

        let mut map = DensityMap::new(grid.clone(), nl, &pl);
        map.update_movable(nl, &pl);
        let mut want = vec![0.0; grid.len()];
        for cell in nl.fixed_cells() {
            let rect = pl.cell_rect(nl, cell);
            if rect.area() > 0.0 {
                per_rect::splat(&grid, &rect, 1.0, &mut want);
            }
        }
        for (bin, (got, want)) in map.fixed.iter().zip(&want).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "fixed[{}]: {} vs {}", bin, got, want);
        }
        per_rect::raster_movable(&grid, nl, &pl, &mut want);
        prop_assert!(want.iter().sum::<f64>() > 0.0);
        for (bin, (got, want)) in map.movable.iter().zip(&want).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "movable[{}]: {} vs {}", bin, got, want);
        }

        // the gradient, over the field of the system's own solve
        let mut es = Electrostatics::with_grid(&design, &pl, grid.clone());
        es.update(nl, &pl);
        let mut solver = PoissonSolver::new(grid.nx(), grid.ny(), die.width(), die.height());
        let (mut psi, mut ex, mut ey) = (want.clone(), want.clone(), want.clone());
        solver.solve(es.density(), &mut psi, &mut ex, &mut ey);
        let seed: Vec<f64> = (0..nl.num_cells()).map(|i| 0.25 * i as f64 - 1.0).collect();
        let (mut gx, mut gy) = (seed.clone(), seed.clone());
        es.accumulate_gradient(nl, &pl, &mut gx, &mut gy);
        let (mut want_x, mut want_y) = (seed.clone(), seed.clone());
        per_rect::accumulate_gradient(&grid, nl, &pl, [&ex, &ey], [&mut want_x, &mut want_y]);
        for i in 0..nl.num_cells() {
            prop_assert_eq!(gx[i].to_bits(), want_x[i].to_bits(), "gx[{}]: {} vs {}", i, gx[i], want_x[i]);
            prop_assert_eq!(gy[i].to_bits(), want_y[i].to_bits(), "gy[{}]: {} vs {}", i, gy[i], want_y[i]);
        }
        // the pinned steps lie on the die (or are NaN): every one feels it
        let moved = (0..lead.len()).filter(|&i| gx[i].to_bits() != seed[i].to_bits()).count();
        prop_assert_eq!(moved, lead.len(), "only {} pinned cells felt the field", moved);
    }

    /// `gather` is the area-weighted adjoint of `splat`: for any field F
    /// and rect R, `gather(R, F) · area(R) = Σ_b F_b · overlap(R, b)`,
    /// hence gathering a constant field returns the constant.
    #[test]
    fn gather_adjoint_identity(
        xl in 0.0f64..8.0, yl in 0.0f64..8.0,
        w in 0.05f64..4.0, h in 0.05f64..4.0,
        c in -5.0f64..5.0,
    ) {
        let die = Rect::new(0.0, 0.0, 12.0, 12.0);
        let grid = BinGrid::new(die, 16, 16);
        let rect = Rect::from_origin_size(xl, yl, w, h);
        let field = vec![c; grid.len()];
        prop_assert!((per_rect::gather(&grid, &rect, &field) - c).abs() < 1e-9 * (1.0 + c.abs()));
    }

    /// Poisson solve is linear: solve(aρ1 + bρ2) = a·solve(ρ1) + b·solve(ρ2).
    #[test]
    fn poisson_is_linear(seed in 0u64..200, a in -2.0f64..2.0, b in -2.0f64..2.0) {
        let n = 16;
        let mk = |s: u64| -> Vec<f64> {
            (0..n * n).map(|i| ((s as f64 + i as f64) * 0.61).sin()).collect()
        };
        let r1 = mk(seed);
        let r2 = mk(seed + 7);
        let combo: Vec<f64> = r1.iter().zip(&r2).map(|(x, y)| a * x + b * y).collect();
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let buf = || (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        let (mut p1, mut e1x, mut e1y) = buf();
        let (mut p2, mut e2x, mut e2y) = buf();
        let (mut pc, mut ecx, mut ecy) = buf();
        solver.solve(&r1, &mut p1, &mut e1x, &mut e1y);
        solver.solve(&r2, &mut p2, &mut e2x, &mut e2y);
        solver.solve(&combo, &mut pc, &mut ecx, &mut ecy);
        for i in 0..n * n {
            prop_assert!((pc[i] - (a * p1[i] + b * p2[i])).abs() < 1e-8);
            prop_assert!((ecx[i] - (a * e1x[i] + b * e2x[i])).abs() < 1e-8);
            prop_assert!((ecy[i] - (a * e1y[i] + b * e2y[i])).abs() < 1e-8);
        }
    }

    /// The solver ignores the DC component: adding a constant to ρ changes
    /// nothing.
    #[test]
    fn poisson_ignores_dc(seed in 0u64..200, dc in -3.0f64..3.0) {
        let n = 16;
        let rho: Vec<f64> = (0..n * n).map(|i| ((seed as f64 + i as f64) * 0.43).cos()).collect();
        let shifted: Vec<f64> = rho.iter().map(|v| v + dc).collect();
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let (mut p1, mut ex1, mut ey1) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        let (mut p2, mut ex2, mut ey2) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        solver.solve(&rho, &mut p1, &mut ex1, &mut ey1);
        solver.solve(&shifted, &mut p2, &mut ex2, &mut ey2);
        for i in 0..n * n {
            prop_assert!((p1[i] - p2[i]).abs() < 1e-8);
            prop_assert!((ex1[i] - ex2[i]).abs() < 1e-8);
        }
    }

    /// Electrostatic energy is non-negative (ρ with zero mean ⇒ ½Σρψ ≥ 0,
    /// since the operator is positive semidefinite).
    #[test]
    fn energy_nonnegative(seed in 0u64..500) {
        let n = 16;
        let mut rho: Vec<f64> = (0..n * n).map(|i| ((seed as f64 * 2.1 + i as f64) * 0.37).sin()).collect();
        let mean = rho.iter().sum::<f64>() / rho.len() as f64;
        for v in rho.iter_mut() { *v -= mean; }
        let mut solver = PoissonSolver::new(n, n, 1.0, 1.0);
        let (mut p, mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]);
        solver.solve(&rho, &mut p, &mut ex, &mut ey);
        let energy: f64 = rho.iter().zip(&p).map(|(r, q)| r * q).sum::<f64>();
        prop_assert!(energy >= -1e-9);
    }
}
