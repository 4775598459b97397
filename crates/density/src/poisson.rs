//! Spectral Poisson solver for the ePlace electrostatic system.
//!
//! Solves `∇²ψ = −ρ` on the die with Neumann (reflecting) boundary
//! conditions, using the half-sample cosine basis:
//!
//! ```text
//! a_uv = DCT2(ρ),   ψ = IDCT( a_uv / (w_u² + w_v²) ),
//! E_x  = IDXST-in-x( a_uv · w_u / (w_u² + w_v²) ),
//! E_y  = IDXST-in-y( a_uv · w_v / (w_u² + w_v²) ),
//! ```
//!
//! with `w_u = πu / W`, `w_v = πv / H` (die width/height) — exactly the
//! transform set of ePlace \[18\] / DREAMPlace \[20\]. The DC term is dropped,
//! which is equivalent to superimposing a uniform neutralizing background
//! charge; fields are unaffected.
//!
//! The placer never synthesizes ψ: the energy `Σ ρψ` is read off the
//! spectrum by Parseval's identity of the DCT-II/DCT-III pair,
//! `Σ_i ρ_i ψ_i = Σ_uv c_u c_v s_uv a_uv` (`s_uv` the synthesis
//! coefficients of ψ, `c_0 = ½`, else 1), accumulated in the fused
//! scaling pass, so a field solve is three 2-D sweeps: analysis, `E_x`
//! and `E_y`. [`PoissonSolver::solve`] adds the fourth, ψ, from the
//! spectrum the solver holds. Every sweep runs through one [`Spectral2d`]
//! engine on the calling thread: precomputed phase tables, half-length
//! FFTs, and tiles of adjacent lines whose column pass is strided in
//! place.

use crate::transform::{Kind, Spectral2d};
use mep_obs::StageStats;

/// Reusable spectral solver for an `ny × nx` bin grid (row-major, `iy`
/// major) over a die of physical size `width × height`.
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    /// x-frequencies `w_u`, `u = 0..nx`.
    wu: Vec<f64>,
    /// y-frequencies `w_v`, `v = 0..ny`.
    wv: Vec<f64>,
    /// The synthesis coefficients `s_uv` of ψ from the last field solve.
    spectrum: Vec<f64>,
    /// 2-D transform engine (every sweep of a solve runs here).
    spectral: Spectral2d,
}

impl PoissonSolver {
    /// Creates a solver for an `nx × ny` grid over a `width × height` die.
    ///
    /// # Panics
    ///
    /// Panics if a grid dimension is not a power of two or the die size is
    /// not positive.
    pub fn new(nx: usize, ny: usize, width: f64, height: f64) -> Self {
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two(),
            "grid must be power of two"
        );
        assert!(width > 0.0 && height > 0.0, "die must have positive size");
        let wu = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / width)
            // lint:allow(no-alloc-hot): construction; every solve reuses the solver
            .collect();
        let wv = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / height)
            // lint:allow(no-alloc-hot): construction; every solve reuses the solver
            .collect();
        Self {
            nx,
            ny,
            wu,
            wv,
            // lint:allow(no-alloc-hot): construction; every solve reuses the solver
            spectrum: vec![0.0; nx * ny],
            spectral: Spectral2d::new(ny, nx),
        }
    }

    /// Call count and cumulative wall time of the 2-D transforms.
    pub fn transform_stats(&self) -> StageStats {
        self.spectral.stats()
    }

    /// Solves for the potential and both field components.
    ///
    /// `rho` is the charge density per bin, row-major with `iy` major
    /// (`rho[iy * nx + ix]`); `psi`, `ex`, `ey` receive the potential and
    /// field at bin centers. Four sweeps: the field solve, then ψ from the
    /// held spectrum.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `nx · ny`.
    pub fn solve(&mut self, rho: &[f64], psi: &mut [f64], ex: &mut [f64], ey: &mut [f64]) {
        assert_eq!(psi.len(), self.nx * self.ny);
        self.fields(rho, ex, ey);
        // ψ = Σ s_uv cos(w_u x) cos(w_v y)
        psi.copy_from_slice(&self.spectrum);
        self.spectral.execute(psi, Kind::Dct3, Kind::Dct3);
    }

    /// Solves for both field components in three sweeps and returns
    /// `Σ ρψ`, the sum [`PoissonSolver::solve`]'s ψ would give, by
    /// Parseval; the synthesis coefficients of ψ stay in `spectrum`.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `nx · ny`.
    pub(crate) fn fields(&mut self, rho: &[f64], ex: &mut [f64], ey: &mut [f64]) -> f64 {
        let (nx, ny) = (self.nx, self.ny);
        let n = nx * ny;
        assert_eq!(rho.len(), n);
        assert_eq!(ex.len(), n);
        assert_eq!(ey.len(), n);
        let spec = &mut self.spectrum;

        // forward analysis, in the held spectrum
        spec.copy_from_slice(rho);
        self.spectral.execute(spec, Kind::Dct2, Kind::Dct2);

        // normalization for the synthesis pair: x = (2/N)(2/M) dct3(dct2 x)
        let norm = (2.0 / nx as f64) * (2.0 / ny as f64);

        // One fused elementwise pass turns the analysis coefficients a
        // into all three synthesis spectra while each cache line is still
        // resident: s = norm·a/(w_u² + w_v²) overwrites a in place and
        // seeds E_x = s·w_u and E_y = s·w_v, and Σ c_u c_v s·a accumulates
        // Σρψ (the DCT-III halves the u = 0 column and the v = 0 row).
        let (wu, wv) = (&self.wu, &self.wv);
        let mut rho_psi = 0.0;
        for v in 0..ny {
            let row = v * nx;
            let wv2 = wv[v] * wv[v];
            let mut acc = 0.0;
            // (0, 0) is the DC term, dropped below
            for u in usize::from(v == 0)..nx {
                let a = spec[row + u];
                let s = norm * a / (wu[u] * wu[u] + wv2);
                spec[row + u] = s;
                ex[row + u] = s * wu[u];
                ey[row + u] = s * wv[v];
                let c = if u == 0 { 0.5 } else { 1.0 };
                acc += c * s * a;
            }
            rho_psi += if v == 0 { 0.5 * acc } else { acc };
        }
        spec[0] = 0.0;
        ex[0] = 0.0;
        ey[0] = 0.0;

        // E_x = Σ s_uv w_u sin(w_u x) cos(w_v y)
        self.spectral.execute(ex, Kind::Dst3, Kind::Dct3);
        // E_y = Σ s_uv w_v cos(w_u x) sin(w_v y)
        self.spectral.execute(ey, Kind::Dct3, Kind::Dst3);
        rho_psi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Build a single-mode density and check the manufactured solution.
    #[test]
    fn manufactured_single_mode() {
        let (nx, ny) = (32usize, 16usize);
        let (w, h) = (8.0, 4.0);
        let (u, v) = (3usize, 2usize);
        let wu = PI * u as f64 / w;
        let wv = PI * v as f64 / h;
        let mode = |ix: usize, iy: usize| {
            let x = (ix as f64 + 0.5) * w / nx as f64;
            let y = (iy as f64 + 0.5) * h / ny as f64;
            (wu * x).cos() * (wv * y).cos()
        };
        // ρ = (wu² + wv²) ψ*  ⇒  ψ = ψ*
        let k = wu * wu + wv * wv;
        let mut rho = vec![0.0; nx * ny];
        for iy in 0..ny {
            for ix in 0..nx {
                rho[iy * nx + ix] = k * mode(ix, iy);
            }
        }
        let mut solver = PoissonSolver::new(nx, ny, w, h);
        let mut psi = vec![0.0; nx * ny];
        let mut ex = vec![0.0; nx * ny];
        let mut ey = vec![0.0; nx * ny];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        for iy in 0..ny {
            for ix in 0..nx {
                let want = mode(ix, iy);
                assert!(
                    (psi[iy * nx + ix] - want).abs() < 1e-9,
                    "psi({ix},{iy}) = {} want {want}",
                    psi[iy * nx + ix]
                );
                // E_x = wu sin(wu x) cos(wv y)
                let x = (ix as f64 + 0.5) * w / nx as f64;
                let y = (iy as f64 + 0.5) * h / ny as f64;
                let want_ex = wu * (wu * x).sin() * (wv * y).cos();
                let want_ey = wv * (wu * x).cos() * (wv * y).sin();
                assert!((ex[iy * nx + ix] - want_ex).abs() < 1e-9, "ex({ix},{iy})");
                assert!((ey[iy * nx + ix] - want_ey).abs() < 1e-9, "ey({ix},{iy})");
            }
        }
    }

    #[test]
    fn constant_density_gives_zero_field() {
        let (nx, ny) = (16, 16);
        let rho = vec![2.5; nx * ny];
        let mut solver = PoissonSolver::new(nx, ny, 1.0, 1.0);
        let mut psi = vec![0.0; nx * ny];
        let mut ex = vec![0.0; nx * ny];
        let mut ey = vec![0.0; nx * ny];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        for i in 0..nx * ny {
            assert!(psi[i].abs() < 1e-9);
            assert!(ex[i].abs() < 1e-9);
            assert!(ey[i].abs() < 1e-9);
        }
    }

    #[test]
    fn field_points_away_from_charge_blob() {
        // a blob in the left half pushes positive charges to the right
        let (nx, ny) = (32, 32);
        let mut rho = vec![0.0; nx * ny];
        for iy in 12..20 {
            for ix in 4..10 {
                rho[iy * nx + ix] = 1.0;
            }
        }
        let mut solver = PoissonSolver::new(nx, ny, 1.0, 1.0);
        let mut psi = vec![0.0; nx * ny];
        let mut ex = vec![0.0; nx * ny];
        let mut ey = vec![0.0; nx * ny];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        // to the right of the blob, E_x must be positive (pointing right)
        assert!(ex[16 * nx + 16] > 0.0);
        // to the left of the blob, E_x must be negative
        assert!(ex[16 * nx + 1] < 0.0);
        // potential is highest inside the blob
        let inside = psi[16 * nx + 7];
        let outside = psi[16 * nx + 28];
        assert!(inside > outside);
    }

    #[test]
    fn field_is_negative_gradient_of_potential() {
        // central differences of ψ ≈ −E on a smooth density
        let (nx, ny) = (64, 64);
        let (w, h) = (1.0, 1.0);
        let mut rho = vec![0.0; nx * ny];
        for iy in 0..ny {
            for ix in 0..nx {
                let x = (ix as f64 + 0.5) / nx as f64;
                let y = (iy as f64 + 0.5) / ny as f64;
                rho[iy * nx + ix] = (PI * x).cos() * (2.0 * PI * y).cos();
            }
        }
        let mut solver = PoissonSolver::new(nx, ny, w, h);
        let mut psi = vec![0.0; nx * ny];
        let mut ex = vec![0.0; nx * ny];
        let mut ey = vec![0.0; nx * ny];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        let hx = w / nx as f64;
        for iy in 8..ny - 8 {
            for ix in 8..nx - 8 {
                let d = (psi[iy * nx + ix + 1] - psi[iy * nx + ix - 1]) / (2.0 * hx);
                let e = ex[iy * nx + ix];
                assert!(
                    (d + e).abs() < 2e-3 * (1.0 + e.abs()),
                    "({ix},{iy}): dψ/dx {d} vs −E {e}"
                );
            }
        }
    }

    fn rand_grid(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// `(Σρψ by Parseval from fields, Σρψ over solve's ψ)`.
    fn both_sums(solver: &mut PoissonSolver, rho: &[f64]) -> (f64, f64) {
        let n = rho.len();
        let (mut psi, mut ex, mut ey) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let parseval = solver.fields(rho, &mut ex, &mut ey);
        solver.solve(rho, &mut psi, &mut ex, &mut ey);
        let direct = rho.iter().zip(&psi).map(|(r, p)| r * p).sum::<f64>();
        (parseval, direct)
    }

    #[test]
    fn parseval_energy_equals_rho_psi_of_solve() {
        for (i, &(nx, ny)) in [(128usize, 128usize), (128, 64), (16, 256)]
            .iter()
            .enumerate()
        {
            let mut solver = PoissonSolver::new(nx, ny, 3.0 * nx as f64, 2.0 * ny as f64);
            let rho = rand_grid(nx * ny, 40 + i as u64);
            let (parseval, direct) = both_sums(&mut solver, &rho);
            let rel = (parseval - direct).abs() / direct.abs();
            assert!(
                rel <= 1e-12,
                "{nx}x{ny}: {parseval} vs {direct} (rel {rel:e})"
            );
        }
    }

    #[test]
    fn parseval_energy_of_zero_constant_and_single_bin_density() {
        let (nx, ny) = (32usize, 16usize);
        let mut solver = PoissonSolver::new(nx, ny, 8.0, 4.0);
        let (parseval, _) = both_sums(&mut solver, &vec![0.0; nx * ny]);
        assert_eq!(parseval, 0.0);
        // a constant is all DC, which the solve drops
        let (parseval, direct) = both_sums(&mut solver, &vec![1.5; nx * ny]);
        assert!(parseval.abs() < 1e-24, "constant: {parseval}");
        assert!(direct.abs() < 1e-12, "constant: {direct}");
        let mut rho = vec![0.0; nx * ny];
        rho[5 * nx + 3] = 2.0;
        let (parseval, direct) = both_sums(&mut solver, &rho);
        assert!(parseval > 0.0);
        let rel = (parseval - direct).abs() / direct;
        assert!(rel <= 1e-12, "single bin: {parseval} vs {direct}");
    }

    #[test]
    fn fields_and_solve_give_bitwise_equal_fields() {
        let (nx, ny) = (64usize, 32usize);
        let mut solver = PoissonSolver::new(nx, ny, 5.0, 7.0);
        let rho = rand_grid(nx * ny, 9);
        let n = nx * ny;
        let (mut ex1, mut ey1) = (vec![0.0; n], vec![0.0; n]);
        solver.fields(&rho, &mut ex1, &mut ey1);
        let (mut psi, mut ex2, mut ey2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        solver.solve(&rho, &mut psi, &mut ex2, &mut ey2);
        for i in 0..n {
            assert_eq!(ex1[i].to_bits(), ex2[i].to_bits(), "E_x[{i}]");
            assert_eq!(ey1[i].to_bits(), ey2[i].to_bits(), "E_y[{i}]");
        }
    }

    #[test]
    fn energy_is_positive_for_nonuniform_density() {
        // ½Σρψ > 0: the electrostatic energy of any non-neutral layout
        let (nx, ny) = (16, 16);
        let mut rho = vec![0.0; nx * ny];
        rho[5 * nx + 5] = 1.0;
        rho[10 * nx + 12] = 2.0;
        let mut solver = PoissonSolver::new(nx, ny, 1.0, 1.0);
        let mut psi = vec![0.0; nx * ny];
        let mut ex = vec![0.0; nx * ny];
        let mut ey = vec![0.0; nx * ny];
        solver.solve(&rho, &mut psi, &mut ex, &mut ey);
        let energy: f64 = rho.iter().zip(&psi).map(|(r, p)| r * p).sum::<f64>() * 0.5;
        assert!(energy > 0.0);
    }
}
