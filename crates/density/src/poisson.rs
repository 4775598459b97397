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
//! The four 2-D sweeps of every solve run through one [`Spectral2d`]
//! engine on the calling thread: precomputed twiddle/phase tables, the
//! real-input FFT fast path, and tiles of adjacent lines whose column pass
//! is strided in place.

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
    /// 2-D transform engine (all four sweeps per solve run here).
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
    /// field at bin centers.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `nx · ny`.
    pub fn solve(&mut self, rho: &[f64], psi: &mut [f64], ex: &mut [f64], ey: &mut [f64]) {
        let n = self.nx * self.ny;
        assert_eq!(rho.len(), n);
        assert_eq!(psi.len(), n);
        assert_eq!(ex.len(), n);
        assert_eq!(ey.len(), n);

        // forward analysis, directly in the caller's ψ buffer
        psi.copy_from_slice(rho);
        self.spectral.execute(psi, Kind::Dct2, Kind::Dct2);

        // normalization for the synthesis pair: x = (2/N)(2/M) dct3(dct2 x)
        let norm = (2.0 / self.nx as f64) * (2.0 / self.ny as f64);

        // One fused elementwise pass turns the analysis coefficients into
        // all three synthesis spectra while each cache line of ψ is still
        // resident: s = norm·a/(w_u² + w_v²) overwrites ψ in place and
        // seeds E_x = s·w_u and E_y = s·w_v. This replaces the former
        // `coeff`/`work` staging buffers and their three re-read passes.
        for v in 0..self.ny {
            let wv = self.wv[v];
            let wv2 = wv * wv;
            let row = v * self.nx;
            for u in 0..self.nx {
                if u == 0 && v == 0 {
                    continue; // DC dropped below
                }
                let wu = self.wu[u];
                let denom = wu * wu + wv2;
                let s = norm * psi[row + u] / denom;
                psi[row + u] = s;
                ex[row + u] = s * wu;
                ey[row + u] = s * wv;
            }
        }
        psi[0] = 0.0;
        ex[0] = 0.0;
        ey[0] = 0.0;

        // ψ = Σ s_uv cos(w_u x) cos(w_v y)
        self.spectral.execute(psi, Kind::Dct3, Kind::Dct3);
        // E_x = Σ s_uv w_u sin(w_u x) cos(w_v y)
        self.spectral.execute(ex, Kind::Dst3, Kind::Dct3);
        // E_y = Σ s_uv w_v cos(w_u x) sin(w_v y)
        self.spectral.execute(ey, Kind::Dct3, Kind::Dst3);
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
