//! The high-level electrostatic density system: the `D(x, y)` term of the
//! global placement objective (Eq. (1)) and its gradient.
//!
//! ePlace's analogy: cells are positive charges with charge = area; the
//! density penalty is the electrostatic potential energy
//! `D = ½ Σ_i q_i ψ(x_i)`, its gradient on cell `i` is `−q_i E(x_i)`
//! (cells are pushed *down* the energy landscape, i.e. away from dense
//! regions, by following `−∇D`).

use crate::grid::{BinGrid, DensityMap};
use crate::poisson::PoissonSolver;
use mep_netlist::{Design, Netlist, Placement};

/// Per-iteration density report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityReport {
    /// Electrostatic energy `½ Σ ρ ψ` (the penalty value `D`).
    pub energy: f64,
    /// ePlace density overflow `φ ∈ [0, ~1]`.
    pub overflow: f64,
}

/// The electrostatic system bound to one design: grid, fixed density,
/// spectral solver, and scratch fields.
#[derive(Debug, Clone)]
pub struct Electrostatics {
    map: DensityMap,
    solver: PoissonSolver,
    target_density: f64,
    total_movable_area: f64,
    rho: Vec<f64>,
    ex: Vec<f64>,
    ey: Vec<f64>,
    bin_area: f64,
}

impl Electrostatics {
    /// Builds the system for `design` with an automatically sized grid.
    pub fn new(design: &Design, placement: &Placement) -> Self {
        Self::with_grid(design, placement, BinGrid::auto(design))
    }

    /// Builds the system with an explicit grid.
    pub fn with_grid(design: &Design, placement: &Placement, grid: BinGrid) -> Self {
        let n = grid.len();
        let solver = PoissonSolver::new(
            grid.nx(),
            grid.ny(),
            design.die.width(),
            design.die.height(),
        );
        let bin_area = grid.bin_area();
        let map = DensityMap::new(grid, &design.netlist, placement);
        // lint:allow(no-alloc-hot): construction; every update reuses these fields
        let [rho, ex, ey] = std::array::from_fn(|_| vec![0.0; n]);
        Self {
            map,
            solver,
            target_density: design.target_density,
            total_movable_area: design.netlist.total_movable_area(),
            rho,
            ex,
            ey,
            bin_area,
        }
    }

    /// The bin grid in use.
    pub fn grid(&self) -> &BinGrid {
        self.map.grid()
    }

    /// Call count and cumulative wall time of the 2-D spectral transforms
    /// run by the Poisson solver.
    pub fn transform_stats(&self) -> mep_obs::StageStats {
        self.solver.transform_stats()
    }

    /// Rasterizes movable density and solves the field for `placement`.
    /// `netlist` must be the one of the design the system was built for
    /// (checked in debug builds).
    pub fn update(&mut self, netlist: &Netlist, placement: &Placement) -> DensityReport {
        self.map.update_movable(netlist, placement);
        self.map.total_into(&mut self.rho);
        // charge density (area per bin → dimensionless density)
        let inv = 1.0 / self.bin_area;
        for r in self.rho.iter_mut() {
            *r *= inv;
        }
        // Σρψ comes out of the field solve by Parseval: ψ is never built
        let rho_psi = self.solver.fields(&self.rho, &mut self.ex, &mut self.ey);
        let energy = 0.5 * rho_psi * self.bin_area;
        let overflow = self
            .map
            .overflow(self.target_density, self.total_movable_area);
        DensityReport { energy, overflow }
    }

    /// Accumulates `∂D/∂x_i`, `∂D/∂y_i` for every movable cell into the
    /// gradient buffers (fixed cells untouched). Reads the footprints and
    /// field of the last [`Electrostatics::update`]; `placement` must be
    /// that update's (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if the buffers are shorter than the cell count.
    pub fn accumulate_gradient(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) {
        assert!(grad_x.len() >= netlist.num_cells());
        assert!(grad_y.len() >= netlist.num_cells());
        let (grid, table) = (self.map.grid(), &self.map.table);
        debug_assert!(
            table.is_at(grid, netlist, placement),
            "accumulate_gradient at another netlist or point than the last update"
        );
        table.gather(grid, netlist, [&self.ex, &self.ey], [grad_x, grad_y]);
    }

    /// Movable + fixed charge density of the last solve.
    pub fn density(&self) -> &[f64] {
        &self.rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::{synth, NetlistBuilder, Rect};

    fn two_cell_design(x0: f64, x1: f64) -> (Design, Placement) {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 2.0, 2.0, true).unwrap();
        b.add_cell("b", 2.0, 2.0, true).unwrap();
        let nl = b.build();
        let design =
            Design::with_uniform_rows("t", nl, Rect::new(0.0, 0.0, 32.0, 32.0), 1.0, 1.0, 1.0)
                .unwrap();
        let mut pl = Placement::zeros(2);
        pl.x[0] = x0;
        pl.y[0] = 15.0;
        pl.x[1] = x1;
        pl.y[1] = 15.0;
        (design, pl)
    }

    #[test]
    fn overlapping_cells_repel() {
        let (design, pl) = two_cell_design(15.0, 15.5);
        let grid = BinGrid::new(design.die, 32, 32);
        let mut es = Electrostatics::with_grid(&design, &pl, grid);
        es.update(&design.netlist, &pl);
        let mut gx = vec![0.0; 2];
        let mut gy = vec![0.0; 2];
        es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
        // descending −∇D must push cell a left and cell b right
        assert!(gx[0] > 0.0, "gx[0] = {}", gx[0]);
        assert!(gx[1] < 0.0, "gx[1] = {}", gx[1]);
    }

    #[test]
    fn energy_decreases_as_cells_separate() {
        let grid_energy = |sep: f64| {
            let (design, pl) = two_cell_design(15.0 - sep / 2.0, 15.0 + sep / 2.0);
            let grid = BinGrid::new(design.die, 32, 32);
            let mut es = Electrostatics::with_grid(&design, &pl, grid);
            es.update(&design.netlist, &pl).energy
        };
        let e0 = grid_energy(0.0);
        let e4 = grid_energy(4.0);
        let e10 = grid_energy(10.0);
        assert!(e0 > e4, "{e0} vs {e4}");
        assert!(e4 > e10, "{e4} vs {e10}");
    }

    #[test]
    fn gradient_matches_finite_difference_of_energy() {
        let (design, pl) = two_cell_design(12.0, 18.0);
        let grid = BinGrid::new(design.die, 32, 32);
        let mut es = Electrostatics::with_grid(&design, &pl, grid);
        es.update(&design.netlist, &pl);
        let mut gx = vec![0.0; 2];
        let mut gy = vec![0.0; 2];
        es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
        let h = 0.05;
        for cell in 0..2 {
            let mut plus = pl.clone();
            plus.x[cell] += h;
            let mut minus = pl.clone();
            minus.x[cell] -= h;
            let ep = es.update(&design.netlist, &plus).energy;
            let em = es.update(&design.netlist, &minus).energy;
            let fd = (ep - em) / (2.0 * h);
            es.update(&design.netlist, &pl);
            assert!(
                (fd - gx[cell]).abs() < 0.15 * fd.abs().max(0.05),
                "cell {cell}: fd {fd} vs analytic {}",
                gx[cell]
            );
        }
    }

    #[test]
    fn update_reports_sane_overflow() {
        let c = synth::generate(&synth::smoke_spec());
        let mut es = Electrostatics::new(&c.design, &c.placement);
        let report = es.update(&c.design.netlist, &c.placement);
        // everything starts piled at the die center: overflow near 1
        assert!(report.overflow > 0.5, "overflow {}", report.overflow);
        assert!(report.energy > 0.0);
    }

    #[test]
    fn fixed_cells_get_no_density_gradient() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut es = Electrostatics::new(&c.design, &c.placement);
        es.update(nl, &c.placement);
        let mut gx = vec![0.0; nl.num_cells()];
        let mut gy = vec![0.0; nl.num_cells()];
        es.accumulate_gradient(nl, &c.placement, &mut gx, &mut gy);
        for cell in nl.fixed_cells() {
            assert_eq!(gx[cell.index()], 0.0);
            assert_eq!(gy[cell.index()], 0.0);
        }
        // movable cells at the center pile must feel a force
        let moved = nl
            .movable_cells()
            .filter(|c| gx[c.index()].abs() + gy[c.index()].abs() > 0.0)
            .count();
        assert!(moved > nl.num_movable() / 2);
    }
}
