//! Bin grid, density rasterization, and the overflow metric.
//!
//! The die is divided into an `m × n` grid of equal bins (`m`, `n` powers
//! of two for the spectral solver). Cell area is rasterized into bins by
//! exact rectangle overlap. Following ePlace's *local smoothing*, a movable
//! cell narrower than `√2 ×` the bin size is inflated to that size with its
//! density scaled down so total charge (area) is preserved — otherwise
//! sub-bin cells produce a spiky, ill-conditioned density.

use crate::footprint::FootprintTable;
use mep_netlist::{Design, Netlist, Placement, Rect};

/// Length of `[lo, lo + step]` inside `[a, b]`, zero when disjoint.
#[inline]
fn overlap(lo: f64, step: f64, a: f64, b: f64) -> f64 {
    ((lo + step).min(b) - lo.max(a)).max(0.0)
}

/// An `m × n` grid of equal bins over the die.
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    die: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
}

impl BinGrid {
    /// Creates a grid with `nx × ny` bins over `die`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or the die is degenerate.
    pub fn new(die: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "bin grid must be non-empty");
        assert!(die.width() > 0.0 && die.height() > 0.0, "degenerate die");
        Self {
            die,
            nx,
            ny,
            bin_w: die.width() / nx as f64,
            bin_h: die.height() / ny as f64,
        }
    }

    /// Picks a power-of-two grid so bins are a few standard-cell rows wide,
    /// clamped to `\[16, 1024\]` per side (ePlace uses a similar heuristic).
    pub fn auto(design: &Design) -> Self {
        let cells = design.netlist.num_movable().max(1);
        // aim for ~1–4 movable cells per bin
        let target = (cells as f64).sqrt();
        let side = target.clamp(16.0, 1024.0);
        let pow2 = (side.log2().round() as u32).clamp(4, 10);
        let n = 1usize << pow2;
        Self::new(design.die, n, n)
    }

    /// Number of bins horizontally.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of bins vertically.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of bins.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bin width.
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Bin height.
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// Area of one bin.
    pub fn bin_area(&self) -> f64 {
        self.bin_w * self.bin_h
    }

    /// The die this grid covers.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Rectangle of bin `(ix, iy)`.
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        Rect::from_origin_size(
            self.die.xl + ix as f64 * self.bin_w,
            self.die.yl + iy as f64 * self.bin_h,
            self.bin_w,
            self.bin_h,
        )
    }

    /// Flat index of bin `(ix, iy)` (row-major by `iy`).
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        iy * self.nx + ix
    }

    /// Column range of bins overlapping `[xl, xh]`, clamped to the die.
    #[inline]
    pub(crate) fn col_range(&self, xl: f64, xh: f64) -> std::ops::Range<usize> {
        let lo = ((xl - self.die.xl) / self.bin_w).floor().max(0.0) as usize;
        let hi = (((xh - self.die.xl) / self.bin_w).ceil() as usize).min(self.nx);
        lo.min(self.nx)..hi
    }

    #[inline]
    pub(crate) fn row_range(&self, yl: f64, yh: f64) -> std::ops::Range<usize> {
        let lo = ((yl - self.die.yl) / self.bin_h).floor().max(0.0) as usize;
        let hi = (((yh - self.die.yl) / self.bin_h).ceil() as usize).min(self.ny);
        lo.min(self.ny)..hi
    }

    /// The bin `(ix, iy)` holding the point, clamped to the grid.
    pub(crate) fn nearest_bin(&self, x: f64, y: f64) -> (usize, usize) {
        (
            (((x - self.die.xl) / self.bin_w) as usize).min(self.nx - 1),
            (((y - self.die.yl) / self.bin_h) as usize).min(self.ny - 1),
        )
    }

    /// Length of column `ix` inside `[xl, xh]`, zero when disjoint: the
    /// `w` of a bin's overlap area `w·h`.
    #[inline]
    pub(crate) fn col_overlap(&self, ix: usize, xl: f64, xh: f64) -> f64 {
        overlap(self.die.xl + ix as f64 * self.bin_w, self.bin_w, xl, xh)
    }

    /// Length of row `iy` inside `[yl, yh]`, zero when disjoint: the `h` of
    /// a bin's overlap area `w·h`.
    #[inline]
    pub(crate) fn row_overlap(&self, iy: usize, yl: f64, yh: f64) -> f64 {
        overlap(self.die.yl + iy as f64 * self.bin_h, self.bin_h, yl, yh)
    }

    /// Calls `f(bin, overlap area)` for every bin of `cols × rows` that
    /// `rect` overlaps, row by row: the library's one overlap routine. The
    /// area is `w·h`, the 1-D overlaps of the bin's column and row with the
    /// rect.
    #[inline]
    pub(crate) fn for_each_overlap(
        &self,
        rect: &Rect,
        cols: std::ops::Range<usize>,
        rows: std::ops::Range<usize>,
        mut f: impl FnMut(usize, f64),
    ) {
        for iy in rows {
            let h = self.row_overlap(iy, rect.yl, rect.yh);
            for ix in cols.clone() {
                let ov = self.col_overlap(ix, rect.xl, rect.xh) * h;
                if ov > 0.0 {
                    f(self.index(ix, iy), ov);
                }
            }
        }
    }

    /// Splats `rect` (weighted by `scale`) into `out` by exact overlap.
    pub fn splat(&self, rect: &Rect, scale: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.len());
        let cols = self.col_range(rect.xl, rect.xh);
        let rows = self.row_range(rect.yl, rect.yh);
        self.for_each_overlap(rect, cols, rows, |bin, ov| out[bin] += scale * ov);
    }
}

/// Movable and fixed density maps over a [`BinGrid`], bound to the netlist
/// they were built for.
#[derive(Debug, Clone)]
pub struct DensityMap {
    grid: BinGrid,
    /// Fixed-cell area per bin (computed once).
    pub fixed: Vec<f64>,
    /// Movable-cell area per bin (recomputed every iteration).
    pub movable: Vec<f64>,
    /// The movable footprints at the last [`DensityMap::update_movable`].
    pub(crate) table: FootprintTable,
}

impl DensityMap {
    /// Builds the map and rasterizes the fixed cells from `placement`.
    pub fn new(grid: BinGrid, netlist: &Netlist, placement: &Placement) -> Self {
        // lint:allow(no-alloc-hot): construction; the fixed density is computed once
        let mut fixed = vec![0.0; grid.len()];
        for cell in netlist.fixed_cells() {
            let rect = placement.cell_rect(netlist, cell);
            if rect.area() > 0.0 {
                grid.splat(&rect, 1.0, &mut fixed);
            }
        }
        Self {
            // lint:allow(no-alloc-hot): construction; every update rewrites it in place
            movable: vec![0.0; grid.len()],
            fixed,
            table: FootprintTable::new(&grid, netlist),
            grid,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Re-rasterizes movable cells (with ePlace smoothing) from `placement`.
    /// `netlist` must be the one the map was built for: the smoothing of
    /// each cell was fixed then.
    pub fn update_movable(&mut self, netlist: &Netlist, placement: &Placement) {
        self.movable.iter_mut().for_each(|v| *v = 0.0);
        self.table
            .raster(&self.grid, netlist, placement, &mut self.movable);
    }

    /// Total charge density per bin (movable + fixed), for the Poisson
    /// right-hand side. Written into `out`.
    pub fn total_into(&self, out: &mut [f64]) {
        for ((o, &m), &f) in out.iter_mut().zip(&self.movable).zip(&self.fixed) {
            *o = m + f;
        }
    }

    /// ePlace density overflow
    /// `φ = Σ_b (mov_b − ρ_t · free_b)⁺ / Σ movable area`, where `free_b`
    /// is the bin area not covered by fixed cells.
    ///
    /// Overflow starts near 1 with everything piled at the die center and
    /// approaches 0 as cells spread to the target density.
    pub fn overflow(&self, target_density: f64, total_movable_area: f64) -> f64 {
        if total_movable_area <= 0.0 {
            return 0.0;
        }
        let bin_area = self.grid.bin_area();
        let mut over = 0.0;
        for (&m, &f) in self.movable.iter().zip(&self.fixed) {
            let free = (bin_area - f).max(0.0);
            over += (m - target_density * free).max(0.0);
        }
        over / total_movable_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;

    fn grid44() -> BinGrid {
        BinGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    #[test]
    fn splat_conserves_area() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(0.3, 0.7, 2.9, 3.1);
        g.splat(&r, 1.0, &mut out);
        let total: f64 = out.iter().sum();
        assert!((total - r.area()).abs() < 1e-9);
    }

    #[test]
    fn splat_clips_to_die() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0); // hangs off the die
        g.splat(&r, 1.0, &mut out);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-9); // only the in-die quarter
        assert!((out[g.index(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn splat_scale_factor() {
        let g = grid44();
        let mut out = vec![0.0; g.len()];
        let r = Rect::new(1.0, 1.0, 2.0, 2.0);
        g.splat(&r, 0.25, &mut out);
        assert!((out.iter().sum::<f64>() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn density_map_totals_match_areas() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        // spread cells a bit so the smoothed footprints stay inside the die
        let mut map = DensityMap::new(BinGrid::new(c.design.die, 16, 16), nl, &c.placement);
        map.update_movable(nl, &c.placement);
        let movable: f64 = map.movable.iter().sum();
        // footprints are centered in-die (cells start at the die center)
        assert!(
            (movable - nl.total_movable_area()).abs() < 0.02 * nl.total_movable_area(),
            "movable mass {movable} vs area {}",
            nl.total_movable_area()
        );
    }

    #[test]
    fn overflow_is_one_when_piled_and_zero_when_spread() {
        // 100 unit cells on a 10x10 die, target density 1.0
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..100 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let die = Rect::new(0.0, 0.0, 10.0, 10.0);
        let grid = BinGrid::new(die, 8, 8);

        // piled at center
        let mut piled = Placement::zeros(100);
        for i in 0..100 {
            piled.x[i] = 4.5;
            piled.y[i] = 4.5;
        }
        let mut map = DensityMap::new(grid.clone(), &nl, &piled);
        map.update_movable(&nl, &piled);
        let phi_piled = map.overflow(1.0, nl.total_movable_area());

        // spread uniformly
        let mut spread = Placement::zeros(100);
        for i in 0..100 {
            spread.x[i] = (i % 10) as f64;
            spread.y[i] = (i / 10) as f64;
        }
        map.update_movable(&nl, &spread);
        let phi_spread = map.overflow(1.0, nl.total_movable_area());

        assert!(phi_piled > 0.6, "piled overflow {phi_piled}");
        assert!(phi_spread < 0.1, "spread overflow {phi_spread}");
    }

    #[test]
    fn fixed_density_reduces_capacity() {
        let mut b = mep_netlist::NetlistBuilder::new();
        b.add_cell("m", 2.0, 2.0, true).unwrap();
        b.add_cell("blk", 5.0, 10.0, false).unwrap();
        let nl = b.build();
        let mut pl = Placement::zeros(2);
        pl.x[1] = 0.0; // block covers left half
        pl.y[1] = 0.0;
        pl.x[0] = 1.0; // movable cell inside the blockage
        pl.y[0] = 4.0;
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 4, 4);
        let mut map = DensityMap::new(grid, &nl, &pl);
        map.update_movable(&nl, &pl);
        let phi_blocked = map.overflow(1.0, nl.total_movable_area());
        // move the movable cell into free space
        pl.x[0] = 7.0;
        map.update_movable(&nl, &pl);
        let phi_free = map.overflow(1.0, nl.total_movable_area());
        assert!(phi_blocked > phi_free);
    }

    #[test]
    fn auto_grid_is_power_of_two() {
        let c = synth::generate(&synth::smoke_spec());
        let g = BinGrid::auto(&c.design);
        assert!(g.nx().is_power_of_two());
        assert!(g.ny().is_power_of_two());
        assert!(g.nx() >= 16 && g.nx() <= 1024);
    }
}
