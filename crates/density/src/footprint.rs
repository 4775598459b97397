//! The per-stage footprint table: where every movable cell's smoothed
//! footprint lands (its center and bin range), found once per density stage
//! and read by both per-cell passes, the raster and the field gather.
//!
//! Both walk a footprint's bins through [`BinGrid::for_each_overlap`], whose
//! `w·h` has the operands of the per-bin `bin_rect(ix, iy)
//! .overlap_area(rect)` it replaces (rectangle overlap is separable: `w` a
//! function of the column, `h` of the row), over the same bins in the same
//! order, so every bin and every gradient entry keeps its bits
//! (`tests/properties.rs` pins both passes against that per-rect path).
//! What a stage no longer does twice is the bin range, with its four
//! divisions, `floor`/`ceil` and casts; the area-preserving scale and its
//! division are fixed at construction. The overlap weights are a few flops
//! a bin and are not tabled: at 32 B a cell the table stays inside the
//! flow's memory bound, which one holding weight runs did not (DESIGN.md
//! §13).

use crate::grid::BinGrid;
use mep_netlist::{CellId, Netlist, Placement, Rect};

/// `w × h` inflated to at least `√2 ×` the bin size (ePlace local smoothing).
fn inflated(grid: &BinGrid, w: f64, h: f64) -> (f64, f64) {
    let sqrt2 = std::f64::consts::SQRT_2;
    (w.max(sqrt2 * grid.bin_w()), h.max(sqrt2 * grid.bin_h()))
}

/// The (possibly inflated) density footprint of `cell` centered at
/// `(cx, cy)`.
fn footprint(grid: &BinGrid, netlist: &Netlist, cell: CellId, [cx, cy]: [f64; 2]) -> Rect {
    let (ew, eh) = inflated(grid, netlist.cell_width(cell), netlist.cell_height(cell));
    Rect::new(cx - 0.5 * ew, cy - 0.5 * eh, cx + 0.5 * ew, cy + 0.5 * eh)
}

/// One footprint at the tabled point: the cell's center (`to_bits`, so a
/// NaN coordinate equals itself) and the `cols × rows` bins from
/// `(col_lo, row_lo)` its rect overlaps. A rect of no area (coordinates so
/// large the inflation is absorbed) covers no bin and names the nearest
/// one, whose field value is its gather.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    center: [u64; 2],
    col_lo: u32,
    cols: u32,
    row_lo: u32,
    rows: u32,
}

impl Span {
    /// The footprint of `cell` at `placement` and where it lands.
    fn locate(
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        cell: CellId,
    ) -> (Rect, Self) {
        let c = placement.center(netlist, cell);
        let rect = footprint(grid, netlist, cell, [c.x, c.y]);
        let (cols, rows) = if rect.area() <= 0.0 {
            let (ix, iy) = grid.nearest_bin(rect.xl, rect.yl);
            (ix..ix, iy..iy)
        } else {
            (
                grid.col_range(rect.xl, rect.xh),
                grid.row_range(rect.yl, rect.yh),
            )
        };
        let span = Self {
            center: [c.x.to_bits(), c.y.to_bits()],
            // lossless: the ranges end inside the grid, whose sides fit `u32`
            col_lo: cols.start as u32,
            cols: cols.len() as u32,
            row_lo: rows.start as u32,
            rows: rows.len() as u32,
        };
        (rect, span)
    }

    fn cols(&self) -> std::ops::Range<usize> {
        self.col_lo as usize..(self.col_lo + self.cols) as usize
    }

    fn rows(&self) -> std::ops::Range<usize> {
        self.row_lo as usize..(self.row_lo + self.rows) as usize
    }
}

/// Footprints of the movable cells of one netlist at the last
/// [`FootprintTable::raster`] point.
#[derive(Debug, Clone)]
pub(crate) struct FootprintTable {
    /// [`Netlist::instance_id`] the per-cell constants were taken from.
    netlist_id: u64,
    cells: Vec<CellId>,
    /// Density scale that preserves the area of an inflated cell.
    scale: Vec<f64>,
    spans: Vec<Span>,
}

impl FootprintTable {
    pub(crate) fn new(grid: &BinGrid, netlist: &Netlist) -> Self {
        let sides = grid.nx().max(grid.ny());
        assert!(
            u32::try_from(sides).is_ok(),
            "bin indices are tabled as u32"
        );
        // lint:allow(no-alloc-hot): construction; the stages reuse these buffers
        let cells: Vec<CellId> = netlist.movable_cells().collect();
        let scale = |&cell| {
            let (w, h) = (netlist.cell_width(cell), netlist.cell_height(cell));
            let (ew, eh) = inflated(grid, w, h);
            if ew > w || eh > h {
                (w * h) / (ew * eh)
            } else {
                1.0
            }
        };
        Self {
            netlist_id: netlist.instance_id(),
            // lint:allow(no-alloc-hot): construction; the stages reuse these buffers
            scale: cells.iter().map(scale).collect(),
            // lint:allow(no-alloc-hot): construction; the stages reuse these buffers
            spans: vec![Span::default(); cells.len()],
            cells,
        }
    }

    /// Tables every footprint at `placement` and splats it into `out`.
    pub(crate) fn raster(
        &mut self,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        out: &mut [f64],
    ) {
        debug_assert_eq!(
            netlist.instance_id(),
            self.netlist_id,
            "not the netlist the table was built for"
        );
        debug_assert_eq!(out.len(), grid.len());
        let cells = self.cells.iter().zip(&self.scale).zip(&mut self.spans);
        for ((&cell, &scale), tabled) in cells {
            let (rect, span) = Span::locate(grid, netlist, placement, cell);
            *tabled = span;
            grid.for_each_overlap(&rect, span.cols(), span.rows(), |bin, ov| {
                out[bin] += scale * ov
            });
        }
    }

    /// Whether the table holds the footprints of `netlist` at `placement`.
    pub(crate) fn is_at(&self, grid: &BinGrid, netlist: &Netlist, placement: &Placement) -> bool {
        netlist.instance_id() == self.netlist_id
            && (self.cells.iter().zip(&self.spans))
                .all(|(&cell, span)| Span::locate(grid, netlist, placement, cell).1 == *span)
    }

    /// `grad[cell] −= q · (overlap-weighted mean of E over the footprint)`
    /// for every tabled cell, both fields in one traversal.
    pub(crate) fn gather(
        &self,
        grid: &BinGrid,
        netlist: &Netlist,
        [ex, ey]: [&[f64]; 2],
        [grad_x, grad_y]: [&mut [f64]; 2],
    ) {
        for (&cell, span) in self.cells.iter().zip(&self.spans) {
            let rect = footprint(grid, netlist, cell, span.center.map(f64::from_bits));
            let area = rect.area();
            let e = if area <= 0.0 {
                let bin = grid.index(span.col_lo as usize, span.row_lo as usize);
                [ex[bin], ey[bin]]
            } else {
                let mut acc = [0.0; 2];
                grid.for_each_overlap(&rect, span.cols(), span.rows(), |bin, ov| {
                    acc[0] += ov * ex[bin];
                    acc[1] += ov * ey[bin];
                });
                acc.map(|a| a / area)
            };
            // ∂D/∂x = −q·E_x  (the force is +qE; descending the objective
            // moves the cell along the force)
            let q = netlist.cell_area(cell);
            grad_x[cell.index()] -= q * e[0];
            grad_y[cell.index()] -= q * e[1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::{synth, NetlistBuilder};

    /// One movable `w × h` cell with its lower-left corner at `(x, y)`.
    fn one_cell(w: f64, h: f64, x: f64, y: f64) -> (Netlist, Placement) {
        let mut b = NetlistBuilder::new();
        b.add_cell("c", w, h, true).unwrap();
        let mut pl = Placement::zeros(1);
        (pl.x[0], pl.y[0]) = (x, y);
        (b.build(), pl)
    }

    #[test]
    fn smoothing_preserves_cell_area() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let grid = BinGrid::new(c.design.die, 32, 32);
        let table = FootprintTable::new(&grid, nl);
        assert_eq!(table.cells.len(), nl.num_movable());
        for (&cell, scale) in table.cells.iter().zip(&table.scale).take(20) {
            let p = c.placement.center(nl, cell);
            let rect = footprint(&grid, nl, cell, [p.x, p.y]);
            assert!((rect.area() * scale - nl.cell_area(cell)).abs() < 1e-9);
        }
    }

    #[test]
    fn gather_of_a_constant_field_is_the_constant() {
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        // 1.0 × 0.5 at (1.2, 2.1): inflated to √2 × √2, still inside the die
        let (nl, pl) = one_cell(1.0, 0.5, 1.2, 2.1);
        let mut table = FootprintTable::new(&grid, &nl);
        table.raster(&grid, &nl, &pl, &mut vec![0.0; grid.len()]);
        let (ex, ey) = (vec![3.5; grid.len()], vec![-2.0; grid.len()]);
        let (mut gx, mut gy) = (vec![0.0], vec![10.0]);
        table.gather(&grid, &nl, [&ex, &ey], [&mut gx, &mut gy]);
        assert!((gx[0] + 0.5 * 3.5).abs() < 1e-9, "{gx:?}");
        assert!((gy[0] - (10.0 + 0.5 * 2.0)).abs() < 1e-9, "{gy:?}");
    }

    #[test]
    fn gather_weighs_by_overlap() {
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 2.0, 4.0), 2, 2);
        // 1.5 × 3 (not inflated) over [0.5, 2] × [0.5, 3.5]: a third of it in
        // column 0, half in each row
        let (nl, pl) = one_cell(1.5, 3.0, 0.5, 0.5);
        let mut table = FootprintTable::new(&grid, &nl);
        let mut mass = vec![0.0; grid.len()];
        table.raster(&grid, &nl, &pl, &mut mass);
        for (m, want) in mass.iter().zip([0.75, 1.5, 0.75, 1.5]) {
            assert!((m - want).abs() < 1e-12, "{mass:?}");
        }
        let (ex, ey) = ([1.0, 3.0, 1.0, 3.0], [1.0, 1.0, 5.0, 5.0]);
        let (mut gx, mut gy) = (vec![0.0], vec![0.0]);
        table.gather(&grid, &nl, [&ex, &ey], [&mut gx, &mut gy]);
        assert!((gx[0] + 4.5 * (0.5 * 1.0 + 1.0 * 3.0) / 1.5).abs() < 1e-9);
        assert!((gy[0] + 4.5 * 3.0).abs() < 1e-9);
    }

    /// The table is one fixed-size entry per movable cell: stages write it in
    /// place and allocate nothing, also when cells wander across and off
    /// the die.
    #[test]
    fn stages_do_not_grow_the_table() {
        let c = synth::generate(&synth::smoke_spec());
        let (nl, die) = (&c.design.netlist, c.design.die);
        let grid = BinGrid::new(die, 32, 32);
        let mut table = FootprintTable::new(&grid, nl);
        let mut out = vec![0.0; grid.len()];
        let mut pl = c.placement.clone();
        let mut capacity = 0;
        for stage in 1..=50 {
            for (k, cell) in nl.movable_cells().enumerate() {
                let t = (stage * 31 + k * 17) as f64;
                pl.x[cell.index()] = die.xl + die.width() * (1.4 * (t * 0.013).sin().abs() - 0.2);
                pl.y[cell.index()] = die.yl + die.height() * (1.4 * (t * 0.029).cos().abs() - 0.2);
            }
            table.raster(&grid, nl, &pl, &mut out);
            assert!(table.is_at(&grid, nl, &pl));
            if stage == 2 {
                capacity = table.spans.capacity();
            }
        }
        assert_eq!(table.spans.capacity(), capacity);
        assert_eq!(table.spans.len(), nl.num_movable());
    }
}
