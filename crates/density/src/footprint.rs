//! The per-stage footprint table: where every movable cell's smoothed
//! footprint lands (its center and bin range), found once per density stage
//! and read by both per-cell passes, the raster and the field gather.
//!
//! A bin's overlap area is `w·h`, with the operands of the per-bin
//! `bin_rect(ix, iy).overlap_area(rect)` it replaces (rectangle overlap is
//! separable: `w` a function of the column, `h` of the row), so every bin
//! and every gradient entry keeps its bits (`tests/properties.rs` pins both
//! passes against that per-rect path). What a stage no longer does twice
//! is the bin range, with its four divisions, `floor`/`ceil` and casts; the
//! area-preserving scale and its division are fixed at construction. The
//! overlap weights are not tabled: at 32 B a cell the table stays inside
//! the flow's memory bound, which one holding weight runs did not
//! (DESIGN.md §13).
//!
//! Both passes walk the cells in steps of `L = 4`, one `[f64; 4]` per
//! quantity (rect, area, bin range), with each cell's operations unchanged,
//! so the divisions, `floor`/`ceil` and `min`/`max` vectorise across
//! lanes. A cell whose span fits a `K × K = 3 × 3` window inside the grid
//! (all but a few percent of a catalogue circuit) takes that window at a
//! fixed trip count, with its six 1-D weights computed once and exactly
//! `0.0` past the span: such a bin adds `±0` to a sum that starts at
//! `+0.0`, which changes no bit. Every other cell, and the `n % 4` tail,
//! walks its own bins through [`BinGrid::for_each_overlap`], in the same
//! cell order. The raster scatters lane by lane, since two cells of a step
//! may share a bin; the gather accumulates each lane in row-major order.

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
        (rect, Self::new([c.x, c.y], cols, rows))
    }

    fn new([cx, cy]: [f64; 2], cols: std::ops::Range<usize>, rows: std::ops::Range<usize>) -> Self {
        Self {
            center: [cx.to_bits(), cy.to_bits()],
            // lossless: the ranges end inside the grid, whose sides fit `u32`
            col_lo: cols.start as u32,
            cols: cols.len() as u32,
            row_lo: rows.start as u32,
            rows: rows.len() as u32,
        }
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
    /// Returns how many cells took the fixed `K × K` window.
    pub(crate) fn raster(
        &mut self,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        out: &mut [f64],
    ) -> usize {
        debug_assert_eq!(
            netlist.instance_id(),
            self.netlist_id,
            "not the netlist the table was built for"
        );
        debug_assert_eq!(out.len(), grid.len());
        let (steps, tail) = self.cells.as_chunks::<L>();
        let (scales, tail_scales) = self.scale.as_chunks::<L>();
        let (spans, tail_spans) = self.spans.as_chunks_mut::<L>();
        let nx = grid.nx();
        let mut fixed = 0;
        for ((cells, scale), spans) in steps.iter().zip(scales).zip(spans) {
            let mut center = [[0.0; L]; 2];
            for (l, &cell) in cells.iter().enumerate() {
                let c = placement.center(netlist, cell);
                (center[0][l], center[1][l]) = (c.x, c.y);
            }
            let mut step = Step::new(grid, netlist, cells, center);
            for l in 0..L {
                let cols = grid.col_range(step.xl[l], step.xh[l]);
                let rows = grid.row_range(step.yl[l], step.yh[l]);
                (step.col_lo[l], step.cols[l]) = (cols.start, cols.len());
                (step.row_lo[l], step.rows[l]) = (rows.start, rows.len());
            }
            let (w, h) = step.weights(grid);
            for l in 0..L {
                if !step.fits(grid, l) {
                    raster_cell(
                        grid,
                        netlist,
                        placement,
                        cells[l],
                        scale[l],
                        &mut spans[l],
                        out,
                    );
                    continue;
                }
                let (col_lo, row_lo) = (step.col_lo[l], step.row_lo[l]);
                spans[l] = Span::new(
                    [center[0][l], center[1][l]],
                    col_lo..col_lo + step.cols[l],
                    row_lo..row_lo + step.rows[l],
                );
                // in cell order: two lanes may share a bin
                let base = grid.index(col_lo, row_lo);
                for ky in 0..K {
                    let row = &mut out[base + ky * nx..][..K];
                    for (kx, bin) in row.iter_mut().enumerate() {
                        *bin += scale[l] * (w[kx][l] * h[ky][l]);
                    }
                }
                fixed += 1;
            }
        }
        let cells = tail.iter().zip(tail_scales).zip(tail_spans);
        for ((&cell, &scale), tabled) in cells {
            raster_cell(grid, netlist, placement, cell, scale, tabled, out);
        }
        fixed
    }

    /// Whether the table holds the footprints of `netlist` at `placement`.
    pub(crate) fn is_at(&self, grid: &BinGrid, netlist: &Netlist, placement: &Placement) -> bool {
        netlist.instance_id() == self.netlist_id
            && (self.cells.iter().zip(&self.spans))
                .all(|(&cell, span)| Span::locate(grid, netlist, placement, cell).1 == *span)
    }

    /// `grad[cell] −= q · (overlap-weighted mean of E over the footprint)`
    /// for every tabled cell, both fields in one traversal. Returns how many
    /// cells took the fixed `K × K` window.
    pub(crate) fn gather(
        &self,
        grid: &BinGrid,
        netlist: &Netlist,
        field: [&[f64]; 2],
        grad: [&mut [f64]; 2],
    ) -> usize {
        let [ex, ey] = field;
        let [grad_x, grad_y] = grad;
        let (steps, tail) = self.cells.as_chunks::<L>();
        let (spans, tail_spans) = self.spans.as_chunks::<L>();
        let nx = grid.nx();
        let mut fixed = 0;
        for (cells, spans) in steps.iter().zip(spans) {
            let mut center = [[0.0; L]; 2];
            for (l, span) in spans.iter().enumerate() {
                [center[0][l], center[1][l]] = span.center.map(f64::from_bits);
            }
            let mut step = Step::new(grid, netlist, cells, center);
            for (l, span) in spans.iter().enumerate() {
                (step.col_lo[l], step.cols[l]) = (span.col_lo as usize, span.cols as usize);
                (step.row_lo[l], step.rows[l]) = (span.row_lo as usize, span.rows as usize);
            }
            let (w, h) = step.weights(grid);
            let fits: [bool; L] = std::array::from_fn(|l| step.fits(grid, l));
            let mut acc = [[0.0; L]; 2];
            if fits.contains(&true) {
                // each lane's window sliced once per field, so that the
                // bounds checks leave the loop; a lane that does not fit
                // reads the window at bin 0 (there is one: some lane fits)
                // and its sums are dropped
                let len = (K - 1) * nx + K;
                let base: [usize; L] = std::array::from_fn(|l| {
                    if fits[l] {
                        grid.index(step.col_lo[l], step.row_lo[l])
                    } else {
                        0
                    }
                });
                let wx: [&[f64]; L] = std::array::from_fn(|l| &ex[base[l]..][..len]);
                let wy: [&[f64]; L] = std::array::from_fn(|l| &ey[base[l]..][..len]);
                for ky in 0..K {
                    for kx in 0..K {
                        for l in 0..L {
                            let ov = w[kx][l] * h[ky][l];
                            acc[0][l] += ov * wx[l][ky * nx + kx];
                            acc[1][l] += ov * wy[l][ky * nx + kx];
                        }
                    }
                }
            }
            for l in 0..L {
                let cell = cells[l];
                let e = if fits[l] {
                    fixed += 1;
                    [acc[0][l] / step.area[l], acc[1][l] / step.area[l]]
                } else {
                    mean_field(grid, netlist, cell, &spans[l], field)
                };
                apply(netlist, cell, e, [&mut *grad_x, &mut *grad_y]);
            }
        }
        for (&cell, span) in tail.iter().zip(tail_spans) {
            let e = mean_field(grid, netlist, cell, span, field);
            apply(netlist, cell, e, [&mut *grad_x, &mut *grad_y]);
        }
        fixed
    }
}

/// Cells per lane step.
const L: usize = 4;
/// Side, in bins, of the fixed footprint window: the span of a smoothed
/// footprint up to two bins wide and high (all but a few percent of the
/// cells of a catalogue circuit).
const K: usize = 3;

/// The footprints of `L` consecutive table cells, one array per quantity:
/// each lane's rect and area with the operands of [`footprint`] and
/// [`Rect::area`], and its bin ranges.
struct Step {
    xl: [f64; L],
    yl: [f64; L],
    xh: [f64; L],
    yh: [f64; L],
    area: [f64; L],
    col_lo: [usize; L],
    cols: [usize; L],
    row_lo: [usize; L],
    rows: [usize; L],
}

impl Step {
    /// The footprints of `cells` centered at `(center[0][l], center[1][l])`;
    /// the caller fills in the bin ranges.
    #[inline(always)]
    fn new(grid: &BinGrid, netlist: &Netlist, cells: &[CellId; L], center: [[f64; L]; 2]) -> Self {
        let mut step = Self {
            xl: [0.0; L],
            yl: [0.0; L],
            xh: [0.0; L],
            yh: [0.0; L],
            area: [0.0; L],
            col_lo: [0; L],
            cols: [0; L],
            row_lo: [0; L],
            rows: [0; L],
        };
        for (l, &cell) in cells.iter().enumerate() {
            let (ew, eh) = inflated(grid, netlist.cell_width(cell), netlist.cell_height(cell));
            step.xl[l] = center[0][l] - 0.5 * ew;
            step.yl[l] = center[1][l] - 0.5 * eh;
            step.xh[l] = center[0][l] + 0.5 * ew;
            step.yh[l] = center[1][l] + 0.5 * eh;
        }
        for l in 0..L {
            step.area[l] = (step.xh[l] - step.xl[l]) * (step.yh[l] - step.yl[l]);
        }
        step
    }

    /// Whether lane `l` takes its fixed `K × K` window: its footprint has
    /// area, its span is at most `K × K` and the window lies inside the
    /// grid.
    #[inline(always)]
    fn fits(&self, grid: &BinGrid, l: usize) -> bool {
        self.area[l] > 0.0
            && self.cols[l] <= K
            && self.rows[l] <= K
            && self.col_lo[l] + K <= grid.nx()
            && self.row_lo[l] + K <= grid.ny()
    }

    /// The 1-D overlap weights of each lane's window columns (`w[k][l]`)
    /// and rows (`h[k][l]`), with the operands of
    /// [`BinGrid::for_each_overlap`] and exactly `0.0` past the span.
    /// Inside the span a zero weight is a bin `for_each_overlap` skips; in
    /// both passes it adds `±0` to a sum that starts at `+0.0`, which
    /// leaves every bit in place.
    #[inline(always)]
    fn weights(&self, grid: &BinGrid) -> ([[f64; L]; K], [[f64; L]; K]) {
        let (mut w, mut h) = ([[0.0; L]; K], [[0.0; L]; K]);
        for k in 0..K {
            for l in 0..L {
                let wk = grid.col_overlap(self.col_lo[l] + k, self.xl[l], self.xh[l]);
                let hk = grid.row_overlap(self.row_lo[l] + k, self.yl[l], self.yh[l]);
                w[k][l] = if k < self.cols[l] { wk } else { 0.0 };
                h[k][l] = if k < self.rows[l] { hk } else { 0.0 };
            }
        }
        (w, h)
    }
}

/// One cell through [`BinGrid::for_each_overlap`]: tables its footprint
/// and splats it into `out`.
fn raster_cell(
    grid: &BinGrid,
    netlist: &Netlist,
    placement: &Placement,
    cell: CellId,
    scale: f64,
    tabled: &mut Span,
    out: &mut [f64],
) {
    let (rect, span) = Span::locate(grid, netlist, placement, cell);
    *tabled = span;
    grid.for_each_overlap(&rect, span.cols(), span.rows(), |bin, ov| {
        out[bin] += scale * ov
    });
}

/// The overlap-weighted mean of both fields over `cell`'s tabled
/// footprint, through [`BinGrid::for_each_overlap`].
fn mean_field(
    grid: &BinGrid,
    netlist: &Netlist,
    cell: CellId,
    span: &Span,
    [ex, ey]: [&[f64]; 2],
) -> [f64; 2] {
    let rect = footprint(grid, netlist, cell, span.center.map(f64::from_bits));
    let area = rect.area();
    if area <= 0.0 {
        let bin = grid.index(span.col_lo as usize, span.row_lo as usize);
        return [ex[bin], ey[bin]];
    }
    let mut acc = [0.0; 2];
    grid.for_each_overlap(&rect, span.cols(), span.rows(), |bin, ov| {
        acc[0] += ov * ex[bin];
        acc[1] += ov * ey[bin];
    });
    acc.map(|a| a / area)
}

/// `grad[cell] −= q · e`.
fn apply(netlist: &Netlist, cell: CellId, e: [f64; 2], [grad_x, grad_y]: [&mut [f64]; 2]) {
    // ∂D/∂x = −q·E_x  (the force is +qE; descending the objective moves
    // the cell along the force)
    let q = netlist.cell_area(cell);
    grad_x[cell.index()] -= q * e[0];
    grad_y[cell.index()] -= q * e[1];
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

    /// The route guard: on the newblue6 stand-in spread uniformly over its
    /// die, at least 95 % of the movable cells take the fixed 3 × 3 window
    /// in both passes (96.4 %: the rest are wider footprints and windows
    /// past the grid's right or top edge). A silent fall-back onto
    /// `for_each_overlap` keeps every bit and loses the speed, so only this
    /// count catches it.
    #[test]
    fn newblue6_cells_take_the_fixed_window() {
        use rand::{Rng, SeedableRng};
        let c = synth::generate(&synth::spec_by_name("newblue6").unwrap());
        let (nl, die) = (&c.design.netlist, c.design.die);
        let grid = BinGrid::auto(&c.design);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut pl = c.placement.clone();
        for cell in nl.movable_cells() {
            pl.x[cell.index()] = rng.gen_range(die.xl..die.xh - nl.cell_width(cell));
            pl.y[cell.index()] = rng.gen_range(die.yl..die.yh - nl.cell_height(cell));
        }
        let mut table = FootprintTable::new(&grid, nl);
        let rastered = table.raster(&grid, nl, &pl, &mut vec![0.0; grid.len()]);
        let field = vec![1.0; grid.len()];
        let mut grad = [vec![0.0; nl.num_cells()], vec![0.0; nl.num_cells()]];
        let [gx, gy] = &mut grad;
        let gathered = table.gather(&grid, nl, [&field, &field], [gx, gy]);
        let movable = nl.num_movable();
        assert!(
            rastered * 100 >= 95 * movable,
            "{rastered} of {movable} cells on the 3 × 3 window"
        );
        assert_eq!(gathered, rastered);
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
