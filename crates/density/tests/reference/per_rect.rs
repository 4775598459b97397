//! The per-rect raster and gather as the library ran them before the
//! footprint table (`src/footprint.rs`): one `bin_rect(ix, iy)
//! .overlap_area(rect)` per cell × bin, in both passes. Kept verbatim as
//! the oracle the table is pinned against bit for bit. Integration tests
//! only (it goes through the crate's public API).

use mep_density::grid::BinGrid;
use mep_netlist::{CellId, Netlist, Placement, Rect};

fn col_range(g: &BinGrid, xl: f64, xh: f64) -> std::ops::Range<usize> {
    let lo = ((xl - g.die().xl) / g.bin_w()).floor().max(0.0) as usize;
    let hi = (((xh - g.die().xl) / g.bin_w()).ceil() as usize).min(g.nx());
    lo.min(g.nx())..hi
}

fn row_range(g: &BinGrid, yl: f64, yh: f64) -> std::ops::Range<usize> {
    let lo = ((yl - g.die().yl) / g.bin_h()).floor().max(0.0) as usize;
    let hi = (((yh - g.die().yl) / g.bin_h()).ceil() as usize).min(g.ny());
    lo.min(g.ny())..hi
}

/// Splats `rect` (weighted by `scale`) into `out` by exact overlap.
pub fn splat(g: &BinGrid, rect: &Rect, scale: f64, out: &mut [f64]) {
    for iy in row_range(g, rect.yl, rect.yh) {
        for ix in col_range(g, rect.xl, rect.xh) {
            let ov = g.bin_rect(ix, iy).overlap_area(rect);
            if ov > 0.0 {
                out[g.index(ix, iy)] += scale * ov;
            }
        }
    }
}

/// The field average over `rect` from per-bin values (overlap-weighted
/// mean; the adjoint of [`splat`]).
pub fn gather(g: &BinGrid, rect: &Rect, field: &[f64]) -> f64 {
    let [v] = gather_fields(g, rect, [field]);
    v
}

/// [`gather`] over `N` fields in one traversal; per field the summation
/// order is that of a lone `gather`.
pub fn gather_fields<const N: usize>(g: &BinGrid, rect: &Rect, fields: [&[f64]; N]) -> [f64; N] {
    let area = rect.area();
    if area <= 0.0 {
        // degenerate rect (zero-size terminal): nearest bin value
        let ix = (((rect.xl - g.die().xl) / g.bin_w()) as usize).min(g.nx() - 1);
        let iy = (((rect.yl - g.die().yl) / g.bin_h()) as usize).min(g.ny() - 1);
        let bin = g.index(ix, iy);
        return fields.map(|field| field[bin]);
    }
    let mut acc = [0.0; N];
    for iy in row_range(g, rect.yl, rect.yh) {
        for ix in col_range(g, rect.xl, rect.xh) {
            let ov = g.bin_rect(ix, iy).overlap_area(rect);
            if ov > 0.0 {
                let bin = g.index(ix, iy);
                for (a, field) in acc.iter_mut().zip(&fields) {
                    *a += ov * field[bin];
                }
            }
        }
    }
    acc.map(|a| a / area)
}

/// The (possibly inflated) density footprint of a movable cell under
/// ePlace local smoothing, with the density scale that preserves area.
/// Returns `(rect, scale)`.
pub fn smoothed_footprint(
    g: &BinGrid,
    netlist: &Netlist,
    placement: &Placement,
    cell: CellId,
) -> (Rect, f64) {
    let w = netlist.cell_width(cell);
    let h = netlist.cell_height(cell);
    let min_w = std::f64::consts::SQRT_2 * g.bin_w();
    let min_h = std::f64::consts::SQRT_2 * g.bin_h();
    let ew = w.max(min_w);
    let eh = h.max(min_h);
    let scale = if ew > w || eh > h {
        (w * h) / (ew * eh)
    } else {
        1.0
    };
    let c = placement.center(netlist, cell);
    (
        Rect::new(
            c.x - 0.5 * ew,
            c.y - 0.5 * eh,
            c.x + 0.5 * ew,
            c.y + 0.5 * eh,
        ),
        scale,
    )
}

/// `DensityMap::update_movable` as it was: one [`splat`] per movable cell.
pub fn raster_movable(g: &BinGrid, netlist: &Netlist, placement: &Placement, out: &mut [f64]) {
    out.iter_mut().for_each(|v| *v = 0.0);
    for cell in netlist.movable_cells() {
        let (rect, scale) = smoothed_footprint(g, netlist, placement, cell);
        splat(g, &rect, scale, out);
    }
}

/// `Electrostatics::accumulate_gradient` as it was: one [`gather_fields`]
/// per movable cell, `grad −= q·E`.
pub fn accumulate_gradient(
    g: &BinGrid,
    netlist: &Netlist,
    placement: &Placement,
    [ex, ey]: [&[f64]; 2],
    [grad_x, grad_y]: [&mut [f64]; 2],
) {
    for cell in netlist.movable_cells() {
        let (rect, _scale) = smoothed_footprint(g, netlist, placement, cell);
        let q = netlist.cell_area(cell);
        let [ex, ey] = gather_fields(g, &rect, [ex, ey]);
        grad_x[cell.index()] -= q * ex;
        grad_y[cell.index()] -= q * ey;
    }
}
