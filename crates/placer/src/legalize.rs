//! Legalization: snap the global placement onto rows and sites with
//! minimal movement.
//!
//! Two stages, mirroring the paper's flow (Abacus \[37\] via DREAMPlace):
//!
//! 1. **Macro legalization** — movable macros (taller than one row) are
//!    placed greedily by descending area onto row-aligned, collision-free
//!    positions nearest their global-placement location, then become
//!    obstacles.
//! 2. **Abacus** — standard cells are legalized row by row, in whole sites
//!    of each row: each row segment (the row's sites free of obstacles)
//!    keeps a list of *clusters* whose optimal positions minimize total
//!    quadratic displacement; inserting a cell merges clusters until no
//!    overlap remains (the classic dynamic clustering recurrence).

use crate::error::PlacerError;
use crate::telemetry::DispHistogram;
use mep_netlist::{CellId, Design, FixedState, Placement, Rect, Row};

/// Report of one legalization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeReport {
    /// Average displacement of movable cells (Manhattan).
    pub avg_displacement: f64,
    /// Maximum displacement.
    pub max_displacement: f64,
    /// Number of movable macros legalized in stage 1.
    pub macros: usize,
    /// Histogram of per-cell displacement in row-height multiples.
    pub disp_hist: DispHistogram,
}

/// The design's rows, found by their own `y`: every row lookup of
/// legalization, detailed placement and the legality check goes through
/// here. No order, pitch, common height or origin at `die.yl` is assumed
/// of the rows.
pub(crate) struct RowIndex<'a> {
    rows: &'a [Row],
    /// Row indices sorted by `y`.
    by_y: Vec<usize>,
    /// Height of the tallest row.
    tallest: f64,
}

impl<'a> RowIndex<'a> {
    pub(crate) fn new(rows: &'a [Row]) -> Self {
        let mut by_y: Vec<usize> = (0..rows.len()).collect();
        by_y.sort_by(|&a, &b| rows[a].y.total_cmp(&rows[b].y));
        let tallest = rows.iter().fold(0.0_f64, |h, row| h.max(row.height));
        Self {
            rows,
            by_y,
            tallest,
        }
    }

    /// The rows whose band `(y, y + height)` overlaps the open span
    /// `(yl, yh)`, in `y` order. Touching is not overlapping (as in
    /// [`Rect::intersects`]); an empty or non-finite span overlaps no row.
    /// Only the rows whose bottom lies below `yh` and less than the tallest
    /// row below `yl` are tested.
    pub(crate) fn overlapping(&self, yl: f64, yh: f64) -> impl Iterator<Item = usize> + '_ {
        let candidates = if yl < yh && yl.is_finite() && yh.is_finite() {
            let lo = self
                .by_y
                .partition_point(|&r| self.rows[r].y + self.tallest <= yl);
            let hi = self.by_y.partition_point(|&r| self.rows[r].y < yh);
            self.by_y.get(lo..hi).unwrap_or_default()
        } else {
            &[]
        };
        let rows = self.rows;
        candidates
            .iter()
            .copied()
            .filter(move |&r| yl < rows[r].y + rows[r].height)
    }

    /// The row a cell with lower-left corner `(x, y)` sits on: its bottom
    /// lies within 1e-6 of the row's height of `y` and `x` inside its span
    /// (rows may share a `y`, as a DEF row split around a macro does).
    pub(crate) fn row_at(&self, x: f64, y: f64) -> Option<usize> {
        let tol = 1e-6 * self.tallest;
        let lo = self.by_y.partition_point(|&r| self.rows[r].y < y - tol);
        let hi = self.by_y.partition_point(|&r| self.rows[r].y <= y + tol);
        self.by_y.get(lo..hi)?.iter().copied().find(|&r| {
            let row = &self.rows[r];
            (y - row.y).abs() <= 1e-6 * row.height && row.xl <= x && x < row.xh
        })
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The rows in order of `|y − ty|`, rows at one distance in row-index
    /// order: the order a stable sort of all rows by that key gives, walked
    /// outward from `ty` through the `y` order instead of sorted per call.
    /// `group` is reused scratch for the rows at one distance.
    pub(crate) fn outward<'s>(&'s self, ty: f64, group: &'s mut Vec<usize>) -> Outward<'s> {
        group.clear();
        let (down, up) = self
            .by_y
            .split_at(self.by_y.partition_point(|&r| self.rows[r].y < ty));
        Outward {
            rows: self.rows,
            ty,
            down,
            up,
            group,
        }
    }
}

/// Iterator of [`RowIndex::outward`]. `|y − ty|` never falls along either
/// walk (rounding is monotone), so the rows at the nearer of the two
/// fronts' distances are the fronts' runs at exactly that distance.
pub(crate) struct Outward<'s> {
    rows: &'s [Row],
    ty: f64,
    /// The rows below `ty` not yet visited, in `y` order: walked from the
    /// top down.
    down: &'s [usize],
    /// The rows at or above `ty` not yet visited, in `y` order.
    up: &'s [usize],
    /// The rows at the current distance not yet visited, highest index
    /// first.
    group: &'s mut Vec<usize>,
}

impl Iterator for Outward<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.group.is_empty() {
            let (rows, ty) = (self.rows, self.ty);
            let dy = |r: &usize| rows.get(*r).map(|row| (row.y - ty).abs());
            let d = match (self.down.last().and_then(dy), self.up.first().and_then(dy)) {
                (Some(b), Some(a)) if a.total_cmp(&b).is_lt() => a,
                (b, a) => b.or(a)?,
            };
            let at_d = |r: &usize| dy(r).is_some_and(|v| v.total_cmp(&d).is_eq());
            while let Some((r, rest)) = self.down.split_last().filter(|(r, _)| at_d(r)) {
                self.group.push(*r);
                self.down = rest;
            }
            while let Some((r, rest)) = self.up.split_first().filter(|(r, _)| at_d(r)) {
                self.group.push(*r);
                self.up = rest;
            }
            self.group.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.group.pop()
    }
}

/// Per row, the x-intervals (clipped to the row) of the obstacles whose
/// interior intersects the row, in obstacle order.
pub(crate) fn row_cuts(
    index: &RowIndex,
    obstacles: impl IntoIterator<Item = Rect>,
) -> Vec<Vec<(f64, f64)>> {
    let mut cuts: Vec<Vec<(f64, f64)>> = vec![Vec::new(); index.len()];
    for o in obstacles {
        for r in index.overlapping(o.yl, o.yh) {
            let row = &index.rows[r];
            if o.intersects(&row.rect()) {
                cuts[r].push((o.xl.max(row.xl), o.xh.min(row.xh)));
            }
        }
    }
    cuts
}

/// A free run of one row's sites `[kl, kh)`: site `k` lies at
/// `row.xl + k·site_width`. Segments inside a fence region are tagged with
/// the region index and accept only that region's cells (DEF FENCE
/// semantics: fences are exclusive). Site numbers, widths and cluster
/// positions are in sites; every count is a whole number, so `used` and
/// the emit walk's sums are exact.
#[derive(Debug, Clone)]
struct Segment {
    kl: f64,
    kh: f64,
    used: f64,
    region: Option<u16>,
    /// The cells placed here, in insertion order, which is left to right.
    cells: Vec<CellId>,
    clusters: Vec<Cluster>,
}

/// Abacus cluster: the run of its segment's cells from `first` up to the
/// next cluster's `first`, packed shoulder to shoulder at optimal position
/// `x = q / w`. A cell weighs its width, so the weight sum is `w`.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    q: f64,
    w: f64,
    x: f64,
    first: usize,
}

impl Segment {
    fn new(kl: f64, kh: f64, region: Option<u16>) -> Self {
        Self {
            kl,
            kh,
            used: 0.0,
            region,
            cells: Vec::new(),
            clusters: Vec::new(),
        }
    }

    /// Whether a cell `n` sites wide still fits.
    fn fits(&self, n: f64) -> bool {
        self.used + n <= self.kh - self.kl
    }

    /// The Abacus recurrence: the cluster a cell `width` sites wide aimed
    /// at site `target` ends in when appended, and how many tail clusters
    /// that cluster absorbs. The cell sits at the cluster's tail.
    fn pack(&self, target: f64, width: f64) -> (Cluster, usize) {
        let at = |q: f64, w: f64| (q / w).clamp(self.kl, (self.kh - w).max(self.kl));
        let q = width * target.clamp(self.kl, (self.kh - width).max(self.kl));
        let mut c = Cluster {
            q,
            w: width,
            x: at(q, width),
            first: self.cells.len(),
        };
        let mut absorbed = 0;
        // merge with predecessors while overlapping
        for last in self.clusters.iter().rev() {
            if last.x + last.w > c.x {
                let (q, w) = (last.q + (c.q - c.w * last.w), last.w + c.w);
                c = Cluster {
                    q,
                    w,
                    x: at(q, w),
                    first: last.first,
                };
                absorbed += 1;
            } else {
                break;
            }
        }
        (c, absorbed)
    }

    /// Appends a cell, collapsing overlaps.
    fn push_cell(&mut self, cell: CellId, target: f64, width: f64) {
        let (c, absorbed) = self.pack(target, width);
        self.clusters.truncate(self.clusters.len() - absorbed);
        self.clusters.push(c);
        self.cells.push(cell);
        self.used += width;
    }
}

/// `x`'s offset on `row`'s site lattice, in sites (fractional).
fn to_site(row: &Row, x: f64) -> f64 {
    (x - row.xl) / row.site_width
}

/// The x of site `k` of `row`: `row.xl + k·site_width`. On a row with an
/// integer origin and unit sites, `site_x(row, to_site(row, x).round())`
/// is `x.round()` to the bit for every `x` at or right of the origin.
fn site_x(row: &Row, k: f64) -> f64 {
    row.xl + k * row.site_width
}

/// The number of whole sites of `row` a standard cell `w` wide takes: at
/// least one, so the cell packed after it starts on a site too. A width
/// at most 1e-9 of a site over a whole number of sites takes that number,
/// so float noise adds no site.
fn site_count(row: &Row, w: f64) -> f64 {
    (w / row.site_width - 1e-9).ceil().max(1.0)
}

/// The span a standard cell `w` wide takes on `row`: [`site_count`] sites.
/// An integer width on unit sites is itself to the bit.
pub(crate) fn sites_wide(row: &Row, w: f64) -> f64 {
    site_count(row, w) * row.site_width
}

/// Legalizes `gp` for `design`. Returns the legal placement and a report.
///
/// # Errors
///
/// Returns [`PlacerError::Legalize`] when some cell has no free row
/// segment left to live in — the design's movable area exceeds its free
/// row capacity, counted in whole sites (globally or within one fence
/// region). Such a design cannot be
/// placed overlap-free, so no placement is returned. A design with no rows
/// (rejected by [`Design::new`], but a literal can hold one) is the same
/// error.
pub fn legalize(
    design: &Design,
    gp: &Placement,
) -> Result<(Placement, LegalizeReport), PlacerError> {
    legalize_with_cuts(design, gp).map(|(legal, report, _)| (legal, report))
}

/// Per row, the clipped x-intervals of the obstacles cutting it (see
/// [`row_cuts`]).
pub(crate) type RowCuts = Vec<Vec<(f64, f64)>>;

/// [`legalize`], also returning the row cuts of the obstacles detailed
/// placement keeps out of: the fixed cells and the macros of positive area,
/// at their legal positions — the cuts [`crate::detail::refine`] builds
/// itself, up to their order within a row.
pub(crate) fn legalize_with_cuts(
    design: &Design,
    gp: &Placement,
) -> Result<(Placement, LegalizeReport, RowCuts), PlacerError> {
    let netlist = &design.netlist;
    let mut legal = gp.clone();
    let (Some(first_row), Some(last_row)) = (design.rows.first(), design.rows.last()) else {
        return Err(PlacerError::Legalize {
            reason: "the design has no rows".into(),
        });
    };
    let row_h = first_row.height;
    let die = design.die;

    // --- obstacles: fixed cells with area -----------------------------------
    let mut obstacles: Vec<Rect> = netlist
        .fixed_cells()
        .map(|c| gp.cell_rect(netlist, c))
        .filter(|r| r.area() > 0.0)
        .collect();

    // --- stage 1: movable macros ---------------------------------------------
    let mut macros: Vec<CellId> = netlist
        .movable_cells()
        .filter(|&c| netlist.cell_height(c) > row_h + 1e-9)
        .collect();
    macros.sort_by(|&a, &b| netlist.cell_area(b).total_cmp(&netlist.cell_area(a)));
    let n_macros = macros.len();
    for &m in &macros {
        let w = netlist.cell_width(m);
        let h = netlist.cell_height(m);
        let tx = gp.x[m.index()];
        let ty = gp.y[m.index()];
        // region-constrained macros are boxed into their fence;
        // unconstrained macros must avoid every fence (fences are exclusive)
        let region = design.region_of(m);
        let bound = region.map(|r| r.rect).unwrap_or(die);
        let forbidden: Vec<Rect> = if region.is_none() {
            design.regions.iter().map(|r| r.rect).collect()
        } else {
            Vec::new()
        };
        let mut best: Option<(f64, f64, f64)> = None; // (cost, x, y)
        for row in &design.rows {
            let y = row.y;
            if y + h > bound.yh + 1e-9 || y < bound.yl - 1e-9 {
                continue;
            }
            let dy = (y - ty).abs();
            if let Some((bc, _, _)) = best {
                if dy >= bc {
                    continue; // rows are scanned fully; dy alone already worse
                }
            }
            // candidate x positions: the target, plus obstacle edges
            let mut candidates = vec![tx.clamp(bound.xl, bound.xh - w)];
            let span = Rect::new(bound.xl, y, bound.xh, y + h);
            for o in &obstacles {
                if o.intersects(&span) {
                    candidates.push((o.xh).clamp(bound.xl, bound.xh - w));
                    candidates.push((o.xl - w).clamp(bound.xl, bound.xh - w));
                }
            }
            for &cx in &candidates {
                let cx = site_x(row, to_site(row, cx).round());
                if cx < bound.xl - 1e-9 || cx + w > bound.xh + 1e-9 {
                    continue;
                }
                let rect = Rect::from_origin_size(cx, y, w, h);
                if obstacles.iter().any(|o| o.intersects(&rect))
                    || forbidden.iter().any(|f| f.intersects(&rect))
                {
                    continue;
                }
                let cost = (cx - tx).abs() + dy;
                if best.is_none_or(|(bc, _, _)| cost < bc) {
                    best = Some((cost, cx, y));
                }
            }
        }
        let (_, bx, by) = best.unwrap_or((0.0, die.xl, last_row.y));
        legal.x[m.index()] = bx;
        legal.y[m.index()] = by;
        obstacles.push(Rect::from_origin_size(bx, by, w, h));
    }

    // --- stage 2: Abacus for standard cells, in whole sites ---------------
    // build per-row segments; zero-area macros cut them too, but detailed
    // placement does not see them. Cuts of equal `xl` leave the same
    // segments in any order.
    let index = RowIndex::new(&design.rows);
    let has_area = |o: &Rect| o.area() > 0.0;
    let solid = row_cuts(&index, obstacles.iter().copied().filter(has_area));
    let slivers = row_cuts(&index, obstacles.iter().copied().filter(|o| !has_area(o)));
    let mut rows: Vec<(&Row, Vec<Segment>)> = Vec::with_capacity(design.rows.len());
    let mut cuts: Vec<(f64, f64)> = Vec::new();
    for ((row, solid_cuts), sliver_cuts) in design.rows.iter().zip(&solid).zip(&slivers) {
        cuts.clear();
        cuts.extend(solid_cuts.iter().chain(sliver_cuts));
        cuts.sort_by(|a, b| a.0.total_cmp(&b.0));
        // free x spans `(xl, xh, region)` of the row
        let mut spans = Vec::new();
        let mut cursor = row.xl;
        for &(cl, ch) in &cuts {
            if cl > cursor + 1e-9 {
                spans.push((cursor, cl, None));
            }
            cursor = cursor.max(ch);
        }
        if row.xh > cursor + 1e-9 {
            spans.push((cursor, row.xh, None));
        }
        // split spans at fence boundaries; tag the fence interior of a row
        // inside the fence's vertical span, and drop it from a row the
        // fence only partly covers (no cell may sit there)
        for (r_idx, region) in design.regions.iter().enumerate() {
            let fence = region.rect;
            let inside = row.y >= fence.yl - 1e-9 && row.y + row.height <= fence.yh + 1e-9;
            if !inside && (row.y >= fence.yh || row.y + row.height <= fence.yl) {
                continue; // the row's band misses the fence
            }
            let mut split = Vec::with_capacity(spans.len() + 2);
            for (xl, xh, tag) in spans.drain(..) {
                let (il, ih) = (xl.max(fence.xl), xh.min(fence.xh));
                if ih <= il + 1e-9 {
                    split.push((xl, xh, tag)); // no overlap with this fence
                    continue;
                }
                if il > xl + 1e-9 {
                    split.push((xl, il, tag));
                }
                if inside {
                    split.push((il, ih, Some(r_idx as u16)));
                }
                if xh > ih + 1e-9 {
                    split.push((ih, xh, tag));
                }
            }
            spans = split;
        }
        // the whole sites inside each span, with `site_count`'s slack
        let segments = spans.into_iter().filter_map(|(xl, xh, region)| {
            let kl = (to_site(row, xl) - 1e-9).ceil();
            let kh = (to_site(row, xh) + 1e-9).floor();
            (kl < kh).then(|| Segment::new(kl, kh, region))
        });
        rows.push((row, segments.collect()));
    }

    // standard cells sorted by x (Abacus processing order)
    let mut std_cells: Vec<CellId> = netlist
        .movable_cells()
        .filter(|&c| netlist.cell_height(c) <= row_h + 1e-9)
        .collect();
    std_cells.sort_by(|&a, &b| gp.x[a.index()].total_cmp(&gp.x[b.index()]));

    let mut group = Vec::new();
    for &cell in &std_cells {
        let cw = netlist.cell_width(cell);
        let tx = gp.x[cell.index()];
        let ty = gp.y[cell.index()];
        let cell_region = design.cell_region.get(cell.index()).copied().flatten();
        let mut best: Option<(f64, usize, usize)> = None; // cost, row, segment
        for ri in index.outward(ty, &mut group) {
            let (row, segs) = &rows[ri];
            let dy = (row.y - ty).abs();
            if best.is_some_and(|(bc, _, _)| dy * dy >= bc) {
                break; // rows come by |dy|; no later row can win
            }
            let (target, n) = (to_site(row, tx), site_count(row, cw));
            for (si, seg) in segs.iter().enumerate() {
                if seg.region != cell_region || !seg.fits(n) {
                    continue;
                }
                let (c, _) = seg.pack(target, n);
                let x = site_x(row, c.x + c.w - n);
                let cost = (x - tx) * (x - tx) + dy * dy;
                if best.is_none_or(|(bc, _, _)| cost < bc) {
                    best = Some((cost, ri, si));
                }
            }
        }
        // every row was searched: dense or degenerate designs (utilization
        // ≈ 1, or an over-subscribed fence) can leave a cell with no
        // segment to live in anywhere — a typed error, not a library panic
        let Some((_, ri, si)) = best else {
            return Err(PlacerError::Legalize {
                reason: format!(
                    "no free row segment can host cell `{}` \
                     (width {cw:.3}, region {cell_region:?}): movable \
                     area exceeds free row capacity",
                    netlist.cell_name(cell)
                ),
            });
        };
        let (row, segs) = &mut rows[ri];
        segs[si].push_cell(cell, to_site(row, tx), site_count(row, cw));
    }

    // --- emit: each cluster on its rounded site --------------------------
    // A cluster starts at its rounded site, right of its predecessor and no
    // later than the room its successors need allows. Insertion kept
    // `used ≤ kh − kl`, so that latest start is never left of the cursor:
    // every cell lands inside its segment.
    for (row, segs) in &rows {
        for seg in segs {
            let mut cursor = seg.kl;
            let mut remaining = seg.used;
            let ends = seg.clusters.iter().skip(1).map(|c| c.first);
            let ends = ends.chain([seg.cells.len()]);
            for (c, end) in seg.clusters.iter().zip(ends) {
                let mut k = c.x.round().max(cursor).min(seg.kh - remaining);
                for &cell in seg.cells.get(c.first..end).unwrap_or_default() {
                    legal.x[cell.index()] = site_x(row, k);
                    legal.y[cell.index()] = row.y;
                    k += site_count(row, netlist.cell_width(cell));
                }
                cursor = k;
                remaining -= c.w;
            }
        }
    }

    // --- report ---------------------------------------------------------------
    let mut total_disp = 0.0;
    let mut max_disp = 0.0_f64;
    let mut count = 0usize;
    let mut disp_hist = DispHistogram::default();
    for cell in netlist.movable_cells() {
        let d = (legal.x[cell.index()] - gp.x[cell.index()]).abs()
            + (legal.y[cell.index()] - gp.y[cell.index()]).abs();
        total_disp += d;
        max_disp = max_disp.max(d);
        count += 1;
        disp_hist.observe(d / row_h);
    }
    Ok((
        legal,
        LegalizeReport {
            avg_displacement: if count > 0 {
                total_disp / count as f64
            } else {
                0.0
            },
            max_displacement: max_disp,
            macros: n_macros,
            disp_hist,
        },
        solid,
    ))
}

/// A legality violation found by [`check_legal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Cell pokes outside the die.
    OutsideDie(CellId),
    /// Two placed rectangles overlap.
    Overlap(CellId, CellId),
    /// Cell whose lower-left corner sits on no row: no row has its bottom
    /// within 1e-6 of its height of the cell's y and the cell's x in its
    /// span.
    OffRow(CellId),
    /// Cell on a row but not on its site lattice: its x is more than 1e-6
    /// of a site from every `row.xl + k·site_width`.
    OffSite(CellId),
    /// Region-constrained cell placed outside its fence.
    OutsideRegion(CellId),
    /// Unconstrained cell whose interior meets a fence: fences are
    /// exclusive (DEF `FENCE`).
    InsideFence(CellId),
}

/// Checks a placement for legality (movable cells only; fixed cells are
/// treated as obstacles). Returns all violations found.
pub fn check_legal(design: &Design, placement: &Placement) -> Vec<Violation> {
    let netlist = &design.netlist;
    let die = design.die;
    let index = RowIndex::new(&design.rows);
    let mut violations = Vec::new();

    // die containment + row and site alignment + fence containment and
    // exclusivity
    for cell in netlist.movable_cells() {
        let r = placement.cell_rect(netlist, cell);
        if !die.contains_rect(&r) {
            violations.push(Violation::OutsideDie(cell));
        }
        match index.row_at(r.xl, r.yl).map(|row| &design.rows[row]) {
            None => violations.push(Violation::OffRow(cell)),
            Some(row) => {
                let k = (r.xl - row.xl) / row.site_width;
                if (k - k.round()).abs() > 1e-6 {
                    violations.push(Violation::OffSite(cell));
                }
            }
        }
        match design.region_of(cell) {
            Some(region) if !region.rect.contains_rect(&r) => {
                violations.push(Violation::OutsideRegion(cell));
            }
            None if design.regions.iter().any(|f| f.rect.intersects(&r)) => {
                violations.push(Violation::InsideFence(cell));
            }
            _ => {}
        }
    }

    // overlaps via per-row sweep (macros appear in every row they span)
    let mut by_row: Vec<Vec<CellId>> = vec![Vec::new(); design.rows.len()];
    let occupied = |c: CellId| -> Rect { placement.cell_rect(netlist, c) };
    for cell in netlist.cells() {
        // lint:allow(float-eq): zero-area pads are exactly zero by construction
        if !netlist.is_movable(cell) && netlist.cell_area(cell) == 0.0 {
            continue;
        }
        let r = occupied(cell);
        // lint:allow(float-eq): zero-area obstacles are exactly zero by construction
        if r.area() == 0.0 {
            continue;
        }
        for row in index.overlapping(r.yl, r.yh) {
            by_row[row].push(cell);
        }
    }
    // lint:allow(determinism): membership-only dedup of reported overlap pairs; never iterated
    let mut seen = std::collections::HashSet::<_, FixedState>::default();
    for row in &mut by_row {
        row.sort_by(|&a, &b| placement.x[a.index()].total_cmp(&placement.x[b.index()]));
        for pair in row.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (ra, rb) = (occupied(a), occupied(b));
            if ra.intersects(&rb) && seen.insert((a.min(b), a.max(b))) {
                // only movable-involved overlaps are violations
                if netlist.is_movable(a) || netlist.is_movable(b) {
                    violations.push(Violation::Overlap(a.min(b), a.max(b)));
                }
            }
        }
    }
    violations
}

/// Violation counts of one full legality audit, as [`audit_legality`]
/// produces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LegalityAudit {
    /// Pairs of placed rectangles that overlap (movable-involved).
    pub overlaps: usize,
    /// Movable cells poking outside the die.
    pub outside_die: usize,
    /// Cells whose lower-left corner sits on no row.
    pub off_row: usize,
    /// Cells on a row but off its `row.xl + k·site_width` lattice.
    pub off_site: usize,
    /// Region-constrained cells placed outside their fence.
    pub outside_region: usize,
    /// Unconstrained cells inside a fence.
    pub inside_fence: usize,
}

impl LegalityAudit {
    /// All invariants hold, including site alignment.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Total violation count across all classes.
    pub fn total(&self) -> usize {
        self.overlaps
            + self.outside_die
            + self.off_row
            + self.off_site
            + self.outside_region
            + self.inside_fence
    }
}

impl std::fmt::Display for LegalityAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "overlaps={} outside_die={} off_row={} off_site={} outside_region={} \
             inside_fence={}",
            self.overlaps,
            self.outside_die,
            self.off_row,
            self.off_site,
            self.outside_region,
            self.inside_fence
        )
    }
}

/// The per-class counts of [`check_legal`]'s violations: pairwise
/// overlap-free, in-die, row-aligned, site-aligned, inside its own fence
/// and out of every other.
/// Kept for the frozen `examples/bench_e2e` and the legalizer's tests.
pub fn audit_legality(design: &Design, placement: &Placement) -> LegalityAudit {
    let mut audit = LegalityAudit::default();
    for v in check_legal(design, placement) {
        match v {
            Violation::Overlap(_, _) => audit.overlaps += 1,
            Violation::OutsideDie(_) => audit.outside_die += 1,
            Violation::OffRow(_) => audit.off_row += 1,
            Violation::OffSite(_) => audit.off_site += 1,
            Violation::OutsideRegion(_) => audit.outside_region += 1,
            Violation::InsideFence(_) => audit.inside_fence += 1,
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{place, GlobalConfig};
    use mep_netlist::synth;
    use mep_wirelength::ModelKind;

    fn legalized_smoke() -> (
        mep_netlist::bookshelf::BookshelfCircuit,
        Placement,
        LegalizeReport,
    ) {
        let c = synth::generate(&synth::smoke_spec());
        let cfg = GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 150,
            ..GlobalConfig::default()
        };
        let gp = place(&c, &cfg).expect("placement flow");
        let (legal, report) = legalize(&c.design, &gp.placement).expect("legalize");
        (c, legal, report)
    }

    #[test]
    fn result_is_legal() {
        let (c, legal, report) = legalized_smoke();
        let violations = check_legal(&c.design, &legal);
        assert!(
            violations.is_empty(),
            "{} violations, e.g. {:?} (report {report:?})",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }

    /// FNV-1a over the bytes of every x, then every y.
    fn placement_hash(pl: &Placement) -> u64 {
        let bytes = pl.x.iter().chain(&pl.y).flat_map(|v| v.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn legalize_decisions_are_pinned() {
        // smoke has four movable macros, smoke_regions has fences; each is
        // legalized from its GP placement and from its piled start:
        // (x/y hash, macros, average and maximum displacement bits);
        // the GP rows were re-pinned when the λ₀ bootstrap began to read
        // ‖∇D‖₁ from the held density term, and again when the density
        // energy began to come from the spectrum by Parseval and the
        // transforms moved to half-length FFTs (the GP points move by
        // ulps: the hashes held, two displacement pairs moved in their
        // last bits)
        let mut got = Vec::new();
        for spec in [synth::smoke_spec(), synth::smoke_regions_spec()] {
            let c = synth::generate(&spec);
            let cfg = GlobalConfig {
                model: ModelKind::Moreau,
                max_iters: 150,
                ..GlobalConfig::default()
            };
            let gp = place(&c, &cfg).expect("placement flow").placement;
            for start in [&gp, &c.placement] {
                let (legal, r) = legalize(&c.design, start).expect("legalize");
                got.push((
                    placement_hash(&legal),
                    r.macros,
                    [r.avg_displacement, r.max_displacement].map(f64::to_bits),
                ));
            }
        }
        let want = [
            (
                0xe54c_39b4_94c1_dabb,
                4,
                [0x4022_c9e4_20c6_a806, 0x4038_cb0c_924f_0c7e],
            ),
            (
                0x6838_ae73_00a8_e678,
                4,
                [0x4036_0cbd_a863_25e0, 0x4045_39f3_b3f3_a005],
            ),
            (
                0x2de9_7e6c_c4b5_ad70,
                4,
                [0x4022_670c_9eb5_227f, 0x403e_cb59_7979_d352],
            ),
            (
                0xab99_4f2a_c655_08ff,
                4,
                [0x4033_c6fb_acb4_e797, 0x4047_475d_a400_d826],
            ),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn displacement_is_moderate() {
        let (c, _legal, report) = legalized_smoke();
        // moving cells by more than a few rows on average means the GP
        // density was not respected
        let die_span = c.design.die.width() + c.design.die.height();
        assert!(
            report.avg_displacement < 0.1 * die_span,
            "avg displacement {} vs die span {die_span}",
            report.avg_displacement
        );
    }

    #[test]
    fn hpwl_change_is_bounded() {
        let c = synth::generate(&synth::smoke_spec());
        // run GP to its overflow target; only then is legalization cheap
        let cfg = GlobalConfig {
            model: ModelKind::Wa,
            max_iters: 500,
            ..GlobalConfig::default()
        };
        let gp = place(&c, &cfg).expect("placement flow");
        let (legal, _) = legalize(&c.design, &gp.placement).expect("legalize");
        let before = mep_netlist::total_hpwl(&c.design.netlist, &gp.placement);
        let after = mep_netlist::total_hpwl(&c.design.netlist, &legal);
        assert!(
            after < 1.3 * before,
            "legalization blew HPWL up: {before} → {after}"
        );
    }

    #[test]
    fn macros_are_placed_without_overlap() {
        let spec = synth::spec_by_name("newblue1").unwrap();
        // shrink for test speed
        let small = synth::SynthSpec {
            movable: 800,
            fixed: 12,
            nets: 900,
            pins: 3200,
            movable_macros: 10,
            name: "nb1_small".into(),
            ..spec
        };
        let c = synth::generate(&small);
        let cfg = GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 120,
            ..GlobalConfig::default()
        };
        let gp = place(&c, &cfg).expect("placement flow");
        let (legal, report) = legalize(&c.design, &gp.placement).expect("legalize");
        assert_eq!(report.macros, 10);
        let violations = check_legal(&c.design, &legal);
        assert!(
            violations.is_empty(),
            "{} violations: {:?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }

    /// The obstacle scan of the segment builder as it was before the rows
    /// were indexed by y: every row against every obstacle.
    fn all_pairs_cuts(rows: &[Row], obstacles: &[Rect]) -> Vec<Vec<(f64, f64)>> {
        let cuts = |row: &Row| {
            let band = Rect::new(row.xl, row.y, row.xh, row.y + row.height);
            obstacles
                .iter()
                .filter(|o| o.intersects(&band))
                .map(|o| (o.xl.max(row.xl), o.xh.min(row.xh)))
                .collect()
        };
        rows.iter().map(cuts).collect()
    }

    fn bits(cuts: &[Vec<(f64, f64)>]) -> Vec<Vec<(u64, u64)>> {
        let row =
            |row: &Vec<(f64, f64)>| row.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect();
        cuts.iter().map(row).collect()
    }

    fn fixed_rects(design: &Design, gp: &Placement) -> Vec<Rect> {
        let nl = &design.netlist;
        nl.fixed_cells().map(|c| gp.cell_rect(nl, c)).collect()
    }

    /// [`row_cuts`] against the all-pairs scan on the design's fixed cells,
    /// bit for bit, then the legalized placement: legal.
    fn assert_matches_all_pairs(design: &Design, gp: &Placement) -> Placement {
        let obstacles = fixed_rects(design, gp);
        let want = all_pairs_cuts(&design.rows, &obstacles);
        assert!(want.iter().any(|row| !row.is_empty()), "no row is cut");
        let got = row_cuts(&RowIndex::new(&design.rows), obstacles.iter().copied());
        assert_eq!(bits(&got), bits(&want));

        let (got, report) = legalize(design, gp).expect("legalize");
        assert_eq!(check_legal(design, &got), Vec::new(), "{report:?}");
        got
    }

    #[test]
    fn mostly_frozen_design_legalizes_like_the_all_pairs_scan() {
        // an ECO window's legalization: nine cells in ten are obstacles,
        // the rest were pushed off their sites by the re-placement
        let (c, legal, _) = legalized_smoke();
        let nl = &c.design.netlist;
        let mask: Vec<bool> = nl
            .cells()
            .map(|c| nl.is_movable(c) && c.index() % 10 == 0)
            .collect();
        let mut design = c.design.clone();
        design.netlist = nl.with_movability(&mask).expect("one entry per cell");
        let frozen = design.netlist.num_fixed() as f64 / nl.num_cells() as f64;
        assert!(frozen > 0.88, "{frozen}");
        let mut gp = legal.clone();
        for cell in design.netlist.movable_cells() {
            gp.x[cell.index()] += 2.3 - (cell.index() % 7) as f64;
            gp.y[cell.index()] += 0.4 * ((cell.index() % 5) as f64 - 2.0);
        }
        let got = assert_matches_all_pairs(&design, &gp);
        for cell in design.netlist.fixed_cells() {
            let i = cell.index();
            assert_eq!(
                (got.x[i].to_bits(), got.y[i].to_bits()),
                (legal.x[i].to_bits(), legal.y[i].to_bits())
            );
        }
    }

    #[test]
    fn tall_and_off_die_obstacles_cut_exactly_the_rows_they_overlap() {
        let mut b = mep_netlist::NetlistBuilder::new();
        let fixed = [
            ("macro", 6.0, 3.0, 10.0, 2.0),   // rows 2, 3 and 4
            ("below", 8.0, 2.0, 4.0, -3.0),   // entirely below the die
            ("above", 8.0, 2.0, 4.0, 9.0),    // entirely above it
            ("flush", 4.0, 1.0, 20.0, 5.0),   // row 5, touching rows 4 and 6
            ("astride", 3.0, 1.0, 30.0, 6.5), // rows 6 and 7, half of each
            ("sill", 5.0, 2.0, 33.0, -1.0),   // half below the die: row 0
        ];
        for (name, w, h, ..) in fixed {
            b.add_cell(name, w, h, false).unwrap();
        }
        let cells: Vec<CellId> = (0..40)
            .map(|i| {
                b.add_cell(format!("c{i}"), 1.0 + (i % 3) as f64, 1.0, true)
                    .unwrap()
            })
            .collect();
        let die = Rect::new(0.0, 0.0, 40.0, 8.0);
        let mut design = Design::with_uniform_rows("t", b.build(), die, 1.0, 1.0, 1.0).unwrap();
        let mut gp = Placement::zeros(design.netlist.num_cells());
        for (i, (.., x, y)) in fixed.into_iter().enumerate() {
            (gp.x[i], gp.y[i]) = (x, y);
        }
        // the movable cells piled onto the obstacles
        for (i, cell) in cells.iter().enumerate() {
            gp.x[cell.index()] = 8.0 + (i % 10) as f64 * 2.6;
            gp.y[cell.index()] = 1.7 + (i / 10) as f64 * 1.6;
        }
        assert_matches_all_pairs(&design, &gp);

        let obstacles = fixed_rects(&design, &gp);
        let cuts = |rows: &[Row]| row_cuts(&RowIndex::new(rows), obstacles.iter().copied());
        let cut_rows = |rows: &[Row]| -> Vec<usize> { cuts(rows).iter().map(Vec::len).collect() };
        assert_eq!(cut_rows(&design.rows), [1, 0, 1, 1, 1, 1, 1, 1]);
        // no order, pitch or common height is assumed of the rows
        design.rows.reverse();
        design.rows.swap(1, 5);
        design.rows[3].height = 2.5;
        design.rows[6].y -= 0.25;
        let want = all_pairs_cuts(&design.rows, &obstacles);
        assert_eq!(bits(&cuts(&design.rows)), bits(&want));
        assert_ne!(cut_rows(&design.rows), [1, 0, 1, 1, 1, 1, 1, 1]);
    }

    fn row(y: f64, height: f64) -> Row {
        Row {
            y,
            height,
            xl: 0.0,
            xh: 10.0,
            site_width: 1.0,
        }
    }

    /// Brute force: the rows whose band overlaps the open span `(yl, yh)`,
    /// in `y` order.
    fn overlapping_scan(rows: &[Row], yl: f64, yh: f64) -> Vec<usize> {
        let mut hit: Vec<usize> = (0..rows.len())
            .filter(|&r| rows[r].y < yh && yl < rows[r].y + rows[r].height)
            .collect();
        hit.sort_by(|&a, &b| rows[a].y.total_cmp(&rows[b].y));
        hit
    }

    #[test]
    fn row_index_finds_uniform_rows_exactly() {
        // ten unit rows starting at y = 0
        let rows: Vec<Row> = (0..10).map(|r| row(r as f64, 1.0)).collect();
        let index = RowIndex::new(&rows);
        let over = |yl, yh| index.overlapping(yl, yh).collect::<Vec<_>>();
        // interior span over rows 2..5, and spans touching row boundaries:
        // touching is not overlapping
        assert_eq!(over(2.25, 4.75), [2, 3, 4]);
        assert_eq!(over(9.0, 10.0), [9]);
        assert_eq!(over(0.5, 2.0), [0, 1]);
        assert_eq!(over(3.0, 4.0), [3]);
        // straddling the first / last row: clamped, not dropped
        assert_eq!(over(-3.0, 1.5), [0, 1]);
        assert_eq!(over(8.5, 13.0), [8, 9]);
        // empty, inverted, outside the rows, or not finite: no row
        for (yl, yh) in [
            (5.0, 5.0),
            (5.5, 5.5),
            (4.0, 3.0),
            (15.0, 16.0),
            (-5.0, -1.0),
            (-5.0, 0.0),
            (10.0, 11.0),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::NEG_INFINITY, 5.0),
            (5.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert_eq!(over(yl, yh), [], "({yl}, {yh})");
        }
        // a cell bottom sits on a row within 1e-6 of its height, and inside
        // its x span
        assert_eq!(index.row_at(3.0, 4.0), Some(4));
        assert_eq!(index.row_at(3.0, 4.0 + 5e-7), Some(4));
        assert_eq!(index.row_at(3.0, 4.0 - 5e-7), Some(4));
        assert_eq!(index.row_at(3.0, 4.0 + 2e-6), None);
        assert_eq!(index.row_at(3.0, 4.5), None);
        assert_eq!(index.row_at(3.0, 10.0), None);
        assert_eq!(index.row_at(3.0, -1.0), None);
        assert_eq!(index.row_at(10.0, 4.0), None);
        assert_eq!(index.row_at(-0.5, 4.0), None);
        assert_eq!(index.row_at(3.0, f64::NAN), None);
        assert_eq!(index.row_at(f64::NAN, 4.0), None);
        // no rows: nothing anywhere
        let none = RowIndex::new(&[]);
        assert_eq!(none.overlapping(0.0, 1.0).count(), 0);
        assert_eq!(none.row_at(0.0, 0.0), None);
    }

    #[test]
    fn row_index_needs_no_order_pitch_or_common_height() {
        // listed out of order, one row taller than the rest, a gap, and an
        // origin that is no multiple of any height
        let rows = vec![
            row(4.3, 1.0),
            row(0.3, 1.0),
            row(2.3, 2.0),
            row(5.3, 1.0),
            row(1.3, 1.0),
            row(8.3, 1.5),
        ];
        let index = RowIndex::new(&rows);
        for yl in (-4..44).map(|k| 0.25 * k as f64 + 0.05) {
            for yh in [yl + 0.1, yl + 1.0, yl + 2.5, yl + 0.25]
                .into_iter()
                .chain([yl.ceil()])
            {
                let got: Vec<usize> = index.overlapping(yl, yh).collect();
                assert_eq!(got, overlapping_scan(&rows, yl, yh), "({yl}, {yh})");
            }
        }
        // a span inside the tall row's upper half still finds it
        assert_eq!(index.overlapping(3.6, 3.9).collect::<Vec<_>>(), [2]);
        // spans touching row bands
        assert_eq!(index.overlapping(4.3, 5.3).collect::<Vec<_>>(), [0]);
        assert_eq!(index.overlapping(1.3, 4.3).collect::<Vec<_>>(), [4, 2]);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(index.row_at(row.xl, row.y), Some(r));
        }
        assert_eq!(index.row_at(0.0, 3.3), None); // inside the tall row
        assert_eq!(index.row_at(0.0, 6.3), None); // in the gap
    }

    #[test]
    fn row_index_finds_rows_through_offset_float_noise() {
        // an origin and a height whose multiples are not exactly
        // representable: a cell placed on a row is found on it
        let rows: Vec<Row> = (0..30).map(|r| row(0.3 + r as f64 * 0.1, 0.1)).collect();
        let index = RowIndex::new(&rows);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(index.row_at(1.0, row.y), Some(r));
            assert_eq!(index.row_at(1.0, 0.3 + 0.1 * r as f64), Some(r));
            assert!(index.overlapping(row.y, row.y + row.height).any(|k| k == r));
        }
    }

    #[test]
    fn rows_split_at_one_y_are_told_apart_by_x() {
        // one row split around a macro: [0, 4) and [6, 10) at y = 2
        let mut rows = vec![row(0.0, 1.0), row(2.0, 1.0), row(2.0, 1.0)];
        rows[1].xh = 4.0;
        rows[2].xl = 6.0;
        let index = RowIndex::new(&rows);
        assert_eq!(index.row_at(1.0, 2.0), Some(1));
        assert_eq!(index.row_at(7.0, 2.0), Some(2));
        assert_eq!(index.row_at(4.5, 2.0), None);
        assert_eq!(index.overlapping(1.5, 2.5).collect::<Vec<_>>(), [1, 2]);
    }

    /// The candidate-row order the legalizer once built per cell: every row
    /// stably sorted by `|y − ty|`.
    fn sorted_by_dy(rows: &[Row], ty: f64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| (rows[a].y - ty).abs().total_cmp(&(rows[b].y - ty).abs()));
        order
    }

    #[test]
    fn outward_row_walk_is_the_stable_sort_by_dy() {
        let mut group = Vec::new();
        let mut assert_walk_sorts = |rows: &[Row], ty: f64| {
            let got: Vec<usize> = RowIndex::new(rows).outward(ty, &mut group).collect();
            assert_eq!(got, sorted_by_dy(rows, ty), "ty = {ty}");
        };
        // out of y order, one DEF row split around a macro (two rows at
        // y = 3), a 2-high row and a gap
        let mut rows = vec![
            row(5.0, 1.0),
            row(3.0, 1.0),
            row(0.0, 1.0),
            row(3.0, 1.0),
            row(1.0, 2.0),
            row(7.5, 1.0),
            row(4.0, 1.0),
        ];
        rows[1].xh = 4.0;
        rows[3].xl = 6.0;
        // rows exactly at ty (4, and the split pair at 3), rows symmetric
        // about it (3 and 5 around 4), between rows, past either end, and
        // keys that are not finite
        for ty in [4.0, 3.0, 3.5, 2.0, 6.25, -3.0, 20.0, 0.0, 0.5]
            .into_iter()
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
            .chain((-8..40).map(|k| 0.25 * k as f64))
        {
            assert_walk_sorts(&rows, ty);
        }
        // near 1e16 doubles are 2 apart: distinct rows on either side of ty
        // round to the same |dy| (1e16 − 1 and 1e16 − 3 are ties, 2e16 − 1e16
        // is exact)
        let far: Vec<Row> = [
            3.0,
            1e16 + 4.0,
            0.0,
            2e16,
            2.0,
            1.0,
            1e16 - 2.0,
            4.0,
            2e16 + 4.0,
        ]
        .into_iter()
        .map(|y| row(y, 1.0))
        .collect();
        let dy = |y: f64| (y - 1e16).abs();
        assert_eq!(dy(0.0), dy(2e16));
        assert!(dy(1.0) == dy(0.0) || dy(1.0) == dy(2.0));
        for ty in [1e16, 1e16 + 2.0, 1e16 - 2.0, 1e16 + 8.0, 3e16, 1.5] {
            assert_walk_sorts(&far, ty);
        }
        // no rows: nothing to visit
        assert_walk_sorts(&[], 1.0);
    }

    #[test]
    fn rows_offset_from_the_die_legalize_and_check_clean() {
        // rows start half a row above the die bottom and stop half a row
        // below its top: nothing may be measured from `die.yl`
        let mut b = mep_netlist::NetlistBuilder::new();
        let cells: Vec<CellId> = (0..24)
            .map(|i| {
                b.add_cell(format!("c{i}"), 1.0 + (i % 2) as f64, 1.0, true)
                    .unwrap()
            })
            .collect();
        let rows: Vec<Row> = (0..5).map(|r| row(0.5 + r as f64, 1.0)).collect();
        let die = Rect::new(0.0, 0.0, 10.0, 6.0);
        let design = Design::new("t", b.build(), die, rows, 1.0).unwrap();
        let mut gp = Placement::zeros(cells.len());
        for (i, c) in cells.iter().enumerate() {
            gp.x[c.index()] = (i * 7 % 9) as f64 + 0.3;
            gp.y[c.index()] = (i % 6) as f64 * 0.9;
        }
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        assert!(legal.y.iter().all(|y| y.fract() == 0.5), "{:?}", legal.y);
        assert_eq!(check_legal(&design, &legal), Vec::new());
        assert!(audit_legality(&design, &legal).is_clean());
        // a cell on the die-based lattice sits on no row
        let mut off = legal.clone();
        off.y[cells[0].index()] = 2.0;
        let off_row: Vec<Violation> = check_legal(&design, &off)
            .into_iter()
            .filter(|v| matches!(v, Violation::OffRow(_)))
            .collect();
        assert_eq!(off_row, [Violation::OffRow(cells[0])]);
    }

    #[test]
    fn audit_reads_the_site_lattice_of_the_row_a_cell_sits_on() {
        // rows half a row above the die bottom, their site lattices
        // alternately offset by half a site
        let mut b = mep_netlist::NetlistBuilder::new();
        let cells: Vec<CellId> = (0..4)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap())
            .collect();
        let rows: Vec<Row> = (0..4)
            .map(|r| Row {
                xl: 0.5 * (r % 2) as f64,
                ..row(0.5 + r as f64, 1.0)
            })
            .collect();
        let design =
            Design::new("t", b.build(), Rect::new(0.0, 0.0, 10.0, 5.0), rows, 1.0).unwrap();
        let mut pl = Placement::zeros(cells.len());
        for (c, row) in cells.iter().zip(&design.rows) {
            (pl.x[c.index()], pl.y[c.index()]) = (row.xl + 3.0, row.y);
        }
        assert!(audit_legality(&design, &pl).is_clean());
        pl.x[cells[1].index()] += 0.25;
        let audit = audit_legality(&design, &pl);
        assert_eq!((audit.off_site, audit.total()), (1, 1), "{audit}");
    }

    #[test]
    fn below_die_obstacle_does_not_mask_a_real_overlap() {
        // Regression: the old row bucketing forced every rect into at
        // least one row, so a fixed cell below the die landed in row 0,
        // sat between two genuinely overlapping cells in the x-sweep, and
        // masked their overlap from the adjacent-pair check.
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 1.0, true).unwrap();
        let c = b.add_cell("c", 2.0, 1.0, true).unwrap();
        let f = b.add_cell("f", 1.0, 1.0, false).unwrap();
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 2.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut pl = Placement::zeros(3);
        pl.x[a.index()] = 0.0;
        pl.y[a.index()] = 0.0;
        pl.x[c.index()] = 1.0; // overlaps `a` on [1, 2)
        pl.y[c.index()] = 0.0;
        pl.x[f.index()] = 0.5; // sorts between `a` and `c` …
        pl.y[f.index()] = -5.0; // … but lies entirely below the die
        let violations = check_legal(&design, &pl);
        assert!(
            violations.contains(&Violation::Overlap(a.min(c), a.max(c))),
            "overlap of a/c must be reported, got {violations:?}"
        );
    }

    #[test]
    fn top_row_cell_is_checked_in_the_top_row() {
        // two overlapping cells whose tops touch the die top edge
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 1.0, true).unwrap();
        let c = b.add_cell("c", 2.0, 1.0, true).unwrap();
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 3.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut pl = Placement::zeros(2);
        pl.x[a.index()] = 4.0;
        pl.y[a.index()] = 2.0; // top row: [2, 3) with die top at 3
        pl.x[c.index()] = 5.0;
        pl.y[c.index()] = 2.0;
        let violations = check_legal(&design, &pl);
        assert!(
            violations.contains(&Violation::Overlap(a.min(c), a.max(c))),
            "top-row overlap must be reported, got {violations:?}"
        );
    }

    #[test]
    fn nan_coordinates_survive_the_legalizer_cut_path() {
        // Regression for the NaN-unsafe comparators: the legalizer used to
        // sort cells and candidate rows with `partial_cmp(..).expect(..)`,
        // so a single NaN global-placement coordinate panicked mid-sort.
        // With `total_cmp` the sort is NaN-safe (NaN orders after every
        // finite key) and the remaining cells still legalize.
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..3 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 2.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut gp = Placement::zeros(3);
        for i in 0..2 {
            gp.x[i] = 5.0;
            gp.y[i] = 0.0;
        }
        gp.x[2] = f64::NAN; // poisons both the x-order sort and the
        gp.y[2] = f64::NAN; // candidate-row |dy| sort
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        assert!(
            legal.x.iter().chain(legal.y.iter()).all(|v| v.is_finite()),
            "legalized coordinates must be finite, got x={:?} y={:?}",
            legal.x,
            legal.y
        );
        assert!(check_legal(&design, &legal).is_empty());
    }

    #[test]
    fn abacus_on_trivial_row_matches_expectation() {
        // three unit cells targeting the same spot spread shoulder to
        // shoulder around it
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..3 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 1.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut gp = Placement::zeros(3);
        for i in 0..3 {
            gp.x[i] = 5.0;
            gp.y[i] = 0.0;
        }
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        let mut xs: Vec<f64> = legal.x.clone();
        xs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(xs, vec![4.0, 5.0, 6.0]);
        assert!(check_legal(&design, &legal).is_empty());
    }

    #[test]
    fn over_capacity_design_is_a_typed_error_not_a_panic() {
        // Regression for the `found.expect(..)` after the row search:
        // utilization ≈ 1.0 (in fact > 1) used to panic inside the
        // library. Six unit cells, one row of five sites.
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..6 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 5.0, 1.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut gp = Placement::zeros(6);
        for i in 0..6 {
            gp.x[i] = 2.0;
            gp.y[i] = 0.0;
        }
        let err = legalize(&design, &gp).expect_err("over-capacity must fail");
        assert!(
            matches!(err, PlacerError::Legalize { .. }),
            "expected PlacerError::Legalize, got {err:?}"
        );
        assert!(err.to_string().contains("legalization failed"));
    }

    #[test]
    fn rowless_design_is_a_typed_error_not_a_panic() {
        let mut b = mep_netlist::NetlistBuilder::new();
        b.add_cell("c", 1.0, 1.0, true).unwrap();
        let die = Rect::new(0.0, 0.0, 10.0, 2.0);
        let design = Design::with_uniform_rows("t", b.build(), die, 1.0, 1.0, 1.0).unwrap();
        // `Design::new` rejects an empty row list; a literal can still hold one
        let rowless = Design {
            rows: Vec::new(),
            ..design
        };
        let err = legalize(&rowless, &Placement::zeros(1)).expect_err("no rows must fail");
        assert!(matches!(err, PlacerError::Legalize { .. }), "{err:?}");
    }

    #[test]
    fn full_utilization_design_legalizes_without_error() {
        // utilization exactly 1.0 must still succeed: five unit cells on
        // five sites, all targeting the center
        let mut b = mep_netlist::NetlistBuilder::new();
        for i in 0..5 {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap();
        }
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 5.0, 1.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut gp = Placement::zeros(5);
        for i in 0..5 {
            gp.x[i] = 2.5;
            gp.y[i] = 0.0;
        }
        let (legal, _) = legalize(&design, &gp).expect("utilization 1.0 fits exactly");
        assert!(check_legal(&design, &legal).is_empty());
        assert!(audit_legality(&design, &legal).is_clean());
    }

    #[test]
    fn a_segment_holds_only_its_whole_sites() {
        // The segment [0.5, 3.5) between two obstacles spans three units but
        // holds only the two whole sites [1, 3): the third unit cell finds
        // no room in row 0 at insertion and lands in row 1, and no cell
        // escapes into an obstacle.
        let mut b = mep_netlist::NetlistBuilder::new();
        let b0 = b.add_cell("b0", 0.5, 1.0, false).unwrap();
        let b1 = b.add_cell("b1", 1.5, 1.0, false).unwrap();
        let movables: [CellId; 3] =
            std::array::from_fn(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap());
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 5.0, 2.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut gp = Placement::zeros(5);
        gp.x[b0.index()] = 0.0; // obstacle [0, 0.5) → segment starts at 0.5
        gp.y[b0.index()] = 0.0;
        gp.x[b1.index()] = 3.5; // obstacle [3.5, 5.0) → segment ends at 3.5
        gp.y[b1.index()] = 0.0;
        // three cells in separate clusters inside [0.5, 3.5)
        for (k, &m) in movables.iter().enumerate() {
            gp.x[m.index()] = 0.55 + k as f64 * 1.0;
            gp.y[m.index()] = 0.0;
        }
        let (legal, _) = legalize(&design, &gp).expect("row 1 has room");
        let violations = check_legal(&design, &legal);
        assert!(
            violations.is_empty(),
            "emission escaped the segment: {violations:?}"
        );
        let at = |c: CellId| (legal.x[c.index()], legal.y[c.index()]);
        assert_eq!(movables.map(at), [(1.0, 0.0), (2.0, 0.0), (3.0, 1.0)]);
    }

    #[test]
    fn audit_counts_each_violation_class() {
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 1.0, true).unwrap();
        let c = b.add_cell("c", 2.0, 1.0, true).unwrap();
        let d = b.add_cell("d", 1.0, 1.0, true).unwrap();
        let e = b.add_cell("e", 1.0, 1.0, true).unwrap();
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 3.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut pl = Placement::zeros(4);
        pl.x[a.index()] = 1.0; // overlaps `c` on [2, 3)
        pl.y[a.index()] = 0.0;
        pl.x[c.index()] = 2.0;
        pl.y[c.index()] = 0.0;
        pl.x[d.index()] = 4.25; // on row 1, off its sites
        pl.y[d.index()] = 1.0;
        pl.x[e.index()] = 6.0; // off-row at y = 1.5
        pl.y[e.index()] = 1.5;
        let audit = audit_legality(&design, &pl);
        assert_eq!(audit.overlaps, 1);
        assert_eq!(audit.off_row, 1);
        assert_eq!(audit.off_site, 1);
        assert_eq!(audit.outside_die, 0);
        assert_eq!(audit.outside_region, 0);
        assert_eq!(audit.total(), 3);
        assert!(!audit.is_clean());
        assert!(audit.to_string().contains("overlaps=1"));

        // a clean legal placement audits clean
        let mut ok = Placement::zeros(4);
        ok.x[a.index()] = 0.0;
        ok.y[a.index()] = 0.0;
        ok.x[c.index()] = 2.0;
        ok.y[c.index()] = 0.0;
        ok.x[d.index()] = 4.0;
        ok.y[d.index()] = 1.0;
        ok.x[e.index()] = 6.0;
        ok.y[e.index()] = 2.0;
        assert!(audit_legality(&design, &ok).is_clean());
    }
}
