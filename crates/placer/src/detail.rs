//! Detailed placement: HPWL refinement of a legal placement.
//!
//! CPU re-implementation of two move classes of ABCDPlace \[38\], the
//! paper's detailed-placement engine:
//!
//! * **local reordering** — permute small windows of consecutive cells in
//!   a row (left-packed, so legality is preserved);
//! * **global swap** — exchange equal-width cells so each moves toward the
//!   median of its nets.
//!
//! Every accepted move strictly reduces exact HPWL, so the refinement
//! never degrades the legalized result.
//!
//! A trial move is priced by `MoveNets`: the pins of the move's nets that
//! stay in place are walked once per move into one bounding box per net,
//! and each candidate then costs a copy of those boxes plus one fold per
//! moved pin. `min`/`max` over the same coordinates give the same extremes
//! in any order, so every candidate's value is the exact HPWL of the move's
//! nets bit for bit, and every acceptance test decides as a full re-walk
//! would (DESIGN.md §2, "Detailed placement (S8)").

use crate::legalize::{row_cuts, sites_wide, RowCuts, RowIndex};
use mep_netlist::{total_hpwl, CellId, Design, FixedState, NetId, Netlist, Placement, Rect};
use mep_obs::StageStats;

/// Configuration for the detailed placer.
#[derive(Debug, Clone)]
pub struct DetailConfig {
    /// Refinement passes over the whole design.
    pub passes: usize,
    /// Relative improvement per pass below which refinement stops early.
    pub converge_rel: f64,
}

impl Default for DetailConfig {
    fn default() -> Self {
        Self {
            passes: 3,
            converge_rel: 1e-4,
        }
    }
}

/// Report of one refinement run.
///
/// The move-class clocks carry wall-clock telemetry; compare two runs'
/// decisions through the counters and `hpwl_after`, never the whole report.
#[derive(Debug, Clone, Copy)]
pub struct DetailReport {
    /// Exact HPWL before refinement.
    pub hpwl_before: f64,
    /// Exact HPWL after refinement.
    pub hpwl_after: f64,
    /// Accepted local-reorder moves.
    pub reorders: usize,
    /// Local-reorder windows evaluated (permutations tried).
    pub reorders_attempted: usize,
    /// Accepted global swaps.
    pub swaps: usize,
    /// Trial global swaps evaluated.
    pub swaps_attempted: usize,
    /// Passes actually executed.
    pub passes: usize,
    /// Local reordering: one execution per pass and its summed wall time.
    pub reorder_clock: StageStats,
    /// Global swap: one execution per pass and its summed wall time.
    pub swap_clock: StageStats,
}

/// `[xl, xh, yl, yh]` of no pin: any fold replaces every side.
const EMPTY_BOX: [f64; 4] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Grows a `[xl, xh, yl, yh]` box by one pin position.
#[inline]
fn fold(b: &mut [f64; 4], x: f64, y: f64) {
    b[0] = b[0].min(x);
    b[1] = b[1].max(x);
    b[2] = b[2].min(y);
    b[3] = b[3].max(y);
}

/// A pin on a moved cell, tagged with its net's slot in [`MoveNets`].
#[derive(Debug, Clone, Copy)]
struct MovedPin {
    /// Index of the pin's net in the move's net list.
    slot: usize,
    /// Index of the pin's cell in the move's cell list.
    cell: usize,
    /// Pin offset from the cell center.
    dx: f64,
    dy: f64,
}

/// Per-move scratch: the nets of one trial move and, per net, the bounding
/// box of its pins on the cells the move leaves in place.
///
/// [`MoveNets::load`] walks every pin of the move's nets once;
/// [`MoveNets::hpwl`] then prices any candidate position of the moved cells
/// from the boxes and the moved pins alone. Buffers are reused across
/// moves, so a move loop allocates only while they grow.
#[derive(Debug, Default)]
struct MoveNets {
    /// The moved cells.
    cells: Vec<CellId>,
    /// Per moved cell, half its width and height (lower-left → center).
    half: Vec<(f64, f64)>,
    /// The move's nets, in first-occurrence order over the moved cells' pins.
    nets: Vec<NetId>,
    /// Per net, the box of its pins on unmoved cells ([`EMPTY_BOX`] when
    /// every pin moves).
    fixed: Vec<[f64; 4]>,
    /// Working copy of `fixed` one candidate folds its moved pins into.
    boxes: Vec<[f64; 4]>,
    /// Every pin on a moved cell.
    pins: Vec<MovedPin>,
}

impl MoveNets {
    /// Prepares the move of `cells` from their current placement.
    fn load(&mut self, netlist: &Netlist, placement: &Placement, cells: &[CellId]) {
        self.cells.clear();
        self.half.clear();
        self.nets.clear();
        self.pins.clear();
        for &c in cells {
            self.register(netlist, c);
        }
        self.walk(netlist, placement, 0);
    }

    /// Adds `cell` to the loaded move. Only the new nets are walked, unless
    /// `cell` shares a net with the move: then that net's box holds pins of
    /// `cell`, and every box is walked again.
    fn include(&mut self, netlist: &Netlist, placement: &Placement, cell: CellId) {
        let known = self.nets.len();
        let shared = self.register(netlist, cell) < known;
        self.walk(netlist, placement, if shared { 0 } else { known });
    }

    /// Records `cell` and its pins, appending the nets not yet in the move.
    /// Returns the lowest net slot its pins landed in.
    fn register(&mut self, netlist: &Netlist, cell: CellId) -> usize {
        let i = self.cells.len();
        self.cells.push(cell);
        self.half.push((
            0.5 * netlist.cell_width(cell),
            0.5 * netlist.cell_height(cell),
        ));
        let mut lowest = usize::MAX;
        for &p in netlist.cell_pins(cell) {
            let net = netlist.pin_net(p);
            let slot = match self.nets.iter().position(|&n| n == net) {
                Some(slot) => slot,
                None => {
                    self.nets.push(net);
                    self.nets.len() - 1
                }
            };
            lowest = lowest.min(slot);
            self.pins.push(MovedPin {
                slot,
                cell: i,
                dx: netlist.pin_offset_x(p),
                dy: netlist.pin_offset_y(p),
            });
        }
        lowest
    }

    /// Rebuilds the boxes of the nets from slot `from` on.
    fn walk(&mut self, netlist: &Netlist, placement: &Placement, from: usize) {
        self.fixed.truncate(from);
        for &net in &self.nets[from..] {
            let mut b = EMPTY_BOX;
            for q in netlist.net_pins(net) {
                if !self.cells.contains(&netlist.pin_cell(q)) {
                    let pos = placement.pin_position(netlist, q);
                    fold(&mut b, pos.x, pos.y);
                }
            }
            self.fixed.push(b);
        }
    }

    /// Median-of-bounds optimal position of a move of one cell: the median
    /// of the bounds of the other pins of each of its pins' nets, or `None`
    /// when no net has another pin. `bounds` is reused scratch.
    fn median_position(&self, bounds: &mut (Vec<f64>, Vec<f64>)) -> Option<(f64, f64)> {
        let (xs, ys) = bounds;
        xs.clear();
        ys.clear();
        for p in &self.pins {
            let b = self.fixed[p.slot];
            // non-empty: at least one other pin
            if b[0] <= b[1] {
                xs.extend([b[0], b[1]]);
                ys.extend([b[2], b[3]]);
            }
        }
        if xs.is_empty() {
            return None;
        }
        // the middle element under a total order is unique in bits, so this
        // is the element a full sort would put there
        let med = |v: &mut Vec<f64>| -> f64 {
            let mid = v.len() / 2;
            *v.select_nth_unstable_by(mid, f64::total_cmp).1
        };
        Some((med(xs), med(ys)))
    }

    /// Exact HPWL of the move's nets with moved cell `i` at lower-left
    /// corner `at[i]`, summed in net order.
    fn hpwl(&mut self, at: &[(f64, f64)]) -> f64 {
        self.boxes.clear();
        self.boxes.extend_from_slice(&self.fixed);
        for p in &self.pins {
            let (x, y) = at[p.cell];
            let (hw, hh) = self.half[p.cell];
            // the same operations as `Placement::pin_position`
            fold(&mut self.boxes[p.slot], (x + hw) + p.dx, (y + hh) + p.dy);
        }
        self.boxes
            .iter()
            .map(|b| (b[1] - b[0]) + (b[3] - b[2]))
            .sum()
    }
}

/// Runs detailed placement in place. The placement must be legal; all
/// moves preserve legality.
pub fn refine(design: &Design, placement: &mut Placement, config: &DetailConfig) -> DetailReport {
    let cuts = blocked_cuts(design, placement);
    let hpwl_before = total_hpwl(&design.netlist, placement);
    refine_with_cuts(design, placement, config, cuts, hpwl_before)
}

/// The row cuts of the cells `refine` never moves — fixed cells and frozen
/// macros — of positive area.
fn blocked_cuts(design: &Design, placement: &Placement) -> RowCuts {
    let netlist = &design.netlist;
    let row_h = design.rows.first().map(|r| r.height).unwrap_or(1.0);
    let blocked = netlist
        .cells()
        .filter(|&c| !netlist.is_movable(c) || netlist.cell_height(c) > row_h + 1e-9)
        .map(|c| placement.cell_rect(netlist, c))
        .filter(|r| r.area() > 0.0);
    row_cuts(&RowIndex::new(&design.rows), blocked)
}

/// [`refine`] on the [`blocked_cuts`] of `placement` (in any order within
/// a row) and its exact HPWL `hpwl_before`, both already at hand after
/// legalization.
pub(crate) fn refine_with_cuts(
    design: &Design,
    placement: &mut Placement,
    config: &DetailConfig,
    obstacles: RowCuts,
    hpwl_before: f64,
) -> DetailReport {
    let netlist = &design.netlist;
    let row_h = design.rows.first().map(|r| r.height).unwrap_or(1.0);
    let mut report = DetailReport {
        hpwl_before,
        hpwl_after: hpwl_before,
        reorders: 0,
        reorders_attempted: 0,
        swaps: 0,
        swaps_attempted: 0,
        passes: 0,
        reorder_clock: StageStats::default(),
        swap_clock: StageStats::default(),
    };
    // region context: padded per-cell assignment + fence rectangles
    let cell_region: Vec<Option<u16>> = if design.cell_region.is_empty() {
        vec![None; netlist.num_cells()]
    } else {
        design.cell_region.clone()
    };
    let fences: Vec<Rect> = design.regions.iter().map(|r| r.rect).collect();
    let index = RowIndex::new(&design.rows);
    let mut moves = MoveNets::default();
    let mut current = hpwl_before;
    for _pass in 0..config.passes {
        report.passes += 1;
        let mut rows = build_rows(&index, netlist, placement, row_h);
        let (acc, att) = report.reorder_clock.time(|| {
            local_reorder(
                design,
                placement,
                &mut rows,
                &obstacles,
                &cell_region,
                &fences,
                &mut moves,
            )
        });
        report.reorders += acc;
        report.reorders_attempted += att;
        let (acc, att) = report
            .swap_clock
            .time(|| global_swap(netlist, placement, &rows, &cell_region, row_h, &mut moves));
        report.swaps += acc;
        report.swaps_attempted += att;
        let now = total_hpwl(netlist, placement);
        let gain = (current - now) / current.max(1e-30);
        current = now;
        if gain < config.converge_rel {
            break;
        }
    }
    report.hpwl_after = current;
    report
}

/// Standard cells per row of `index`, sorted by x. A cell on no row is
/// left where it is.
fn build_rows(
    index: &RowIndex,
    netlist: &Netlist,
    placement: &Placement,
    row_h: f64,
) -> Vec<Vec<CellId>> {
    let mut rows: Vec<Vec<CellId>> = vec![Vec::new(); index.len()];
    for cell in netlist.movable_cells() {
        if netlist.cell_height(cell) > row_h + 1e-9 {
            continue; // macros are frozen after legalization
        }
        if let Some(r) = index.row_at(placement.x[cell.index()], placement.y[cell.index()]) {
            rows[r].push(cell);
        }
    }
    for row in &mut rows {
        row.sort_by(|&a, &b| placement.x[a.index()].total_cmp(&placement.x[b.index()]));
    }
    rows
}

/// Cells per local-reorder permutation group (`3! = 6` orderings tried per
/// window).
const REORDER_WINDOW: usize = 3;

/// Permutes windows of consecutive cells (left-packed). Returns
/// `(accepted, attempted)` move counts.
fn local_reorder(
    design: &Design,
    placement: &mut Placement,
    rows: &mut [Vec<CellId>],
    obstacles: &[Vec<(f64, f64)>],
    cell_region: &[Option<u16>],
    fences: &[Rect],
    moves: &mut MoveNets,
) -> (usize, usize) {
    let netlist = &design.netlist;
    let mut accepted = 0;
    let mut attempted = 0;
    for (row_idx, row) in rows.iter_mut().enumerate() {
        if row.len() < REORDER_WINDOW {
            continue;
        }
        for start in 0..=(row.len() - REORDER_WINDOW) {
            let cells: [CellId; REORDER_WINDOW] = std::array::from_fn(|k| row[start + k]);
            // all window cells must share one region assignment
            let region = cell_region[cells[0].index()];
            if cells[1..].iter().any(|&c| cell_region[c.index()] != region) {
                continue;
            }
            let left = placement.x[cells[0].index()];
            // the packed span must not cover a blockage hiding in a gap;
            // each cell takes whole sites, as the legalizer packed it
            let widths = cells.map(|c| sites_wide(&design.rows[row_idx], netlist.cell_width(c)));
            let span_w: f64 = widths.iter().sum();
            if obstacles[row_idx]
                .iter()
                .any(|&(ol, oh)| ol < left + span_w && left < oh)
            {
                continue;
            }
            // unconstrained windows must not pack into a fence interior
            if region.is_none() && fences.iter().any(|f| f.xl < left + span_w && left < f.xh) {
                continue;
            }
            attempted += 1;
            moves.load(netlist, placement, &cells);
            let orig = cells.map(|c| (placement.x[c.index()], placement.y[c.index()]));
            let before = moves.hpwl(&orig);
            let mut best: Option<(f64, [usize; REORDER_WINDOW])> = None;
            let mut perm: [usize; REORDER_WINDOW] = std::array::from_fn(|k| k);
            permute(&mut perm, 0, &mut |p| {
                // left-pack in permuted order
                let mut at = orig;
                let mut x = left;
                for &pi in p {
                    at[pi].0 = x;
                    x += widths[pi];
                }
                let after = moves.hpwl(&at);
                if after < before - 1e-9 && best.is_none_or(|(b, _)| after < b) {
                    best = Some((after, std::array::from_fn(|k| p[k])));
                }
            });
            if let Some((_, p)) = best {
                let mut x = left;
                for (slot, &pi) in p.iter().enumerate() {
                    let c = cells[pi];
                    placement.x[c.index()] = x;
                    x += widths[pi];
                    // keep the row sorted by x so later windows pack from
                    // the true leftmost cell
                    row[start + slot] = c;
                }
                accepted += 1;
            }
        }
    }
    (accepted, attempted)
}

fn permute(perm: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, f);
        perm.swap(k, i);
    }
}

/// Swaps equal-width cell pairs toward their nets' medians. Returns
/// `(accepted, attempted)` swap counts.
fn global_swap(
    netlist: &Netlist,
    placement: &mut Placement,
    rows: &[Vec<CellId>],
    cell_region: &[Option<u16>],
    row_h: f64,
    moves: &mut MoveNets,
) -> (usize, usize) {
    // spatial hash of std cells by coarse bins, keyed by width
    let all: Vec<CellId> = rows.iter().flatten().copied().collect();
    if all.is_empty() {
        return (0, 0);
    }
    let mut accepted = 0;
    let mut attempted = 0;
    let mut bounds = (Vec::new(), Vec::new());
    // spatial hash: (width key, coarse bucket) → cells, so the peer search
    // is O(1) per cell instead of scanning the whole width class
    let bucket = (8.0 * row_h).max(1.0);
    // swaps only between equal-width cells with the same region tag; equal
    // to the bit, as a swap of unequal widths can overlap a neighbour
    let key_of = |w: f64, region: Option<u16>, x: f64, y: f64| -> (u64, i32, i64, i64) {
        (
            w.to_bits(),
            region.map(|r| r as i32).unwrap_or(-1),
            (x / bucket).floor() as i64,
            (y / bucket).floor() as i64,
        )
    };
    // lint:allow(determinism): probed by key only; per-bucket Vecs keep deterministic insertion order
    let mut spatial: std::collections::HashMap<(u64, i32, i64, i64), Vec<CellId>, FixedState> =
        Default::default();
    for &c in &all {
        spatial
            .entry(key_of(
                netlist.cell_width(c),
                cell_region[c.index()],
                placement.x[c.index()],
                placement.y[c.index()],
            ))
            .or_default()
            .push(c);
    }
    for &cell in &all {
        // optimal region: median of the other-pin bounding boxes
        moves.load(netlist, placement, &[cell]);
        let here = (placement.x[cell.index()], placement.y[cell.index()]);
        let (ox, oy) = moves.median_position(&mut bounds).unwrap_or(here);
        let cur_d = (placement.x[cell.index()] - ox).abs() + (placement.y[cell.index()] - oy).abs();
        if cur_d < row_h {
            continue; // already near optimal
        }
        let w = netlist.cell_width(cell);
        // nearest peer to the optimal point among the 3×3 buckets around it
        let (wk, rk, bx, by) = key_of(w, cell_region[cell.index()], ox, oy);
        let mut best_peer: Option<(f64, CellId)> = None;
        for dy in -1..=1 {
            for dx in -1..=1 {
                let Some(peers) = spatial.get(&(wk, rk, bx + dx, by + dy)) else {
                    continue;
                };
                for &p in peers {
                    if p == cell {
                        continue;
                    }
                    let d =
                        (placement.x[p.index()] - ox).abs() + (placement.y[p.index()] - oy).abs();
                    if best_peer.is_none_or(|(bd, _)| d < bd) {
                        best_peer = Some((d, p));
                    }
                }
            }
        }
        let Some((_, peer)) = best_peer else { continue };
        // trial swap
        attempted += 1;
        moves.include(netlist, placement, peer);
        let there = (placement.x[peer.index()], placement.y[peer.index()]);
        let before = moves.hpwl(&[here, there]);
        let after = moves.hpwl(&[there, here]);
        if after < before - 1e-9 {
            placement.x.swap(cell.index(), peer.index());
            placement.y.swap(cell.index(), peer.index());
            accepted += 1;
        }
    }
    (accepted, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{place, GlobalConfig};
    use crate::legalize::{check_legal, legalize, legalize_with_cuts};
    use mep_netlist::{net_hpwl, synth, NetlistBuilder};
    use mep_wirelength::ModelKind;
    use proptest::prelude::*;

    /// Oracle: HPWL over a set of nets, each walked from every pin.
    fn hpwl_over(netlist: &Netlist, placement: &Placement, nets: &[NetId]) -> f64 {
        nets.iter().map(|&n| net_hpwl(netlist, placement, n)).sum()
    }

    /// Oracle: dedup'd nets touching any of `cells`, in first-occurrence
    /// order.
    fn nets_of(netlist: &Netlist, cells: &[CellId], out: &mut Vec<NetId>) {
        out.clear();
        for &c in cells {
            for &p in netlist.cell_pins(c) {
                let n = netlist.pin_net(p);
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
    }

    /// Asserts that [`MoveNets`], loaded at `placement` at once or one
    /// added cell at a time, prices moved cell `i` at `at[i]` to the bits
    /// of the oracle on the moved placement.
    fn assert_move_matches_oracle(
        netlist: &Netlist,
        placement: &Placement,
        cells: &[CellId],
        at: &[(f64, f64)],
    ) -> Result<(), TestCaseError> {
        let mut moved = placement.clone();
        for (&c, &(x, y)) in cells.iter().zip(at) {
            moved.x[c.index()] = x;
            moved.y[c.index()] = y;
        }
        let mut nets = Vec::new();
        nets_of(netlist, cells, &mut nets);
        let want = hpwl_over(netlist, &moved, &nets);
        let mut loaded = MoveNets::default();
        loaded.load(netlist, placement, cells);
        let mut added = MoveNets::default();
        added.load(netlist, placement, &cells[..1]);
        for &c in &cells[1..] {
            added.include(netlist, placement, c);
        }
        for moves in [&mut loaded, &mut added] {
            let got = moves.hpwl(at);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs oracle {}", got, want);
        }
        Ok(())
    }

    proptest! {
        /// Random netlists of up to 8 cells and 8 nets of 1–5 pins, random
        /// moved sets of 1–4 cells, random candidate positions.
        fn move_hpwl_equals_the_oracle_bitwise(
            sizes in prop::collection::vec((1u8..5, 1u8..3), 2..9),
            nets in prop::collection::vec(
                prop::collection::vec(
                    // (cell, offset x, offset y, centred pin)
                    (0usize..8, -1.0f64..1.0, -1.0f64..1.0, prop::bool::weighted(0.3)),
                    1..6,
                ),
                1..9,
            ),
            pos in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 8),
            moved in prop::collection::vec(0usize..8, 1..5),
            cand in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 4),
        ) {
            let n = sizes.len();
            let mut b = NetlistBuilder::new();
            let ids: Vec<CellId> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(w, h))| b.add_cell(format!("c{i}"), w as f64, h as f64, true).unwrap())
                .collect();
            for (k, pins) in nets.iter().enumerate() {
                b.add_net(format!("n{k}"), pins.iter().map(|&(c, dx, dy, centred)| {
                    if centred { (ids[c % n], 0.0, 0.0) } else { (ids[c % n], dx, dy) }
                }));
            }
            let nl = b.build();
            let mut pl = Placement::zeros(n);
            for (i, &(x, y)) in pos.iter().take(n).enumerate() {
                pl.x[i] = x;
                pl.y[i] = y;
            }
            let mut cells: Vec<CellId> = Vec::new();
            for &m in &moved {
                if !cells.contains(&ids[m % n]) {
                    cells.push(ids[m % n]);
                }
            }
            let here: Vec<(f64, f64)> = cells.iter().map(|&c| (pl.x[c.index()], pl.y[c.index()])).collect();
            assert_move_matches_oracle(&nl, &pl, &cells, &here)?;
            assert_move_matches_oracle(&nl, &pl, &cells, &cand[..cells.len()])?;
        }
    }

    /// The cases a box per net can get wrong, each against the oracle: two
    /// moved cells sharing a net, a cell with two pins on one net, a net
    /// whose every pin moves, a single-pin net, non-zero pin offsets.
    #[test]
    fn move_hpwl_equals_the_oracle_on_pinned_cases() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 1.0, true).unwrap();
        let c = b.add_cell("c", 1.0, 1.0, true).unwrap();
        let t = b.add_cell("t", 0.0, 0.0, false).unwrap();
        b.add_net(
            "shared",
            vec![(a, 0.5, 0.0), (c, -0.25, 0.5), (t, 0.0, 0.0)],
        );
        b.add_net(
            "twice",
            vec![(a, -1.0, 0.25), (t, 0.0, 0.0), (a, 0.75, -0.5)],
        );
        b.add_net("all_moving", vec![(a, 0.0, -0.5), (c, 0.5, 0.5)]);
        b.add_net("single", vec![(c, 0.25, 0.25)]);
        let nl = b.build();
        let mut pl = Placement::zeros(3);
        (pl.x[a.index()], pl.y[a.index()]) = (10.0, 3.0);
        (pl.x[c.index()], pl.y[c.index()]) = (20.0, 7.0);
        (pl.x[t.index()], pl.y[t.index()]) = (15.0, 0.0);
        let (pa, pc) = ((10.0, 3.0), (20.0, 7.0));
        for at in [
            [pa, pc],
            [pc, pa],
            [(30.0, 4.0), (0.0, 0.0)],
            [(18.5, 2.0), (3.0, 9.0)],
        ] {
            assert_move_matches_oracle(&nl, &pl, &[a, c], &at).unwrap();
            assert_move_matches_oracle(&nl, &pl, &[c, a], &[at[1], at[0]]).unwrap();
            assert_move_matches_oracle(&nl, &pl, &[a], &at[..1]).unwrap();
            assert_move_matches_oracle(&nl, &pl, &[c], &at[1..]).unwrap();
        }
    }

    fn legal_smoke() -> (mep_netlist::bookshelf::BookshelfCircuit, Placement) {
        let c = synth::generate(&synth::smoke_spec());
        let cfg = GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 400,
            ..GlobalConfig::default()
        };
        let gp = place(&c, &cfg).expect("placement flow");
        let (legal, _) = legalize(&c.design, &gp.placement).expect("legalize");
        (c, legal)
    }

    #[test]
    fn refinement_reduces_hpwl_and_stays_legal() {
        let (c, mut pl) = legal_smoke();
        let report = refine(&c.design, &mut pl, &DetailConfig::default());
        assert!(
            report.hpwl_after < report.hpwl_before,
            "no improvement: {report:?}"
        );
        assert!(report.reorders + report.swaps > 0);
        let violations = check_legal(&c.design, &pl);
        assert!(
            violations.is_empty(),
            "{} violations after DP: {:?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }

    /// Every decision of a default refinement, pinned: `smoke` and
    /// `smoke_regions` (the fence branch), each legalized from its generated
    /// placement. A change that keeps `hpwl_after` but moves a counter, or
    /// the reverse, fails here. Re-pinned when independent-set matching was
    /// deleted: from these unplaced starts it had much to find (`hpwl_after`
    /// 10622.04 → 11236.87 and 12448.73 → 12913.07), after a placed start it
    /// buys a few thousandths of a percent.
    #[test]
    fn refine_decisions_are_pinned() {
        for (spec, want) in [
            (
                synth::smoke_spec(),
                ([512, 876], [280, 1130], 3, 0x40c5_f26f_bdf4_d7c1),
            ),
            (
                synth::smoke_regions_spec(),
                ([205, 423], [270, 1106], 3, 0x40c9_3888_f75f_c7e1),
            ),
        ] {
            let c = synth::generate(&spec);
            let (mut pl, _) = legalize(&c.design, &c.placement).expect("legalize");
            let r = refine(&c.design, &mut pl, &DetailConfig::default());
            let got = (
                [r.reorders, r.reorders_attempted],
                [r.swaps, r.swaps_attempted],
                r.passes,
                r.hpwl_after.to_bits(),
            );
            assert_eq!(got, want, "{}", spec.name);
        }
    }

    /// Each move class runs once per pass, under its own clock, and the
    /// clocks count those runs.
    #[test]
    fn move_class_clocks_count_one_run_per_pass() {
        let c = synth::generate(&synth::smoke_spec());
        let (mut pl, _) = legalize(&c.design, &c.placement).expect("legalize");
        let r = refine(&c.design, &mut pl, &DetailConfig::default());
        assert!(r.passes > 0);
        assert_eq!(r.reorder_clock.count, r.passes as u64);
        assert_eq!(r.swap_clock.count, r.passes as u64);
    }

    /// Per row, the cuts as a sorted list of bit pairs: `refine` reads them
    /// as a set.
    fn cut_sets(cuts: &RowCuts) -> Vec<Vec<(u64, u64)>> {
        let row = |row: &Vec<(f64, f64)>| {
            let mut bits: Vec<_> = row.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect();
            bits.sort_unstable();
            bits
        };
        cuts.iter().map(row).collect()
    }

    /// Legalizes `gp` and asserts that the cuts the legalizer hands on are
    /// the cuts `refine` builds on the legal placement. Returns that
    /// placement and the number of cuts.
    fn assert_dp_sees_its_own_cuts(design: &Design, gp: &Placement) -> (Placement, usize) {
        let (legal, _, cuts) = legalize_with_cuts(design, gp).expect("legalize");
        let want = blocked_cuts(design, &legal);
        assert_eq!(cut_sets(&cuts), cut_sets(&want));
        (legal, want.iter().map(Vec::len).sum())
    }

    #[test]
    fn legalizer_hands_detailed_placement_its_own_cuts() {
        // fences, then movable macros
        let c = synth::generate(&synth::smoke_regions_spec());
        assert!(assert_dp_sees_its_own_cuts(&c.design, &c.placement).1 > 0);
        let c = synth::generate(&synth::spec_by_name("newblue1").unwrap());
        let nl = &c.design.netlist;
        let row_h = c.design.rows[0].height;
        assert!(nl.movable_cells().any(|m| nl.cell_height(m) > row_h));
        assert_dp_sees_its_own_cuts(&c.design, &c.placement);

        // one ECO window of newblue6: every cell off one 4×4 tile is frozen
        let c = synth::generate(&synth::spec_by_name("newblue6").unwrap());
        let (legal, _) = legalize(&c.design, &c.placement).expect("legalize");
        let nl = &c.design.netlist;
        let die = c.design.die;
        let (w, h) = (die.width() / 4.0, die.height() / 4.0);
        let window = Rect::new(die.xl + w, die.yl + h, die.xl + 2.0 * w, die.yl + 2.0 * h);
        let mask: Vec<bool> = nl
            .cells()
            .map(|c| nl.is_movable(c) && legal.cell_rect(nl, c).intersects(&window))
            .collect();
        let mut design = c.design.clone();
        design.netlist = nl.with_movability(&mask).expect("one entry per cell");
        let frozen = nl.num_movable() - design.netlist.num_movable();
        let (_, cuts) = assert_dp_sees_its_own_cuts(&design, &legal);
        assert!(cuts >= frozen, "{cuts} cuts for {frozen} frozen cells");

        // a zero-area fixed cell and a zero-width macro: the legalizer's
        // segments are cut by the macro, detailed placement sees neither
        let mut b = NetlistBuilder::new();
        let block = b.add_cell("block", 4.0, 2.0, false).unwrap();
        let pad = b.add_cell("pad", 0.0, 2.0, false).unwrap();
        let wide = b.add_cell("wide", 3.0, 3.0, true).unwrap();
        let thin = b.add_cell("thin", 0.0, 3.0, true).unwrap();
        let cells: Vec<CellId> = (0..30)
            .map(|i| {
                b.add_cell(format!("c{i}"), 1.0 + (i % 2) as f64, 1.0, true)
                    .unwrap()
            })
            .collect();
        for pair in cells.windows(2) {
            b.add_net("n", vec![(pair[0], 0.0, 0.0), (pair[1], 0.0, 0.0)]);
        }
        let die = Rect::new(0.0, 0.0, 40.0, 8.0);
        let design = Design::with_uniform_rows("t", b.build(), die, 1.0, 1.0, 1.0).unwrap();
        let mut gp = Placement::zeros(design.netlist.num_cells());
        for (cell, x, y) in [
            (block, 10.0, 2.0),
            (pad, 20.5, 3.0),
            (wide, 28.0, 4.0),
            (thin, 33.5, 1.0),
        ] {
            (gp.x[cell.index()], gp.y[cell.index()]) = (x, y);
        }
        for (i, c) in cells.iter().enumerate() {
            (gp.x[c.index()], gp.y[c.index()]) = ((i * 7 % 37) as f64 + 0.4, (i % 8) as f64);
        }
        let (legal, cuts) = assert_dp_sees_its_own_cuts(&design, &gp);
        // the block's two rows and the wide macro's three
        assert_eq!(cuts, 5);
        let index = RowIndex::new(&design.rows);
        for cell in [pad, thin] {
            let rect = legal.cell_rect(&design.netlist, cell);
            assert_eq!(rect.area(), 0.0);
            assert!(row_cuts(&index, [rect]).iter().any(|r| !r.is_empty()));
        }
        assert_eq!(check_legal(&design, &legal), Vec::new());
    }

    #[test]
    fn rows_above_the_die_bottom_hold_every_cell() {
        // ten rows starting two row pitches above the die bottom: the cells
        // of the top two rows used to fall past the last row list
        let mut b = NetlistBuilder::new();
        let cells: Vec<CellId> = (0..30)
            .map(|i| b.add_cell(format!("c{i}"), 2.0, 1.0, true).unwrap())
            .collect();
        for pair in cells.windows(2) {
            b.add_net("n", vec![(pair[0], 0.0, 0.0), (pair[1], 0.0, 0.0)]);
        }
        let rows: Vec<mep_netlist::Row> = (0..10)
            .map(|r| mep_netlist::Row {
                y: 2.0 + r as f64,
                height: 1.0,
                xl: 0.0,
                xh: 8.0,
                site_width: 1.0,
            })
            .collect();
        let die = Rect::new(0.0, 0.0, 8.0, 12.0);
        let design = Design::new("t", b.build(), die, rows, 1.0).unwrap();
        let mut pl = Placement::zeros(cells.len());
        for (i, c) in cells.iter().enumerate() {
            // three cells per row, shuffled over the rows
            pl.x[c.index()] = 2.0 * (i % 3) as f64;
            pl.y[c.index()] = 2.0 + (i * 7 % 10) as f64;
        }
        assert_eq!(check_legal(&design, &pl), Vec::new());
        let index = RowIndex::new(&design.rows);
        let lists = build_rows(&index, &design.netlist, &pl, 1.0);
        let mut seen: Vec<CellId> = lists.iter().flatten().copied().collect();
        seen.sort();
        assert_eq!(seen, cells);
        for (row, list) in design.rows.iter().zip(&lists) {
            assert_eq!(list.len(), 3);
            assert!(list.iter().all(|c| pl.y[c.index()] == row.y));
        }
        let report = refine(&design, &mut pl, &DetailConfig::default());
        assert!(report.reorders + report.swaps > 0, "{report:?}");
        assert_eq!(check_legal(&design, &pl), Vec::new());
    }

    #[test]
    fn refinement_is_monotone_across_passes() {
        let (c, mut pl) = legal_smoke();
        let h0 = total_hpwl(&c.design.netlist, &pl);
        let mut prev = h0;
        for _ in 0..3 {
            let r = refine(
                &c.design,
                &mut pl,
                &DetailConfig {
                    passes: 1,
                    ..DetailConfig::default()
                },
            );
            assert!(r.hpwl_after <= prev + 1e-6);
            prev = r.hpwl_after;
        }
    }

    #[test]
    fn optimal_position_is_median_of_other_pins() {
        // cell connected by two 2-pin nets to cells at x = 0 and x = 10:
        // any x in [0,10] is optimal; the median-of-bounds picks inside
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, true).unwrap();
        let l = b.add_cell("l", 1.0, 1.0, true).unwrap();
        let r = b.add_cell("r", 1.0, 1.0, true).unwrap();
        b.add_net("n0", vec![(a, 0.0, 0.0), (l, 0.0, 0.0)]);
        b.add_net("n1", vec![(a, 0.0, 0.0), (r, 0.0, 0.0)]);
        let nl = b.build();
        let mut pl = Placement::zeros(3);
        pl.x[l.index()] = 0.0;
        pl.x[r.index()] = 10.0;
        pl.x[a.index()] = 50.0;
        let mut moves = MoveNets::default();
        moves.load(&nl, &pl, &[a]);
        let (ox, _) = moves.median_position(&mut Default::default()).unwrap();
        assert!((0.0..=11.0).contains(&ox), "ox = {ox}");
    }

    #[test]
    fn permute_visits_all_orderings() {
        let mut count = 0;
        let mut p = [0, 1, 2, 3];
        permute(&mut p, 0, &mut |_| count += 1);
        assert_eq!(count, 24);
    }
}
