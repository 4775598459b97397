//! Detailed placement: HPWL refinement of a legal placement.
//!
//! CPU re-implementation of the move classes of ABCDPlace \[38\], the
//! paper's detailed-placement engine:
//!
//! * **local reordering** — permute small windows of consecutive cells in
//!   a row (left-packed, so legality is preserved);
//! * **global swap** — exchange equal-width cells so each moves toward the
//!   median of its nets;
//! * **independent-set matching** — pick mutually net-disjoint equal-width
//!   cells and solve the slot-assignment exactly (their costs are
//!   separable precisely because the set is independent).
//!
//! Every accepted move strictly reduces exact HPWL, so the refinement
//! never degrades the legalized result.

use mep_netlist::{net_hpwl, total_hpwl, CellId, Design, FixedState, NetId, Netlist, Placement};
// lint:allow(determinism): membership-only net dedup set; never iterated
use std::collections::HashSet;

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Accepted independent-set reassignments.
    pub matchings: usize,
    /// Independent sets solved.
    pub matchings_attempted: usize,
    /// Passes actually executed.
    pub passes: usize,
}

impl DetailReport {
    /// `accepted / attempted` for one move class, `0.0` when nothing was
    /// attempted.
    fn ratio(accepted: usize, attempted: usize) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            accepted as f64 / attempted as f64
        }
    }

    /// Acceptance ratio of local reorders.
    pub fn reorder_acceptance(&self) -> f64 {
        Self::ratio(self.reorders, self.reorders_attempted)
    }

    /// Acceptance ratio of global swaps.
    pub fn swap_acceptance(&self) -> f64 {
        Self::ratio(self.swaps, self.swaps_attempted)
    }

    /// Acceptance ratio of independent-set reassignments.
    pub fn matching_acceptance(&self) -> f64 {
        Self::ratio(self.matchings, self.matchings_attempted)
    }
}

/// Sum of HPWL over a set of nets.
fn hpwl_over(netlist: &Netlist, placement: &Placement, nets: &[NetId]) -> f64 {
    nets.iter().map(|&n| net_hpwl(netlist, placement, n)).sum()
}

/// Dedup'd nets touching any of `cells`.
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

/// Runs detailed placement in place. The placement must be legal; all
/// moves preserve legality.
pub fn refine(design: &Design, placement: &mut Placement, config: &DetailConfig) -> DetailReport {
    let netlist = &design.netlist;
    let row_h = design.rows.first().map(|r| r.height).unwrap_or(1.0);
    let hpwl_before = total_hpwl(netlist, placement);
    let mut report = DetailReport {
        hpwl_before,
        hpwl_after: hpwl_before,
        reorders: 0,
        reorders_attempted: 0,
        swaps: 0,
        swaps_attempted: 0,
        matchings: 0,
        matchings_attempted: 0,
        passes: 0,
    };
    // region context: padded per-cell assignment + fence rectangles
    let cell_region: Vec<Option<u16>> = if design.cell_region.is_empty() {
        vec![None; netlist.num_cells()]
    } else {
        design.cell_region.clone()
    };
    let fences: Vec<mep_netlist::Rect> = design.regions.iter().map(|r| r.rect).collect();
    let mut current = hpwl_before;
    for _pass in 0..config.passes {
        report.passes += 1;
        let mut rows = build_rows(design, placement, row_h);
        let obstacles = row_obstacles(design, placement, row_h);
        let (acc, att) = local_reorder(
            netlist,
            placement,
            &mut rows,
            &obstacles,
            &cell_region,
            &fences,
        );
        report.reorders += acc;
        report.reorders_attempted += att;
        let (acc, att) = global_swap(netlist, placement, &rows, &cell_region, row_h);
        report.swaps += acc;
        report.swaps_attempted += att;
        let (acc, att) = independent_set_matching(netlist, placement, &rows, &cell_region);
        report.matchings += acc;
        report.matchings_attempted += att;
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

/// Standard cells per row, sorted by x.
fn build_rows(design: &Design, placement: &Placement, row_h: f64) -> Vec<Vec<CellId>> {
    let netlist = &design.netlist;
    let die = design.die;
    let nrows = design.rows.len().max(1);
    let mut rows: Vec<Vec<CellId>> = vec![Vec::new(); nrows];
    for cell in netlist.movable_cells() {
        if netlist.cell_height(cell) > row_h + 1e-9 {
            continue; // macros are frozen after legalization
        }
        let r = ((placement.y[cell.index()] - die.yl) / row_h).round() as usize;
        if r < nrows {
            rows[r].push(cell);
        }
    }
    for row in &mut rows {
        row.sort_by(|&a, &b| placement.x[a.index()].total_cmp(&placement.x[b.index()]));
    }
    rows
}

/// Per-row x-intervals blocked by fixed cells and frozen movable macros.
fn row_obstacles(design: &Design, placement: &Placement, row_h: f64) -> Vec<Vec<(f64, f64)>> {
    let netlist = &design.netlist;
    let die = design.die;
    let nrows = design.rows.len().max(1);
    let mut per_row: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nrows];
    for cell in netlist.cells() {
        let frozen_macro = netlist.is_movable(cell) && netlist.cell_height(cell) > row_h + 1e-9;
        if netlist.is_movable(cell) && !frozen_macro {
            continue;
        }
        let r = placement.cell_rect(netlist, cell);
        // lint:allow(float-eq): zero-area obstacles are exactly zero by construction
        if r.area() == 0.0 {
            continue;
        }
        for row in crate::legalize::row_window(r.yl, r.yh, die.yl, row_h, nrows) {
            per_row[row].push((r.xl, r.xh));
        }
    }
    per_row
}

/// Cells per local-reorder permutation group (`3! = 6` orderings tried per
/// window).
const REORDER_WINDOW: usize = 3;

/// Permutes windows of consecutive cells (left-packed). Returns
/// `(accepted, attempted)` move counts.
fn local_reorder(
    netlist: &Netlist,
    placement: &mut Placement,
    rows: &mut [Vec<CellId>],
    obstacles: &[Vec<(f64, f64)>],
    cell_region: &[Option<u16>],
    fences: &[mep_netlist::Rect],
) -> (usize, usize) {
    let mut accepted = 0;
    let mut attempted = 0;
    let mut nets = Vec::new();
    for (row_idx, row) in rows.iter_mut().enumerate() {
        if row.len() < REORDER_WINDOW {
            continue;
        }
        for start in 0..=(row.len() - REORDER_WINDOW) {
            let cells: Vec<CellId> = row[start..start + REORDER_WINDOW].to_vec();
            let cells = &cells[..];
            // all window cells must share one region assignment
            let region = cell_region[cells[0].index()];
            if cells[1..].iter().any(|&c| cell_region[c.index()] != region) {
                continue;
            }
            let left = placement.x[cells[0].index()];
            // the packed span must not cover a blockage hiding in a gap
            let span_w: f64 = cells.iter().map(|&c| netlist.cell_width(c)).sum();
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
            nets_of(netlist, cells, &mut nets);
            let before = hpwl_over(netlist, placement, &nets);
            let orig: Vec<(f64, f64)> = cells
                .iter()
                .map(|&c| (placement.x[c.index()], placement.y[c.index()]))
                .collect();
            let mut best: Option<(f64, Vec<usize>)> = None;
            let mut perm: Vec<usize> = (0..REORDER_WINDOW).collect();
            permute(&mut perm, 0, &mut |p| {
                // left-pack in permuted order
                let mut x = left;
                for &pi in p {
                    let c = cells[pi];
                    placement.x[c.index()] = x;
                    x += netlist.cell_width(c);
                }
                let after = hpwl_over(netlist, placement, &nets);
                if after < before - 1e-9 && best.as_ref().is_none_or(|(b, _)| after < *b) {
                    best = Some((after, p.to_vec()));
                }
            });
            // restore, then apply best if any
            for (&c, &(x, y)) in cells.iter().zip(&orig) {
                placement.x[c.index()] = x;
                placement.y[c.index()] = y;
            }
            if let Some((_, p)) = best {
                let mut x = left;
                for (slot, &pi) in p.iter().enumerate() {
                    let c = cells[pi];
                    placement.x[c.index()] = x;
                    x += netlist.cell_width(c);
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

fn permute(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
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
) -> (usize, usize) {
    // spatial hash of std cells by coarse bins, keyed by width
    let all: Vec<CellId> = rows.iter().flatten().copied().collect();
    if all.is_empty() {
        return (0, 0);
    }
    let mut accepted = 0;
    let mut attempted = 0;
    let mut nets = Vec::new();
    // spatial hash: (width key, coarse bucket) → cells, so the peer search
    // is O(1) per cell instead of scanning the whole width class
    let bucket = (8.0 * row_h).max(1.0);
    // swaps only between equal-width cells with the same region tag
    let key_of = |w: f64, region: Option<u16>, x: f64, y: f64| -> (i64, i32, i64, i64) {
        (
            (w * 16.0).round() as i64,
            region.map(|r| r as i32).unwrap_or(-1),
            (x / bucket).floor() as i64,
            (y / bucket).floor() as i64,
        )
    };
    // lint:allow(determinism): probed by key only; per-bucket Vecs keep deterministic insertion order
    let mut spatial: std::collections::HashMap<(i64, i32, i64, i64), Vec<CellId>, FixedState> =
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
        let (ox, oy) = optimal_position(netlist, placement, cell);
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
        nets_of(netlist, &[cell, peer], &mut nets);
        let before = hpwl_over(netlist, placement, &nets);
        swap_positions(placement, cell, peer);
        let after = hpwl_over(netlist, placement, &nets);
        if after < before - 1e-9 {
            accepted += 1;
        } else {
            swap_positions(placement, cell, peer);
        }
    }
    (accepted, attempted)
}

fn swap_positions(placement: &mut Placement, a: CellId, b: CellId) {
    placement.x.swap(a.index(), b.index());
    placement.y.swap(a.index(), b.index());
}

/// Median-of-bounds optimal position of a cell w.r.t. its nets.
fn optimal_position(netlist: &Netlist, placement: &Placement, cell: CellId) -> (f64, f64) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &p in netlist.cell_pins(cell) {
        let net = netlist.pin_net(p);
        let (mut xl, mut xh) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut yl, mut yh) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut others = 0;
        for q in netlist.net_pins(net) {
            if netlist.pin_cell(q) == cell {
                continue;
            }
            others += 1;
            let pos = placement.pin_position(netlist, q);
            xl = xl.min(pos.x);
            xh = xh.max(pos.x);
            yl = yl.min(pos.y);
            yh = yh.max(pos.y);
        }
        if others > 0 {
            xs.push(xl);
            xs.push(xh);
            ys.push(yl);
            ys.push(yh);
        }
    }
    if xs.is_empty() {
        return (placement.x[cell.index()], placement.y[cell.index()]);
    }
    let med = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (med(&mut xs), med(&mut ys))
}

/// Maximum independent-set size: `reassign_set` tries every permutation,
/// ≤ 24 of them. Sets of 8 and 12 solved by an exact matching moved DPWL by
/// under 0.06 % on three circuits, inside the seed spread (DESIGN.md §17).
const ISM_SET: usize = 4;

/// Independent-set matching: finds sets of equal-width, net-disjoint cells
/// and solves the slot assignment exactly. Returns `(accepted, attempted)`
/// set counts.
fn independent_set_matching(
    netlist: &Netlist,
    placement: &mut Placement,
    rows: &[Vec<CellId>],
    cell_region: &[Option<u16>],
) -> (usize, usize) {
    let mut accepted = 0;
    let mut attempted = 0;
    // group by (width, region): slot exchanges stay inside one fence
    // lint:allow(determinism): keys are copied out and sorted before iteration (below)
    let mut by_width: std::collections::HashMap<(i64, i32), Vec<CellId>, FixedState> =
        Default::default();
    for &c in rows.iter().flatten() {
        let key = (
            (netlist.cell_width(c) * 16.0).round() as i64,
            cell_region[c.index()].map(|r| r as i32).unwrap_or(-1),
        );
        by_width.entry(key).or_default().push(c);
    }
    // lint:allow(determinism): membership-only dedup of shared nets; never iterated
    let mut nets_seen: HashSet<NetId, FixedState> = HashSet::default();
    let mut keys: Vec<(i64, i32)> = by_width.keys().copied().collect();
    keys.sort_unstable(); // deterministic iteration order
    for key in keys {
        let cells = &by_width[&key];
        let mut i = 0;
        while i < cells.len() {
            // greedily grow an independent set from consecutive candidates
            nets_seen.clear();
            let mut set = Vec::new();
            let mut j = i;
            while j < cells.len() && set.len() < ISM_SET {
                let c = cells[j];
                let mut disjoint = true;
                for &p in netlist.cell_pins(c) {
                    if nets_seen.contains(&netlist.pin_net(p)) {
                        disjoint = false;
                        break;
                    }
                }
                if disjoint {
                    for &p in netlist.cell_pins(c) {
                        nets_seen.insert(netlist.pin_net(p));
                    }
                    set.push(c);
                }
                j += 1;
            }
            i = j;
            if set.len() < 2 {
                continue;
            }
            attempted += 1;
            if reassign_set(netlist, placement, &set) {
                accepted += 1;
            }
        }
    }
    (accepted, attempted)
}

/// Exactly reassigns an independent set over its own slots. Returns whether
/// a strictly better assignment was applied.
fn reassign_set(netlist: &Netlist, placement: &mut Placement, set: &[CellId]) -> bool {
    let k = set.len();
    let slots: Vec<(f64, f64)> = set
        .iter()
        .map(|&c| (placement.x[c.index()], placement.y[c.index()]))
        .collect();
    // separable cost matrix: cost[i][j] = Σ HPWL(nets of cell i | cell i at slot j)
    let mut nets = Vec::new();
    let mut cost = vec![vec![0.0; k]; k];
    for (i, &c) in set.iter().enumerate() {
        nets_of(netlist, &[c], &mut nets);
        let orig = (placement.x[c.index()], placement.y[c.index()]);
        for (j, &(sx, sy)) in slots.iter().enumerate() {
            placement.x[c.index()] = sx;
            placement.y[c.index()] = sy;
            cost[i][j] = hpwl_over(netlist, placement, &nets);
        }
        placement.x[c.index()] = orig.0;
        placement.y[c.index()] = orig.1;
    }
    let identity_cost: f64 = (0..k).map(|i| cost[i][i]).sum();
    // brute force: ≤ 24 permutations
    let mut best_cost = identity_cost;
    let mut best: Vec<usize> = (0..k).collect();
    let mut perm: Vec<usize> = (0..k).collect();
    permute(&mut perm, 0, &mut |p| {
        let c: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        if c < best_cost - 1e-9 {
            best_cost = c;
            best = p.to_vec();
        }
    });
    if best.iter().enumerate().all(|(i, &j)| i == j) {
        return false;
    }
    for (i, &j) in best.iter().enumerate() {
        placement.x[set[i].index()] = slots[j].0;
        placement.y[set[i].index()] = slots[j].1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{place, GlobalConfig};
    use crate::legalize::{check_legal, legalize};
    use mep_netlist::synth;
    use mep_wirelength::ModelKind;

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
        assert!(report.reorders + report.swaps + report.matchings > 0);
        let violations = check_legal(&c.design, &pl);
        assert!(
            violations.is_empty(),
            "{} violations after DP: {:?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
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
        let mut b = mep_netlist::NetlistBuilder::new();
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
        let (ox, _) = optimal_position(&nl, &pl, a);
        assert!((0.0..=11.0).contains(&ox), "ox = {ox}");
    }

    #[test]
    fn permute_visits_all_orderings() {
        let mut count = 0;
        let mut p = vec![0, 1, 2, 3];
        permute(&mut p, 0, &mut |_| count += 1);
        assert_eq!(count, 24);
    }

    #[test]
    fn reassign_set_improves_crossed_pair() {
        // two cells whose nets pull them to each other's slots
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, true).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, true).unwrap();
        let ta = b.add_cell("ta", 0.0, 0.0, false).unwrap();
        let tb = b.add_cell("tb", 0.0, 0.0, false).unwrap();
        b.add_net("na", vec![(a, 0.0, 0.0), (ta, 0.0, 0.0)]);
        b.add_net("nb", vec![(c, 0.0, 0.0), (tb, 0.0, 0.0)]);
        let nl = b.build();
        let mut pl = Placement::zeros(4);
        pl.x[ta.index()] = 100.0; // a's anchor on the right
        pl.x[tb.index()] = 0.0; // b's anchor on the left
        pl.x[a.index()] = 10.0; // a currently left (wrong side)
        pl.x[c.index()] = 90.0; // b currently right (wrong side)
        let before = total_hpwl(&nl, &pl);
        let improved = reassign_set(&nl, &mut pl, &[a, c]);
        let after = total_hpwl(&nl, &pl);
        assert!(improved);
        assert!(after < before);
        assert_eq!(pl.x[a.index()], 90.0);
        assert_eq!(pl.x[c.index()], 10.0);
    }
}
