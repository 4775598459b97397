//! Net-degree-aware cluster coarsening for multilevel placement.
//!
//! Multilevel placers (mPL, FastPlace-ML, NTUplace) solve a cheap coarse
//! problem first and interpolate the solution down: cells are merged into
//! clusters, nets collapse onto the clusters, the placer runs on the small
//! hypergraph, and a *prolongation map* carries the coarse solution back to
//! the fine cells. This module provides exactly that substrate:
//!
//! * [`coarsen`] — one level of deterministic heavy-edge matching: each
//!   movable, unconstrained cell pairs with the neighbor it shares the most
//!   (degree-weighted) net connectivity with, roughly halving the movable
//!   cell count per call;
//! * [`Coarsened`] — the coarse [`Design`] + seeding [`Placement`] +
//!   [`ProlongationMap`];
//! * [`ProlongationMap::prolong`] — interpolates a coarse placement back to
//!   the fine cells using the intra-cluster offsets recorded at coarsening
//!   time.
//!
//! Everything is deterministic (no RNG, no hash iteration): affinity edges
//! are accumulated by sorting, ties break on the smaller cell id, and all
//! floating-point folds run in fixed (cell/member) order, so the same input
//! always produces the same coarse design.
//!
//! Aggregation invariants (exercised by the round-trip tests):
//!
//! * every fine cell maps to exactly one coarse cell;
//! * a cluster's area is the member areas folded in member order, realized
//!   as `width = Σarea / row_height` at `height = row_height` (bit-exact
//!   when the row height is 1.0 or any power of two, as in the synthetic
//!   suites);
//! * fixed cells stay singletons with their coordinates copied bit-for-bit;
//! * every kept coarse net corresponds to a fine net spanning ≥ 2 clusters,
//!   with one pin per (net, cluster) incidence.

use crate::design::Design;
use crate::error::NetlistError;
use crate::geom::Point;
use crate::ids::CellId;
use crate::netlist::NetlistBuilder;
use crate::placement::Placement;

/// Counters describing what one [`coarsen`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoarsenStats {
    /// Movable cells in the fine netlist.
    pub fine_movable: usize,
    /// Movable cells in the coarse netlist (clusters + singletons).
    pub coarse_movable: usize,
    /// Nets kept (spanning ≥ 2 coarse cells).
    pub nets_kept: usize,
    /// Nets dropped because clustering made them internal.
    pub nets_dropped: usize,
    /// Pins in the coarse netlist (one per (net, cluster) incidence).
    pub coarse_pins: usize,
}

/// Maps fine cells onto their coarse cluster and remembers where each fine
/// cell sat relative to its cluster center, so a coarse solution can be
/// interpolated back down.
#[derive(Debug, Clone)]
pub struct ProlongationMap {
    coarse_of: Vec<u32>,
    dx: Vec<f64>,
    dy: Vec<f64>,
}

impl ProlongationMap {
    /// The coarse cell a fine cell belongs to.
    #[inline]
    pub fn coarse_of(&self, fine: CellId) -> CellId {
        CellId(self.coarse_of[fine.index()])
    }

    /// Number of fine cells covered.
    pub fn num_fine(&self) -> usize {
        self.coarse_of.len()
    }

    /// Interpolates a coarse placement back to the fine cells: each fine
    /// movable cell lands at its cluster's center plus the offset recorded
    /// at coarsening time, clamped into the die. Fixed fine cells are left
    /// untouched in `out` (pass a copy of the original fine placement).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Geometry`] if `out` or `coarse_pl` do not
    /// match the fine/coarse designs this map was built from.
    pub fn prolong(
        &self,
        fine: &Design,
        coarse: &Design,
        coarse_pl: &Placement,
        out: &mut Placement,
    ) -> Result<(), NetlistError> {
        if out.len() != self.num_fine() || fine.netlist.num_cells() != self.num_fine() {
            return Err(NetlistError::Geometry(format!(
                "prolongation target has {} cells, map covers {}",
                out.len(),
                self.num_fine()
            )));
        }
        if coarse_pl.len() != coarse.netlist.num_cells() {
            return Err(NetlistError::Geometry(format!(
                "coarse placement has {} cells, coarse design {}",
                coarse_pl.len(),
                coarse.netlist.num_cells()
            )));
        }
        let die = fine.die;
        for cell in fine.netlist.cells() {
            if !fine.netlist.is_movable(cell) {
                continue;
            }
            let i = cell.index();
            let c = coarse_pl.center(&coarse.netlist, self.coarse_of(cell));
            let w = fine.netlist.cell_width(cell);
            let h = fine.netlist.cell_height(cell);
            // clamp the center so the cell body stays inside the die
            let half_w = 0.5 * w.min(die.width());
            let half_h = 0.5 * h.min(die.height());
            let cx = (c.x + self.dx[i]).clamp(die.xl + half_w, die.xh - half_w);
            let cy = (c.y + self.dy[i]).clamp(die.yl + half_h, die.yh - half_h);
            out.set_center(&fine.netlist, cell, Point::new(cx, cy));
        }
        Ok(())
    }
}

/// One coarsening level: the coarse problem plus the way back down.
#[derive(Debug, Clone)]
pub struct Coarsened {
    /// The coarse placement problem (same die/rows/density as the fine one).
    pub design: Design,
    /// Seed placement for the coarse problem: cluster centers at the
    /// area-weighted centroid of their members, fixed cells bit-identical.
    pub placement: Placement,
    /// Fine → coarse mapping with intra-cluster offsets.
    pub map: ProlongationMap,
    /// What happened.
    pub stats: CoarsenStats,
}

/// Runs one level of net-degree-aware heavy-edge matching and builds the
/// coarse problem.
///
/// Movable cells without a region constraint are candidates; fixed and
/// region-constrained cells always stay singletons (fixed ones keep their
/// exact coordinates, constrained ones keep their region assignment).
///
/// # Errors
///
/// Returns [`NetlistError::Geometry`] if the placement length does not
/// match the netlist or the design has no movable cells.
pub fn coarsen(design: &Design, placement: &Placement) -> Result<Coarsened, NetlistError> {
    let nl = &design.netlist;
    let n = nl.num_cells();
    if placement.len() != n {
        return Err(NetlistError::Geometry(format!(
            "placement has {} cells, netlist {}",
            placement.len(),
            n
        )));
    }
    let n_movable = nl.num_movable();
    if n_movable == 0 {
        return Err(NetlistError::Geometry(
            "cannot coarsen a design with no movable cells".into(),
        ));
    }

    // --- candidate mask ----------------------------------------------------
    let clusterable: Vec<bool> = nl
        .cells()
        .map(|c| nl.is_movable(c) && design.region_of(c).is_none())
        .collect();

    // --- affinity edges ----------------------------------------------------
    // clique expansion for small nets, chain for medium ones, weight 1/(d-1)
    // (the standard clique-net weighting: total weight per net is constant)
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    // Nets with more pins than this are ignored when scoring affinity
    // (high-degree nets carry almost no locality signal and would densify
    // the affinity graph quadratically).
    const MAX_NET_DEGREE: usize = 16;
    for net in nl.nets() {
        let d = nl.net_degree(net);
        if !(2..=MAX_NET_DEGREE).contains(&d) {
            continue;
        }
        members.clear();
        for pin in nl.net_pins(net) {
            let c = nl.pin_cell(pin);
            if clusterable[c.index()] && !members.contains(&c.0) {
                members.push(c.0);
            }
        }
        if members.len() < 2 {
            continue;
        }
        let w = nl.net_weight(net) / (d as f64 - 1.0);
        if !w.is_finite() || w <= 0.0 {
            continue;
        }
        if members.len() <= 4 {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let (a, b) = (members[i].min(members[j]), members[i].max(members[j]));
                    edges.push((a, b, w));
                }
            }
        } else {
            for pair in members.windows(2) {
                let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                edges.push((a, b, w));
            }
        }
    }
    // merge duplicate pairs (sort is the deterministic substitute for a map)
    edges.sort_unstable_by_key(|x| (x.0, x.1));
    let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len());
    for (a, b, w) in edges {
        match merged.last_mut() {
            Some(last) if last.0 == a && last.1 == b => last.2 += w,
            _ => merged.push((a, b, w)),
        }
    }

    // --- adjacency (CSR, both directions) ----------------------------------
    let mut deg = vec![0u32; n];
    for &(a, b, _) in &merged {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let mut adj_start = vec![0u32; n + 1];
    for i in 0..n {
        adj_start[i + 1] = adj_start[i] + deg[i];
    }
    let mut adj: Vec<(u32, f64)> = vec![(0, 0.0); adj_start[n] as usize];
    let mut cursor = adj_start.clone();
    for &(a, b, w) in &merged {
        adj[cursor[a as usize] as usize] = (b, w);
        cursor[a as usize] += 1;
        adj[cursor[b as usize] as usize] = (a, w);
        cursor[b as usize] += 1;
    }

    // --- heavy-edge matching ------------------------------------------------
    let mean_area = nl.total_movable_area() / n_movable as f64;
    // A cluster may not exceed this multiple of the mean movable-cell
    // area; keeps macros from swallowing their neighborhoods.
    const MAX_AREA_FACTOR: f64 = 8.0;
    let area_cap = MAX_AREA_FACTOR * mean_area;
    const UNMATCHED: u32 = u32::MAX;
    let mut partner = vec![UNMATCHED; n];
    for i in 0..n {
        if !clusterable[i] || partner[i] != UNMATCHED {
            continue;
        }
        let area_i = nl.cell_area(CellId(i as u32));
        let mut best: Option<(u32, f64)> = None;
        let range = adj_start[i] as usize..adj_start[i + 1] as usize;
        for &(j, w) in &adj[range] {
            let ju = j as usize;
            if ju == i || !clusterable[ju] || partner[ju] != UNMATCHED {
                continue;
            }
            if area_i + nl.cell_area(CellId(j)) > area_cap {
                continue;
            }
            let better = match best {
                None => true,
                // strictly heavier wins; ties break on the smaller id,
                // which ascending adjacency order already guarantees
                Some((_, bw)) => w.total_cmp(&bw) == std::cmp::Ordering::Greater,
            };
            if better {
                best = Some((j, w));
            }
        }
        if let Some((j, _)) = best {
            partner[i] = j;
            partner[j as usize] = i as u32;
        }
    }

    // --- coarse cell assignment --------------------------------------------
    // singletons keep their fine names; clusters get "u{k}" names, skipping
    // any fine singleton already named that way (repeated coarsening feeds
    // level-1 cluster names back in as singletons)
    let mut reserved: Vec<&str> = (0..n)
        .filter(|&i| partner[i] == UNMATCHED)
        .map(|i| nl.cell_name(CellId(i as u32)))
        .collect();
    reserved.sort_unstable();
    // visit fine cells in ascending id; a pair is owned by its smaller member
    let mut coarse_of = vec![UNMATCHED; n];
    let mut builder = NetlistBuilder::with_capacity(n, nl.num_nets(), nl.num_pins());
    let mut coarse_pos: Vec<(f64, f64, bool)> = Vec::new(); // (x-or-cx, y-or-cy, is_center)
    let mut dx = vec![0.0f64; n];
    let mut dy = vec![0.0f64; n];
    let row_h = design.rows.first().map(|r| r.height).unwrap_or(1.0);
    let mut cluster_idx = 0usize;
    for i in 0..n {
        if coarse_of[i] != UNMATCHED {
            continue;
        }
        let cell = CellId(i as u32);
        let movable = nl.is_movable(cell);
        let p = partner[i];
        if movable && p != UNMATCHED && (p as usize) > i {
            // a two-member cluster, folded in (i, partner) order
            let j = CellId(p);
            let (ai, aj) = (nl.cell_area(cell), nl.cell_area(j));
            let area_sum = ai + aj;
            let (ci, cj) = (placement.center(nl, cell), placement.center(nl, j));
            let (cx, cy) = if area_sum > 0.0 {
                (
                    (ai * ci.x + aj * cj.x) / area_sum,
                    (ai * ci.y + aj * cj.y) / area_sum,
                )
            } else {
                (0.5 * (ci.x + cj.x), 0.5 * (ci.y + cj.y))
            };
            let name = loop {
                let cand = format!("u{cluster_idx}");
                cluster_idx += 1;
                if reserved.binary_search(&cand.as_str()).is_err() {
                    break cand;
                }
            };
            let id = builder.add_cell(name, area_sum / row_h, row_h, true)?;
            coarse_of[i] = id.0;
            coarse_of[p as usize] = id.0;
            dx[i] = ci.x - cx;
            dy[i] = ci.y - cy;
            dx[p as usize] = cj.x - cx;
            dy[p as usize] = cj.y - cy;
            coarse_pos.push((cx, cy, true));
        } else {
            // singleton: keep name, size, movability, and exact coordinates
            let id = builder.add_cell(
                nl.cell_name(cell),
                nl.cell_width(cell),
                nl.cell_height(cell),
                movable,
            )?;
            coarse_of[i] = id.0;
            coarse_pos.push((placement.x[i], placement.y[i], false));
        }
    }

    // --- coarse nets --------------------------------------------------------
    let mut stats = CoarsenStats {
        fine_movable: n_movable,
        ..CoarsenStats::default()
    };
    let mut pins: Vec<(CellId, f64, f64)> = Vec::new();
    let mut seen: Vec<u32> = Vec::new();
    for net in nl.nets() {
        pins.clear();
        seen.clear();
        for pin in nl.net_pins(net) {
            let fine_cell = nl.pin_cell(pin);
            let cc = coarse_of[fine_cell.index()];
            if seen.contains(&cc) {
                continue;
            }
            seen.push(cc);
            // pin offset from the *cluster* center: member offset + fine pin
            // offset, so the coarse seed placement reproduces the fine HPWL
            pins.push((
                CellId(cc),
                dx[fine_cell.index()] + nl.pin_offset_x(pin),
                dy[fine_cell.index()] + nl.pin_offset_y(pin),
            ));
        }
        if pins.len() < 2 {
            stats.nets_dropped += 1;
            continue;
        }
        stats.coarse_pins += pins.len();
        let id = builder.add_net(nl.net_name(net), pins.iter().copied());
        builder.set_net_weight(id, nl.net_weight(net));
        stats.nets_kept += 1;
    }

    // --- coarse design + placement ------------------------------------------
    let coarse_nl = builder.build();
    stats.coarse_movable = coarse_nl.num_movable();
    let mut coarse_pl = Placement::zeros(coarse_nl.num_cells());
    for (idx, &(x, y, is_center)) in coarse_pos.iter().enumerate() {
        let id = CellId::from_usize(idx);
        if is_center {
            coarse_pl.set_center(&coarse_nl, id, Point::new(x, y));
        } else {
            coarse_pl.x[idx] = x;
            coarse_pl.y[idx] = y;
        }
    }
    let mut coarse_design = Design::new(
        design.name.clone(),
        coarse_nl,
        design.die,
        design.rows.clone(),
        design.target_density,
    )?;
    // carry fence regions through (constrained cells are always singletons)
    for region in &design.regions {
        coarse_design.add_region(region.name.clone(), region.rect)?;
    }
    for cell in nl.cells() {
        if let Some(r) = design.cell_region.get(cell.index()).copied().flatten() {
            coarse_design.assign_region(CellId(coarse_of[cell.index()]), Some(r));
        }
    }

    Ok(Coarsened {
        design: coarse_design,
        placement: coarse_pl,
        map: ProlongationMap { coarse_of, dx, dy },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::total_hpwl;
    use crate::synth;

    fn smoke() -> (Design, Placement) {
        let c = synth::generate(&synth::smoke_spec());
        (c.design, c.placement)
    }

    #[test]
    fn coarsening_shrinks_movable_count() {
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        assert!(c.stats.coarse_movable < c.stats.fine_movable);
        // heavy-edge matching should pair a solid majority on a local netlist
        assert!(
            (c.stats.coarse_movable as f64) < 0.8 * c.stats.fine_movable as f64,
            "only {} -> {} movable",
            c.stats.fine_movable,
            c.stats.coarse_movable
        );
        assert_eq!(
            c.design.netlist.num_fixed(),
            design.netlist.num_fixed(),
            "fixed cells must stay singletons"
        );
    }

    #[test]
    fn every_fine_cell_maps_to_exactly_one_coarse_cell() {
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        assert_eq!(c.map.num_fine(), design.netlist.num_cells());
        let mut member_count = vec![0usize; c.design.netlist.num_cells()];
        for cell in design.netlist.cells() {
            member_count[c.map.coarse_of(cell).index()] += 1;
        }
        assert!(member_count.iter().all(|&m| (1..=2).contains(&m)));
    }

    #[test]
    fn cluster_area_is_member_fold_bit_exact() {
        // row height is 1.0 in the synthetic suites, so width = Σarea / 1.0
        // and area = width * 1.0 must reproduce the member fold bitwise
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        let n_coarse = c.design.netlist.num_cells();
        let mut fold = vec![0.0f64; n_coarse];
        for cell in design.netlist.cells() {
            fold[c.map.coarse_of(cell).index()] += design.netlist.cell_area(cell);
        }
        for coarse in c.design.netlist.cells() {
            let got = c.design.netlist.cell_area(coarse);
            let want = fold[coarse.index()];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "cluster {} area {} != member fold {}",
                c.design.netlist.cell_name(coarse),
                got,
                want
            );
        }
        // and therefore the totals folded in coarse order agree bitwise
        let total: f64 = c
            .design
            .netlist
            .movable_cells()
            .map(|cc| c.design.netlist.cell_area(cc))
            .sum();
        let want: f64 = c
            .design
            .netlist
            .movable_cells()
            .map(|cc| fold[cc.index()])
            .sum();
        assert_eq!(total.to_bits(), want.to_bits());
    }

    #[test]
    fn coarse_pins_count_net_cluster_incidences() {
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        assert_eq!(c.design.netlist.num_pins(), c.stats.coarse_pins);
        assert_eq!(
            c.design.netlist.num_nets(),
            c.stats.nets_kept,
            "kept nets must all span >= 2 coarse cells"
        );
        assert_eq!(
            c.stats.nets_kept + c.stats.nets_dropped,
            design.netlist.num_nets()
        );
        for net in c.design.netlist.nets() {
            assert!(c.design.netlist.net_degree(net) >= 2);
        }
    }

    #[test]
    fn coarse_seed_hpwl_is_bounded_by_fine_hpwl() {
        // pin offsets absorb the intra-cluster geometry, so at the seed
        // placement each coarse pin sits exactly where a fine pin sat; the
        // coarse bbox is over a subset of the fine pins (one per cluster),
        // hence 0 < coarse HPWL <= fine HPWL of the kept nets
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        let coarse_hpwl = total_hpwl(&c.design.netlist, &c.placement);
        let fine_kept: f64 = design
            .netlist
            .nets()
            .filter(|&n| {
                c.design
                    .netlist
                    .net_by_name(design.netlist.net_name(n))
                    .is_some()
            })
            .map(|n| crate::placement::net_hpwl(&design.netlist, &pl, n))
            .sum();
        assert!(coarse_hpwl > 0.0);
        assert!(
            coarse_hpwl <= fine_kept * (1.0 + 1e-9) + 1e-9,
            "coarse {coarse_hpwl} exceeds fine kept {fine_kept}"
        );
    }

    #[test]
    fn prolong_round_trip_restores_positions() {
        // prolonging the untouched coarse seed must put every movable cell
        // back where it started (up to the last-ulp of centroid arithmetic)
        // and leave fixed cells bit-identical
        let (design, pl) = smoke();
        let c = coarsen(&design, &pl).unwrap();
        let mut out = pl.clone();
        c.map
            .prolong(&design, &c.design, &c.placement, &mut out)
            .unwrap();
        for cell in design.netlist.cells() {
            let i = cell.index();
            if design.netlist.is_movable(cell) {
                assert!(
                    (out.x[i] - pl.x[i]).abs() < 1e-9 && (out.y[i] - pl.y[i]).abs() < 1e-9,
                    "cell {i} moved: ({}, {}) -> ({}, {})",
                    pl.x[i],
                    pl.y[i],
                    out.x[i],
                    out.y[i]
                );
            } else {
                assert_eq!(out.x[i].to_bits(), pl.x[i].to_bits());
                assert_eq!(out.y[i].to_bits(), pl.y[i].to_bits());
            }
        }
    }

    #[test]
    fn coarsening_is_deterministic() {
        let (design, pl) = smoke();
        let a = coarsen(&design, &pl).unwrap();
        let b = coarsen(&design, &pl).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.map.coarse_of, b.map.coarse_of);
        assert_eq!(a.design.netlist.num_cells(), b.design.netlist.num_cells());
    }

    #[test]
    fn region_constrained_cells_stay_singletons() {
        let c = synth::generate(&synth::smoke_regions_spec());
        let co = coarsen(&c.design, &c.placement).unwrap();
        assert!(co.design.has_regions());
        for cell in c.design.netlist.cells() {
            if let Some(region) = c.design.region_of(cell) {
                let cc = co.map.coarse_of(cell);
                let got = co.design.region_of(cc).map(|r| r.name.clone());
                assert_eq!(got.as_deref(), Some(region.name.as_str()));
                // singleton: nobody else maps to this coarse cell
                let members = c
                    .design
                    .netlist
                    .cells()
                    .filter(|&f| co.map.coarse_of(f) == cc)
                    .count();
                assert_eq!(members, 1);
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let (design, pl) = smoke();
        let short = Placement::zeros(3);
        assert!(coarsen(&design, &short).is_err());
        // fully-fixed design
        let mask = vec![false; design.netlist.num_cells()];
        let frozen = design.netlist.with_movability(&mask).unwrap();
        let frozen_design = Design::new(
            "frozen",
            frozen,
            design.die,
            design.rows.clone(),
            design.target_density,
        )
        .unwrap();
        assert!(coarsen(&frozen_design, &pl).is_err());
    }
}
