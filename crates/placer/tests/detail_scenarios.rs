//! Scenario tests for the detailed placer: a rotation instance, a swap
//! between cells of nearly equal width, and convergence control.

use mep_netlist::{CellId, Design, NetlistBuilder, Placement, Rect};
use mep_placer::detail::{refine, DetailConfig};
use mep_placer::legalize::check_legal;

/// Builds `k` unit cells, one per row, each wired to an anchor sitting at
/// the *next* cell's slot (a k-cycle rotation). Local reordering never
/// fires (one cell per row), so only global swap can move a cell; each
/// cell's nearest peer to its optimum is the cell whose slot it wants.
fn rotation_instance(k: usize) -> (Design, Placement) {
    let mut b = NetlistBuilder::new();
    let cells: Vec<CellId> = (0..k)
        .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap())
        .collect();
    let anchors: Vec<CellId> = (0..k)
        .map(|i| b.add_cell(format!("t{i}"), 0.0, 0.0, false).unwrap())
        .collect();
    for i in 0..k {
        b.add_net(
            format!("n{i}"),
            vec![(cells[i], 0.0, 0.0), (anchors[i], 0.0, 0.0)],
        );
    }
    let nl = b.build();
    let width = (3 * k) as f64;
    let design = Design::with_uniform_rows(
        "rot",
        nl,
        Rect::new(0.0, 0.0, width, (k + 1) as f64),
        1.0,
        1.0,
        1.0,
    )
    .unwrap();
    let mut pl = Placement::zeros(design.netlist.num_cells());
    let slot = |i: usize| ((2 * i) as f64, i as f64);
    for i in 0..k {
        let (x, y) = slot(i);
        pl.x[cells[i].index()] = x;
        pl.y[cells[i].index()] = y;
        // anchor i sits exactly at the NEXT slot: optimal assignment is the
        // cyclic rotation of all k cells
        let (ax, ay) = slot((i + 1) % k);
        pl.x[anchors[i].index()] = ax + 0.5; // align with the slot's center
        pl.y[anchors[i].index()] = ay + 0.5;
    }
    (design, pl)
}

#[test]
fn small_rotation_is_fixed() {
    // k = 3: with the short wrap-around, pairwise swaps gain, and swaps
    // alone realize the rotation
    let (design, mut pl) = rotation_instance(3);
    let before = mep_netlist::total_hpwl(&design.netlist, &pl);
    let config = DetailConfig {
        passes: 2,
        converge_rel: 0.0,
    };
    let report = refine(&design, &mut pl, &config);
    assert!(report.swaps > 0, "{report:?}");
    let after = mep_netlist::total_hpwl(&design.netlist, &pl);
    assert!(after < 0.2 * before, "{before} → {after}");
    assert!(check_legal(&design, &pl).is_empty());
}

#[test]
fn converge_rel_one_stops_after_a_single_pass() {
    let (design, mut pl) = rotation_instance(6);
    let config = DetailConfig {
        passes: 10,
        converge_rel: 2.0, // relative gain is ≤ 1, so every pass "converges"
    };
    let report = refine(&design, &mut pl, &config);
    assert_eq!(report.passes, 1);
}

#[test]
fn refine_on_a_single_cell_design_is_a_noop() {
    let mut b = NetlistBuilder::new();
    b.add_cell("only", 1.0, 1.0, true).unwrap();
    let design = Design::with_uniform_rows(
        "solo",
        b.build(),
        Rect::new(0.0, 0.0, 8.0, 2.0),
        1.0,
        1.0,
        1.0,
    )
    .unwrap();
    let mut pl = Placement::zeros(1);
    let report = refine(&design, &mut pl, &DetailConfig::default());
    assert_eq!(report.hpwl_before, 0.0);
    assert_eq!(report.hpwl_after, 0.0);
    assert_eq!(report.reorders + report.swaps, 0);
}

#[test]
fn swap_never_trades_cells_of_unequal_width() {
    // `packed` sits at x = 0 against `neighbour` at x = 1; `wide` (1.02:
    // the same width to 1/16 of a unit) sits alone on the next row and is
    // wired to the center of `packed`'s slot. In that slot `wide` would
    // overlap `neighbour` by 0.02, so no swap may put it there.
    let mut b = NetlistBuilder::new();
    let packed = b.add_cell("packed", 1.0, 1.0, true).unwrap();
    let neighbour = b.add_cell("neighbour", 1.0, 1.0, true).unwrap();
    let wide = b.add_cell("wide", 1.02, 1.0, true).unwrap();
    let anchor = b.add_cell("anchor", 0.0, 0.0, false).unwrap();
    b.add_net("pull", vec![(wide, 0.0, 0.0), (anchor, 0.0, 0.0)]);
    let design = Design::with_uniform_rows(
        "widths",
        b.build(),
        Rect::new(0.0, 0.0, 16.0, 4.0),
        1.0,
        1.0,
        1.0,
    )
    .unwrap();
    let mut pl = Placement::zeros(design.netlist.num_cells());
    for (cell, x, y) in [
        (packed, 0.0, 0.0),
        (neighbour, 1.0, 0.0),
        (wide, 8.0, 1.0),
        (anchor, 0.5, 0.5),
    ] {
        pl.x[cell.index()] = x;
        pl.y[cell.index()] = y;
    }
    assert!(check_legal(&design, &pl).is_empty());
    let report = refine(&design, &mut pl, &DetailConfig::default());
    assert_eq!(check_legal(&design, &pl), Vec::new(), "{report:?}");
    assert_eq!(report.swaps, 0, "{report:?}");
}
