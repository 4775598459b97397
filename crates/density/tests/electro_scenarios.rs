//! Scenario tests for the electrostatic system: symmetry, blockage
//! shadows, and force balance on constructed layouts.

use mep_density::electro::Electrostatics;
use mep_density::BinGrid;
use mep_netlist::{Design, NetlistBuilder, Placement, Rect};

fn design_with(cells: &[(&str, f64, f64, bool)], die: f64) -> Design {
    let mut b = NetlistBuilder::new();
    for &(name, w, h, movable) in cells {
        b.add_cell(name, w, h, movable).unwrap();
    }
    Design::with_uniform_rows("t", b.build(), Rect::new(0.0, 0.0, die, die), 1.0, 1.0, 1.0).unwrap()
}

#[test]
fn mirror_symmetric_layout_gives_mirror_symmetric_forces() {
    // two equal cells placed symmetrically about the vertical midline
    let design = design_with(&[("a", 2.0, 2.0, true), ("b", 2.0, 2.0, true)], 32.0);
    let mut pl = Placement::zeros(2);
    pl.x[0] = 13.0;
    pl.y[0] = 15.0;
    pl.x[1] = 17.0; // mirror of 13 about x = 16 (cell width 2)
    pl.y[1] = 15.0;
    let mut es = Electrostatics::with_grid(&design, &pl, BinGrid::new(design.die, 32, 32));
    es.update(&design.netlist, &pl);
    let mut gx = vec![0.0; 2];
    let mut gy = vec![0.0; 2];
    es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
    // mirror symmetry: gx antisymmetric, gy equal
    assert!(
        (gx[0] + gx[1]).abs() < 1e-9 * gx[0].abs().max(1e-9),
        "{gx:?}"
    );
    assert!((gy[0] - gy[1]).abs() < 1e-9 + 1e-9 * gy[0].abs(), "{gy:?}");
}

#[test]
fn cell_is_pushed_out_of_a_fixed_block_shadow() {
    // a movable cell overlapping the edge of a big fixed block must be
    // pushed away from the block, not into it
    let design = design_with(&[("m", 2.0, 2.0, true), ("blk", 10.0, 10.0, false)], 32.0);
    let mut pl = Placement::zeros(2);
    pl.x[1] = 4.0; // block occupies [4,14]×[10,20]
    pl.y[1] = 10.0;
    pl.x[0] = 13.0; // movable straddles the block's right edge
    pl.y[0] = 14.0;
    let mut es = Electrostatics::with_grid(&design, &pl, BinGrid::new(design.die, 32, 32));
    es.update(&design.netlist, &pl);
    let mut gx = vec![0.0; 2];
    let mut gy = vec![0.0; 2];
    es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
    // descending −∇D must move the cell right (away from the block mass)
    assert!(gx[0] < 0.0, "gx = {}", gx[0]);
}

#[test]
fn energy_scale_is_quadratic_in_charge() {
    // doubling all cell areas quadruples the electrostatic energy
    // (ρ doubles, ψ doubles, E = ½Σρψ quadruples)
    let small = design_with(&[("a", 2.0, 2.0, true), ("b", 2.0, 2.0, true)], 32.0);
    let big = design_with(&[("a", 2.0, 4.0, true), ("b", 4.0, 2.0, true)], 32.0);
    let mut pl = Placement::zeros(2);
    pl.x[0] = 10.0;
    pl.y[0] = 10.0;
    pl.x[1] = 20.0;
    pl.y[1] = 20.0;
    let grid = BinGrid::new(small.die, 32, 32);
    let mut es_small = Electrostatics::with_grid(&small, &pl, grid.clone());
    let e_small = es_small.update(&small.netlist, &pl).energy;
    let mut es_big = Electrostatics::with_grid(&big, &pl, grid);
    let e_big = es_big.update(&big.netlist, &pl).energy;
    // both "big" cells have area 8 = 2× the small area 4: expect ≈4×
    let ratio = e_big / e_small;
    assert!(
        (2.5..6.0).contains(&ratio),
        "energy ratio {ratio} not ~4 (shapes differ slightly)"
    );
}

#[test]
fn gradient_vanishes_for_a_uniform_sea_of_cells() {
    // a perfectly regular grid of identical cells has (near-)zero net
    // density force on interior cells
    let n = 8usize;
    let mut names = Vec::new();
    for i in 0..n * n {
        names.push(format!("c{i}"));
    }
    let mut b = NetlistBuilder::new();
    for name in &names {
        b.add_cell(name.clone(), 2.0, 2.0, true).unwrap();
    }
    let design = Design::with_uniform_rows(
        "sea",
        b.build(),
        Rect::new(0.0, 0.0, 16.0, 16.0),
        1.0,
        1.0,
        1.0,
    )
    .unwrap();
    let mut pl = Placement::zeros(n * n);
    for iy in 0..n {
        for ix in 0..n {
            pl.x[iy * n + ix] = ix as f64 * 2.0;
            pl.y[iy * n + ix] = iy as f64 * 2.0;
        }
    }
    let mut es = Electrostatics::with_grid(&design, &pl, BinGrid::new(design.die, 16, 16));
    es.update(&design.netlist, &pl);
    let mut gx = vec![0.0; n * n];
    let mut gy = vec![0.0; n * n];
    es.accumulate_gradient(&design.netlist, &pl, &mut gx, &mut gy);
    // interior cells (away from the boundary rows/cols) feel ~no force
    let mut max_interior: f64 = 0.0;
    for iy in 2..n - 2 {
        for ix in 2..n - 2 {
            let i = iy * n + ix;
            max_interior = max_interior.max(gx[i].abs()).max(gy[i].abs());
        }
    }
    // compare against the typical boundary force magnitude
    let boundary = gx[0].abs().max(gy[0].abs()).max(1e-12);
    assert!(
        max_interior < 0.2 * boundary,
        "interior {max_interior} vs boundary {boundary}"
    );
}

/// Three cells spread over a 32 × 32 die, and the same cells elsewhere.
fn two_points() -> (Design, Placement, Placement) {
    let design = design_with(
        &[
            ("a", 2.0, 2.0, true),
            ("b", 0.5, 0.5, true),
            ("blk", 6.0, 6.0, false),
        ],
        32.0,
    );
    let mut at_a = Placement::zeros(3);
    (at_a.x, at_a.y) = (vec![10.0, 12.5, 20.0], vec![15.0, 14.0, 4.0]);
    let mut at_b = at_a.clone();
    (at_b.x[0], at_b.y[0], at_b.x[1]) = (18.3, 22.1, 3.7);
    (design, at_a, at_b)
}

#[test]
fn gradient_reads_the_footprints_of_the_last_update() {
    // update at A, update at B, accumulate: the gradient at B, to the bit,
    // of a system that never saw A
    let (design, at_a, at_b) = two_points();
    let nl = &design.netlist;
    let grid = BinGrid::new(design.die, 32, 32);
    let gradient_after = |points: &[&Placement]| {
        let mut es = Electrostatics::with_grid(&design, points[0], grid.clone());
        for point in points {
            es.update(nl, point);
        }
        let (mut gx, mut gy) = (vec![0.0; 3], vec![0.0; 3]);
        es.accumulate_gradient(nl, points[points.len() - 1], &mut gx, &mut gy);
        (gx, gy)
    };
    let bits = |g: &(Vec<f64>, Vec<f64>)| -> Vec<u64> {
        g.0.iter().chain(&g.1).map(|v| v.to_bits()).collect()
    };
    let via_a = gradient_after(&[&at_a, &at_b]);
    assert_eq!(bits(&via_a), bits(&gradient_after(&[&at_b])));
    assert_ne!(bits(&via_a), bits(&gradient_after(&[&at_a])));
}

// Misuse is caught where it would otherwise read stale footprints or stale
// per-cell smoothing (debug builds; the release build trusts the caller).

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "than the last update")]
fn gradient_at_another_point_than_the_update_is_refused() {
    let (design, at_a, at_b) = two_points();
    let mut es = Electrostatics::with_grid(&design, &at_a, BinGrid::new(design.die, 32, 32));
    es.update(&design.netlist, &at_a);
    let (mut gx, mut gy) = (vec![0.0; 3], vec![0.0; 3]);
    es.accumulate_gradient(&design.netlist, &at_b, &mut gx, &mut gy);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not the netlist the table was built for")]
fn update_with_a_remasked_netlist_copy_is_refused() {
    // an ECO copy (`with_movability`) has a fresh instance id and must get a
    // fresh `Electrostatics`, as `flow::replace_region` gives it
    let (design, at_a, _) = two_points();
    let mut es = Electrostatics::with_grid(&design, &at_a, BinGrid::new(design.die, 32, 32));
    let frozen = design
        .netlist
        .with_movability(&[true, false, false])
        .unwrap();
    es.update(&frozen, &at_a);
}
