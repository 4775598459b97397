//! Cross-crate integration test: Bookshelf net weights influence the
//! placement — a heavily weighted net pulls its cells together harder
//! than an identical unit-weight net.

use moreau_placer::netlist::bookshelf::BookshelfCircuit;
use moreau_placer::netlist::{Design, NetlistBuilder, Placement, Rect};
use moreau_placer::placer::global::{place, GlobalConfig};
use moreau_placer::wirelength::ModelKind;

/// Two disjoint 2-pin nets between two anchor pairs; one net weighted 8×.
/// After placement the weighted pair must sit closer together.
#[test]
fn heavier_net_ends_shorter() {
    let mut b = NetlistBuilder::new();
    // anchors on the left and right edges
    let l0 = b.add_cell("l0", 0.0, 0.0, false).unwrap();
    let r0 = b.add_cell("r0", 0.0, 0.0, false).unwrap();
    let l1 = b.add_cell("l1", 0.0, 0.0, false).unwrap();
    let r1 = b.add_cell("r1", 0.0, 0.0, false).unwrap();
    // two movable cells, each tied to one left and one right anchor
    let a = b.add_cell("a", 1.0, 1.0, true).unwrap();
    let c = b.add_cell("c", 1.0, 1.0, true).unwrap();
    // identical topology: anchor — cell — anchor
    let na1 = b.add_net("na1", vec![(l0, 0.0, 0.0), (a, 0.0, 0.0)]);
    let na2 = b.add_net("na2", vec![(a, 0.0, 0.0), (r0, 0.0, 0.0)]);
    let _nc1 = b.add_net("nc1", vec![(l1, 0.0, 0.0), (c, 0.0, 0.0)]);
    let _nc2 = b.add_net("nc2", vec![(c, 0.0, 0.0), (r1, 0.0, 0.0)]);
    // weight cell a's LEFT net heavily: a should be pulled left of c
    b.set_net_weight(na1, 8.0);
    let _ = na2;
    let nl = b.build();
    let design = Design::with_uniform_rows(
        "weighted",
        nl,
        Rect::new(0.0, 0.0, 40.0, 8.0),
        1.0,
        1.0,
        1.0,
    )
    .unwrap();
    let mut pl = Placement::zeros(design.netlist.num_cells());
    // anchors: left at x=0 (rows 2 and 5), right at x=40
    pl.x[l0.index()] = 0.0;
    pl.y[l0.index()] = 2.0;
    pl.x[r0.index()] = 40.0;
    pl.y[r0.index()] = 2.0;
    pl.x[l1.index()] = 0.0;
    pl.y[l1.index()] = 5.0;
    pl.x[r1.index()] = 40.0;
    pl.y[r1.index()] = 5.0;
    pl.x[a.index()] = 20.0;
    pl.y[a.index()] = 2.0;
    pl.x[c.index()] = 20.0;
    pl.y[c.index()] = 5.0;
    let circuit = BookshelfCircuit {
        design,
        placement: pl,
    };
    let cfg = GlobalConfig {
        model: ModelKind::Moreau,
        max_iters: 200,
        min_iters: 50,
        ..GlobalConfig::default()
    };
    let r = place(&circuit, &cfg).expect("placement flow");
    let xa = r.placement.x[a.index()];
    let xc = r.placement.x[c.index()];
    // cell c balances its two unit nets near the middle; cell a is yanked
    // toward its weighted left net
    assert!(xa + 2.0 < xc, "weighted pull failed: a at {xa}, c at {xc}");
}
