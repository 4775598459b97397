//! Property-based tests for fence-region handling: random fences and
//! random assignments never produce an illegal or fence-violating result.

use mep_netlist::{CellId, Design, NetlistBuilder, Placement, Rect};
use mep_placer::detail::{refine, DetailConfig};
use mep_placer::legalize::{check_legal, legalize};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FencedScenario {
    n_cells: usize,
    positions: Vec<(f64, f64)>,
    fenced: Vec<bool>,
    nets: Vec<(usize, usize)>,
}

fn scenarios() -> impl Strategy<Value = FencedScenario> {
    (6usize..24).prop_flat_map(|n| {
        let positions = prop::collection::vec((0.0f64..30.0, 0.0f64..14.0), n);
        let fenced = prop::collection::vec(prop::bool::weighted(0.3), n);
        let nets = prop::collection::vec((0..n, 0..n), 1..8);
        (positions, fenced, nets).prop_map(move |(positions, fenced, nets)| FencedScenario {
            n_cells: n,
            positions,
            fenced,
            nets: nets.into_iter().filter(|(a, b)| a != b).collect(),
        })
    })
}

fn build(s: &FencedScenario) -> (Design, Placement) {
    let mut b = NetlistBuilder::new();
    for i in 0..s.n_cells {
        b.add_cell(format!("c{i}"), 1.0, 1.0, true).expect("unique");
    }
    for (k, &(a, c)) in s.nets.iter().enumerate() {
        b.add_net(
            format!("n{k}"),
            vec![
                (CellId::from_usize(a), 0.0, 0.0),
                (CellId::from_usize(c), 0.0, 0.0),
            ],
        );
    }
    let nl = b.build();
    let mut design =
        Design::with_uniform_rows("fenced", nl, Rect::new(0.0, 0.0, 32.0, 16.0), 1.0, 1.0, 1.0)
            .expect("valid design");
    // one 8×6 fence, row-aligned, with ≤ 30% of ≤24 unit cells: fits easily
    let fence = design
        .add_region("f", Rect::new(20.0, 8.0, 28.0, 14.0))
        .expect("fence inside die");
    for (i, &f) in s.fenced.iter().enumerate() {
        if f {
            design.assign_region(CellId::from_usize(i), Some(fence));
        }
    }
    let mut pl = Placement::zeros(s.n_cells);
    for (i, &(x, y)) in s.positions.iter().enumerate() {
        pl.x[i] = x;
        pl.y[i] = y;
    }
    (design, pl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legalization of arbitrary (fence-violating) input always produces a
    /// fully legal, fence-respecting placement.
    #[test]
    fn legalize_respects_fences(s in scenarios()) {
        let (design, gp) = build(&s);
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        let violations = check_legal(&design, &legal);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Detailed placement on a fenced design keeps it legal and
    /// fence-respecting while never increasing HPWL.
    #[test]
    fn refine_respects_fences(s in scenarios()) {
        let (design, gp) = build(&s);
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        let before = mep_netlist::total_hpwl(&design.netlist, &legal);
        let mut refined = legal;
        refine(&design, &mut refined, &DetailConfig::default());
        let after = mep_netlist::total_hpwl(&design.netlist, &refined);
        prop_assert!(after <= before + 1e-9);
        let violations = check_legal(&design, &refined);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}
