//! The evaluator's determinism contract, enforced bitwise: evaluating the
//! same placement twice must produce bit-identical value and gradients,
//! single-pin and zero-weight nets exert no force, and freezing cells must
//! not change a bit of the gradient of those that still move.

use mep_netlist::{synth, Netlist, NetlistBuilder, Placement};
use mep_wirelength::{ModelKind, NetlistEvaluator, WirelengthGrad};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn evaluator(kind: ModelKind, smoothing: f64) -> NetlistEvaluator {
    NetlistEvaluator::serial(kind.instantiate(smoothing))
}

fn eval_bits(
    eval: &mut NetlistEvaluator,
    nl: &Netlist,
    pl: &Placement,
) -> (u64, Vec<u64>, Vec<u64>) {
    let mut out = WirelengthGrad::zeros(nl.num_cells());
    eval.evaluate(nl, pl, &mut out);
    (
        out.value.to_bits(),
        out.grad_x.iter().map(|g| g.to_bits()).collect(),
        out.grad_y.iter().map(|g| g.to_bits()).collect(),
    )
}

/// A netlist exercising the skip paths: single-pin nets (no wirelength),
/// zero-weight nets (pins exist, contribution removed), and ordinary nets.
fn degenerate_netlist() -> (Netlist, Placement) {
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..12)
        .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, true).unwrap())
        .collect();
    // single-pin nets
    b.add_net("solo0", vec![(cells[0], 0.0, 0.0)]);
    b.add_net("solo1", vec![(cells[5], 0.1, -0.1)]);
    // zero-weight net
    let zw = b.add_net("dead", vec![(cells[1], 0.0, 0.0), (cells[2], 0.0, 0.0)]);
    b.set_net_weight(zw, 0.0);
    // ordinary nets interleaved
    b.add_net(
        "n0",
        vec![
            (cells[2], 0.0, 0.0),
            (cells[3], 0.0, 0.0),
            (cells[4], 0.0, 0.0),
        ],
    );
    b.add_net("empty", Vec::new());
    b.add_net(
        "n1",
        vec![
            (cells[6], 0.2, 0.0),
            (cells[7], 0.0, 0.2),
            (cells[8], -0.2, 0.0),
            (cells[9], 0.0, -0.2),
        ],
    );
    b.add_net("n2", vec![(cells[10], 0.0, 0.0), (cells[11], 0.0, 0.0)]);
    let nl = b.build();
    let mut pl = Placement::zeros(12);
    for i in 0..12 {
        pl.x[i] = (i as f64 * 2.7).sin() * 10.0;
        pl.y[i] = (i as f64 * 1.3).cos() * 10.0;
    }
    (nl, pl)
}

#[test]
fn same_placement_twice_is_bit_identical() {
    let c = synth::generate(&synth::smoke_spec());
    let nl = &c.design.netlist;
    for kind in ModelKind::contestants() {
        let mut eval = evaluator(kind, 1.5);
        let a = eval_bits(&mut eval, nl, &c.placement);
        let b = eval_bits(&mut eval, nl, &c.placement);
        assert_eq!(a, b, "{kind}: re-evaluation must be bit-identical");
    }
}

#[test]
fn degenerate_nets_are_deterministic_and_inert() {
    let (nl, pl) = degenerate_netlist();
    for kind in ModelKind::contestants() {
        let mut eval = evaluator(kind, 1.0);
        let first = eval_bits(&mut eval, &nl, &pl);
        assert_eq!(first, eval_bits(&mut eval, &nl, &pl), "{kind}");
        // single-pin net cells and zero-weight net cells feel no force
        let (_, gx, gy) = &first;
        for cell in [0usize, 1, 5] {
            assert_eq!(f64::from_bits(gx[cell]), 0.0, "{kind}: gx[{cell}]");
            assert_eq!(f64::from_bits(gy[cell]), 0.0, "{kind}: gy[{cell}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The movability mask decides which nets are evaluated and which
    /// cells are scattered to, never what a movable cell receives: under
    /// any mask every movable cell's gradient is, bit for bit, the one the
    /// all-movable netlist gives it at the same placement, and every fixed
    /// cell's is exactly `0.0` — also in a `WirelengthGrad` that the same
    /// evaluator has just filled for another netlist.
    #[test]
    fn any_mask_keeps_movable_gradient_bits_and_zeroes_fixed_cells(
        seed in 0u64..u64::MAX,
        share in 0.0f64..1.0,
    ) {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut placement = c.placement.clone();
        for (i, x) in placement.x.iter_mut().enumerate() {
            *x += (i % 97) as f64 * 0.37;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mask: Vec<bool> = nl.cells().map(|_| rng.gen::<f64>() < share).collect();
        let everything = nl.with_movability(&vec![true; nl.num_cells()]).unwrap();
        let masked = nl.with_movability(&mask).unwrap();
        for kind in [ModelKind::Moreau, ModelKind::Wa] {
            let mut eval = evaluator(kind, 1.5);
            let mut out = WirelengthGrad::zeros(nl.num_cells());
            eval.evaluate(&everything, &placement, &mut out);
            let full = out.clone();
            prop_assert!(full.grad_x.iter().filter(|g| **g != 0.0).count() > nl.num_cells() / 2);
            eval.evaluate(&masked, &placement, &mut out);
            for (i, &movable) in mask.iter().enumerate() {
                let (want_x, want_y) = if movable {
                    (full.grad_x[i], full.grad_y[i])
                } else {
                    (0.0, 0.0)
                };
                prop_assert_eq!(out.grad_x[i].to_bits(), want_x.to_bits(), "{} gx[{}]", kind, i);
                prop_assert_eq!(out.grad_y[i].to_bits(), want_y.to_bits(), "{} gy[{}]", kind, i);
            }
        }
    }
}
