//! Cross-crate integration test: consistency of the assembled objective —
//! the theorems of §IV hold through the whole stack (pin offsets, CSR
//! accumulation, both axes), not just on isolated nets.

use moreau_placer::netlist::synth;
use moreau_placer::optim::Problem;
use moreau_placer::placer::global::{place, GlobalConfig};
use moreau_placer::placer::objective::PlacementProblem;
use moreau_placer::wirelength::{ModelKind, NetlistEvaluator, WirelengthGrad};
use std::sync::Arc;

#[test]
fn total_wirelength_gradient_sums_to_zero_for_all_models() {
    // Corollaries 2–3 aggregated over a full netlist with pin offsets. The
    // sum runs over every pin, so every cell is made movable: a fixed
    // cell's entry is zero by contract, not its share of the net force
    let circuit = synth::generate(&synth::smoke_spec());
    let nl = &circuit.design.netlist;
    let nl = &nl.with_movability(&vec![true; nl.num_cells()]).unwrap();
    for model in ModelKind::contestants() {
        let mut eval = NetlistEvaluator::serial(model.instantiate(1.7));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &circuit.placement, &mut out);
        let sx: f64 = out.grad_x.iter().sum();
        let sy: f64 = out.grad_y.iter().sum();
        assert!(sx.abs() < 1e-6 && sy.abs() < 1e-6, "{model}: ({sx}, {sy})");
    }
}

#[test]
fn newblue6_nets_per_evaluation_by_kernel_route() {
    // noise-free work-count guard: every net of 2..=16 pins takes the class
    // kernel, only the 33 wider ones the sort + scan path, and none is
    // skipped — a change that drops nets back onto the per-net path fails
    // here without a clock
    let spec = synth::spec_by_name("newblue6").expect("catalogue circuit");
    let circuit = synth::generate(&spec);
    let nl = &circuit.design.netlist;
    let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.0));
    let mut out = WirelengthGrad::zeros(nl.num_cells());
    for evaluations in 1..=2 {
        eval.evaluate(nl, &circuit.placement, &mut out);
        let stats = eval.stats();
        assert_eq!(stats.class_nets, evaluations * 12851);
        assert_eq!(stats.generic_nets, evaluations * 33);
        assert_eq!(stats.inactive_nets, 0);
    }
}

#[test]
fn smoke_gp_runs_one_wirelength_evaluation_per_iteration() {
    // noise-free work-count guard: every Nesterov step opens on the held
    // terms of the trial its predecessor accepted, so both stages run once
    // per trial plus once for the λ₀ bootstrap's ∇W. The start point's
    // second look, at the run's own smoothing, reuses that term unless the
    // bootstrap's width cap held it below (smoke: inside the cap at the
    // default `t0`, past it at `t0` = 400). A change that evaluates the
    // opening point again adds one per iteration
    let circuit = synth::generate(&synth::smoke_spec());
    for (t0, capped) in [(4.0, 0), (400.0, 1)] {
        let config = GlobalConfig {
            t0,
            ..GlobalConfig::default()
        };
        let r = place(&circuit, &config).expect("global placement");
        let s = r.engine_stats;
        let (iterations, trials) = (r.iterations as u64, r.trials as u64);
        assert_eq!(
            u64::from(r.ramp.bootstrap_smoothing < r.ramp.smoothing0),
            capped
        );
        assert_eq!(
            (s.wl_grad.count, s.density.count),
            (trials + 1 + capped, trials + 1 + capped),
            "{iterations} iterations"
        );
        assert_eq!(s.reused, iterations + 1 - capped);
    }
}

#[test]
fn moreau_model_upper_bounds_exact_hpwl_by_envelope_gap() {
    // Theorem 2 through the netlist evaluator: for every net,
    // W ≥ W^t ≥ W − t, so totals satisfy
    // total_W ≥ total_envelope ≥ total_W − #active_nets·t.
    // (The evaluator reports envelope + t per net, so subtract.)
    let circuit = synth::generate(&synth::smoke_spec());
    let nl = &circuit.design.netlist;
    let t = 0.8;
    let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(t));
    let mut out = WirelengthGrad::zeros(nl.num_cells());
    eval.evaluate(nl, &circuit.placement, &mut out);
    let model_total = out.value;
    // the evaluator covers the multi-pin nets with a movable pin; each
    // contributes two axes, each offset by +t
    let active: Vec<_> = nl
        .nets()
        .filter(|&n| nl.net_degree(n) >= 2)
        .filter(|&n| nl.net_pins(n).any(|p| nl.is_movable(nl.pin_cell(p))))
        .collect();
    let exact: f64 = active
        .iter()
        .map(|&n| moreau_placer::netlist::net_hpwl(nl, &circuit.placement, n))
        .sum();
    let offset = 2.0 * t * active.len() as f64;
    let envelope_total = model_total - offset;
    assert!(
        envelope_total <= exact + 1e-6,
        "{envelope_total} vs {exact}"
    );
    assert!(
        envelope_total >= exact - offset - 1e-6,
        "{envelope_total} vs lower bound {}",
        exact - offset
    );
}

#[test]
fn smoothing_updates_propagate_through_problem() {
    let circuit = synth::generate(&synth::smoke_spec());
    let mut p = PlacementProblem::new(
        &circuit.design,
        &circuit.placement,
        ModelKind::Moreau.instantiate(5.0),
        Arc::default(),
    );
    let params = p.pack_params(&circuit.placement);
    let mut g = vec![0.0; p.dim()];
    let f_smooth = p.eval(&params, &mut g);
    p.set_smoothing(0.01);
    assert_eq!(p.smoothing(), 0.01);
    let f_sharp = p.eval(&params, &mut g);
    // at tiny t the model is ~exact HPWL; at t=5 it carries the +t offset
    // per net-axis, so the smooth value is larger
    assert!(f_smooth > f_sharp, "{f_smooth} vs {f_sharp}");
}
