//! Cross-crate integration test: the full pipeline through the public
//! facade, for every wirelength model.

use moreau_placer::netlist::{synth, total_hpwl};
use moreau_placer::placer::pipeline::{run, PipelineConfig};
use moreau_placer::placer::GlobalConfig;
use moreau_placer::wirelength::ModelKind;

fn config(model: ModelKind) -> PipelineConfig {
    PipelineConfig {
        global: GlobalConfig {
            model,
            max_iters: 400,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn every_model_produces_a_legal_improving_placement() {
    let circuit = synth::generate(&synth::smoke_spec());
    let nl = &circuit.design.netlist;
    for model in ModelKind::contestants() {
        let r = run(&circuit, &config(model)).expect("placement flow");
        assert!(r.dpwl <= r.lgwl + 1e-9, "{model}: DP worsened HPWL");
        assert!(r.overflow < 0.15, "{model}: overflow {}", r.overflow);
        // the returned placement's HPWL matches the reported DPWL
        let check = total_hpwl(nl, &r.placement);
        assert!((check - r.dpwl).abs() < 1e-6 * check.max(1.0), "{model}");
    }
}

#[test]
fn moreau_is_competitive_with_every_baseline() {
    // the paper's claim is >1% average improvement; on a single smoke
    // circuit we only require Ours to be within 2% of the best baseline
    // (and it usually wins outright)
    let circuit = synth::generate(&synth::smoke_spec());
    let mut dpwl = std::collections::HashMap::new();
    for model in ModelKind::contestants() {
        dpwl.insert(
            model,
            run(&circuit, &config(model)).expect("placement flow").dpwl,
        );
    }
    let ours = dpwl[&ModelKind::Moreau];
    let best_baseline = dpwl
        .iter()
        .filter(|(m, _)| **m != ModelKind::Moreau)
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    assert!(
        ours <= 1.02 * best_baseline,
        "Ours {ours} vs best baseline {best_baseline}"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let circuit = synth::generate(&synth::smoke_spec());
    let a = run(&circuit, &config(ModelKind::Moreau)).expect("placement flow");
    let b = run(&circuit, &config(ModelKind::Moreau)).expect("placement flow");
    assert_eq!(a.dpwl, b.dpwl);
    assert_eq!(a.lgwl, b.lgwl);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.placement, b.placement);
}
