//! Cross-crate integration test: fence-region constraints (ISPD2019-style)
//! are honored by the whole pipeline — global placement projection,
//! legalization segment tagging, and detailed-placement move filters.

use moreau_placer::netlist::synth;
use moreau_placer::placer::legalize::Violation;
use moreau_placer::placer::pipeline::{run, PipelineConfig};
use moreau_placer::placer::{check_legal, GlobalConfig};
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
fn region_spec_generates_constrained_circuit() {
    let c = synth::generate(&synth::smoke_regions_spec());
    assert_eq!(c.design.regions.len(), 2);
    assert!(c.design.has_regions());
    let constrained = c.design.cell_region.iter().filter(|r| r.is_some()).count();
    assert!(constrained > 10, "only {constrained} constrained cells");
    // initial placement already honors the fences
    let nl = &c.design.netlist;
    for cell in nl.movable_cells() {
        if let Some(region) = c.design.region_of(cell) {
            let p = c.placement.center(nl, cell);
            assert!(region.rect.contains(p), "initial {cell} outside fence");
        }
    }
}

#[test]
fn full_pipeline_keeps_cells_in_their_fences() {
    let c = synth::generate(&synth::smoke_regions_spec());
    for model in [ModelKind::Moreau, ModelKind::Wa] {
        let r = run(&c, &config(model)).expect("placement flow");
        let violations = check_legal(&c.design, &r.placement);
        let region_violations: Vec<_> = violations
            .iter()
            .filter(|v| matches!(v, Violation::OutsideRegion(_)))
            .collect();
        assert!(
            region_violations.is_empty(),
            "{model}: {} region violations, e.g. {:?}",
            region_violations.len(),
            region_violations.first()
        );
        assert!(
            violations.is_empty(),
            "{model}: {} total violations",
            violations.len()
        );
        assert!(r.dpwl <= r.lgwl + 1e-9);
    }
}

#[test]
fn unconstrained_cells_stay_out_of_fences_after_legalization() {
    // fences are exclusive (DEF FENCE): the legalizer must not put free
    // cells inside them
    let c = synth::generate(&synth::smoke_regions_spec());
    let r = run(&c, &config(ModelKind::Moreau)).expect("placement flow");
    let nl = &c.design.netlist;
    let row_h = c.design.rows[0].height;
    for cell in nl.movable_cells() {
        if c.design.region_of(cell).is_some() {
            continue;
        }
        if nl.cell_height(cell) > row_h + 1e-9 {
            continue; // macros are handled by the coarse stage
        }
        let rect = r.placement.cell_rect(nl, cell);
        for region in &c.design.regions {
            assert!(
                !region.rect.intersects(&rect),
                "free cell {cell} inside fence {}: {rect}",
                region.name
            );
        }
    }
}

#[test]
fn region_constraint_costs_some_wirelength() {
    // pinning cells into fences is a constraint; the constrained DPWL
    // should not beat the unconstrained one materially
    let free = synth::generate(&synth::smoke_spec());
    let fenced = synth::generate(&synth::smoke_regions_spec());
    let dpwl_free = run(&free, &config(ModelKind::Moreau))
        .expect("placement flow")
        .dpwl;
    let dpwl_fenced = run(&fenced, &config(ModelKind::Moreau))
        .expect("placement flow")
        .dpwl;
    assert!(
        dpwl_fenced > 0.9 * dpwl_free,
        "fenced {dpwl_fenced} vs free {dpwl_free}"
    );
}
