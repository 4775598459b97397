//! Criterion macrobench: the non-GP pipeline stages — legalization and
//! detailed placement — on the smoke circuit (the cost behind the LG/DP
//! portions of the RT columns), and both again on newblue6 from one GP
//! placement: Abacus over 12.5k cells, then detailed placement alone on the
//! legalized result (three passes of the three move classes). The last row
//! re-places one ECO window of the legalized newblue6, one 4×4 tile with
//! everything else frozen: the whole pipeline over a window, with the
//! design-wide work each window pays.

use criterion::{criterion_group, criterion_main, Criterion};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{synth, Rect};
use mep_placer::detail::{refine, DetailConfig};
use mep_placer::flow::{replace_region, EcoConfig};
use mep_placer::global::{place, GlobalConfig};
use mep_placer::legalize::legalize;
use mep_placer::pipeline::PipelineConfig;
use mep_wirelength::ModelKind;
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let circuit = synth::generate(&synth::smoke_spec());
    let gp = place(
        &circuit,
        &GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 400,
            ..GlobalConfig::default()
        },
    )
    .expect("placement flow");

    let mut group = c.benchmark_group("flow_stages");
    group.bench_function("legalize_smoke", |b| {
        b.iter(|| {
            let (legal, _) = legalize(&circuit.design, black_box(&gp.placement)).expect("legalize");
            black_box(legal.x[0])
        })
    });
    let (legal, _) = legalize(&circuit.design, &gp.placement).expect("legalize");
    group.bench_function("detail_place_smoke", |b| {
        b.iter(|| {
            let mut pl = legal.clone();
            let report = refine(&circuit.design, &mut pl, &DetailConfig::default());
            black_box(report.hpwl_after)
        })
    });
    group.finish();
}

fn bench_newblue6(c: &mut Criterion) {
    let spec = synth::spec_by_name("newblue6").expect("newblue6 is in the catalogue");
    let circuit = synth::generate(&spec);
    let gp = place(
        &circuit,
        &GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 1000,
            ..GlobalConfig::default()
        },
    )
    .expect("placement flow");
    let (legal, _) = legalize(&circuit.design, &gp.placement).expect("legalize");

    let mut group = c.benchmark_group("flow_stages");
    group.bench_function("legalize_newblue6", |b| {
        b.iter(|| {
            let (legal, _) = legalize(&circuit.design, black_box(&gp.placement)).expect("legalize");
            black_box(legal.x[0])
        })
    });
    group.bench_function("detail_place_newblue6", |b| {
        b.iter(|| {
            let mut pl = legal.clone();
            let report = refine(&circuit.design, &mut pl, &DetailConfig::default());
            black_box(report.hpwl_after)
        })
    });
    // the second tile of the second tile row, at the window iteration cap of
    // the end-to-end ECO workload
    let die = circuit.design.die;
    let (w, h) = (die.width() / 4.0, die.height() / 4.0);
    let window = Rect::new(die.xl + w, die.yl + h, die.xl + 2.0 * w, die.yl + 2.0 * h);
    let placed = BookshelfCircuit {
        design: circuit.design.clone(),
        placement: legal,
    };
    let eco = EcoConfig {
        pipeline: PipelineConfig {
            global: GlobalConfig {
                model: ModelKind::Moreau,
                max_iters: 30,
                ..GlobalConfig::default()
            },
            ..PipelineConfig::default()
        },
    };
    group.bench_function("eco_window_newblue6", |b| {
        b.iter(|| {
            let result = replace_region(&placed, black_box(window), &eco).expect("ECO window");
            black_box(result.hpwl_after)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_newblue6);
criterion_main!(benches);
