//! Criterion macrobench: the non-GP pipeline stages — legalization and
//! detailed placement — on the smoke circuit (the cost behind the LG/DP
//! portions of the RT columns), and detailed placement alone on a legalized
//! newblue6 (three passes of the three move classes at 12.5k cells).

use criterion::{criterion_group, criterion_main, Criterion};
use mep_netlist::synth;
use mep_placer::detail::{refine, DetailConfig};
use mep_placer::global::{place, GlobalConfig};
use mep_placer::legalize::legalize;
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

fn bench_detail_newblue6(c: &mut Criterion) {
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
    group.bench_function("detail_place_newblue6", |b| {
        b.iter(|| {
            let mut pl = legal.clone();
            let report = refine(&circuit.design, &mut pl, &DetailConfig::default());
            black_box(report.hpwl_after)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_detail_newblue6);
criterion_main!(benches);
