//! Criterion macrobench: one full objective evaluation (wirelength
//! gradient + density solve) per wirelength model on the smoke circuit —
//! the per-iteration cost underlying the RT columns of Tables II/III.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mep_netlist::synth;
use mep_optim::Problem;
use mep_placer::objective::PlacementProblem;
use mep_wirelength::ModelKind;
use std::hint::black_box;
use std::sync::Arc;

fn bench_iteration(c: &mut Criterion) {
    let circuit = synth::generate(&synth::smoke_spec());
    let mut group = c.benchmark_group("objective_eval");
    for kind in ModelKind::contestants() {
        let mut problem = PlacementProblem::new(
            &circuit.design,
            &circuit.placement,
            kind.instantiate(1.0),
            Arc::default(),
        );
        problem.lambda = 1.0;
        let params = problem.pack_params(&circuit.placement);
        let mut grad = vec![0.0; problem.dim()];
        group.bench_with_input(
            BenchmarkId::new(kind.label(), "smoke"),
            &params,
            |b, params| {
                b.iter(|| {
                    let f = problem.eval(black_box(params), &mut grad);
                    black_box(f)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
