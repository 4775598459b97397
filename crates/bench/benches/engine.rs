//! Whole-netlist wirelength-gradient macrobench on an ISPD-scale synthetic
//! circuit, with and without the disabled trace sink of the global loop.
//!
//! Beyond timing, the bench hard-asserts two contracts: after warm-up the
//! evaluator performs **zero** gradient-workspace allocations (read off
//! the engine's own counter), and the no-op sink costs under 1% per
//! evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use mep_netlist::synth::{self, SynthSpec};
use mep_obs::{IterationRecord, NoopSink, TraceSink};
use mep_wirelength::{ModelKind, NetlistEvaluator, WirelengthGrad};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// ISPD-scale synthetic: ≥50k nets, ~200k pins (newblue-class density).
fn ispd_scale_spec() -> SynthSpec {
    SynthSpec {
        name: "engine_bench".to_string(),
        movable: 55_000,
        fixed: 64,
        nets: 56_000,
        pins: 200_000,
        movable_macros: 0,
        ..synth::smoke_spec()
    }
}

fn bench_engine(c: &mut Criterion) {
    let circuit = synth::generate(&ispd_scale_spec());
    let nl = &circuit.design.netlist;
    assert!(
        nl.num_nets() >= 50_000,
        "bench circuit must be ISPD-scale, got {} nets",
        nl.num_nets()
    );
    let model = ModelKind::Moreau.instantiate(1.0);
    let mut grad = WirelengthGrad::zeros(nl.num_cells());

    let mut group = c.benchmark_group("evaluation_engine");

    let mut eval = NetlistEvaluator::serial(model);
    eval.evaluate(nl, &circuit.placement, &mut grad); // warm-up: the workspace is built here
    eval.engine().reset_stats();
    group.bench_function("evaluate", |b| {
        b.iter(|| {
            eval.evaluate(nl, black_box(&circuit.placement), &mut grad);
            black_box(grad.grad_x[0])
        })
    });
    assert_eq!(
        eval.engine().stats().workspace_allocs,
        0,
        "the evaluator must not reallocate gradient workspaces after warm-up"
    );

    // Telemetry overhead contract (DESIGN.md §10): the global loop guards
    // every record behind `sink.enabled()`, and the default [`NoopSink`]
    // answers `false` from a constant — so the traced-but-disabled path is
    // one perfectly predicted virtual call per iteration, with no record
    // construction and no allocation. Benched side by side with the bare
    // evaluation; the two bars must be indistinguishable.
    let sink: Arc<dyn TraceSink> = Arc::new(NoopSink);
    assert!(!sink.enabled(), "NoopSink must report disabled");
    group.bench_function("evaluate_noop_trace", |b| {
        b.iter(|| {
            eval.evaluate(nl, black_box(&circuit.placement), &mut grad);
            if sink.enabled() {
                // never taken: mirrors the hot loop in `global.rs`, which
                // skips building the record (and the exact-HPWL pass that
                // feeds it) when tracing is off
                sink.record(&IterationRecord {
                    iter: 0,
                    level: 0,
                    stage: None,
                    objective: 0.0,
                    hpwl: 0.0,
                    overflow: 0.0,
                    lambda: 0.0,
                    smoothing: 0.0,
                    step: 0.0,
                    grad_norm: 0.0,
                    guard: None,
                    elapsed_secs: 0.0,
                });
            }
            black_box(grad.grad_x[0])
        })
    });

    group.finish();

    // Hard assert on the no-op-sink budget: compare best-of-k evaluation
    // times with and without the disabled-sink check. Minima are robust to
    // scheduler noise; the guarded path must stay within 1%.
    let mut best_of = |with_sink: bool| -> f64 {
        (0..15)
            .map(|_| {
                let t = Instant::now();
                eval.evaluate(nl, &circuit.placement, &mut grad);
                if with_sink && sink.enabled() {
                    unreachable!("NoopSink is disabled");
                }
                black_box(grad.grad_x[0]);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let bare = best_of(false);
    let traced = best_of(true);
    println!(
        "noop-sink overhead: {:+.3}% (bare {:.6}s vs traced {:.6}s per eval)",
        100.0 * (traced / bare - 1.0),
        bare,
        traced
    );
    assert!(
        traced <= bare * 1.01,
        "disabled trace sink must cost < 1% per evaluation (bare {bare:.6}s, traced {traced:.6}s)"
    );
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
