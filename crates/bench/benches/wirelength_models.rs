//! Criterion microbench: per-net value+gradient throughput of every
//! wirelength model across net degrees — quantifies the paper's §III-B
//! cost discussion (water-filling is `O(n)` after an `O(n log n)` sort;
//! exponential models are `O(n)` but with `exp` calls) — and one whole-
//! netlist gradient evaluation on the `newblue6` stand-in, the layer the
//! end-to-end benchmark reports as `wirelength.engine.wl_grad_s`. These
//! numbers explain the end-to-end figure; they are never the claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mep_netlist::synth;
use mep_wirelength::model::ModelKind;
use mep_wirelength::{NetlistEvaluator, WirelengthGrad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_models(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(99);
    let mut group = c.benchmark_group("net_eval_grad");
    for &degree in &[4usize, 16, 64, 256] {
        let coords: Vec<f64> = (0..degree).map(|_| rng.gen_range(0.0..1000.0)).collect();
        let mut grad = vec![0.0; degree];
        for kind in ModelKind::contestants() {
            let mut model = kind.instantiate(2.0);
            group.bench_with_input(
                BenchmarkId::new(kind.label(), degree),
                &coords,
                |b, coords| {
                    b.iter(|| {
                        let v = model.eval_axis(black_box(coords), &mut grad);
                        black_box(v);
                    })
                },
            );
        }
    }
    group.finish();
}

/// One serial `NetlistEvaluator::evaluate` on the `newblue6` stand-in
/// (12.9k nets, 52k pins; all but 33 nets and 645 pins in the 2..=16-pin
/// classes, which WA walks one net at a time at the blocks' stride), for
/// the paper's model and for WA, at the two ends of a placement run: the
/// generator's clumped start with the opening smoothing (most nets
/// collapse to their mean) and a spread placement with the closing
/// smoothing (almost none do). Prints ns/pin next to criterion's time.
fn bench_netlist(c: &mut Criterion) {
    let spec = synth::spec_by_name("newblue6").expect("catalogue circuit");
    let circuit = synth::generate(&spec);
    let nl = &circuit.design.netlist;
    let die = circuit.design.die;
    let mut rng = StdRng::seed_from_u64(7);
    let mut spread = circuit.placement.clone();
    for cell in nl.movable_cells() {
        spread.x[cell.index()] = rng.gen_range(die.xl..die.xh);
        spread.y[cell.index()] = rng.gen_range(die.yl..die.yh);
    }
    let mut grad = WirelengthGrad::zeros(nl.num_cells());
    let mut group = c.benchmark_group("netlist_eval_grad");
    for (kind, label) in [(ModelKind::Moreau, "Moreau"), (ModelKind::Wa, "WA")] {
        for (stage, placement, smoothing) in [
            ("clumped", &circuit.placement, 4.0),
            ("spread", &spread, 0.8),
        ] {
            let mut eval = NetlistEvaluator::serial(kind.instantiate(smoothing));
            eval.evaluate(nl, placement, &mut grad); // builds the workspace
            group.bench_function(BenchmarkId::new(label, stage), |b| {
                b.iter(|| {
                    eval.evaluate(nl, black_box(placement), &mut grad);
                    black_box(grad.value)
                });
                let best = (0..5)
                    .map(|_| {
                        let t0 = Instant::now();
                        for _ in 0..20 {
                            eval.evaluate(nl, black_box(placement), &mut grad);
                        }
                        t0.elapsed().as_secs_f64() / 20.0
                    })
                    .fold(f64::INFINITY, f64::min);
                println!(
                    "netlist_eval_grad/{label}/{stage}: {:.1} ns/pin (best of 5x20, {} pins)",
                    1e9 * best / nl.num_pins() as f64,
                    nl.num_pins()
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_models, bench_netlist);
criterion_main!(benches);
