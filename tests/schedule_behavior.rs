//! Cross-crate integration test: the §III-C schedules behave as designed
//! inside the real placement loop (not just as isolated formulas).

use moreau_placer::netlist::synth;
use moreau_placer::obs::{IterationRecord, NoopSink, RingSink, TraceSink};
use moreau_placer::placer::global::{place, GlobalConfig};
use moreau_placer::wirelength::ModelKind;
use std::sync::Arc;

/// The per-iteration trace records of one global-placement run.
fn trajectory(model: ModelKind) -> Vec<IterationRecord> {
    let c = synth::generate(&synth::smoke_spec());
    let sink = Arc::new(RingSink::new(400));
    let cfg = GlobalConfig {
        model,
        max_iters: 400,
        trace: sink.clone(),
        ..GlobalConfig::default()
    };
    place(&c, &cfg).expect("placement flow");
    sink.records()
}

#[test]
fn smoothing_tightens_as_overflow_drops_moreau() {
    let traj = trajectory(ModelKind::Moreau);
    let first = traj.first().expect("non-empty trajectory");
    let last = traj.last().expect("non-empty trajectory");
    assert!(last.overflow < first.overflow);
    // the tangent schedule maps lower overflow to (much) smaller t
    assert!(
        last.smoothing < 0.2 * first.smoothing,
        "t did not tighten: {} → {}",
        first.smoothing,
        last.smoothing
    );
    assert!(last.smoothing > 0.0);
}

#[test]
fn smoothing_tightens_as_overflow_drops_wa() {
    let traj = trajectory(ModelKind::Wa);
    let first = traj.first().expect("non-empty trajectory");
    let last = traj.last().expect("non-empty trajectory");
    assert!(
        last.smoothing < first.smoothing,
        "γ did not tighten: {} → {}",
        first.smoothing,
        last.smoothing
    );
}

#[test]
fn lambda_grows_monotonically_per_eq_15() {
    for model in [ModelKind::Moreau, ModelKind::Wa] {
        let traj = trajectory(model);
        for w in traj.windows(2) {
            assert!(
                w[1].lambda >= w[0].lambda,
                "{model}: λ decreased at iter {}",
                w[1].iter
            );
        }
        // and it grows substantially over the run (density pressure ramps)
        let first = traj.first().expect("non-empty");
        let last = traj.last().expect("non-empty");
        assert!(last.lambda > 2.0 * first.lambda, "{model}");
    }
}

#[test]
fn overflow_trends_down_after_burn_in() {
    let traj = trajectory(ModelKind::Moreau);
    // compare mean overflow of the second quarter vs the last quarter
    let q = traj.len() / 4;
    let mean = |s: &[IterationRecord]| s.iter().map(|p| p.overflow).sum::<f64>() / s.len() as f64;
    let early = mean(&traj[q..2 * q]);
    let late = mean(&traj[3 * q..]);
    assert!(
        late < early,
        "overflow did not trend down: {early} → {late}"
    );
}

#[test]
fn hpwl_grows_as_cells_spread_then_is_traded_against_overflow() {
    // the Fig. 3 shape: HPWL rises from the collapsed start while overflow
    // falls; at the end HPWL is far above the (degenerate) initial value
    let traj = trajectory(ModelKind::Moreau);
    let first = traj.first().expect("non-empty");
    let last = traj.last().expect("non-empty");
    assert!(last.hpwl > first.hpwl);
    assert!(last.overflow < 0.25 * first.overflow.max(0.4));
}

/// A sink that reports itself disabled and panics if it is handed a record
/// anyway.
#[derive(Debug)]
struct DisabledSink;

impl TraceSink for DisabledSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, rec: &IterationRecord) {
        panic!(
            "a disabled sink was handed the record of iteration {}",
            rec.iter
        );
    }
}

/// The trace's overhead contract: the loop checks `enabled()` once, before
/// a record and its exact HPWL are built, so a disabled sink sees no call
/// at all and the run is bit for bit the `NoopSink` run.
#[test]
fn disabled_trace_sink_is_never_handed_a_record() {
    let c = synth::generate(&synth::smoke_spec());
    let run = |trace: Arc<dyn TraceSink>| {
        let cfg = GlobalConfig {
            trace,
            ..GlobalConfig::default()
        };
        place(&c, &cfg).expect("placement flow")
    };
    let disabled = run(Arc::new(DisabledSink));
    let noop = run(Arc::new(NoopSink));
    assert_eq!(disabled.iterations, noop.iterations);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&disabled.placement.x), bits(&noop.placement.x));
    assert_eq!(bits(&disabled.placement.y), bits(&noop.placement.y));
}
