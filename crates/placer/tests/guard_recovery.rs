//! Integration tests for the guarded placement loop: NaN injection,
//! rollback + backoff, halting with the best snapshot, the schedule a
//! rollback restores, and degenerate-input rejection.

use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::synth;
use mep_obs::{IterationRecord, RingSink};
use mep_optim::Problem;
use mep_placer::global::{place, GlobalConfig, GlobalResult};
use mep_placer::guard::{RecoveryAction, Termination};
use mep_placer::objective::PlacementProblem;
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::PlacerError;
use mep_wirelength::ModelKind;
use std::sync::Arc;

fn base_config() -> GlobalConfig {
    GlobalConfig {
        model: ModelKind::Moreau,
        max_iters: 300,
        ..GlobalConfig::default()
    }
}

/// Runs `cfg` with a trace sink installed; returns the result and the
/// per-iteration records.
fn place_traced(
    c: &BookshelfCircuit,
    mut cfg: GlobalConfig,
) -> (GlobalResult, Vec<IterationRecord>) {
    let sink = Arc::new(RingSink::new(4096));
    cfg.trace = sink.clone();
    let r = place(c, &cfg).expect("placement flow");
    (r, sink.records())
}

/// The iteration whose state the guard's best snapshot holds when the
/// first fault trips: the arg-min overflow of the healthy records before
/// it, later ties winning.
fn snapshot_iteration(records: &[IterationRecord]) -> usize {
    let healthy = records.iter().take_while(|r| r.guard.is_none());
    let (s, _) = healthy.fold((None, f64::INFINITY), |(s, low), r| {
        if r.overflow <= low {
            (Some(r.iter as usize), r.overflow)
        } else {
            (s, low)
        }
    });
    s.expect("a healthy iteration before the first fault")
}

fn bits(r: &GlobalResult) -> Vec<u64> {
    let p = &r.placement;
    let coords = p.x.iter().chain(&p.y).map(|v| v.to_bits());
    coords
        .chain([r.hpwl.to_bits(), r.overflow.to_bits()])
        .collect()
}

#[test]
fn injected_nan_rolls_back_to_the_seed_snapshot_bit_identically() {
    // poison the very first main-loop evaluation and stop after one
    // iteration: the guard must restore the seeded pre-loop snapshot, so
    // the returned placement is bit-identical to the projected start
    let c = synth::generate(&synth::smoke_spec());
    let mut cfg = base_config();
    cfg.max_iters = 1;
    cfg.min_iters = 1;
    cfg.fault_injection = Some((0, 1));
    let r = place(&c, &cfg).expect("recoverable fault");
    assert_eq!(r.recovery.len(), 1, "{}", r.recovery);
    assert_eq!(
        r.recovery.events()[0].action,
        RecoveryAction::RollbackBackoff
    );

    // recompute the projected starting point the seed snapshot captured
    let problem = PlacementProblem::new(
        &c.design,
        &c.placement,
        ModelKind::Moreau.instantiate(1.0),
        Arc::default(),
    );
    let mut params = problem.pack_params(&c.placement);
    problem.project(&mut params);
    let mut expected = c.placement.clone();
    problem.unpack_params(&params, &mut expected);
    for i in 0..expected.len() {
        assert_eq!(
            r.placement.x[i].to_bits(),
            expected.x[i].to_bits(),
            "x[{i}] not restored bitwise"
        );
        assert_eq!(
            r.placement.y[i].to_bits(),
            expected.y[i].to_bits(),
            "y[{i}] not restored bitwise"
        );
    }
}

#[test]
fn nan_at_budget_exhaustion_still_rolls_back_bitwise() {
    // the hostile corner the daemon lives in: a NaN fault fires on the
    // same iteration the token's wall-clock deadline expires. The guard
    // must roll back to the seed snapshot first, and the deadline check
    // must then return that rolled-back state as a WallClock partial —
    // never the poisoned coordinates
    let c = synth::generate(&synth::smoke_spec());
    let mut cfg = base_config();
    cfg.max_iters = 1;
    cfg.min_iters = 1;
    cfg.fault_injection = Some((0, 1));
    cfg.cancel = mep_placer::CancelToken::with_deadline_in(std::time::Duration::ZERO);
    let r = place(&c, &cfg).expect("recoverable fault under an expired deadline");
    assert_eq!(r.termination, Termination::WallClock);
    assert!(r.termination.is_partial());
    assert_eq!(
        r.iterations, 1,
        "deadline is polled at iteration boundaries"
    );
    assert_eq!(r.recovery.len(), 1, "{}", r.recovery);
    assert_eq!(
        r.recovery.events()[0].action,
        RecoveryAction::RollbackBackoff
    );

    // identical recompute of the projected start the seed snapshot holds
    let problem = PlacementProblem::new(
        &c.design,
        &c.placement,
        ModelKind::Moreau.instantiate(1.0),
        Arc::default(),
    );
    let mut params = problem.pack_params(&c.placement);
    problem.project(&mut params);
    let mut expected = c.placement.clone();
    problem.unpack_params(&params, &mut expected);
    for i in 0..expected.len() {
        assert_eq!(
            r.placement.x[i].to_bits(),
            expected.x[i].to_bits(),
            "x[{i}] not restored bitwise under deadline expiry"
        );
        assert_eq!(
            r.placement.y[i].to_bits(),
            expected.y[i].to_bits(),
            "y[{i}] not restored bitwise under deadline expiry"
        );
    }
}

#[test]
fn pipeline_recovers_from_mid_run_nan_and_stays_legal() {
    // the acceptance scenario: a transient NaN mid-run trips the guard,
    // the loop rolls back + backs off, and the full flow still produces a
    // legal placement with a non-empty recovery log
    let c = synth::generate(&synth::smoke_spec());
    let config = PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 400,
            fault_injection: Some((40, 2)),
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&c, &config).expect("recoverable fault");
    assert!(!r.recovery.is_empty(), "guard must have tripped");
    assert!(r.dpwl.is_finite() && r.dpwl > 0.0);
    assert!(r.overflow.is_finite());
    for i in 0..r.placement.len() {
        assert!(r.placement.x[i].is_finite() && r.placement.y[i].is_finite());
    }
}

#[test]
fn persistent_nan_rolls_back_twice_then_halts() {
    // an unrecoverable fault source: every eval after the 10th is NaN.
    // Two strikes roll back and back off, the third halts with the best
    // snapshot
    let c = synth::generate(&synth::smoke_spec());
    let mut cfg = base_config();
    cfg.max_iters = 80;
    cfg.fault_injection = Some((10, u64::MAX));
    let (r, records) = place_traced(&c, cfg);
    assert_eq!(r.termination, Termination::GuardExhausted);
    assert!(r.termination.is_partial());
    let events = r.recovery.events();
    let actions: Vec<RecoveryAction> = events.iter().map(|e| e.action).collect();
    assert_eq!(
        actions,
        [
            RecoveryAction::RollbackBackoff,
            RecoveryAction::RollbackBackoff,
            RecoveryAction::Halt,
        ],
        "{}",
        r.recovery
    );
    let first = events[0].iteration;
    let at: Vec<usize> = events.iter().map(|e| e.iteration).collect();
    assert_eq!(at, [first, first + 1, first + 2], "{}", r.recovery);
    assert_eq!(r.iterations, first + 3);

    // no retry produced a healthy iterate, so the run returns the snapshot
    // the first fault found: the last iterate of a clean run capped there
    let mut capped = base_config();
    capped.max_iters = snapshot_iteration(&records) + 1;
    let clean = place(&c, &capped).expect("placement flow");
    assert_eq!(clean.termination, Termination::IterationCap);
    assert!(r.hpwl.is_finite());
    assert_eq!(bits(&r), bits(&clean));
}

#[test]
fn rollback_restores_the_whole_schedule() {
    // one poisoned evaluation: one rollback, then the run goes on under
    // the schedule the snapshot holds — λ as it stood after the snapshot
    // iteration's step, and that step's Eq. (15) increment α
    let c = synth::generate(&synth::smoke_spec());
    let mut cfg = base_config();
    cfg.max_iters = 40;
    let (_, clean) = place_traced(&c, cfg.clone());
    // the 33rd evaluation of the loop faults iteration 13 while the best
    // snapshot is iteration 10 (11 and 12 end at a higher overflow), so
    // the snapshot's λ and α differ from the last healthy step's
    cfg.fault_injection = Some((32, 1));
    let (r, records) = place_traced(&c, cfg);
    assert_eq!(r.recovery.len(), 1, "{}", r.recovery);
    let f = r.recovery.events()[0].iteration;
    let s = snapshot_iteration(&records);
    assert!(
        s + 1 < f,
        "snapshot {s} must lie behind the last healthy step"
    );
    let lambda = |recs: &[IterationRecord]| -> Vec<u64> {
        recs.iter().map(|r| r.lambda.to_bits()).collect()
    };
    assert_eq!(lambda(&records[..f]), lambda(&clean[..f]));
    assert_eq!(
        records[f].lambda.to_bits(),
        clean[s].lambda.to_bits(),
        "the rollback restores λ after the snapshot's step"
    );
    // the next increment is α_s times the Eq. (15) multiplier at the new
    // point, in (α_L, α_H) = (1.01, 1.02); the clean run's increment after
    // the snapshot is α_s times the same multiplier at its own point
    let after = records[f + 1].lambda - records[f].lambda;
    let want = clean[s + 1].lambda - clean[s].lambda;
    let ratio = after / want;
    assert!(
        (1.01 / 1.02..=1.02 / 1.01).contains(&ratio),
        "first increment after the rollback {after:e} vs {want:e} after the snapshot"
    );
}

#[test]
fn all_fixed_netlist_is_a_typed_degenerate_input_error() {
    // every node is a terminal: nothing to place
    let nodes =
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 2\n  p0 1 1 terminal\n  p1 1 1 terminal\n";
    let nets =
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n  p0 I : 0 0\n  p1 O : 0 0\n";
    let pl = "UCLA pl 1.0\np0 0 0 : N /FIXED\np1 4 0 : N /FIXED\n";
    let scl = "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1 Sitespacing : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n";
    let c = mep_netlist::bookshelf::read_files("fixed".into(), nodes, nets, pl, scl, None, 0.9)
        .expect("well-formed files");
    match place(&c, &base_config()) {
        Err(PlacerError::DegenerateInput { reason }) => {
            assert!(reason.contains("no movable cells"), "{reason}");
        }
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
    match run(&c, &PipelineConfig::default()) {
        Err(PlacerError::DegenerateInput { .. }) => {}
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
}

#[test]
fn non_finite_start_is_a_typed_degenerate_input_error() {
    let mut c = synth::generate(&synth::smoke_spec());
    c.placement.x[3] = f64::NAN;
    match place(&c, &base_config()) {
        Err(PlacerError::DegenerateInput { reason }) => {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
}
