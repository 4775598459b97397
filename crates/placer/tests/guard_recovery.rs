//! Integration tests for the guarded placement loop: NaN injection and
//! rollback, degradation-ladder escalation, clean-run bit-identity, and
//! degenerate-input rejection.

use mep_netlist::synth;
use mep_optim::Problem;
use mep_placer::global::{place, GlobalConfig};
use mep_placer::guard::{GuardConfig, RecoveryAction, Termination};
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

#[test]
fn clean_run_is_bit_identical_with_guard_enabled() {
    let c = synth::generate(&synth::smoke_spec());
    let mut guarded_cfg = base_config();
    guarded_cfg.max_iters = 120;
    let mut unguarded_cfg = guarded_cfg.clone();
    unguarded_cfg.guard = GuardConfig {
        enabled: false,
        ..GuardConfig::default()
    };
    let guarded = place(&c, &guarded_cfg).expect("placement flow");
    let unguarded = place(&c, &unguarded_cfg).expect("placement flow");
    assert!(guarded.recovery.is_empty());
    assert_eq!(guarded.iterations, unguarded.iterations);
    assert_eq!(guarded.hpwl.to_bits(), unguarded.hpwl.to_bits());
    for i in 0..guarded.placement.len() {
        assert_eq!(
            guarded.placement.x[i].to_bits(),
            unguarded.placement.x[i].to_bits(),
            "x[{i}] diverged"
        );
        assert_eq!(
            guarded.placement.y[i].to_bits(),
            unguarded.placement.y[i].to_bits(),
            "y[{i}] diverged"
        );
    }
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
    assert_eq!(r.violations, 0, "final placement must stay legal");
    assert!(r.dpwl.is_finite() && r.dpwl > 0.0);
    assert!(r.overflow.is_finite());
    for i in 0..r.placement.len() {
        assert!(r.placement.x[i].is_finite() && r.placement.y[i].is_finite());
    }
}

#[test]
fn persistent_nan_walks_the_degradation_ladder_to_exhaustion() {
    // an unrecoverable fault source: every eval after the 10th is NaN.
    // strikes escalate Moreau → WA → LSE, then the guard halts with the
    // best snapshot
    let c = synth::generate(&synth::smoke_spec());
    let mut cfg = base_config();
    cfg.max_iters = 80;
    cfg.fault_injection = Some((10, u64::MAX));
    let r = place(&c, &cfg).expect("guard must degrade, not error");
    assert_eq!(r.termination, Termination::GuardExhausted);
    assert!(r.termination.is_partial());
    let actions: Vec<RecoveryAction> = r.recovery.events().iter().map(|e| e.action).collect();
    let degrade = |from, to| RecoveryAction::DegradeModel { from, to };
    assert_eq!(
        actions,
        [
            RecoveryAction::RollbackBackoff,
            RecoveryAction::RollbackBackoff,
            degrade(ModelKind::Moreau, ModelKind::Wa),
            RecoveryAction::RollbackBackoff,
            RecoveryAction::RollbackBackoff,
            degrade(ModelKind::Wa, ModelKind::Lse),
            RecoveryAction::RollbackBackoff,
            RecoveryAction::RollbackBackoff,
            RecoveryAction::Halt,
        ],
        "{}",
        r.recovery
    );

    // no rung produced a healthy iterate, so the walk returns exactly the
    // best snapshot a run that gives up at the first fault returns
    let mut first_fault_cfg = cfg.clone();
    first_fault_cfg.guard.max_recoveries = 1;
    let halted = place(&c, &first_fault_cfg).expect("guard must halt, not error");
    assert_eq!(halted.termination, Termination::GuardExhausted);
    assert_eq!(halted.recovery.len(), 1, "{}", halted.recovery);
    assert_eq!(
        halted.recovery.events()[0].iteration,
        r.recovery.events()[0].iteration
    );
    assert!(r.hpwl.is_finite());
    assert_eq!(r.hpwl.to_bits(), halted.hpwl.to_bits());
    assert_eq!(r.overflow.to_bits(), halted.overflow.to_bits());
    for i in 0..r.placement.len() {
        assert_eq!(
            r.placement.x[i].to_bits(),
            halted.placement.x[i].to_bits(),
            "x[{i}]"
        );
        assert_eq!(
            r.placement.y[i].to_bits(),
            halted.placement.y[i].to_bits(),
            "y[{i}]"
        );
    }
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
    let c = mep_netlist::bookshelf::read_files("fixed".into(), nodes, nets, pl, scl, 0.9)
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
