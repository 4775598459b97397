//! Numerical health guard for the placement loop.
//!
//! The ePlace-style loop is numerically fragile by construction: Nesterov's
//! Lipschitz steplength prediction can explode while the density weight `λ`
//! ramps (Eq. (15)), and a single NaN gradient poisons every downstream
//! metric. This module decides; [`crate::global`] carries the decisions out:
//!
//! * `HealthMonitor::check` inspects each iteration's objective value,
//!   gradient norm, steplength, overflow, and coordinates for NaN/Inf,
//!   detects objective divergence against the first healthy value, and
//!   runs a windowed overflow-trend test for stagnation;
//! * on healthy iterations the monitor keeps a **best-so-far snapshot**
//!   (minimum-overflow placement plus a copy of the run's
//!   `Schedule`) that rollback and partial-result termination restore;
//! * `HealthMonitor::respond` answers a tripped check with one of two
//!   actions — roll back to the snapshot and back off the steplength, or
//!   halt with the snapshot (stagnation, `MAX_STRIKES` consecutive
//!   faults, or the `MAX_RECOVERIES`-th event) — and records it as a
//!   [`RecoveryEvent`] in a [`RecoveryLog`] surfaced through
//!   `GlobalResult`/`PipelineResult` and the `mep` CLI.
//!
//! On a clean run the guard is pure observation: it performs no extra
//! objective evaluations and never perturbs the iterates.

use crate::global::Schedule;
use std::collections::VecDeque;
use std::fmt;

/// Window length (healthy iterations) of the stagnation trend test.
const STAGNATION_WINDOW: usize = 120;

/// Consecutive tripped iterations that halt the run: each trip below this
/// rolls back and backs off only.
const MAX_STRIKES: usize = 3;

/// Recovery events in one run; the event that reaches it halts the run.
const MAX_RECOVERIES: usize = 24;

/// Objective divergence threshold: trip when `|f|` exceeds this factor
/// times `|f₀| + 1` for the first healthy value `f₀`.
const DIVERGENCE_FACTOR: f64 = 1e4;

/// Minimum relative overflow improvement between consecutive stagnation
/// windows; below it the run is declared stagnated. Deliberately tiny so
/// only a truly flat-lined optimizer trips.
const STAGNATION_TOL: f64 = 1e-6;

/// What tripped the guard on one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Objective value was NaN/Inf.
    NonFiniteValue(f64),
    /// Gradient norm (or the predicted steplength) was NaN/Inf.
    NonFiniteGradient,
    /// One or more parameter coordinates were NaN/Inf.
    NonFiniteCoordinates {
        /// How many coordinates were non-finite.
        count: usize,
    },
    /// Density overflow was NaN/Inf.
    NonFiniteOverflow,
    /// Objective blew past the divergence threshold.
    Divergence {
        /// The offending objective value.
        value: f64,
        /// The first healthy objective value it is compared against.
        reference: f64,
    },
    /// Overflow stopped improving over the stagnation window.
    Stagnation,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NonFiniteValue(v) => write!(f, "non-finite objective value ({v})"),
            Fault::NonFiniteGradient => write!(f, "non-finite gradient or steplength"),
            Fault::NonFiniteCoordinates { count } => {
                write!(f, "{count} non-finite coordinate(s)")
            }
            Fault::NonFiniteOverflow => write!(f, "non-finite density overflow"),
            Fault::Divergence { value, reference } => {
                write!(f, "objective diverged ({value:.3e} from {reference:.3e})")
            }
            Fault::Stagnation => {
                write!(f, "overflow stagnated over {STAGNATION_WINDOW} iterations")
            }
        }
    }
}

/// Recovery action taken in response to a [`Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restored the best snapshot and shrank the steplength.
    RollbackBackoff,
    /// Gave up: restored the best snapshot and stopped the loop.
    Halt,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::RollbackBackoff => write!(f, "rollback + steplength backoff"),
            RecoveryAction::Halt => write!(f, "halt with best snapshot"),
        }
    }
}

/// One recovery event: which iteration, what tripped, what was done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration index at which the fault was detected.
    pub iteration: usize,
    /// The tripped check.
    pub fault: Fault,
    /// The recovery action taken.
    pub action: RecoveryAction,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iter {}: {} → {}",
            self.iteration, self.fault, self.action
        )
    }
}

/// Chronological record of every recovery taken during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Appends an event.
    pub fn push(&mut self, event: RecoveryEvent) {
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run needed no recovery at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }
}

impl fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no recovery events");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Why the global-placement loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Overflow reached the target (the normal outcome).
    #[default]
    Converged,
    /// The iteration cap was reached (last iterate kept, pre-guard
    /// semantics).
    IterationCap,
    /// The deadline of the run's [`CancelToken`](crate::cancel::CancelToken)
    /// expired; the best snapshot was returned as a partial result.
    WallClock,
    /// The stagnation trend test fired; best snapshot returned.
    Stagnated,
    /// The guard ran out of recovery options; best snapshot returned.
    GuardExhausted,
    /// The run's [`CancelToken`](crate::cancel::CancelToken) was cancelled
    /// explicitly; best snapshot returned. Deadline expiry on the same
    /// token reports [`Termination::WallClock`] instead.
    Cancelled,
}

impl Termination {
    /// Whether the result is a best-snapshot partial result rather than
    /// the loop's natural last iterate.
    pub fn is_partial(&self) -> bool {
        matches!(
            self,
            Termination::WallClock
                | Termination::Stagnated
                | Termination::GuardExhausted
                | Termination::Cancelled
        )
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Converged => write!(f, "converged"),
            Termination::IterationCap => write!(f, "iteration cap"),
            Termination::WallClock => write!(f, "wall-clock budget"),
            Termination::Stagnated => write!(f, "stagnated"),
            Termination::GuardExhausted => write!(f, "guard exhausted"),
            Termination::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Best-so-far placement snapshot (minimum overflow seen), together with
/// the schedule to resume from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Snapshot {
    /// Packed parameter vector (movable-cell centers).
    pub(crate) params: Vec<f64>,
    /// Density overflow at the snapshot.
    pub(crate) phi: f64,
    /// The schedule as advanced after the snapshot's step.
    pub(crate) schedule: Schedule,
}

/// Per-iteration health checks plus best-snapshot bookkeeping.
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    best: Snapshot,
    /// First healthy objective value (divergence reference).
    reference_value: Option<f64>,
    /// Overflow of the last `2·STAGNATION_WINDOW` healthy iterations,
    /// oldest first — all the trend test reads. A ring allocated once at
    /// construction, so the hot loop never grows it.
    phi_ring: VecDeque<f64>,
    strikes: usize,
    log: RecoveryLog,
}

impl HealthMonitor {
    /// A monitor whose best snapshot is the pre-loop state, so a fault on
    /// the very first iteration has something to roll back to.
    pub(crate) fn new(params: &[f64], phi: f64, schedule: Schedule) -> Self {
        Self {
            best: Snapshot {
                params: params.to_vec(),
                phi,
                schedule,
            },
            reference_value: None,
            phi_ring: VecDeque::with_capacity(2 * STAGNATION_WINDOW),
            strikes: 0,
            log: RecoveryLog::default(),
        }
    }

    /// Inspects one iteration. Returns the first tripped [`Fault`], or
    /// `Ok(())` when the iteration is healthy. Pure observation: no
    /// objective evaluations, no state changes.
    pub(crate) fn check(
        &self,
        value: f64,
        grad_norm: f64,
        step: f64,
        phi: f64,
        params: &[f64],
    ) -> Result<(), Fault> {
        if !value.is_finite() {
            return Err(Fault::NonFiniteValue(value));
        }
        if !grad_norm.is_finite() || !step.is_finite() {
            return Err(Fault::NonFiniteGradient);
        }
        if !phi.is_finite() {
            return Err(Fault::NonFiniteOverflow);
        }
        let bad = params.iter().filter(|v| !v.is_finite()).count();
        if bad > 0 {
            return Err(Fault::NonFiniteCoordinates { count: bad });
        }
        if let Some(reference) = self.reference_value {
            if value.abs() > DIVERGENCE_FACTOR * (reference.abs() + 1.0) {
                return Err(Fault::Divergence { value, reference });
            }
        }
        let w = STAGNATION_WINDOW;
        if self.phi_ring.len() == 2 * w {
            let lower = |m: f64, v: &f64| m.min(*v);
            let prior = self.phi_ring.iter().take(w).fold(f64::INFINITY, lower);
            let recent = self.phi_ring.iter().skip(w).fold(f64::INFINITY, lower);
            if recent > prior * (1.0 - STAGNATION_TOL) {
                return Err(Fault::Stagnation);
            }
        }
        Ok(())
    }

    /// Records a healthy iteration: fixes the divergence reference on first
    /// call, advances the stagnation window, clears the strike count, and
    /// updates the best snapshot when `phi` matches or beats it (`<=` so
    /// later ties win — the later iterate has had more wirelength descent).
    pub(crate) fn observe_healthy(
        &mut self,
        value: f64,
        phi: f64,
        params: &[f64],
        schedule: &Schedule,
    ) {
        self.reference_value.get_or_insert(value);
        if self.phi_ring.len() == 2 * STAGNATION_WINDOW {
            self.phi_ring.pop_front();
        }
        self.phi_ring.push_back(phi);
        self.strikes = 0;
        if phi <= self.best.phi {
            let best = &mut self.best;
            best.params.copy_from_slice(params);
            best.phi = phi;
            best.schedule = *schedule;
        }
    }

    /// Answers a tripped check and logs the answer. Stagnation, the
    /// `MAX_STRIKES`-th consecutive fault and the `MAX_RECOVERIES`-th
    /// event halt (`Some` with the run's termination); any other fault
    /// rolls back and backs off (`None`). Either way the caller restores
    /// [`HealthMonitor::best`].
    pub(crate) fn respond(
        &mut self,
        iteration: usize,
        fault: Fault,
    ) -> (RecoveryAction, Option<Termination>) {
        self.strikes += 1;
        let halt = if fault == Fault::Stagnation {
            Some(Termination::Stagnated)
        } else if self.strikes >= MAX_STRIKES || self.log.len() + 1 >= MAX_RECOVERIES {
            Some(Termination::GuardExhausted)
        } else {
            None
        };
        let action = match halt {
            Some(_) => RecoveryAction::Halt,
            None => RecoveryAction::RollbackBackoff,
        };
        self.log.push(RecoveryEvent {
            iteration,
            fault,
            action,
        });
        (action, halt)
    }

    /// The best snapshot so far (the pre-loop state until a healthy
    /// iterate matches its overflow).
    pub(crate) fn best(&self) -> &Snapshot {
        &self.best
    }

    /// Consumes the monitor, returning the recovery log.
    pub(crate) fn into_log(self) -> RecoveryLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalConfig;

    /// The default run's schedule on unit bins, started at overflow `phi0`.
    fn schedule_at(phi0: f64) -> Schedule {
        Schedule::new(&GlobalConfig::default(), (1.0, 1.0), phi0, 1.0)
    }

    fn schedule() -> Schedule {
        schedule_at(0.9)
    }

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(&[0.0], f64::INFINITY, schedule())
    }

    #[test]
    fn healthy_iterations_pass_and_update_best() {
        let p0 = [0.0, 0.0, 0.0];
        let mut m = HealthMonitor::new(&p0, 0.9, schedule());
        let p1 = [1.0, 2.0, 3.0];
        let p2 = [1.5, 2.5, 3.5];
        let later = schedule_at(0.5);
        assert_ne!(later, schedule());
        assert!(m.check(10.0, 1.0, 0.1, 0.8, &p1).is_ok());
        m.observe_healthy(10.0, 0.8, &p1, &schedule());
        m.observe_healthy(9.0, 0.5, &p2, &later);
        let best = m.best().clone();
        assert_eq!(best.phi, 0.5);
        assert_eq!(best.params, p2);
        assert_eq!(best.schedule, later);
        // a worse-overflow iteration must not displace the snapshot
        m.observe_healthy(8.0, 0.7, &p1, &schedule());
        assert_eq!(*m.best(), best);
    }

    #[test]
    fn snapshot_restores_bit_identically() {
        let params: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.7361).sin() * 1e3 + f64::EPSILON * i as f64)
            .collect();
        let mut m = HealthMonitor::new(&vec![0.0; 64], 1.0, schedule());
        m.observe_healthy(1.0, 0.3, &params, &schedule());
        // clobber a copy, then restore from the snapshot
        let mut live = params.clone();
        for v in live.iter_mut() {
            *v = f64::NAN;
        }
        live.copy_from_slice(&m.best().params);
        for (a, b) in live.iter().zip(&params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn non_finite_inputs_trip_the_matching_fault() {
        let m = monitor();
        let p = [1.0, 2.0];
        assert!(matches!(
            m.check(f64::NAN, 1.0, 0.1, 0.5, &p),
            Err(Fault::NonFiniteValue(v)) if v.is_nan()
        ));
        assert_eq!(
            m.check(1.0, f64::INFINITY, 0.1, 0.5, &p),
            Err(Fault::NonFiniteGradient)
        );
        assert_eq!(
            m.check(1.0, 1.0, f64::NAN, 0.5, &p),
            Err(Fault::NonFiniteGradient)
        );
        assert_eq!(
            m.check(1.0, 1.0, 0.1, f64::NAN, &p),
            Err(Fault::NonFiniteOverflow)
        );
        assert_eq!(
            m.check(1.0, 1.0, 0.1, 0.5, &[1.0, f64::NAN, f64::INFINITY]),
            Err(Fault::NonFiniteCoordinates { count: 2 })
        );
    }

    #[test]
    fn divergence_is_measured_against_first_healthy_value() {
        let mut m = monitor();
        let p = [0.0];
        // no reference yet: a huge first value is not divergence
        assert!(m.check(1e12, 1.0, 0.1, 0.5, &p).is_ok());
        m.observe_healthy(10.0, 0.5, &p, &schedule());
        assert!(m.check(1e4, 1.0, 0.1, 0.5, &p).is_ok());
        assert!(matches!(
            m.check(1e9, 1.0, 0.1, 0.5, &p),
            Err(Fault::Divergence { .. })
        ));
    }

    #[test]
    fn stagnation_trips_only_on_a_flat_window() {
        let w = STAGNATION_WINDOW;
        let mut m = monitor();
        let p = [0.0];
        // steadily improving overflow: never stagnates
        for i in 0..4 * w {
            let phi = 1.0 - 1e-3 * i as f64;
            assert!(m.check(1.0, 1.0, 0.1, phi, &p).is_ok(), "iter {i}");
            m.observe_healthy(1.0, phi, &p, &schedule());
        }
        // perfectly flat overflow: stagnates once two windows fill
        let mut m = monitor();
        for i in 0..2 * w {
            assert!(m.check(1.0, 1.0, 0.1, 0.5, &p).is_ok(), "iter {i}");
            m.observe_healthy(1.0, 0.5, &p, &schedule());
        }
        assert_eq!(m.check(1.0, 1.0, 0.1, 0.5, &p), Err(Fault::Stagnation));
    }

    #[test]
    fn ring_reproduces_full_history_stagnation_verdicts() {
        // oracle: the trend test over the whole recorded sequence
        fn verdict_from_history(history: &[f64], w: usize, tol: f64) -> bool {
            let n = history.len();
            if n < 2 * w {
                return false;
            }
            let low = |s: &[f64]| s.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            low(&history[n - w..]) > low(&history[n - 2 * w..n - w]) * (1.0 - tol)
        }
        // descends, plateaus with ripple, dips once, then flat-lines
        let w = STAGNATION_WINDOW;
        let recorded: Vec<f64> = (0..6 * w)
            .map(|i| match i {
                _ if i < 2 * w => 1.0 - 0.3 * (i / w) as f64 - 1e-4 * i as f64,
                _ if i < 4 * w => 0.4 + 1e-3 * ((i * 7) % 5) as f64,
                _ if i == 4 * w => 0.35,
                _ => 0.36,
            })
            .collect();
        let mut m = monitor();
        let capacity = m.phi_ring.capacity();
        let mut tripped = 0;
        for (i, &phi) in recorded.iter().enumerate() {
            let want = verdict_from_history(&recorded[..i], w, STAGNATION_TOL);
            let got = m.check(1.0, 1.0, 0.1, phi, &[0.0]);
            assert_eq!(
                got,
                if want { Err(Fault::Stagnation) } else { Ok(()) },
                "iteration {i}"
            );
            tripped += want as usize;
            m.observe_healthy(1.0, phi, &[0.0], &schedule());
            assert!(m.phi_ring.len() <= 2 * w);
        }
        assert_eq!(m.phi_ring.capacity(), capacity, "ring never regrows");
        assert!(tripped > 0 && tripped < recorded.len());
    }

    #[test]
    fn third_consecutive_strike_halts_and_health_clears_the_count() {
        let mut m = monitor();
        let fault = Fault::NonFiniteGradient;
        let rollback = (RecoveryAction::RollbackBackoff, None);
        assert_eq!(m.respond(0, fault), rollback);
        assert_eq!(m.respond(1, fault), rollback);
        m.observe_healthy(1.0, 0.5, &[0.0], &schedule());
        assert_eq!(m.respond(3, fault), rollback);
        assert_eq!(m.respond(4, fault), rollback);
        assert_eq!(
            m.respond(5, fault),
            (RecoveryAction::Halt, Some(Termination::GuardExhausted))
        );
        assert_eq!(
            monitor().respond(0, Fault::Stagnation),
            (RecoveryAction::Halt, Some(Termination::Stagnated))
        );
    }

    #[test]
    fn recovery_log_formats_chronologically() {
        let mut m = monitor();
        assert!(m.log.is_empty());
        m.respond(3, Fault::NonFiniteValue(f64::NAN));
        m.respond(9, Fault::Stagnation);
        let log = m.into_log();
        let text = log.to_string();
        assert!(text.contains("iter 3"));
        assert!(text.contains("rollback"));
        assert!(text.contains(&format!(
            "iter 9: overflow stagnated over {STAGNATION_WINDOW}"
        )));
        assert!(text.contains("halt"));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn the_last_event_the_budget_allows_halts() {
        let mut m = monitor();
        for i in 0..MAX_RECOVERIES - 1 {
            let (action, halt) = m.respond(2 * i, Fault::NonFiniteGradient);
            assert_eq!((action, halt), (RecoveryAction::RollbackBackoff, None));
            m.observe_healthy(1.0, 0.5, &[0.0], &schedule());
        }
        assert_eq!(
            m.respond(99, Fault::NonFiniteGradient),
            (RecoveryAction::Halt, Some(Termination::GuardExhausted))
        );
        assert_eq!(m.into_log().len(), MAX_RECOVERIES);
    }
}
