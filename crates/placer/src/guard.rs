//! Numerical health guard for the placement loop.
//!
//! The ePlace-style loop is numerically fragile by construction: Nesterov's
//! Lipschitz steplength prediction can explode while the density weight `λ`
//! ramps (Eq. (15)), and a single NaN gradient poisons every downstream
//! metric. This module provides the observation half of the guard — the
//! recovery actions themselves (rollback, steplength backoff, wirelength
//! model degradation) are orchestrated by [`crate::global`]:
//!
//! * [`HealthMonitor::check`] inspects each iteration's objective value,
//!   gradient norm, steplength, overflow, and coordinates for NaN/Inf,
//!   detects objective divergence against the first healthy value, and
//!   runs a windowed overflow-trend test for stagnation;
//! * on healthy iterations the monitor keeps a **best-so-far snapshot**
//!   (minimum-overflow placement plus its `λ`/smoothing state) that
//!   rollback and partial-result termination restore from;
//! * every recovery is recorded as a [`RecoveryEvent`] in a
//!   [`RecoveryLog`] surfaced through `GlobalResult`/`PipelineResult` and
//!   the `mep` CLI.
//!
//! On a clean run the guard is pure observation: it performs no extra
//! objective evaluations and never perturbs the iterates, so guarded and
//! unguarded runs are bit-identical.

use mep_wirelength::ModelKind;
use std::collections::VecDeque;
use std::fmt;

/// Configuration of the placement-loop guard.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Master switch; `false` turns every check into a no-op.
    pub enabled: bool,
    /// Window length (healthy iterations) of the stagnation trend test.
    pub stagnation_window: usize,
    /// Total recovery events tolerated before the guard gives up and
    /// returns the best snapshot with [`Termination::GuardExhausted`].
    pub max_recoveries: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            stagnation_window: 120,
            max_recoveries: 24,
        }
    }
}

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
    /// Overflow stopped improving over the configured window.
    Stagnation {
        /// Window length of the trend test.
        window: usize,
    },
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
            Fault::Stagnation { window } => {
                write!(f, "overflow stagnated over {window} iterations")
            }
        }
    }
}

/// Recovery action taken in response to a [`Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restored the best snapshot and shrank the steplength.
    RollbackBackoff,
    /// Swapped the wirelength model down the degradation ladder.
    DegradeModel {
        /// Model before the swap.
        from: ModelKind,
        /// Model after the swap.
        to: ModelKind,
    },
    /// Gave up: restored the best snapshot and stopped the loop.
    Halt,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::RollbackBackoff => write!(f, "rollback + steplength backoff"),
            RecoveryAction::DegradeModel { from, to } => {
                write!(f, "degrade wirelength model {from} → {to}")
            }
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
/// the schedule state needed to resume from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Packed parameter vector (movable-cell centers).
    pub params: Vec<f64>,
    /// Density overflow at the snapshot.
    pub phi: f64,
    /// Density weight `λ` at the snapshot.
    pub lambda: f64,
    /// Wirelength smoothing parameter at the snapshot.
    pub smoothing: f64,
    /// Iteration the snapshot was taken at.
    pub iteration: usize,
}

/// Per-iteration health checks plus best-snapshot bookkeeping.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: GuardConfig,
    best: Option<Snapshot>,
    /// First healthy objective value (divergence reference).
    reference_value: Option<f64>,
    /// Overflow of the last `2·stagnation_window` healthy iterations,
    /// oldest first — all the trend test reads. A ring allocated once at
    /// construction (empty when the window is 0), so the hot loop never
    /// grows it.
    phi_ring: VecDeque<f64>,
    strikes: usize,
    log: RecoveryLog,
}

impl HealthMonitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: GuardConfig) -> Self {
        Self {
            phi_ring: VecDeque::with_capacity(2 * cfg.stagnation_window),
            cfg,
            best: None,
            reference_value: None,
            strikes: 0,
            log: RecoveryLog::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Seeds the best snapshot with the pre-loop state so a fault on the
    /// very first iteration has something to roll back to. Does not touch
    /// the divergence reference or the stagnation window.
    pub fn seed(&mut self, params: &[f64], phi: f64, lambda: f64, smoothing: f64) {
        self.best = Some(Snapshot {
            params: params.to_vec(),
            phi,
            lambda,
            smoothing,
            iteration: 0,
        });
    }

    /// Inspects one iteration. Returns the first tripped [`Fault`], or
    /// `Ok(())` when the iteration is healthy. Pure observation: no
    /// objective evaluations, no state changes.
    pub fn check(
        &self,
        value: f64,
        grad_norm: f64,
        step: f64,
        phi: f64,
        params: &[f64],
    ) -> Result<(), Fault> {
        if !self.cfg.enabled {
            return Ok(());
        }
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
        let w = self.cfg.stagnation_window;
        if w > 0 && self.phi_ring.len() == 2 * w {
            let lower = |m: f64, v: &f64| m.min(*v);
            let prior = self.phi_ring.iter().take(w).fold(f64::INFINITY, lower);
            let recent = self.phi_ring.iter().skip(w).fold(f64::INFINITY, lower);
            if recent > prior * (1.0 - STAGNATION_TOL) {
                return Err(Fault::Stagnation { window: w });
            }
        }
        Ok(())
    }

    /// Records a healthy iteration: fixes the divergence reference on first
    /// call, advances the stagnation window, clears the strike counter, and
    /// updates the best snapshot when `phi` matches or beats it (`<=` so
    /// later ties win — the later iterate has had more wirelength descent).
    #[allow(clippy::too_many_arguments)]
    pub fn observe_healthy(
        &mut self,
        iteration: usize,
        value: f64,
        phi: f64,
        params: &[f64],
        lambda: f64,
        smoothing: f64,
    ) {
        if !self.cfg.enabled {
            return;
        }
        self.reference_value.get_or_insert(value);
        let cap = 2 * self.cfg.stagnation_window;
        if cap > 0 {
            if self.phi_ring.len() == cap {
                self.phi_ring.pop_front();
            }
            self.phi_ring.push_back(phi);
        }
        self.strikes = 0;
        let improved = match &self.best {
            Some(snap) => phi <= snap.phi,
            None => true,
        };
        if improved {
            match &mut self.best {
                Some(snap) => {
                    snap.params.copy_from_slice(params);
                    snap.phi = phi;
                    snap.lambda = lambda;
                    snap.smoothing = smoothing;
                    snap.iteration = iteration;
                }
                None => {
                    self.best = Some(Snapshot {
                        params: params.to_vec(),
                        phi,
                        lambda,
                        smoothing,
                        iteration,
                    });
                }
            }
        }
    }

    /// Registers a tripped iteration; returns the consecutive-strike count.
    pub fn strike(&mut self) -> usize {
        self.strikes += 1;
        self.strikes
    }

    /// Resets the consecutive-strike counter (after a ladder escalation).
    pub fn clear_strikes(&mut self) {
        self.strikes = 0;
    }

    /// Current consecutive-strike count.
    pub fn strikes(&self) -> usize {
        self.strikes
    }

    /// The best snapshot so far, if any healthy state has been seen.
    pub fn best(&self) -> Option<&Snapshot> {
        self.best.as_ref()
    }

    /// Records a recovery event.
    pub fn record(&mut self, event: RecoveryEvent) {
        self.log.push(event);
    }

    /// Whether the recovery budget is spent.
    pub fn exhausted(&self) -> bool {
        self.log.len() >= self.cfg.max_recoveries
    }

    /// The recovery log (borrow).
    pub fn log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Consumes the monitor, returning the recovery log.
    pub fn into_log(self) -> RecoveryLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(GuardConfig::default())
    }

    #[test]
    fn healthy_iterations_pass_and_update_best() {
        let mut m = monitor();
        let p1 = [1.0, 2.0, 3.0];
        let p2 = [1.5, 2.5, 3.5];
        assert!(m.check(10.0, 1.0, 0.1, 0.8, &p1).is_ok());
        m.observe_healthy(0, 10.0, 0.8, &p1, 0.1, 4.0);
        m.observe_healthy(1, 9.0, 0.5, &p2, 0.2, 3.0);
        let best = m.best().unwrap();
        assert_eq!(best.iteration, 1);
        assert_eq!(best.phi, 0.5);
        assert_eq!(best.params, p2);
        // a worse-overflow iteration must not displace the snapshot
        m.observe_healthy(2, 8.0, 0.7, &p1, 0.3, 2.0);
        assert_eq!(m.best().unwrap().iteration, 1);
    }

    #[test]
    fn snapshot_restores_bit_identically() {
        let mut m = monitor();
        let params: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.7361).sin() * 1e3 + f64::EPSILON * i as f64)
            .collect();
        m.observe_healthy(5, 1.0, 0.3, &params, 0.05, 2.5);
        // clobber a copy, then restore from the snapshot
        let mut live = params.clone();
        for v in live.iter_mut() {
            *v = f64::NAN;
        }
        live.copy_from_slice(&m.best().unwrap().params);
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
        m.observe_healthy(0, 10.0, 0.5, &p, 0.0, 1.0);
        assert!(m.check(1e4, 1.0, 0.1, 0.5, &p).is_ok());
        assert!(matches!(
            m.check(1e9, 1.0, 0.1, 0.5, &p),
            Err(Fault::Divergence { .. })
        ));
    }

    #[test]
    fn stagnation_trips_only_on_a_flat_window() {
        let cfg = GuardConfig {
            stagnation_window: 5,
            ..GuardConfig::default()
        };
        let mut m = HealthMonitor::new(cfg.clone());
        let p = [0.0];
        // steadily improving overflow: never stagnates
        for i in 0..20 {
            let phi = 1.0 - 0.04 * i as f64;
            assert!(m.check(1.0, 1.0, 0.1, phi, &p).is_ok(), "iter {i}");
            m.observe_healthy(i, 1.0, phi, &p, 0.0, 1.0);
        }
        // perfectly flat overflow: stagnates once two windows fill
        let mut m = HealthMonitor::new(cfg);
        for i in 0..10 {
            m.observe_healthy(i, 1.0, 0.5, &p, 0.0, 1.0);
        }
        assert_eq!(
            m.check(1.0, 1.0, 0.1, 0.5, &p),
            Err(Fault::Stagnation { window: 5 })
        );
    }

    #[test]
    fn ring_reproduces_full_history_stagnation_verdicts() {
        // oracle: the trend test over the whole recorded sequence
        fn verdict_from_history(history: &[f64], w: usize, tol: f64) -> bool {
            let n = history.len();
            if w == 0 || n < 2 * w {
                return false;
            }
            let low = |s: &[f64]| s.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            low(&history[n - w..]) > low(&history[n - 2 * w..n - w]) * (1.0 - tol)
        }
        // descends, plateaus with ripple, dips once, then flat-lines
        let recorded: Vec<f64> = (0..90)
            .map(|i| match i {
                0..=29 => 1.0 - 0.02 * i as f64,
                30..=59 => 0.4 + 1e-3 * ((i * 7) % 5) as f64,
                60 => 0.35,
                _ => 0.36,
            })
            .collect();
        for w in [0usize, 1, 4, 7, 45, 64] {
            let cfg = GuardConfig {
                stagnation_window: w,
                ..GuardConfig::default()
            };
            let mut m = HealthMonitor::new(cfg);
            let capacity = m.phi_ring.capacity();
            let mut tripped = 0;
            for (i, &phi) in recorded.iter().enumerate() {
                let want = verdict_from_history(&recorded[..i], w, STAGNATION_TOL);
                let got = m.check(1.0, 1.0, 0.1, phi, &[0.0]);
                assert_eq!(
                    got,
                    if want {
                        Err(Fault::Stagnation { window: w })
                    } else {
                        Ok(())
                    },
                    "window {w}, iteration {i}"
                );
                tripped += want as usize;
                m.observe_healthy(i, 1.0, phi, &[0.0], 0.0, 1.0);
                assert!(m.phi_ring.len() <= 2 * w);
            }
            assert_eq!(m.phi_ring.capacity(), capacity, "ring never regrows");
            if (1..=7).contains(&w) {
                assert!(tripped > 0 && tripped < recorded.len(), "window {w}");
            }
        }
    }

    #[test]
    fn strikes_count_consecutively_and_clear_on_health() {
        let mut m = monitor();
        assert_eq!(m.strike(), 1);
        assert_eq!(m.strike(), 2);
        m.observe_healthy(0, 1.0, 0.5, &[0.0], 0.0, 1.0);
        assert_eq!(m.strikes(), 0);
        assert_eq!(m.strike(), 1);
    }

    #[test]
    fn disabled_guard_never_trips() {
        let cfg = GuardConfig {
            enabled: false,
            ..GuardConfig::default()
        };
        let m = HealthMonitor::new(cfg);
        assert!(m
            .check(f64::NAN, f64::NAN, f64::NAN, f64::NAN, &[f64::NAN])
            .is_ok());
    }

    #[test]
    fn recovery_log_formats_chronologically() {
        let mut log = RecoveryLog::default();
        assert!(log.is_empty());
        log.push(RecoveryEvent {
            iteration: 3,
            fault: Fault::NonFiniteValue(f64::NAN),
            action: RecoveryAction::RollbackBackoff,
        });
        log.push(RecoveryEvent {
            iteration: 9,
            fault: Fault::Divergence {
                value: 1e9,
                reference: 10.0,
            },
            action: RecoveryAction::DegradeModel {
                from: ModelKind::Moreau,
                to: ModelKind::Wa,
            },
        });
        let text = log.to_string();
        assert!(text.contains("iter 3"));
        assert!(text.contains("rollback"));
        // ModelKind displays as its paper-table label ("Ours" for Moreau)
        assert!(text.contains(&ModelKind::Moreau.to_string()));
        assert!(text.contains(&ModelKind::Wa.to_string()));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn exhaustion_respects_the_recovery_budget() {
        let cfg = GuardConfig {
            max_recoveries: 2,
            ..GuardConfig::default()
        };
        let mut m = HealthMonitor::new(cfg);
        assert!(!m.exhausted());
        for i in 0..2 {
            m.record(RecoveryEvent {
                iteration: i,
                fault: Fault::NonFiniteGradient,
                action: RecoveryAction::RollbackBackoff,
            });
        }
        assert!(m.exhausted());
    }
}
