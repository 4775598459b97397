//! The electrostatic global-placement engine (ePlace loop).
//!
//! Per iteration: one Nesterov step on `Σ W_e + λ D`, then, if the step is
//! healthy, one advance of the run's `Schedule`. The step opens on the
//! trial its predecessor accepted, whose terms the problem holds: the
//! wirelength term stays at the smoothing `t_k` it was evaluated with and is
//! recombined with the held density term under the advanced `λ_{k+1}`
//! (`PlacementProblem::reeval`), so an iteration costs one evaluation per
//! backtracking trial. The schedule:
//!
//! * the wirelength smoothing parameter is re-derived from the current
//!   density overflow `φ` — the paper's tangent schedule Eq. (14) for the
//!   Moreau model, ePlace's decade schedule for the exponential models
//!   (the rule is chosen once per run from the model);
//! * the density weight `λ` is increased per Eq. (15) with
//!   `(α_L, α_H) = (1.01, 1.02)` and `β = 2000`;
//!
//! until the overflow reaches the target (ISPD-style 0.07 default) or the
//! iteration cap. An enabled [`TraceSink`] receives one record per
//! iteration — among them the `(HPWL, φ)` pairs that regenerate Fig. 3.
//!
//! The loop runs under a numerical-health guard (see [`crate::guard`]):
//! each iteration's value/overflow/coordinates are checked for NaN/Inf,
//! divergence, and stagnation, and a best-so-far snapshot (placement plus
//! a copy of the schedule) is kept. A tripped check restores the snapshot
//! whole and either backs off the steplength or halts. The model is fixed
//! for the whole run. On a clean run the guard is pure observation.

use crate::cancel::CancelToken;
use crate::error::PlacerError;
use crate::guard::{HealthMonitor, RecoveryLog, Termination};
use crate::objective::{EngineStats, EvalStats, PlacementProblem};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::Placement;
use mep_obs::{IterationRecord, NoopSink, TraceSink};
use mep_optim::nesterov::Nesterov;
use mep_optim::Problem;
use mep_wirelength::engine::EvalEngine;
use mep_wirelength::{EplaceGammaSchedule, ModelKind, SmoothingSchedule, TangentTSchedule};
use std::sync::Arc;
use std::time::Instant;

/// Which schedule drives the Moreau smoothing parameter `t` (ablation of
/// the paper's Eq. (14) design choice; exponential models always use the
/// decade schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MoreauSchedule {
    /// The paper's tangent schedule, Eq. (14).
    #[default]
    Tangent,
    /// ePlace's decade schedule `10^{kφ+b}` applied to `t` instead of `γ`.
    Decade,
}

/// Configuration of the global placer.
#[derive(Debug, Clone)]
pub struct GlobalConfig {
    /// Wirelength model to optimize with.
    pub model: ModelKind,
    /// Smoothing schedule used when `model == Moreau` (Eq. (14) ablation).
    pub moreau_schedule: MoreauSchedule,
    /// Stop once density overflow falls below this (paper flow: 0.07).
    pub target_overflow: f64,
    /// Hard iteration cap. The default (800) is the one cap every claims
    /// flow runs at: each of them converges below it.
    pub max_iters: usize,
    /// Minimum iterations before the overflow stop can fire.
    pub min_iters: usize,
    /// Read by nothing. Set by the frozen `examples/bench_e2e`; goes with
    /// the benchmark PR that retires `nb6_flat_t2`.
    pub threads: usize,
    /// `t0` for the tangent schedule (paper default 4).
    pub t0: f64,
    /// Multiplier on the bootstrapped λ₀ (and therefore on the Eq. (15)
    /// ramp rate). `1.0` is the paper flow; the multilevel driver raises it
    /// for levels that start from a prolonged coarse solution, so that a
    /// placement that is already spread does not re-walk the whole density
    /// ramp from the beginning.
    pub lambda_scale: f64,
    /// Test hook: `(after, count)` poisons `count` consecutive objective
    /// evaluations with NaN once `after` main-loop evaluations have run,
    /// exercising the recovery guard. `None` (the default) in all
    /// production flows.
    pub fault_injection: Option<(u64, u64)>,
    /// Per-iteration trace sink. The default [`NoopSink`] reports
    /// `enabled() == false`, so the loop skips building records (and the
    /// exact-HPWL evaluation feeding them) entirely.
    pub trace: Arc<dyn TraceSink>,
    /// Multilevel hierarchy level this run operates on (0 = the original
    /// finest netlist). Purely observational: stamped into every
    /// [`IterationRecord`] by the loop.
    pub level: u32,
    /// Flow-stage label stamped into trace records (`None` for the flat
    /// flow; the multilevel/ECO drivers set `"coarse"`, `"final"`,
    /// `"eco"`).
    pub stage: Option<String>,
    /// Cooperative cancellation handle, polled once per iteration. The
    /// default token is inert; drivers (the `mep-serve` daemon, signal
    /// handlers) install a shared token to cancel or deadline a run
    /// mid-solve. On trip the loop restores the best-so-far snapshot and
    /// reports [`Termination::Cancelled`] (explicit cancel) or
    /// [`Termination::WallClock`] (deadline expiry).
    pub cancel: CancelToken,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Moreau,
            moreau_schedule: MoreauSchedule::Tangent,
            target_overflow: 0.07,
            max_iters: 800,
            min_iters: 30,
            threads: 1,
            t0: 4.0,
            lambda_scale: 1.0,
            fault_injection: None,
            trace: Arc::new(NoopSink),
            level: 0,
            stage: None,
            cancel: CancelToken::new(),
        }
    }
}

/// `γ₀` of ePlace's decade schedule.
const GAMMA0: f64 = 0.5;
/// `(α_L, α_H)` of the λ update, Eq. (15).
const ALPHA: (f64, f64) = (1.01, 1.02);
/// `β` of Eq. (15).
const BETA: f64 = 2000.0;
/// Steplength shrink factor applied on every rollback.
const BACKOFF: f64 = 0.5;
/// Widest smoothing the λ₀ bootstrap measures `‖∇W‖₁` at, in bin widths
/// `w_x + w_y`. It binds only at Eq. (14)'s δ-limited top, where
/// `tan(π/2 − δ)` leaves the Moreau gradient `(x − prox)/t` near zero; the
/// decade schedule tops out at `γ(1) = 5 (w_x + w_y)`.
const BOOTSTRAP_WIDTH_BINS: f64 = 20.0;

/// How the smoothing parameter follows the overflow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Smoothing {
    /// HPWL: nothing to smooth.
    None,
    /// The paper's tangent schedule, Eq. (14).
    Tangent(TangentTSchedule),
    /// ePlace's decade schedule, floored at `1e-6`.
    Decade(EplaceGammaSchedule),
}

impl Smoothing {
    fn value(&self, phi: f64) -> f64 {
        match self {
            Smoothing::None => 0.0,
            Smoothing::Tangent(s) => s.value(phi),
            Smoothing::Decade(s) => s.value(phi).max(1e-6),
        }
    }
}

/// The run's schedule state as one value: the smoothing rule and its
/// current value, `λ_k` and the Eq. (15) increment `α_k`. It is advanced
/// once per healthy step and pushes `λ`/`t` into the problem; the guard's
/// snapshot holds a copy, and a rollback restores that copy whole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Schedule {
    rule: Smoothing,
    /// Current smoothing parameter (`t` or `γ`; 0 under HPWL).
    smoothing: f64,
    /// `D_0` of Eq. (15): the density energy of the starting point.
    d0: f64,
    /// Density weight `λ_k`.
    lambda: f64,
    /// Eq. (15) increment `α_k`.
    alpha: f64,
}

impl Schedule {
    /// The schedule of a run of `config` on bins of size `bins`, at the
    /// starting overflow `phi0` and density energy `d0`, with `λ = 0`
    /// until [`Schedule::start_ramp`].
    pub(crate) fn new(config: &GlobalConfig, bins: (f64, f64), phi0: f64, d0: f64) -> Self {
        let (bw, bh) = bins;
        let rule = match (config.model, config.moreau_schedule) {
            (ModelKind::Hpwl, _) => Smoothing::None,
            (ModelKind::Moreau, MoreauSchedule::Tangent) => {
                Smoothing::Tangent(TangentTSchedule::new(bw, bh).with_t0(config.t0))
            }
            _ => Smoothing::Decade(EplaceGammaSchedule::new(GAMMA0, bw, bh)),
        };
        Self {
            rule,
            smoothing: rule.value(phi0),
            d0: d0.max(1e-30),
            lambda: 0.0,
            alpha: 0.0,
        }
    }

    /// Starts the Eq. (15) ramp at `λ_0`, with `α_0 = (α_L − 1) λ_0`.
    fn start_ramp(&mut self, lambda0: f64) {
        self.lambda = lambda0;
        self.alpha = (ALPHA.0 - 1.0) * lambda0;
    }

    /// Both schedules one step on, after a healthy step that left `stats`:
    /// the smoothing at its overflow, `λ` per Eq. (15) at its density
    /// energy. Pushes the result into `problem`.
    fn advance(&mut self, problem: &mut PlacementProblem<'_>, stats: EvalStats) {
        let (alpha_l, alpha_h) = ALPHA;
        self.smoothing = self.rule.value(stats.overflow);
        let dk = stats.density_energy.max(0.0);
        self.alpha *= alpha_h - (alpha_h - alpha_l) / (1.0 + (1.0 + BETA * dk / self.d0).ln());
        self.lambda += self.alpha;
        self.apply(problem);
    }

    /// Pushes `λ` and the smoothing parameter into `problem`.
    fn apply(&self, problem: &mut PlacementProblem<'_>) {
        problem.lambda = self.lambda;
        problem.set_smoothing(self.smoothing);
    }
}

/// Result of global placement.
#[derive(Debug, Clone)]
pub struct GlobalResult {
    /// Final (unlegalized) placement.
    pub placement: Placement,
    /// Exact HPWL of the final placement.
    pub hpwl: f64,
    /// Final density overflow.
    pub overflow: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Nesterov trial points evaluated over those iterations: one per
    /// iteration plus one per backtracking retry.
    pub trials: usize,
    /// Where the Eq. (15) ramp started.
    pub ramp: RampStart,
    /// The run's evaluation counters (stage counts and times, reuses, net
    /// routes), read before the closing density report.
    pub engine_stats: EngineStats,
    /// Every recovery the guard performed (empty on a clean run).
    pub recovery: RecoveryLog,
    /// Why the loop stopped.
    pub termination: Termination,
}

/// The start of a run's density ramp: what the λ₀ bootstrap measured and
/// the smoothing the first step opens with.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RampStart {
    /// The density weight `λ₀ = ‖∇W‖₁ / ‖∇D‖₁ · lambda_scale`.
    pub lambda0: f64,
    /// The smoothing `‖∇W‖₁` was measured at:
    /// `min(smoothing0, 20 (w_x + w_y))`.
    pub bootstrap_smoothing: f64,
    /// The run's smoothing at the starting overflow, `t(φ₀)` or `γ(φ₀)`.
    pub smoothing0: f64,
}

/// Rejects inputs the loop cannot meaningfully run on: nothing to place,
/// a degenerate die, or non-finite starting coordinates.
pub(crate) fn validate_circuit(circuit: &BookshelfCircuit) -> Result<(), PlacerError> {
    let design = &circuit.design;
    if design.netlist.num_movable() == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: format!(
                "netlist '{}' has no movable cells (all {} cells fixed)",
                design.name,
                design.netlist.num_cells()
            ),
        });
    }
    let (w, h) = (design.die.width(), design.die.height());
    // NaN dimensions fail the positivity test and land in the error arm
    let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(w) || !positive(h) || !w.is_finite() || !h.is_finite() {
        return Err(PlacerError::DegenerateInput {
            reason: format!("die has degenerate dimensions {w} × {h}"),
        });
    }
    let bad = circuit
        .placement
        .x
        .iter()
        .chain(circuit.placement.y.iter())
        .filter(|v| !v.is_finite())
        .count();
    if bad > 0 {
        return Err(PlacerError::DegenerateInput {
            reason: format!("initial placement has {bad} non-finite coordinate(s)"),
        });
    }
    Ok(())
}

/// [`place`]; the engine is ignored. Called by the frozen
/// `examples/bench_e2e`; goes with the benchmark PR that deletes
/// `EvalEngine` (ROADMAP item 1(d)).
pub fn place_with_engine(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
    _engine: Arc<EvalEngine>,
) -> Result<GlobalResult, PlacerError> {
    place(circuit, config)
}

/// Runs ePlace-style global placement on a circuit.
pub fn place(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
) -> Result<GlobalResult, PlacerError> {
    validate_circuit(circuit)?;
    // lint:allow(determinism): elapsed_secs of the trace records only; durations never feed back into results
    let start = Instant::now();
    let design = &circuit.design;
    let model = config.model.instantiate(1.0);
    let mut problem = PlacementProblem::new(design, &circuit.placement, model, Arc::default());
    let mut params = problem.pack_params(&circuit.placement);
    problem.project(&mut params);

    // initial overflow & smoothing
    let report0 = problem.density_report(&params);
    let mut phi = report0.overflow;
    if !phi.is_finite() || !report0.energy.is_finite() {
        return Err(PlacerError::NumericalFailure {
            iteration: 0,
            detail: format!(
                "initial density report is non-finite (overflow {phi}, energy {})",
                report0.energy
            ),
        });
    }
    let grid = problem.electrostatics().grid();
    let bins = (grid.bin_w(), grid.bin_h());
    let mut schedule = Schedule::new(config, bins, phi, report0.energy);
    schedule.apply(&mut problem);

    // λ0 per ePlace: ‖∇W‖₁ / ‖∇D‖₁ at the start point, the wirelength at
    // the run's smoothing capped at BOOTSTRAP_WIDTH_BINS, the density from
    // the held term
    let smoothing0 = problem.smoothing();
    let bootstrap_smoothing = smoothing0.min(BOOTSTRAP_WIDTH_BINS * (bins.0 + bins.1));
    problem.set_smoothing(bootstrap_smoothing);
    let mut grad = vec![0.0; problem.dim()];
    problem.eval(&params, &mut grad);
    let wl_norm: f64 = grad.iter().map(|g| g.abs()).sum();
    let density_norm = problem.density_grad_norm();
    let lambda0 = (wl_norm / density_norm.max(1e-30)).max(1e-12) * config.lambda_scale.max(1e-6);
    if !lambda0.is_finite() {
        return Err(PlacerError::NumericalFailure {
            iteration: 0,
            detail: format!(
                "λ₀ bootstrap produced a non-finite weight (|∇W| {wl_norm}, |∇D| {density_norm})"
            ),
        });
    }

    // initial steplength: first move ~ a couple of bins against ∇W + ∇D at
    // the run's smoothing, whose term the first step opens on
    problem.set_smoothing(smoothing0);
    problem.lambda = 1.0;
    if bootstrap_smoothing < smoothing0 {
        problem.eval(&params, &mut grad);
    } else {
        problem.reeval(&params, &mut grad);
    }
    schedule.start_ramp(lambda0);
    schedule.apply(&mut problem);
    let gmax = grad
        .iter()
        .fold(0.0_f64, |acc, g| acc.max(g.abs()))
        .max(1e-30);
    let mut optimizer = Nesterov::new(0.5 * (bins.0 + bins.1) / gmax);

    let mut monitor = HealthMonitor::new(&params, phi, schedule);
    if let Some((after, count)) = config.fault_injection {
        problem.inject_nan(after, count);
    }

    let trace = config.trace.as_ref();
    let tracing = trace.enabled();
    let mut iterations = 0;
    let mut trials = 0;
    let mut termination = Termination::IterationCap;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let step_report = optimizer.step(&mut problem, &mut params);
        trials += step_report.trials;
        let stats = problem.last_stats();
        let value = stats.wirelength + problem.lambda * stats.density_energy;
        // `None` on a healthy step, `Some("fault -> action")` otherwise.
        let mut guard_verdict: Option<String> = None;
        let mut stop = false;

        match monitor.check(
            value,
            step_report.grad_norm,
            step_report.step,
            stats.overflow,
            &params,
        ) {
            Ok(()) => {
                phi = stats.overflow;
                schedule.advance(&mut problem, stats);
                monitor.observe_healthy(value, phi, &params, &schedule);
                if phi <= config.target_overflow && iter + 1 >= config.min_iters {
                    termination = Termination::Converged;
                    stop = true;
                }
            }
            Err(fault) => {
                let (action, halt) = monitor.respond(iter, fault);
                restore_best(&monitor, &mut params, &mut problem, &mut phi, &mut schedule);
                match halt {
                    Some(t) => {
                        termination = t;
                        stop = true;
                    }
                    None => optimizer.backoff(BACKOFF),
                }
                guard_verdict = Some(format!("{fault} -> {action}"));
            }
        }

        if tracing {
            trace.record(&IterationRecord {
                iter: iter as u64,
                level: config.level as u64,
                stage: config.stage.clone(),
                objective: value,
                hpwl: problem.exact_hpwl(&params),
                overflow: phi,
                lambda: problem.lambda,
                smoothing: problem.smoothing(),
                step: step_report.step,
                grad_norm: step_report.grad_norm,
                guard: guard_verdict,
                elapsed_secs: start.elapsed().as_secs_f64(),
            });
        }
        if stop {
            break;
        }

        if let Some(t) = config.cancel.termination() {
            restore_best(&monitor, &mut params, &mut problem, &mut phi, &mut schedule);
            termination = t;
            break;
        }
    }
    if tracing {
        // best-effort: a sink I/O failure must not fail the placement run;
        // the CLI surfaces flush errors at its own explicit flush
        let _ = trace.flush();
    }

    let mut placement = circuit.placement.clone();
    problem.unpack_params(&params, &mut placement);
    let hpwl = mep_netlist::total_hpwl(&design.netlist, &placement);
    // before the closing report, whose transforms are not the loop's
    let engine_stats = problem.stats();
    let overflow = problem.density_report(&params).overflow;
    Ok(GlobalResult {
        placement,
        hpwl,
        overflow,
        iterations,
        trials,
        ramp: RampStart {
            lambda0,
            bootstrap_smoothing,
            smoothing0,
        },
        engine_stats,
        recovery: monitor.into_log(),
        termination,
    })
}

/// Restores the monitor's best snapshot into the live loop state: params,
/// overflow and the whole schedule, which is pushed into the problem.
fn restore_best(
    monitor: &HealthMonitor,
    params: &mut [f64],
    problem: &mut PlacementProblem<'_>,
    phi: &mut f64,
    schedule: &mut Schedule,
) {
    let best = monitor.best();
    params.copy_from_slice(&best.params);
    *phi = best.phi;
    *schedule = best.schedule;
    schedule.apply(problem);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;
    use mep_obs::RingSink;

    fn smoke_config(model: ModelKind) -> GlobalConfig {
        GlobalConfig {
            model,
            max_iters: 250,
            min_iters: 20,
            ..GlobalConfig::default()
        }
    }

    /// Runs `cfg` with a [`RingSink`] installed; returns the result and the
    /// per-iteration records.
    fn place_traced(
        c: &BookshelfCircuit,
        mut cfg: GlobalConfig,
    ) -> (GlobalResult, Vec<IterationRecord>) {
        let sink = Arc::new(RingSink::new(4096));
        cfg.trace = sink.clone();
        let r = place(c, &cfg).unwrap();
        (r, sink.records())
    }

    /// Forwards to a problem and logs the bits of every evaluation (point,
    /// gradient, value); `uncached` runs each one under the oracle.
    struct Logged<'p, 'a> {
        inner: &'p mut PlacementProblem<'a>,
        uncached: bool,
        log: Vec<u64>,
    }

    impl Logged<'_, '_> {
        fn logged(
            &mut self,
            x: &[f64],
            grad: &mut [f64],
            eval: fn(&mut PlacementProblem<'_>, &[f64], &mut [f64]) -> f64,
        ) -> f64 {
            let _oracle = self.uncached.then(crate::objective::oracle::NoReuse::new);
            let f = eval(self.inner, x, grad);
            let evaluated = x.iter().chain(grad.iter()).chain([&f]);
            self.log.extend(evaluated.map(|v| v.to_bits()));
            f
        }
    }

    impl Problem for Logged<'_, '_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            self.logged(x, grad, |p, x, g| p.eval(x, g))
        }

        fn reeval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            self.logged(x, grad, |p, x, g| p.reeval(x, g))
        }

        fn project(&self, x: &mut [f64]) {
            self.inner.project(x);
        }
    }

    /// `steps` Nesterov iterations of the default run on `c` with no guard,
    /// no trace and no stop: the λ₀ bootstrap typed by hand, then one
    /// [`Schedule`] advance per step. Returns the log of every evaluation,
    /// the final placement and the problem's counters.
    fn drive_nesterov(
        c: &BookshelfCircuit,
        uncached: bool,
        steps: usize,
    ) -> (Vec<u64>, Placement, EngineStats) {
        let cfg = GlobalConfig::default();
        let model = cfg.model.instantiate(1.0);
        let mut p = PlacementProblem::new(&c.design, &c.placement, model, Arc::default());
        let mut x = p.pack_params(&c.placement);
        p.project(&mut x);
        let grid = p.electrostatics().grid();
        let bins = (grid.bin_w(), grid.bin_h());
        let report0 = p.density_report(&x);
        let mut schedule = Schedule::new(&cfg, bins, report0.overflow, report0.energy);
        schedule.apply(&mut p);

        let mut logged = Logged {
            inner: &mut p,
            uncached,
            log: Vec::new(),
        };
        // λ₀ bootstrap: ∇W at the capped width (λ = 0), ∇D from the held
        // term, then the start point at the run's own width under λ = 1
        let t_run = logged.inner.smoothing();
        let t_boot = t_run.min(BOOTSTRAP_WIDTH_BINS * (bins.0 + bins.1));
        logged.inner.set_smoothing(t_boot);
        let mut grad = vec![0.0; x.len()];
        logged.eval(&x, &mut grad);
        let wl_norm: f64 = grad.iter().map(|g| g.abs()).sum();
        let lambda0 = wl_norm / logged.inner.density_grad_norm().max(1e-30);
        logged.inner.set_smoothing(t_run);
        logged.inner.lambda = 1.0;
        if t_boot < t_run {
            logged.eval(&x, &mut grad);
        } else {
            logged.reeval(&x, &mut grad);
        }
        schedule.start_ramp(lambda0);
        schedule.apply(logged.inner);
        let gmax = grad.iter().fold(1e-30_f64, |m, g| m.max(g.abs()));

        let mut optimizer = Nesterov::new(0.5 * (bins.0 + bins.1) / gmax);
        for _ in 0..steps {
            optimizer.step(&mut logged, &mut x);
            let stats = logged.inner.last_stats();
            schedule.advance(logged.inner, stats);
        }
        let log = logged.log;
        let mut placement = c.placement.clone();
        p.unpack_params(&x, &mut placement);
        (log, placement, p.stats())
    }

    fn bits(p: &Placement) -> Vec<u64> {
        p.x.iter().chain(&p.y).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn nesterov_trajectory_is_bitwise_the_uncached_one() {
        let c = synth::generate(&synth::smoke_spec());
        const STEPS: usize = 64;
        let (log, x, s) = drive_nesterov(&c, false, STEPS);
        let (want_log, want_x, o) = drive_nesterov(&c, true, STEPS);
        assert!(log == want_log, "an evaluation differs");
        assert_eq!(bits(&x), bits(&want_x));

        assert_eq!(o.reused, 0);
        assert_eq!(o.density.count, o.wl_grad.count);
        assert_eq!(s.density.count, s.wl_grad.count);
        assert_eq!(s.wl_grad.count + s.reused, o.wl_grad.count);
        // smoke's t(φ₀) is inside the bootstrap cap, so the start point's
        // second look reuses the bootstrap's term; every step reopens on the
        // point evaluated last (the first step on the start point)
        assert_eq!(s.reused, STEPS as u64 + 1);
    }

    #[test]
    fn clean_place_is_bitwise_the_unguarded_harness() {
        // the guard, the trace-off path and the cancel poll only observe:
        // with the convergence stop out of reach, `place` is the bare
        // Nesterov + schedule loop to the bit
        let c = synth::generate(&synth::smoke_spec());
        const STEPS: usize = 120;
        let (_, want, harness) = drive_nesterov(&c, false, STEPS);
        let cfg = GlobalConfig {
            max_iters: STEPS,
            min_iters: usize::MAX,
            ..GlobalConfig::default()
        };
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::IterationCap);
        assert_eq!(r.iterations, STEPS);
        assert!(r.recovery.is_empty());
        assert_eq!(bits(&r.placement), bits(&want));
        assert_eq!(r.engine_stats.wl_grad.count, harness.wl_grad.count);
    }

    #[test]
    fn overflow_decreases_substantially() {
        let c = synth::generate(&synth::smoke_spec());
        let (r, recs) = place_traced(&c, smoke_config(ModelKind::Moreau));
        let first = recs.first().unwrap().overflow;
        assert!(
            r.overflow < 0.5 * first,
            "overflow {} from {first} after {} iters",
            r.overflow,
            r.iterations
        );
        assert!(r.recovery.is_empty(), "clean run must not trip the guard");
    }

    #[test]
    fn cells_spread_from_center() {
        let c = synth::generate(&synth::smoke_spec());
        let r = place(&c, &smoke_config(ModelKind::Moreau)).unwrap();
        let nl = &c.design.netlist;
        let die = c.design.die;
        // cells must no longer be piled in the middle 10% of the die
        let center = die.center();
        let spread = nl
            .movable_cells()
            .filter(|&cell| {
                let p = r.placement.center(nl, cell);
                (p.x - center.x).abs() > 0.05 * die.width()
                    || (p.y - center.y).abs() > 0.05 * die.height()
            })
            .count();
        assert!(
            spread > nl.num_movable() / 2,
            "only {spread} of {} cells moved off-center",
            nl.num_movable()
        );
        // and all stay inside the die
        for cell in nl.movable_cells() {
            assert!(die.contains_rect(&r.placement.cell_rect(nl, cell)));
        }
    }

    #[test]
    fn all_models_run_and_spread() {
        let c = synth::generate(&synth::smoke_spec());
        for kind in ModelKind::contestants() {
            let mut cfg = smoke_config(kind);
            cfg.max_iters = 120;
            let r = place(&c, &cfg).unwrap();
            assert!(r.hpwl.is_finite(), "{kind}");
            assert!(r.overflow < 0.9, "{kind}: overflow {}", r.overflow);
        }
    }

    #[test]
    fn engine_stats_cover_the_whole_run() {
        let c = synth::generate(&synth::smoke_spec());
        // one evaluation of both terms per trial, plus the bootstrap's ∇W;
        // the start point's second look, at the run's own smoothing, reuses
        // that term unless the cap held the bootstrap below it. Every
        // step's opening reuses the trial its predecessor accepted. At
        // `t0` = 400 smoke's t(φ₀) is past the cap.
        let run = |t0: f64, capped: u64| {
            let mut cfg = smoke_config(ModelKind::Moreau);
            cfg.max_iters = 40;
            cfg.t0 = t0;
            let r = place(&c, &cfg).unwrap();
            let (s, ramp) = (r.engine_stats, r.ramp);
            assert_eq!(
                u64::from(ramp.bootstrap_smoothing < ramp.smoothing0),
                capped,
                "{ramp:?}"
            );
            assert_eq!(
                (s.wl_grad.count, s.density.count),
                (r.trials as u64 + 1 + capped, r.trials as u64 + 1 + capped),
                "{s:?}, {} trials",
                r.trials
            );
            assert!(r.trials >= r.iterations, "{s:?}");
            assert_eq!(s.reused, r.iterations as u64 + 1 - capped, "{s:?}");
            s
        };
        run(400.0, 1);
        let s = run(4.0, 0);
        let cfg = GlobalConfig {
            max_iters: 40,
            ..smoke_config(ModelKind::Moreau)
        };
        assert_eq!(s.workspace_allocs, 1, "workspace built once, then reused");
        assert!(s.wl_grad.nanos > 0 && s.density.nanos > 0);
        // four 2-D transforms per Poisson solve: one per executed density
        // stage, plus the opening `density_report` (the closing one runs
        // after `place` reads the counters)
        assert_eq!(
            s.density_transform.count,
            4 * (s.density.count + 1),
            "{s:?}"
        );
        // the assembly sub-stage runs once per gradient eval, inside it
        assert_eq!(s.wl_scatter.count, s.wl_grad.count, "{s:?}");
        assert!(s.wl_scatter.nanos <= s.wl_grad.nanos, "{s:?}");
        // every net of at least two pins is served by exactly one path or
        // skipped for want of a movable pin: the class kernel through 16
        // pins, the per-net path above — which smoke (widest net: 11 pins)
        // never enters, and a twice as pin-dense draw of it does
        let every_net_has_one_path = |c: &BookshelfCircuit, s: &EngineStats| {
            let nl = &c.design.netlist;
            let small = nl.nets().filter(|&n| nl.net_degree(n) < 2).count() as u64;
            assert_eq!(
                s.wl_class_nets + s.wl_generic_nets + s.wl_inactive_nets + small * s.wl_grad.count,
                nl.num_nets() as u64 * s.wl_grad.count,
                "{s:?}"
            );
            assert!(s.wl_class_nets > 0, "{s:?}");
            let wide = nl.nets().filter(|&n| nl.net_degree(n) > 16).count() as u64;
            assert_eq!(s.wl_generic_nets, wide * s.wl_grad.count, "{s:?}");
            wide
        };
        assert_eq!(every_net_has_one_path(&c, &s), 0);
        let mut dense = synth::smoke_spec();
        dense.pins *= 2;
        let dense = synth::generate(&dense);
        let s = place(&dense, &cfg).unwrap().engine_stats;
        assert!(every_net_has_one_path(&dense, &s) > 0);
    }

    #[test]
    fn bootstrap_reads_the_held_density_norm_at_a_bounded_width() {
        // at a placed point ∇W pulls cells together where ∇D pushes them
        // apart, so |‖∇W + ∇D‖₁ − ‖∇W‖₁| falls short of ‖∇D‖₁
        let c = synth::generate(&synth::smoke_spec());
        let placed = BookshelfCircuit {
            design: c.design.clone(),
            placement: place(&c, &smoke_config(ModelKind::Moreau))
                .unwrap()
                .placement,
        };
        let l1 = |g: &[f64]| -> f64 { g.iter().map(|v| v.abs()).sum() };
        let runs = ModelKind::contestants()
            .into_iter()
            .map(|kind| (kind, 4.0))
            .chain([(ModelKind::Moreau, 4000.0)]);
        for (kind, t0) in runs {
            let cfg = GlobalConfig {
                t0,
                max_iters: 1,
                ..smoke_config(kind)
            };
            let ramp = place(&placed, &cfg).unwrap().ramp;

            let model = kind.instantiate(1.0);
            let mut p =
                PlacementProblem::new(&placed.design, &placed.placement, model, Arc::default());
            let mut x = p.pack_params(&placed.placement);
            p.project(&mut x);
            let phi0 = p.density_report(&x).overflow;
            let grid = p.electrostatics().grid();
            let (bw, bh) = (grid.bin_w(), grid.bin_h());
            let width = match kind {
                ModelKind::Moreau => {
                    let t = TangentTSchedule::new(bw, bh).with_t0(t0).value(phi0);
                    assert_eq!(ramp.smoothing0.to_bits(), t.to_bits(), "{kind}");
                    t.min(20.0 * (bw + bh))
                }
                _ => EplaceGammaSchedule::new(GAMMA0, bw, bh).value(phi0),
            };
            assert_eq!(
                ramp.bootstrap_smoothing.to_bits(),
                width.to_bits(),
                "{kind}"
            );
            // the cap binds only for the tangent schedule's δ-limited top
            let capped = ramp.bootstrap_smoothing < ramp.smoothing0;
            assert_eq!(capped, t0 > 4.0, "{kind} {ramp:?}");

            p.set_smoothing(width);
            let mut wl = vec![0.0; x.len()];
            p.eval(&x, &mut wl);
            let held = p.density_grad_norm();
            p.lambda = 1.0;
            let mut both = vec![0.0; x.len()];
            p.reeval(&x, &mut both);
            // the held term is ∇D over the movable cells, parameter order
            let diff: f64 = both.iter().zip(&wl).map(|(b, w)| (b - w).abs()).sum();
            assert!(
                (diff - held).abs() <= 1e-9 * held,
                "{kind}: {diff} vs {held}"
            );
            let old = (l1(&both) - l1(&wl)).abs();
            // (0.64–0.82 of it at these widths; 0.988 at the capped one)
            assert!(old < 0.99 * held, "{kind}: old {old} vs held {held}");
            assert_eq!(ramp.lambda0.to_bits(), (l1(&wl) / held).to_bits(), "{kind}");
        }
    }

    #[test]
    fn trajectory_is_recorded_per_iteration() {
        let c = synth::generate(&synth::smoke_spec());
        let (r, recs) = place_traced(&c, smoke_config(ModelKind::Wa));
        assert_eq!(recs.len(), r.iterations);
        // λ increases monotonically per Eq. (15)
        for w in recs.windows(2) {
            assert!(w[1].lambda >= w[0].lambda);
        }
    }

    #[test]
    fn termination_reports_cap_and_convergence() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 5;
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::IterationCap);
        assert!(!r.termination.is_partial());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.target_overflow = 0.25; // generous: reached well inside the cap
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::Converged);
    }

    #[test]
    fn trace_sink_gets_one_record_per_iteration() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 30;
        let (r, recs) = place_traced(&c, cfg);
        assert_eq!(recs.len(), r.iterations, "one record per Nesterov step");
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.iter, i as u64);
            assert!(rec.objective.is_finite());
            assert!(rec.hpwl.is_finite() && rec.hpwl > 0.0);
            assert!(rec.overflow.is_finite() && rec.overflow >= 0.0);
            assert!(rec.lambda > 0.0);
            assert!(rec.smoothing > 0.0, "Moreau t-schedule is positive");
            assert!(rec.step > 0.0);
            assert!(rec.grad_norm >= 0.0);
            assert!(rec.guard.is_none(), "clean run has no guard verdicts");
            assert!(rec.elapsed_secs >= 0.0);
        }
    }

    #[test]
    fn trace_records_guard_verdicts_on_faults() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 40;
        cfg.fault_injection = Some((10, 2));
        let (_, recs) = place_traced(&c, cfg);
        let faults: Vec<&IterationRecord> = recs.iter().filter(|r| r.guard.is_some()).collect();
        assert!(
            !faults.is_empty(),
            "injected NaNs must show up in the trace"
        );
        for rec in faults {
            let verdict = rec.guard.as_deref().unwrap();
            assert!(verdict.contains("->"), "verdict {verdict:?}");
        }
    }

    #[test]
    fn recovered_run_is_bitwise_the_uncached_one() {
        // rollback + backoff restart the optimizer from a restored point
        // under a restored λ: the restart's opening `reeval` must not
        // recombine terms held at the abandoned trajectory's last trial
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 60;
        cfg.fault_injection = Some((10, 2));
        let reusing = place(&c, &cfg).unwrap();
        let uncached = {
            let _oracle = crate::objective::oracle::NoReuse::new();
            place(&c, &cfg).unwrap()
        };
        assert!(
            !reusing.recovery.is_empty(),
            "the fault must trip the guard"
        );
        // (the log holds the NaN it caught, so compare its rendering)
        assert_eq!(reusing.recovery.to_string(), uncached.recovery.to_string());
        assert_eq!(reusing.iterations, uncached.iterations);
        assert_eq!(uncached.engine_stats.reused, 0);
        assert!(reusing.engine_stats.reused > 0);
        assert_eq!(bits(&reusing.placement), bits(&uncached.placement));
        assert_eq!(reusing.overflow.to_bits(), uncached.overflow.to_bits());
    }

    #[test]
    fn cancelled_token_returns_a_partial_result() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        let token = crate::cancel::CancelToken::new();
        cfg.cancel = token.clone();
        token.cancel();
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::Cancelled);
        assert!(r.termination.is_partial());
        assert_eq!(r.iterations, 1, "token is polled after the first step");
        assert!(r.hpwl.is_finite());
    }

    #[test]
    fn wall_clock_budget_returns_a_partial_result() {
        let c = synth::generate(&synth::smoke_spec());
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.cancel = crate::cancel::CancelToken::with_deadline_in(std::time::Duration::ZERO);
        let r = place(&c, &cfg).unwrap();
        assert_eq!(r.termination, Termination::WallClock);
        assert!(r.termination.is_partial());
        assert_eq!(r.iterations, 1, "deadline expires after the first step");
        assert!(r.hpwl.is_finite());
    }
}
