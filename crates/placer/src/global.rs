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
use crate::objective::{EvalStats, PlacementProblem};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::Placement;
use mep_obs::{IterationRecord, NoopSink, TraceSink};
use mep_optim::nesterov::Nesterov;
use mep_optim::Problem;
use mep_wirelength::engine::{EngineStats, EvalEngine};
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
    /// Evaluation-engine instrumentation (stage counts and times, reuses,
    /// net routes).
    pub engine_stats: EngineStats,
    /// Every recovery the guard performed (empty on a clean run).
    pub recovery: RecoveryLog,
    /// Why the loop stopped.
    pub termination: Termination,
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

/// Runs ePlace-style global placement on a circuit, with an evaluation
/// engine of its own for the run.
pub fn place(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
) -> Result<GlobalResult, PlacerError> {
    place_with_engine(circuit, config, Arc::default())
}

/// Runs global placement on a caller-provided engine (so a pipeline can
/// aggregate the instrumentation of its stages).
pub fn place_with_engine(
    circuit: &BookshelfCircuit,
    config: &GlobalConfig,
    engine: Arc<EvalEngine>,
) -> Result<GlobalResult, PlacerError> {
    validate_circuit(circuit)?;
    // lint:allow(determinism): elapsed_secs of the trace records only; durations never feed back into results
    let start = Instant::now();
    let design = &circuit.design;
    let model = config.model.instantiate(1.0);
    let mut problem = PlacementProblem::new(design, &circuit.placement, model, engine.clone());
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

    // λ0 per ePlace: ratio of gradient norms (wirelength vs density)
    let mut grad = vec![0.0; problem.dim()];
    problem.eval(&params, &mut grad);
    let wl_norm: f64 = grad.iter().map(|g| g.abs()).sum();
    problem.lambda = 1.0;
    problem.reeval(&params, &mut grad);
    let both_norm: f64 = grad.iter().map(|g| g.abs()).sum();
    let density_norm = (both_norm - wl_norm).abs().max(1e-30);
    let lambda0 = (wl_norm / density_norm).max(1e-12) * config.lambda_scale.max(1e-6);
    if !lambda0.is_finite() {
        return Err(PlacerError::NumericalFailure {
            iteration: 0,
            detail: format!(
                "λ₀ bootstrap produced a non-finite weight \
                 (|∇W| {wl_norm}, |∇W + ∇D| {both_norm})"
            ),
        });
    }
    schedule.start_ramp(lambda0);
    schedule.apply(&mut problem);

    // initial steplength: first move ~ a couple of bins against ∇f
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
    let overflow = problem.density_report(&params).overflow;
    Ok(GlobalResult {
        placement,
        hpwl,
        overflow,
        iterations,
        trials,
        engine_stats: engine.stats(),
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
    /// [`Schedule`] advance per step. Returns the log of every evaluation
    /// and the final placement.
    fn drive_nesterov(
        c: &BookshelfCircuit,
        engine: Arc<EvalEngine>,
        uncached: bool,
        steps: usize,
    ) -> (Vec<u64>, Placement) {
        let cfg = GlobalConfig::default();
        let model = cfg.model.instantiate(1.0);
        let mut p = PlacementProblem::new(&c.design, &c.placement, model, engine);
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
        // λ₀ bootstrap: two probes at one point, λ = 0 then λ = 1
        let mut grad = vec![0.0; x.len()];
        logged.eval(&x, &mut grad);
        let wl_norm: f64 = grad.iter().map(|g| g.abs()).sum();
        logged.inner.lambda = 1.0;
        logged.reeval(&x, &mut grad);
        let both_norm: f64 = grad.iter().map(|g| g.abs()).sum();
        schedule.start_ramp(wl_norm / (both_norm - wl_norm).abs().max(1e-30));
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
        (log, placement)
    }

    fn bits(p: &Placement) -> Vec<u64> {
        p.x.iter().chain(&p.y).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn nesterov_trajectory_is_bitwise_the_uncached_one() {
        let c = synth::generate(&synth::smoke_spec());
        const STEPS: usize = 64;
        let (reusing, uncached) = (Arc::<EvalEngine>::default(), Arc::default());
        let (log, x) = drive_nesterov(&c, Arc::clone(&reusing), false, STEPS);
        let (want_log, want_x) = drive_nesterov(&c, Arc::clone(&uncached), true, STEPS);
        assert!(log == want_log, "an evaluation differs");
        assert_eq!(bits(&x), bits(&want_x));

        let (s, o) = (reusing.stats(), uncached.stats());
        assert_eq!(o.reused, 0);
        assert_eq!(o.density.count, o.wl_grad.count);
        assert_eq!(s.density.count, s.wl_grad.count);
        assert_eq!(s.wl_grad.count + s.reused, o.wl_grad.count);
        // the second λ₀ probe and every step reopen on the point evaluated
        // last (the first step on the probes' point)
        assert_eq!(s.reused, STEPS as u64 + 1);
    }

    #[test]
    fn clean_place_is_bitwise_the_unguarded_harness() {
        // the guard, the trace-off path and the cancel poll only observe:
        // with the convergence stop out of reach, `place` is the bare
        // Nesterov + schedule loop to the bit
        let c = synth::generate(&synth::smoke_spec());
        const STEPS: usize = 120;
        let engine = Arc::<EvalEngine>::default();
        let (_, want) = drive_nesterov(&c, Arc::clone(&engine), false, STEPS);
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
        assert_eq!(r.engine_stats.wl_grad.count, engine.stats().wl_grad.count);
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
        let mut cfg = smoke_config(ModelKind::Moreau);
        cfg.max_iters = 40;
        let r = place(&c, &cfg).unwrap();
        let s = r.engine_stats;
        // one evaluation of both terms per trial, plus the first λ0 probe
        assert_eq!(
            (s.wl_grad.count, s.density.count),
            (r.trials as u64 + 1, r.trials as u64 + 1),
            "{s:?}, {} trials",
            r.trials
        );
        assert!(r.trials >= r.iterations, "{s:?}");
        // the second λ0 probe and every step's opening reuse both
        assert_eq!(s.reused, r.iterations as u64 + 1, "{s:?}");
        assert_eq!(s.workspace_allocs, 1, "workspace built once, then reused");
        assert!(s.wl_grad.nanos > 0 && s.density.nanos > 0);
        // four 2-D transforms per Poisson solve: one per executed density
        // stage, plus the opening `density_report` (the closing one runs
        // after the last sync into the engine)
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
