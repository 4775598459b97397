//! Nesterov's accelerated method with Lipschitz steplength prediction —
//! the ePlace \[18\] optimizer used by DREAMPlace and by the paper.
//!
//! Per major iteration, with reference point `v_k` and solution `u_k`:
//!
//! ```text
//! α_k      = ‖v_k − v_{k−1}‖ / ‖∇f(v_k) − ∇f(v_{k−1})‖   (inverse Lipschitz)
//! u_{k+1}  = v_k − α_k ∇f(v_k)
//! a_{k+1}  = (1 + √(4a_k² + 1)) / 2
//! v_{k+1}  = u_{k+1} + (a_k − 1)(u_{k+1} − u_k) / a_{k+1}
//! ```
//!
//! with ePlace's backtracking: after forming `v_{k+1}`, the predicted
//! steplength at the new point is checked; if it is smaller than the one
//! used, the step is redone with the smaller value (bounded retries).
//!
//! The accepted trial `v_{k+1}` is the next step's reference point, and
//! its evaluation is the last one the step made. So every step but the
//! first after a (re)start opens with [`Problem::reeval`], not
//! [`Problem::eval`]: an iteration costs one evaluation per trial, usually
//! one. The caller may change the problem's weights between steps; the
//! reference gradient is then the accepted trial's terms under the new
//! weights.

use crate::problem::{distance, norm, Problem};
use crate::StepReport;

/// Maximum backtracking retries per iteration (ePlace uses a small cap).
const MAX_BACKTRACK: usize = 2;

/// Nesterov optimizer with ePlace steplength prediction.
#[derive(Debug, Clone)]
pub struct Nesterov {
    /// Initial steplength used before any curvature information exists.
    initial_step: f64,
    a: f64,
    // state vectors (empty until the first step)
    u: Vec<f64>,
    v: Vec<f64>,
    v_prev: Vec<f64>,
    g: Vec<f64>,
    g_prev: Vec<f64>,
    u_new: Vec<f64>,
    v_new: Vec<f64>,
    g_new: Vec<f64>,
    step: f64,
    initialized: bool,
}

impl Nesterov {
    /// Creates the optimizer; `initial_step` sets the very first move's
    /// scale (the placer passes a fraction of the bin size).
    pub fn new(initial_step: f64) -> Self {
        Self {
            initial_step,
            a: 1.0,
            u: Vec::new(),
            v: Vec::new(),
            v_prev: Vec::new(),
            g: Vec::new(),
            g_prev: Vec::new(),
            u_new: Vec::new(),
            v_new: Vec::new(),
            g_new: Vec::new(),
            step: 0.0,
            initialized: false,
        }
    }

    /// (Re)starts from `x` unless running; returns whether it did.
    fn ensure_init(&mut self, problem: &mut dyn Problem, x: &[f64]) -> bool {
        if self.initialized {
            return false;
        }
        let n = problem.dim();
        self.u = x.to_vec();
        self.v = x.to_vec();
        self.v_prev = x.to_vec();
        self.g = vec![0.0; n];
        self.g_prev = vec![0.0; n];
        self.u_new = vec![0.0; n];
        self.v_new = vec![0.0; n];
        self.g_new = vec![0.0; n];
        self.step = self.initial_step;
        self.a = 1.0;
        self.initialized = true;
        true
    }

    /// Shrinks the working steplength by `factor` after a recovery rollback
    /// (a tripped numerical guard in the caller).
    pub fn backoff(&mut self, factor: f64) {
        // Restart from the caller's (restored) iterate with a shrunken
        // initial steplength: momentum and the Lipschitz history were built
        // on the abandoned trajectory and must not leak into the retry.
        let base = if self.step > 0.0 && self.step.is_finite() {
            self.step
        } else {
            self.initial_step
        };
        self.initial_step = (base * factor).max(f64::MIN_POSITIVE);
        self.initialized = false;
    }

    /// Performs one major iteration, updating `x` in place.
    pub fn step(&mut self, problem: &mut dyn Problem, x: &mut [f64]) -> StepReport {
        // a running optimizer's `v` is the trial its last step accepted,
        // the point of the problem's last evaluation
        let value = if self.ensure_init(problem, x) {
            problem.eval(&self.v, &mut self.g)
        } else {
            problem.reeval(&self.v, &mut self.g)
        };

        // steplength prediction from the last two reference gradients
        let mut alpha = {
            let dg = distance(&self.g, &self.g_prev);
            let dv = distance(&self.v, &self.v_prev);
            if dg > 1e-30 && dv > 0.0 {
                dv / dg
            } else {
                self.step.max(self.initial_step)
            }
        };

        let a_next = 0.5 * (1.0 + (4.0 * self.a * self.a + 1.0).sqrt());
        let coef = (self.a - 1.0) / a_next;

        // bounded retries: the last trial is taken regardless
        let mut trials = 0;
        for _try in 0..=MAX_BACKTRACK {
            trials += 1;
            for ((u_new, &v), &g) in self.u_new.iter_mut().zip(&self.v).zip(&self.g) {
                *u_new = v - alpha * g;
            }
            problem.project(&mut self.u_new);
            for ((v_new, &u_new), &u) in self.v_new.iter_mut().zip(&self.u_new).zip(&self.u) {
                *v_new = u_new + coef * (u_new - u);
            }
            problem.project(&mut self.v_new);
            // backtracking check: predicted steplength at the new point
            problem.eval(&self.v_new, &mut self.g_new);
            let dg = distance(&self.g_new, &self.g);
            let dv = distance(&self.v_new, &self.v);
            let alpha_hat = if dg > 1e-30 { dv / dg } else { alpha };
            // lint:allow(float-eq): guards the division below; exactly zero is the only dangerous value
            if alpha_hat >= 0.95 * alpha || dv == 0.0 {
                break;
            }
            alpha = alpha_hat;
        }

        let grad_norm = norm(&self.g);
        // commit by swapping: what lands in `g`, `u_new` and `v_new` is
        // stale, and each is overwritten in full (`g` by the next step's
        // opening evaluation, the other two by its first trial) before it
        // is read again
        std::mem::swap(&mut self.v_prev, &mut self.v);
        std::mem::swap(&mut self.g_prev, &mut self.g);
        std::mem::swap(&mut self.u, &mut self.u_new);
        std::mem::swap(&mut self.v, &mut self.v_new);
        self.a = a_next;
        self.step = alpha;
        x.copy_from_slice(&self.u);

        StepReport {
            value,
            grad_norm,
            step: alpha,
            trials,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testfns::{Quadratic, Rosenbrock};

    #[test]
    fn minimizes_quadratic_fast() {
        let mut p = Quadratic {
            diag: vec![1.0, 10.0, 100.0],
        };
        let mut x = vec![1.0, 1.0, 1.0];
        let mut opt = Nesterov::new(0.001);
        for _ in 0..400 {
            opt.step(&mut p, &mut x);
        }
        let mut g = vec![0.0; 3];
        let f = p.eval(&x, &mut g);
        assert!(f < 1e-5, "f = {f}, x = {x:?}");
    }

    #[test]
    fn makes_progress_on_rosenbrock() {
        let mut p = Rosenbrock;
        let mut x = vec![-1.2, 1.0];
        let mut g = vec![0.0; 2];
        let f0 = p.eval(&x, &mut g);
        let mut opt = Nesterov::new(1e-4);
        for _ in 0..500 {
            opt.step(&mut p, &mut x);
        }
        let f1 = p.eval(&x, &mut g);
        assert!(f1 < 0.05 * f0, "f0 = {f0}, f1 = {f1}");
    }

    #[test]
    fn respects_projection() {
        struct Boxed(Quadratic);
        impl Problem for Boxed {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn eval(&mut self, x: &[f64], g: &mut [f64]) -> f64 {
                self.0.eval(x, g)
            }
            fn project(&self, x: &mut [f64]) {
                for v in x.iter_mut() {
                    *v = v.clamp(0.5, 10.0);
                }
            }
        }
        let mut p = Boxed(Quadratic {
            diag: vec![1.0, 1.0],
        });
        let mut x = vec![5.0, 5.0];
        let mut opt = Nesterov::new(0.1);
        for _ in 0..100 {
            opt.step(&mut p, &mut x);
        }
        // unconstrained minimum is 0; projection pins it at 0.5
        for &v in &x {
            assert!((v - 0.5).abs() < 1e-9, "x = {x:?}");
        }
    }

    #[test]
    fn backoff_shrinks_steplength_and_restarts() {
        let mut p = Quadratic {
            diag: vec![1.0, 2.0],
        };
        let mut x = vec![1.0, 1.0];
        let mut opt = Nesterov::new(0.1);
        let before = opt.step(&mut p, &mut x).step;
        opt.backoff(0.5);
        let after = opt.step(&mut p, &mut x);
        assert!(after.value.is_finite());
        // the restarted first step uses the shrunken initial steplength
        assert!(
            after.step <= 0.5 * before + 1e-12,
            "step {} vs before {before}",
            after.step
        );
    }

    #[test]
    fn backoff_recovers_from_poisoned_state() {
        // even if the last predicted step was non-finite, backoff must leave
        // a usable positive steplength behind
        let mut opt = Nesterov::new(0.2);
        opt.step = f64::NAN;
        opt.initialized = true;
        opt.backoff(0.5);
        assert!(opt.initial_step > 0.0 && opt.initial_step.is_finite());
        assert!(!opt.initialized);
    }

    #[test]
    fn running_steps_reopen_on_the_last_evaluated_point() {
        struct Counted {
            inner: Quadratic,
            last: Vec<f64>,
            evals: usize,
            reevals: usize,
        }
        impl Problem for Counted {
            fn dim(&self) -> usize {
                self.inner.dim()
            }
            fn eval(&mut self, x: &[f64], g: &mut [f64]) -> f64 {
                self.evals += 1;
                self.last = x.to_vec();
                self.inner.eval(x, g)
            }
            fn reeval(&mut self, x: &[f64], g: &mut [f64]) -> f64 {
                self.reevals += 1;
                assert_eq!(x, self.last.as_slice());
                self.inner.eval(x, g)
            }
        }
        let mut p = Counted {
            inner: Quadratic {
                diag: vec![1.0, 30.0],
            },
            last: Vec::new(),
            evals: 0,
            reevals: 0,
        };
        let mut x = vec![1.0, 1.0];
        let mut opt = Nesterov::new(0.05);
        let trials: usize = (0..10).map(|_| opt.step(&mut p, &mut x).trials).sum();
        assert_eq!((p.evals, p.reevals), (1 + trials, 9));
        // a restart opens with a fresh evaluation
        opt.backoff(0.5);
        let restarted = opt.step(&mut p, &mut x).trials;
        assert_eq!((p.evals, p.reevals), (2 + trials + restarted, 9));
    }

    #[test]
    fn report_tracks_descent() {
        let mut p = Quadratic { diag: vec![1.0; 4] };
        let mut x = vec![2.0; 4];
        let mut opt = Nesterov::new(0.05);
        let mut prev = f64::INFINITY;
        for _ in 0..50 {
            let r = opt.step(&mut p, &mut x);
            assert!(r.value <= prev + 1e-9);
            prev = r.value;
        }
    }
}
