//! The first-order optimizer of the analytical placement loop.
//!
//! The paper's flow uses ePlace's Nesterov method with Lipschitz steplength
//! prediction ([`nesterov::Nesterov`]), the only optimizer the placer runs.
//!
//! It optimizes a [`problem::Problem`]: a flat parameter vector
//! with value + gradient, an optional re-evaluation at the last evaluated
//! point (the placer recombines its held terms there), plus an optional
//! projection (the placer clamps cells into the die there).
//!
//! # Example
//!
//! ```
//! use mep_optim::nesterov::Nesterov;
//! use mep_optim::Problem;
//!
//! /// `½ (x₀² + 4 x₁²)`
//! struct Quadratic;
//!
//! impl Problem for Quadratic {
//!     fn dim(&self) -> usize {
//!         2
//!     }
//!
//!     fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
//!         grad[0] = x[0];
//!         grad[1] = 4.0 * x[1];
//!         0.5 * (x[0] * x[0] + 4.0 * x[1] * x[1])
//!     }
//! }
//!
//! let mut problem = Quadratic;
//! let mut x = vec![1.0, 1.0];
//! let mut opt = Nesterov::new(0.01);
//! for _ in 0..100 {
//!     opt.step(&mut problem, &mut x);
//! }
//! assert!(x.iter().all(|v| v.abs() < 1e-3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels index several parallel arrays with one counter; the
// iterator rewrites clippy suggests obscure those loops.
#![allow(clippy::needless_range_loop)]

pub mod nesterov;
pub mod problem;

pub use problem::Problem;

/// Per-iteration optimizer telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Objective value at the reference point `v_k` the step's gradient was
    /// taken at, under the problem's weights when the step began (after a
    /// running step, the accepted trial's terms under those weights: see
    /// [`Problem::reeval`]).
    pub value: f64,
    /// Euclidean norm of that gradient.
    pub grad_norm: f64,
    /// Steplength actually used.
    pub step: f64,
    /// Trial points evaluated: 1, plus one per backtracking retry.
    pub trials: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nesterov::Nesterov;
    use crate::problem::testfns::Quadratic;

    #[test]
    fn nesterov_descends_a_quadratic() {
        let mut p = Quadratic {
            diag: vec![1.0, 3.0],
        };
        let mut x = vec![2.0, -2.0];
        let mut opt = Nesterov::new(0.01);
        let first = opt.step(&mut p, &mut x).value;
        let mut last = first;
        for _ in 0..500 {
            last = opt.step(&mut p, &mut x).value;
        }
        assert!(last < 0.05 * first, "{first} → {last}");
    }

    /// What the placer's guard does on a NaN: restore the last good point,
    /// `backoff`, carry on. The poisoned evaluation must leave nothing behind
    /// in the optimizer's state.
    #[test]
    fn nesterov_descends_again_after_backoff_from_a_poisoned_step() {
        struct PoisonedOnce {
            inner: Quadratic,
            evals_until_nan: usize,
        }
        impl Problem for PoisonedOnce {
            fn dim(&self) -> usize {
                self.inner.dim()
            }
            fn eval(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
                let f = self.inner.eval(x, grad);
                self.evals_until_nan = self.evals_until_nan.wrapping_sub(1);
                if self.evals_until_nan == 0 {
                    grad.fill(f64::NAN);
                    return f64::NAN;
                }
                f
            }
        }
        let mut p = PoisonedOnce {
            inner: Quadratic {
                diag: vec![1.0, 3.0],
            },
            evals_until_nan: 7,
        };
        let mut x = vec![2.0, -2.0];
        let mut opt = Nesterov::new(0.01);
        let first = opt.step(&mut p, &mut x).value;
        let mut good = x.clone();
        let mut poisoned = false;
        let mut last = first;
        for _ in 0..500 {
            let report = opt.step(&mut p, &mut x);
            if report.value.is_finite() && x.iter().all(|v| v.is_finite()) {
                good.copy_from_slice(&x);
                last = report.value;
            } else {
                poisoned = true;
                x.copy_from_slice(&good);
                opt.backoff(0.5);
            }
        }
        assert!(poisoned, "the NaN never reached a step report");
        assert!(last < 0.05 * first, "{first} → {last}");
    }
}
