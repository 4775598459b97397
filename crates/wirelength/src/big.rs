//! The bivariate-gradient (BiG) wirelength model \[21\] with the CHKS
//! smoothing function \[36\].
//!
//! BiG avoids exponentials entirely: the net maximum is smoothed by folding
//! a *bivariate* smooth-max over the pins (recursive function smoothing,
//! Li–Koh \[22\]), and gradients are obtained by backpropagating through the
//! fold. We use the Chen–Harker–Kanzow–Smale function,
//!
//! ```text
//! chks_max(a, b; γ) = (a + b + √((a−b)² + 4γ²)) / 2 ,
//! ```
//!
//! which the paper also adopts for its re-implementation ("BiG_CHKS").
//! `chks_max(a,b) ≥ max(a,b)` with error at most `γ` per application, no
//! overflow risk, and cheap `sqrt`-only arithmetic — the model's selling
//! points (§I).

use crate::model::NetModel;

/// CHKS smooth maximum of two scalars. Overestimates by at most `γ`.
#[inline]
pub fn chks_max(a: f64, b: f64, gamma: f64) -> f64 {
    0.5 * (a + b + ((a - b) * (a - b) + 4.0 * gamma * gamma).sqrt())
}

/// CHKS smooth minimum of two scalars. Underestimates by at most `γ`.
#[inline]
pub fn chks_min(a: f64, b: f64, gamma: f64) -> f64 {
    0.5 * (a + b - ((a - b) * (a - b) + 4.0 * gamma * gamma).sqrt())
}

/// Partial derivatives `(∂/∂a, ∂/∂b)` of [`chks_max`]. They sum to 1.
#[inline]
pub fn chks_max_partials(a: f64, b: f64, gamma: f64) -> (f64, f64) {
    let r = ((a - b) * (a - b) + 4.0 * gamma * gamma).sqrt();
    let d = (a - b) / r;
    (0.5 * (1.0 + d), 0.5 * (1.0 - d))
}

/// The BiG_CHKS net model: a left fold of [`chks_max`]/[`chks_min`] over
/// the pins, with gradients via reverse-mode accumulation through the fold.
#[derive(Debug, Clone)]
pub struct BigChks {
    gamma: f64,
    /// forward prefix values of the smooth-max fold (`fwd_max[i]` folds pins `0..=i`)
    fwd_max: Vec<f64>,
    fwd_min: Vec<f64>,
}

impl BigChks {
    /// Creates the model with smoothing parameter `γ`.
    ///
    /// # Panics
    ///
    /// Panics if `γ ≤ 0`.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0,
            "smoothing parameter must be positive, got {gamma}"
        );
        Self {
            gamma,
            fwd_max: Vec::new(),
            fwd_min: Vec::new(),
        }
    }
}

impl NetModel for BigChks {
    fn name(&self) -> &'static str {
        "BiG_CHKS"
    }

    fn smoothing(&self) -> f64 {
        self.gamma
    }

    fn set_smoothing(&mut self, s: f64) {
        assert!(s > 0.0, "smoothing parameter must be positive, got {s}");
        self.gamma = s;
    }

    fn eval_axis(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        assert!(!x.is_empty(), "net must have at least one pin");
        assert_eq!(x.len(), grad.len());
        let n = x.len();
        let g = self.gamma;
        if n == 1 {
            grad[0] = 0.0;
            return 0.0;
        }
        self.fwd_max.resize(n, 0.0);
        self.fwd_min.resize(n, 0.0);
        // forward folds
        self.fwd_max[0] = x[0];
        self.fwd_min[0] = x[0];
        for i in 1..n {
            self.fwd_max[i] = chks_max(self.fwd_max[i - 1], x[i], g);
            self.fwd_min[i] = chks_min(self.fwd_min[i - 1], x[i], g);
        }
        // reverse accumulation: seed = dV/d(fold result) = ±1
        let mut acc_max = 1.0; // d smax / d fwd_max[i]
        let mut acc_min = 1.0;
        grad.fill(0.0);
        for i in (1..n).rev() {
            let (da, db) = chks_max_partials(self.fwd_max[i - 1], x[i], g);
            grad[i] += acc_max * db;
            acc_max *= da;
            // chks_min partials mirror chks_max with the sign of d flipped:
            // ∂min/∂a = 0.5(1 − (a−b)/r), ∂min/∂b = 0.5(1 + (a−b)/r)
            let (pa, pb) = chks_max_partials(self.fwd_min[i - 1], x[i], g);
            let (da_min, db_min) = (pb, pa);
            grad[i] -= acc_min * db_min;
            acc_min *= da_min;
        }
        grad[0] += acc_max - acc_min;
        self.fwd_max[n - 1] - self.fwd_min[n - 1]
    }

    fn value_axis(&mut self, x: &[f64]) -> f64 {
        assert!(!x.is_empty(), "net must have at least one pin");
        let g = self.gamma;
        let mut mx = x[0];
        let mut mn = x[0];
        for &xi in &x[1..] {
            mx = chks_max(mx, xi, g);
            mn = chks_min(mn, xi, g);
        }
        mx - mn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(x: &[f64]) -> f64 {
        x.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - x.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn chks_bounds_pairwise_max() {
        for &(a, b) in &[(0.0, 1.0), (-5.0, 3.0), (2.0, 2.0), (100.0, -100.0)] {
            for &g in &[0.1, 1.0, 10.0] {
                let s = chks_max(a, b, g);
                assert!(s >= a.max(b));
                assert!(s <= a.max(b) + g);
                let m = chks_min(a, b, g);
                assert!(m <= a.min(b));
                assert!(m >= a.min(b) - g);
                // identity: chks_max + chks_min = a + b
                assert!((s + m - (a + b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn partials_sum_to_one() {
        let (da, db) = chks_max_partials(3.0, -1.0, 0.5);
        assert!((da + db - 1.0).abs() < 1e-12);
        assert!(da > db); // larger argument dominates
    }

    #[test]
    fn value_overestimates_span_boundedly() {
        let x = [0.0, 30.0, 70.0, 100.0];
        let g = 2.0;
        let mut m = BigChks::new(g);
        let v = m.value_axis(&x);
        // each fold adds ≤ γ error per side
        assert!(v >= span(&x));
        assert!(v <= span(&x) + 2.0 * g * (x.len() - 1) as f64);
    }

    #[test]
    fn converges_to_hpwl() {
        let x = [0.0, 50.0, 200.0];
        let mut m = BigChks::new(0.05);
        assert!((m.value_axis(&x) - 200.0).abs() < 0.5);
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.0, 2.5, 5.0, 4.9, -1.0];
        let g = 1.2;
        let mut m = BigChks::new(g);
        let mut grad = vec![0.0; x.len()];
        let v0 = m.eval_axis(&x, &mut grad);
        assert!((v0 - m.value_axis(&x)).abs() < 1e-12);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (m.value_axis(&xp) - m.value_axis(&xm)) / (2.0 * h);
            assert!((fd - grad[i]).abs() < 1e-6, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        let x = [3.0, -1.0, 12.0, 0.5, 7.7];
        let mut m = BigChks::new(0.8);
        let mut grad = vec![0.0; x.len()];
        m.eval_axis(&x, &mut grad);
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn no_overflow_at_huge_coordinates() {
        // the BiG selling point: no exponentials anywhere
        let x = [0.0, 1e12];
        let mut m = BigChks::new(1.0);
        let mut grad = [0.0; 2];
        let v = m.eval_axis(&x, &mut grad);
        assert!(v.is_finite());
        assert!((v - 1e12).abs() < 1.0);
    }

    #[test]
    fn single_pin_net() {
        let mut m = BigChks::new(1.0);
        let mut g = [0.0];
        assert_eq!(m.eval_axis(&[4.0], &mut g), 0.0);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn two_pin_gradient_is_symmetric() {
        let mut m = BigChks::new(0.5);
        let mut g = [0.0; 2];
        m.eval_axis(&[0.0, 10.0], &mut g);
        assert!((g[0] + g[1]).abs() < 1e-12);
        assert!(g[1] > 0.9 && g[0] < -0.9);
    }
}
