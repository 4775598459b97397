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

/// The BiG_CHKS value of one net along one axis at smoothing `γ`: a left
/// fold of [`chks_max`]/[`chks_min`] over the pins, with the gradient
/// written into `grad` by reverse-mode accumulation through the fold.
/// `fwd_max` / `fwd_min` are scratch for the forward prefix values
/// (`fwd_max[i]` folds pins `0..=i`).
///
/// # Panics
///
/// Panics if `x` is empty or `grad.len() != x.len()`.
pub(crate) fn eval_axis(
    x: &[f64],
    g: f64,
    grad: &mut [f64],
    fwd_max: &mut Vec<f64>,
    fwd_min: &mut Vec<f64>,
) -> f64 {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert_eq!(x.len(), grad.len());
    let n = x.len();
    if n == 1 {
        grad[0] = 0.0;
        return 0.0;
    }
    fwd_max.resize(n, 0.0);
    fwd_min.resize(n, 0.0);
    // forward folds
    fwd_max[0] = x[0];
    fwd_min[0] = x[0];
    for i in 1..n {
        fwd_max[i] = chks_max(fwd_max[i - 1], x[i], g);
        fwd_min[i] = chks_min(fwd_min[i - 1], x[i], g);
    }
    // reverse accumulation: seed = dV/d(fold result) = ±1
    let mut acc_max = 1.0; // d smax / d fwd_max[i]
    let mut acc_min = 1.0;
    grad.fill(0.0);
    for i in (1..n).rev() {
        let (da, db) = chks_max_partials(fwd_max[i - 1], x[i], g);
        grad[i] += acc_max * db;
        acc_max *= da;
        // chks_min partials mirror chks_max with the sign of d flipped:
        // ∂min/∂a = 0.5(1 − (a−b)/r), ∂min/∂b = 0.5(1 + (a−b)/r)
        let (pa, pb) = chks_max_partials(fwd_min[i - 1], x[i], g);
        let (da_min, db_min) = (pb, pa);
        grad[i] -= acc_min * db_min;
        acc_min *= da_min;
    }
    grad[0] += acc_max - acc_min;
    fwd_max[n - 1] - fwd_min[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{value, ModelKind};

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
        let v = value(ModelKind::BigChks, g, &x);
        // each fold adds ≤ γ error per side
        assert!(v >= span(&x));
        assert!(v <= span(&x) + 2.0 * g * (x.len() - 1) as f64);
    }

    #[test]
    fn converges_to_hpwl() {
        let x = [0.0, 50.0, 200.0];
        assert!((value(ModelKind::BigChks, 0.05, &x) - 200.0).abs() < 0.5);
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.0, 2.5, 5.0, 4.9, -1.0];
        let g = 1.2;
        let mut grad = vec![0.0; x.len()];
        ModelKind::BigChks.instantiate(g).eval_axis(&x, &mut grad);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd =
                (value(ModelKind::BigChks, g, &xp) - value(ModelKind::BigChks, g, &xm)) / (2.0 * h);
            assert!((fd - grad[i]).abs() < 1e-6, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        let x = [3.0, -1.0, 12.0, 0.5, 7.7];
        let mut m = ModelKind::BigChks.instantiate(0.8);
        let mut grad = vec![0.0; x.len()];
        m.eval_axis(&x, &mut grad);
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn no_overflow_at_huge_coordinates() {
        // the BiG selling point: no exponentials anywhere
        let x = [0.0, 1e12];
        let mut m = ModelKind::BigChks.instantiate(1.0);
        let mut grad = [0.0; 2];
        let v = m.eval_axis(&x, &mut grad);
        assert!(v.is_finite());
        assert!((v - 1e12).abs() < 1.0);
    }

    #[test]
    fn single_pin_net() {
        let mut m = ModelKind::BigChks.instantiate(1.0);
        let mut g = [0.0];
        assert_eq!(m.eval_axis(&[4.0], &mut g), 0.0);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn two_pin_gradient_is_symmetric() {
        let mut m = ModelKind::BigChks.instantiate(0.5);
        let mut g = [0.0; 2];
        m.eval_axis(&[0.0, 10.0], &mut g);
        assert!((g[0] + g[1]).abs() < 1e-12);
        assert!(g[1] > 0.9 && g[0] < -0.9);
    }
}
