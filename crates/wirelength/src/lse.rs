//! The log-sum-exp (LSE) wirelength model \[15\] (Eq. (3), left).
//!
//! `W_LSE^γ(x) = γ ln Σ e^{x_i/γ} + γ ln Σ e^{−x_i/γ}`, an upper bound on
//! the span that tightens as `γ → 0⁺`. The default implementation shifts
//! exponents by the max/min so it never overflows; [`lse_max_naive`] keeps
//! the textbook formula to *demonstrate* the overflow the paper's §II-D.1
//! warns about.

/// Stable smooth maximum `γ ln Σ e^{x_i/γ}` and its gradient weights.
///
/// Writes the softmax weights (which sum to 1) into `weights` and returns
/// the smooth max.
pub fn lse_max(x: &[f64], gamma: f64, weights: &mut [f64]) -> f64 {
    debug_assert_eq!(x.len(), weights.len());
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (w, &xi) in weights.iter_mut().zip(x) {
        let e = ((xi - m) / gamma).exp();
        *w = e;
        sum += e;
    }
    for w in weights.iter_mut() {
        *w /= sum;
    }
    m + gamma * sum.ln()
}

/// Naive smooth maximum without max-shifting — **overflows** for
/// `x_i/γ ≳ 710`. Kept public so the numerical-stability claim of the
/// paper's §II-D.1 can be demonstrated in tests and experiments; never use
/// it in the placer.
pub fn lse_max_naive(x: &[f64], gamma: f64) -> f64 {
    gamma * x.iter().map(|&xi| (xi / gamma).exp()).sum::<f64>().ln()
}

/// The LSE value of one net along one axis at smoothing `γ`, with its
/// gradient written into `grad`; `weights` is scratch.
///
/// # Panics
///
/// Panics if `x` is empty or `grad.len() != x.len()`.
pub(crate) fn eval_axis(x: &[f64], g: f64, grad: &mut [f64], weights: &mut Vec<f64>) -> f64 {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert_eq!(x.len(), grad.len());
    weights.resize(x.len(), 0.0);
    let vmax = lse_max(x, g, weights);
    grad.copy_from_slice(weights);
    // min part: −γ ln Σ e^{−x_i/γ}; reuse weights on negated input
    let neg: f64 = {
        let m = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut sum = 0.0;
        for (w, &xi) in weights.iter_mut().zip(x) {
            let e = ((m - xi) / g).exp();
            *w = e;
            sum += e;
        }
        for w in weights.iter_mut() {
            *w /= sum;
        }
        -m + g * sum.ln()
    };
    for (gi, w) in grad.iter_mut().zip(weights.iter()) {
        *gi -= w;
    }
    vmax + neg
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
    fn lse_upper_bounds_span() {
        let x = [0.0, 3.0, 10.0];
        for &g in &[0.1, 1.0, 10.0] {
            let v = value(ModelKind::Lse, g, &x);
            assert!(v >= span(&x) - 1e-12, "γ={g}: {v}");
        }
    }

    #[test]
    fn lse_error_bound_is_two_gamma_ln_n() {
        // γ ln Σ e^{x/γ} ≤ max + γ ln n per side
        let x = [0.0, 1.0, 2.0, 200.0];
        let g = 5.0;
        let v = value(ModelKind::Lse, g, &x);
        assert!(v - span(&x) <= 2.0 * g * (x.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn converges_to_hpwl() {
        let x = [0.0, 50.0, 200.0];
        assert!((value(ModelKind::Lse, 0.05, &x) - 200.0).abs() < 0.2);
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.0, 2.0, 5.0, 4.9];
        let g = 1.3;
        let mut grad = vec![0.0; x.len()];
        ModelKind::Lse.instantiate(g).eval_axis(&x, &mut grad);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (value(ModelKind::Lse, g, &xp) - value(ModelKind::Lse, g, &xm)) / (2.0 * h);
            assert!((fd - grad[i]).abs() < 1e-6, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        let x = [1.0, -4.0, 9.0, 2.0];
        let mut m = ModelKind::Lse.instantiate(0.7);
        let mut grad = vec![0.0; x.len()];
        m.eval_axis(&x, &mut grad);
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn stable_at_placement_scale_coordinates() {
        // §II-D.1: naive exp overflows, shifted version does not
        let x = [0.0, 5000.0];
        let gamma = 1.0;
        assert!(lse_max_naive(&x, gamma).is_infinite());
        let v = value(ModelKind::Lse, gamma, &x);
        assert!(v.is_finite());
        assert!((v - 5000.0).abs() < 1.0);
    }

    #[test]
    fn single_pin_net() {
        let mut m = ModelKind::Lse.instantiate(1.0);
        let mut g = [0.0];
        let v = m.eval_axis(&[7.0], &mut g);
        assert!(v.abs() < 1e-12);
        assert!(g[0].abs() < 1e-12);
    }

    #[test]
    fn lse_dominates_wa_error() {
        // LSE has a looser bound than WA at the same γ (paper §I):
        // here just check LSE ≥ exact while WA can undershoot; see wa.rs
        let x = [0.0, 100.0, 200.0];
        assert!(value(ModelKind::Lse, 20.0, &x) > span(&x));
    }
}
