//! The weighted-average (WA) wirelength model \[16, 17\] (Eq. (3), right).
//!
//! `W_WA^γ(x) = Σ x_i e^{x_i/γ} / Σ e^{x_i/γ} − Σ x_i e^{−x_i/γ} / Σ e^{−x_i/γ}`.
//!
//! The exponentials are shifted by the max/min before evaluation (the shift
//! cancels in the ratios), so the model is numerically stable at placement
//! scale — unlike the textbook formula, see [`wa_naive`] and the paper's
//! §II-D.1. WA has a tighter error bound than LSE but is **not convex**
//! (Fig. 1(a)), which the tests below demonstrate.

/// Naive WA evaluation without exponent shifting — **overflows** for
/// `x_i/γ ≳ 710`. Public only to demonstrate §II-D.1; never used by the
/// placer.
pub fn wa_naive(x: &[f64], gamma: f64) -> f64 {
    let (mut sw, mut tw, mut sv, mut tv) = (0.0, 0.0, 0.0, 0.0);
    for &xi in x {
        let w = (xi / gamma).exp();
        let v = (-xi / gamma).exp();
        sw += w;
        tw += xi * w;
        sv += v;
        tv += xi * v;
    }
    tw / sw - tv / sv
}

/// Smooth max `f` and smooth min `g` of `x` at smoothing `g`, with their
/// normalized weights left in `w_hi` / `w_lo`.
fn forward(x: &[f64], g: f64, w_hi: &mut Vec<f64>, w_lo: &mut Vec<f64>) -> (f64, f64) {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let n = x.iter().cloned().fold(f64::INFINITY, f64::min);
    w_hi.resize(x.len(), 0.0);
    w_lo.resize(x.len(), 0.0);
    let (mut s_hi, mut t_hi, mut s_lo, mut t_lo) = (0.0, 0.0, 0.0, 0.0);
    for ((hi, lo), &xi) in w_hi.iter_mut().zip(w_lo.iter_mut()).zip(x) {
        let wh = ((xi - m) / g).exp();
        let wl = ((n - xi) / g).exp();
        *hi = wh;
        *lo = wl;
        s_hi += wh;
        t_hi += xi * wh;
        s_lo += wl;
        t_lo += xi * wl;
    }
    for (hi, lo) in w_hi.iter_mut().zip(w_lo.iter_mut()) {
        *hi /= s_hi;
        *lo /= s_lo;
    }
    (t_hi / s_hi, t_lo / s_lo)
}

/// The WA value of one net along one axis at smoothing `γ`, with its
/// gradient written into `grad`; `w_hi` and `w_lo` are scratch.
///
/// # Panics
///
/// Panics if `x` is empty or `grad.len() != x.len()`.
pub(crate) fn eval_axis(
    x: &[f64],
    gamma: f64,
    grad: &mut [f64],
    w_hi: &mut Vec<f64>,
    w_lo: &mut Vec<f64>,
) -> f64 {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert_eq!(x.len(), grad.len());
    let (f, gmin) = forward(x, gamma, w_hi, w_lo);
    // ∂f/∂x_k = w_k (1 + (x_k − f)/γ); ∂g/∂x_k = v_k (1 − (x_k − g)/γ)
    for (((gk, &xk), &wh), &wl) in grad.iter_mut().zip(x).zip(w_hi.iter()).zip(w_lo.iter()) {
        *gk = wh * (1.0 + (xk - f) / gamma) - wl * (1.0 - (xk - gmin) / gamma);
    }
    f - gmin
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
    fn wa_underestimates_span() {
        // smooth max ≤ max and smooth min ≥ min, so WA ≤ HPWL
        let x = [0.0, 40.0, 100.0];
        for &g in &[1.0, 10.0, 50.0] {
            assert!(value(ModelKind::Wa, g, &x) <= span(&x) + 1e-12);
        }
    }

    #[test]
    fn converges_to_hpwl() {
        let x = [0.0, 50.0, 200.0];
        assert!((value(ModelKind::Wa, 0.5, &x) - 200.0).abs() < 0.1);
    }

    #[test]
    fn mean_error_tighter_than_lse_at_same_gamma() {
        // the paper (§I, Fig. 1(b)) claims WA's error is lower than LSE's;
        // per-instance this is not universal, but it holds on average over
        // the Fig. 1(b) workload (random 4-pin nets, Δx = 200) at medium γ
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = 20.0;
        let (mut wa_err, mut lse_err) = (0.0, 0.0);
        for _ in 0..500 {
            let x = [
                0.0,
                rng.gen_range(0.0..200.0),
                rng.gen_range(0.0..200.0),
                200.0,
            ];
            wa_err += (value(ModelKind::Wa, g, &x) - 200.0).abs();
            lse_err += (value(ModelKind::Lse, g, &x) - 200.0).abs();
        }
        assert!(wa_err < lse_err, "wa {wa_err} vs lse {lse_err}");
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.0, 2.5, 5.0, 4.9, -1.0];
        let g = 1.7;
        let mut grad = vec![0.0; x.len()];
        ModelKind::Wa.instantiate(g).eval_axis(&x, &mut grad);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (value(ModelKind::Wa, g, &xp) - value(ModelKind::Wa, g, &xm)) / (2.0 * h);
            assert!((fd - grad[i]).abs() < 1e-6, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        // Corollary 2 of the paper
        let x = [3.0, -1.0, 12.0, 0.5];
        let mut m = ModelKind::Wa.instantiate(2.0);
        let mut grad = vec![0.0; x.len()];
        m.eval_axis(&x, &mut grad);
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn smooth_max_weights_sum_to_one() {
        // Theorem 5: the smooth-max part alone has gradient summing to 1
        let x = [0.0, 1.0, 5.0];
        let gamma = 1.1;
        let (mut w_hi, mut w_lo) = (Vec::new(), Vec::new());
        let (f, _) = forward(&x, gamma, &mut w_hi, &mut w_lo);
        let sum: f64 = (0..x.len())
            .map(|k| w_hi[k] * (1.0 + (x[k] - f) / gamma))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_limit_is_eq_17_subgradient() {
        // Theorem 3: γ → 0⁺ limit distributes over tied extremes
        let x = [0.0, 0.0, 3.0, 7.0, 7.0];
        let mut m = ModelKind::Wa.instantiate(1e-3);
        let mut grad = vec![0.0; x.len()];
        m.eval_axis(&x, &mut grad);
        let expect = [-0.5, -0.5, 0.0, 0.5, 0.5];
        for (g, e) in grad.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-6, "{grad:?}");
        }
    }

    #[test]
    fn non_convexity_on_three_pin_net() {
        // Fig. 1(a): fix endpoints 0 and 100, sweep the middle pin; the WA
        // curve must violate midpoint convexity somewhere
        let gamma = 10.0;
        let f = |x: f64| value(ModelKind::Wa, gamma, &[0.0, x, 100.0]);
        let mut violated = false;
        let steps = 200;
        for i in 1..steps {
            let a = (i - 1) as f64 / steps as f64 * 100.0;
            let b = (i + 1) as f64 / steps as f64 * 100.0;
            let mid = 0.5 * (a + b);
            if f(mid) > 0.5 * (f(a) + f(b)) + 1e-9 {
                violated = true;
                break;
            }
        }
        assert!(violated, "expected WA to be non-convex on a 3-pin net");
    }

    #[test]
    fn stable_at_placement_scale_coordinates() {
        let x = [0.0, 5000.0];
        let gamma = 1.0;
        assert!(wa_naive(&x, gamma).is_nan() || wa_naive(&x, gamma).is_infinite());
        let v = value(ModelKind::Wa, gamma, &x);
        assert!(v.is_finite());
        assert!((v - 5000.0).abs() < 1.0);
    }

    #[test]
    fn single_pin_net() {
        let mut m = ModelKind::Wa.instantiate(1.0);
        let mut g = [0.0];
        let v = m.eval_axis(&[3.0], &mut g);
        assert!(v.abs() < 1e-12);
        assert!(g[0].abs() < 1e-12);
    }
}
