//! Property-based tests for the wirelength models, checking the paper's
//! theorems on randomized nets.

use mep_wirelength::model::ModelKind;
use mep_wirelength::moreau;
use mep_wirelength::waterfill;
use proptest::prelude::*;

/// The Moreau envelope `W_e^t(x)` alone.
fn envelope(x: &[f64], t: f64) -> f64 {
    moreau::eval_with_gradient(x, t, &mut vec![0.0; x.len()]).envelope
}

/// A model's value alone, through a fresh model at smoothing `s`.
fn value(kind: ModelKind, s: f64, x: &[f64]) -> f64 {
    kind.instantiate(s).eval_axis(x, &mut vec![0.0; x.len()])
}

fn coords() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-500.0f64..500.0, 1..24)
}

fn coords_multi() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-500.0f64..500.0, 2..24)
}

fn smoothing() -> impl Strategy<Value = f64> {
    (0.01f64..50.0).prop_map(|t| t)
}

fn span(x: &[f64]) -> f64 {
    x.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - x.iter().cloned().fold(f64::INFINITY, f64::min)
}

proptest! {
    /// Water-filling (Algorithm 2) solves its defining equation exactly.
    #[test]
    fn waterfill_residuals_vanish(mut x in coords(), t in smoothing()) {
        x.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let tau1 = waterfill::solve_lower(&x, t);
        let tau2 = waterfill::solve_upper(&x, t);
        let scale = t.max(span(&x)).max(1.0);
        prop_assert!(waterfill::lower_residual(&x, tau1, t).abs() < 1e-9 * scale);
        prop_assert!(waterfill::upper_residual(&x, tau2, t).abs() < 1e-9 * scale);
    }

    /// Theorem 1: the prox either clamps into `[τ1, τ2]` (conserving `t` of
    /// water on each side) or collapses to the mean.
    #[test]
    fn prox_structure(x in coords(), t in smoothing()) {
        let mut u = vec![0.0; x.len()];
        let eval = moreau::prox(&x, t, &mut u);
        if eval.collapsed {
            let mean = x.iter().sum::<f64>() / x.len() as f64;
            for &ui in &u {
                prop_assert!((ui - mean).abs() < 1e-9);
            }
        } else {
            prop_assert!(eval.tau1 <= eval.tau2 + 1e-12);
            for (&ui, &xi) in u.iter().zip(&x) {
                prop_assert!((ui - xi.clamp(eval.tau1, eval.tau2)).abs() < 1e-9);
            }
            let moved_up: f64 = x.iter().map(|&xi| (xi - eval.tau2).max(0.0)).sum();
            let moved_dn: f64 = x.iter().map(|&xi| (eval.tau1 - xi).max(0.0)).sum();
            let scale = t.max(1.0);
            prop_assert!((moved_up - t).abs() < 1e-9 * scale);
            prop_assert!((moved_dn - t).abs() < 1e-9 * scale);
        }
    }

    /// The envelope theorem (Eq. (5)): `∇W^t = (x − prox)/t`.
    #[test]
    fn gradient_is_scaled_prox_residual(x in coords(), t in smoothing()) {
        let mut g = vec![0.0; x.len()];
        let mut u = vec![0.0; x.len()];
        moreau::eval_with_gradient(&x, t, &mut g);
        moreau::prox(&x, t, &mut u);
        for i in 0..x.len() {
            prop_assert!((g[i] - (x[i] - u[i]) / t).abs() < 1e-9);
        }
    }

    /// Theorem 2: `−t/2 (1/n_max + 1/n_min) ≤ W^t − W ≤ 0`. With random
    /// reals the extremes are unique, so the bound is `−t`.
    #[test]
    fn envelope_bound(x in coords(), t in smoothing()) {
        let e = envelope(&x, t);
        let w = span(&x);
        prop_assert!(e <= w + 1e-9);
        prop_assert!(e >= w - t - 1e-9);
    }

    /// Corollary 3 (and Corollary 2, and the analogous facts for LSE and
    /// BiG): gradient components sum to zero for every model.
    #[test]
    fn gradient_components_sum_to_zero(x in coords_multi(), s in smoothing()) {
        for kind in ModelKind::contestants() {
            let mut m = kind.instantiate(s);
            let mut g = vec![0.0; x.len()];
            m.eval_axis(&x, &mut g);
            let sum: f64 = g.iter().sum();
            prop_assert!(sum.abs() < 1e-8, "{kind}: Σg = {sum}");
        }
    }

    /// Theorem 6: on the Moreau gradient, the entries above `τ2` sum to +1
    /// and the ones below `τ1` sum to −1 (non-collapsed case).
    #[test]
    fn moreau_side_sums(x in coords_multi(), t in 0.001f64..1.0) {
        let mut g = vec![0.0; x.len()];
        let eval = moreau::eval_with_gradient(&x, t, &mut g);
        prop_assume!(!eval.collapsed);
        let up: f64 = x.iter().zip(&g).filter(|(&xi, _)| xi > eval.tau2).map(|(_, &gi)| gi).sum();
        let dn: f64 = x.iter().zip(&g).filter(|(&xi, _)| xi < eval.tau1).map(|(_, &gi)| gi).sum();
        prop_assert!((up - 1.0).abs() < 1e-8);
        prop_assert!((dn + 1.0).abs() < 1e-8);
    }

    /// Every differentiable model's analytic gradient matches central
    /// finite differences.
    #[test]
    fn gradients_match_finite_differences(x in prop::collection::vec(-100.0f64..100.0, 2..10),
                                          s in 0.5f64..20.0) {
        for kind in ModelKind::contestants() {
            let mut m = kind.instantiate(s);
            let mut g = vec![0.0; x.len()];
            m.eval_axis(&x, &mut g);
            let h = 1e-5;
            for i in 0..x.len() {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[i] += h;
                xm[i] -= h;
                let fd = (value(kind, s, &xp) - value(kind, s, &xm)) / (2.0 * h);
                prop_assert!(
                    (fd - g[i]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "{kind} coord {i}: fd {fd} vs {}", g[i]
                );
            }
        }
    }

    /// Side-of-truth ordering: LSE overestimates the span, WA and the
    /// Moreau envelope underestimate it.
    #[test]
    fn model_sidedness(x in coords_multi(), s in smoothing()) {
        let w = span(&x);
        prop_assert!(value(ModelKind::Lse, s, &x) >= w - 1e-9);
        prop_assert!(value(ModelKind::Wa, s, &x) <= w + 1e-9);
        prop_assert!(envelope(&x, s) <= w + 1e-9);
    }

    /// The Moreau envelope is convex (§II-D.2): midpoint convexity along
    /// random segments.
    #[test]
    fn moreau_convex_along_segments(a in coords_multi(), t in smoothing(), seed in 0u64..1000) {
        // derive a paired endpoint deterministically from the seed
        let b: Vec<f64> = a.iter().enumerate()
            .map(|(i, &v)| v + ((seed as f64 + i as f64) * 0.73).sin() * 50.0)
            .collect();
        let mid: Vec<f64> = a.iter().zip(&b).map(|(&p, &q)| 0.5 * (p + q)).collect();
        let fa = envelope(&a, t);
        let fb = envelope(&b, t);
        let fm = envelope(&mid, t);
        prop_assert!(fm <= 0.5 * (fa + fb) + 1e-9);
    }

    /// Monotone improvement: shrinking `t` never increases the absolute
    /// envelope error.
    #[test]
    fn error_monotone_in_t(x in coords_multi(), t in 0.1f64..10.0) {
        let w = span(&x);
        let e_big = (envelope(&x, t) - w).abs();
        let e_small = (envelope(&x, t * 0.5) - w).abs();
        prop_assert!(e_small <= e_big + 1e-9);
    }

    /// Scaling: the envelope of `c·x` at `c·t` is `c` times the envelope of
    /// `x` at `t` (positive homogeneity of the HPWL prox system).
    #[test]
    fn envelope_positive_homogeneity(x in coords_multi(), t in smoothing(), c in 0.1f64..10.0) {
        let scaled: Vec<f64> = x.iter().map(|&v| c * v).collect();
        let lhs = envelope(&scaled, c * t);
        let rhs = c * envelope(&x, t);
        prop_assert!((lhs - rhs).abs() < 1e-7 * (1.0 + rhs.abs()));
    }
}
