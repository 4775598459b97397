//! Exact HPWL as a (non-smooth) net model.
//!
//! The value is the exact span `max x − min x`; the "gradient" is the
//! canonical subgradient of Eq. (17): `+1/n_max` on the tied maxima and
//! `−1/n_min` on the tied minima — exactly the `γ → 0⁺` limit of WA
//! (Theorem 3) and the small-`t` limit of the Moreau envelope (Theorem 4).
//! Used as the reporting metric and as the PEKO suite's non-smooth column.

/// The exact span of one net along one axis, with the Eq. (17)
/// subgradient written into `grad`.
///
/// # Panics
///
/// Panics if `x` is empty or `grad.len() != x.len()`.
pub(crate) fn eval_axis(x: &[f64], grad: &mut [f64]) -> f64 {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert_eq!(x.len(), grad.len());
    let mx = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mn = x.iter().cloned().fold(f64::INFINITY, f64::min);
    if mx == mn {
        grad.fill(0.0);
        return 0.0;
    }
    let n_max = x.iter().filter(|&&v| v == mx).count() as f64;
    let n_min = x.iter().filter(|&&v| v == mn).count() as f64;
    for (g, &xi) in grad.iter_mut().zip(x) {
        *g = if xi == mx {
            1.0 / n_max
        } else if xi == mn {
            -1.0 / n_min
        } else {
            0.0
        };
    }
    mx - mn
}

#[cfg(test)]
mod tests {
    use crate::model::ModelKind;

    #[test]
    fn exact_value() {
        let mut m = ModelKind::Hpwl.instantiate(0.0);
        assert_eq!(m.eval_axis(&[3.0, -1.0, 7.0], &mut [0.0; 3]), 8.0);
    }

    #[test]
    fn subgradient_matches_eq_17() {
        let mut m = ModelKind::Hpwl.instantiate(0.0);
        let x = [0.0, 0.0, 3.0, 7.0];
        let mut g = [0.0; 4];
        let v = m.eval_axis(&x, &mut g);
        assert_eq!(v, 7.0);
        assert_eq!(g, [-0.5, -0.5, 0.0, 1.0]);
    }

    #[test]
    fn subgradient_sums_to_zero() {
        let mut m = ModelKind::Hpwl.instantiate(0.0);
        let x = [1.0, 1.0, 5.0, 5.0, 3.0];
        let mut g = [0.0; 5];
        m.eval_axis(&x, &mut g);
        assert!(g.iter().sum::<f64>().abs() < 1e-15);
    }

    #[test]
    fn degenerate_net_zero_gradient() {
        let mut m = ModelKind::Hpwl.instantiate(0.0);
        let x = [2.0, 2.0];
        let mut g = [9.0; 2];
        assert_eq!(m.eval_axis(&x, &mut g), 0.0);
        assert_eq!(g, [0.0, 0.0]);
    }
}
