//! Edge-case tests for the wirelength models: extreme degrees, extreme
//! smoothing parameters, pathological coordinate patterns.

use mep_wirelength::model::ModelKind;
use mep_wirelength::moreau;
use mep_wirelength::waterfill;

#[test]
fn thousand_pin_net_all_models() {
    let x: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
    let mut grad = vec![0.0; x.len()];
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(2.0);
        let v = m.eval_axis(&x, &mut grad);
        assert!(v.is_finite(), "{kind}");
        assert!((v - 999.0).abs() < 60.0, "{kind}: {v}");
        let s: f64 = grad.iter().sum();
        assert!(s.abs() < 1e-6, "{kind}: Σg = {s}");
    }
}

#[test]
fn moreau_gradient_fd_on_large_net() {
    let x: Vec<f64> = (0..200).map(|i| ((i * 31) % 97) as f64 * 1.37).collect();
    let t = 1.1;
    let mut g = vec![0.0; x.len()];
    let mut scratch = vec![0.0; x.len()];
    moreau::eval_with_gradient(&x, t, &mut g);
    let h = 1e-6;
    for &i in &[0usize, 50, 123, 199] {
        let mut xp = x.clone();
        let mut xm = x.clone();
        xp[i] += h;
        xm[i] -= h;
        let fp = moreau::eval_with_gradient(&xp, t, &mut scratch).envelope;
        let fm = moreau::eval_with_gradient(&xm, t, &mut scratch).envelope;
        let fd = (fp - fm) / (2.0 * h);
        assert!((fd - g[i]).abs() < 1e-5, "i={i}");
    }
}

#[test]
fn tiny_smoothing_parameter_stays_finite() {
    let x = [0.0, 100.0, 250.0];
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(1e-9);
        let mut g = vec![0.0; 3];
        let v = m.eval_axis(&x, &mut g);
        assert!(v.is_finite(), "{kind}: {v}");
        assert!((v - 250.0).abs() < 1e-3, "{kind}: {v}");
        assert!(g.iter().all(|gi| gi.is_finite()), "{kind}");
    }
}

#[test]
fn huge_smoothing_parameter_stays_finite() {
    let x = [0.0, 1.0, 2.0];
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(1e9);
        let mut g = vec![0.0; 3];
        let v = m.eval_axis(&x, &mut g);
        assert!(v.is_finite(), "{kind}: {v}");
        assert!(g.iter().all(|gi| gi.is_finite()), "{kind}");
    }
}

#[test]
fn nearly_coincident_coordinates() {
    // spacing at the edge of f64 resolution must not produce NaNs
    let x = [1.0, 1.0 + 1e-15, 1.0 + 2e-15, 1.0 + 3e-15];
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(0.5);
        let mut g = vec![0.0; 4];
        let v = m.eval_axis(&x, &mut g);
        assert!(v.is_finite(), "{kind}");
        assert!(g.iter().all(|gi| gi.is_finite()), "{kind}");
    }
}

#[test]
fn waterfill_with_microscopic_water() {
    let x = [0.0, 1.0, 2.0];
    let t = 1e-300;
    let tau1 = waterfill::solve_lower(&x, t);
    let tau2 = waterfill::solve_upper(&x, t);
    assert!((tau1 - 0.0).abs() < 1e-12);
    assert!((tau2 - 2.0).abs() < 1e-12);
}

#[test]
fn waterfill_with_astronomic_water() {
    let x = [0.0, 1.0, 2.0];
    let t = 1e12;
    let tau1 = waterfill::solve_lower(&x, t);
    // everything levels at x_max then rises by (t − filled)/n
    assert!((tau1 - (2.0 + (1e12 - 3.0) / 3.0)).abs() < 1.0);
}

#[test]
fn moreau_at_exact_tau_boundary_is_consistent() {
    // coordinates placed exactly at the water level: gradient must be 0
    // there (the clamp band is closed)
    let x = [0.0, 2.0, 4.0];
    // t = 1: τ1 = 1, τ2 = 3 (each extreme moves in by exactly t)
    let mut g = vec![0.0; 3];
    let eval = moreau::eval_with_gradient(&x, 1.0, &mut g);
    assert!((eval.tau1 - 1.0).abs() < 1e-12);
    assert!((eval.tau2 - 3.0).abs() < 1e-12);
    // now a pin exactly at τ1
    let x2 = [0.0, 1.0, 2.0, 4.0];
    let mut g2 = vec![0.0; 4];
    let eval2 = moreau::eval_with_gradient(&x2, 1.0, &mut g2);
    for (i, &xi) in x2.iter().enumerate() {
        if xi >= eval2.tau1 - 1e-12 && xi <= eval2.tau2 + 1e-12 {
            assert!(
                g2[i].abs() < 1e-9 || xi > eval2.tau2 - 1e-9 || xi < eval2.tau1 + 1e-9,
                "interior pin {i} has gradient {}",
                g2[i]
            );
        }
    }
    let s: f64 = g2.iter().sum();
    assert!(s.abs() < 1e-12);
}

#[test]
fn negative_and_mixed_sign_coordinates() {
    let x = [-1e6, -5.0, 0.0, 7.0, 1e6];
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(10.0);
        let mut g = vec![0.0; 5];
        let v = m.eval_axis(&x, &mut g);
        assert!(v.is_finite(), "{kind}");
        assert!((v - 2e6).abs() < 100.0, "{kind}: {v}");
    }
}

#[test]
fn two_pin_net_gradients_are_antisymmetric() {
    for kind in ModelKind::contestants() {
        let mut m = kind.instantiate(1.0);
        let mut g = vec![0.0; 2];
        m.eval_axis(&[3.0, 17.0], &mut g);
        assert!((g[0] + g[1]).abs() < 1e-12, "{kind}");
        assert!(g[1] > 0.0 && g[0] < 0.0, "{kind}");
    }
}
