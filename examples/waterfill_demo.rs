//! A guided tour of the paper's core machinery on one net: water-filling
//! (Algorithm 2, Fig. 2), the proximal mapping (Theorem 1), and the
//! Moreau-envelope gradient (Corollary 1) — next to the WA model's answer.
//!
//! ```text
//! cargo run --example waterfill_demo
//! ```

use moreau_placer::wirelength::model::ModelKind;
use moreau_placer::wirelength::moreau;
use moreau_placer::wirelength::waterfill;

fn main() {
    // the 4-pin net of the paper's Fig. 2
    let x = [1.0, 2.0, 4.0, 7.0];
    println!("pin coordinates: {x:?}  (HPWL span = {})", 7.0 - 1.0);

    println!("\nwater-filling levels for growing water t:");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "t", "tau1", "tau2", "collapsed"
    );
    for t in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut sorted = x.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pair = waterfill::TauPair::solve(&sorted, t);
        println!(
            "{t:>6} {:>10.4} {:>10.4} {:>10}",
            pair.tau1,
            pair.tau2,
            pair.is_collapsed()
        );
    }

    let t = 1.0;
    let mut u = [0.0; 4];
    let eval = moreau::prox(&x, t, &mut u);
    println!("\nprox_{{tW}}(x) at t = {t}: {u:?}");
    println!(
        "  clamp levels: tau1 = {:.4}, tau2 = {:.4}",
        eval.tau1, eval.tau2
    );
    println!(
        "  envelope W^t = {:.4} (exact span 6, Theorem 2 bound ≥ {:.4})",
        eval.envelope,
        6.0 - t
    );

    let mut g_me = [0.0; 4];
    moreau::eval_with_gradient(&x, t, &mut g_me);
    let mut wa = ModelKind::Wa.instantiate(t);
    let mut g_wa = [0.0; 4];
    let v_wa = wa.eval_axis(&x, &mut g_wa);
    println!("\ngradients at the same smoothing parameter:");
    println!("  Moreau: {g_me:?}  (Σ = {:.2e})", g_me.iter().sum::<f64>());
    println!(
        "  WA    : {g_wa:?}  (Σ = {:.2e}, value {v_wa:.4})",
        g_wa.iter().sum::<f64>()
    );
    println!("\nnote how the Moreau gradient is exactly (x − prox)/t and leaves");
    println!("interior pins untouched, while WA spreads weight over every pin.");
}
