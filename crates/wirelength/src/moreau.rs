//! The Moreau-envelope wirelength model — the paper's contribution.
//!
//! For one net with coordinates `x ∈ R^n` and HPWL span
//! `W_e(x) = max_i x_i − min_i x_i`, the Moreau envelope is
//!
//! ```text
//! W_e^t(x) = min_u W_e(u) + ‖u − x‖² / (2t)
//! ```
//!
//! Theorem 1 gives the minimizer in closed form up to two water levels
//! `τ1, τ2` (clamping), solved by [`crate::waterfill`]; Corollary 1 gives
//! the gradient `∇W_e^t = (x − prox_{tW_e}(x)) / t` (the envelope theorem).
//! The reported model value is `W_e^t + t`, as in the paper, which centres
//! the approximation error band of Theorem 2.
//!
//! # Two routes
//!
//! Algorithm 1 is a sort and two water-filling scans per net and axis. A
//! net of 2..=16 pins (`MAX_CLASS_DEGREE`) takes the class kernel
//! `eval_class`: a min/max sorting network read from the comparator
//! table `network`, then both water levels without a data-dependent
//! branch, several nets side by side. A net of more pins takes
//! `sort_unstable_by` and the scans of [`crate::waterfill`]. The per-net
//! core `eval_net` (behind [`prox`], [`eval_with_gradient`] and
//! [`crate::AnyModel::eval_axis`]) and the whole-netlist evaluator of
//! [`crate::netgrad`] split at the same constant, and both routes are
//! pinned bit for bit to the `reference` oracle of the test module.

use crate::waterfill::TauPair;

/// Result of one envelope evaluation, exposing the intermediate quantities
/// (levels, prox) that tests and the Fig. 2 harness need
/// ([C-INTERMEDIATE]).
///
/// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeEval {
    /// The envelope value `W_e^t(x)` (without the `+t` offset).
    pub envelope: f64,
    /// Lower water level `τ1` (or the mean in the collapsed case).
    pub tau1: f64,
    /// Upper water level `τ2` (or the mean in the collapsed case).
    pub tau2: f64,
    /// Whether `τ1 > τ2` collapsed the prox to the mean coordinate.
    pub collapsed: bool,
}

/// Computes `prox_{tW_e}(x)` per Theorem 1 into `out`.
///
/// `x` need not be sorted. `O(n log n)` from the internal sort. Allocates
/// a per-call scratch copy for nets of more than 16 pins; the hot loop goes
/// through [`crate::AnyModel`], which keeps its scratch.
///
/// # Panics
///
/// Panics if `x` is empty, `out.len() != x.len()`, or `t ≤ 0`.
pub fn prox(x: &[f64], t: f64, out: &mut [f64]) -> EnvelopeEval {
    // lint:allow(no-alloc-hot): per-net convenience entry; the hot loop calls the core with the model's own scratch
    eval_net(x, t, None, Some(out), &mut Vec::new())
}

/// Computes the envelope value and its gradient (Algorithm 1 + Corollary 1).
///
/// `grad` receives `∇W_e^t(x)`; the return value carries the envelope and
/// the water levels. `x` need not be sorted. Allocates like [`prox`].
///
/// # Panics
///
/// Panics if `x` is empty, `grad.len() != x.len()`, or `t ≤ 0`.
pub fn eval_with_gradient(x: &[f64], t: f64, grad: &mut [f64]) -> EnvelopeEval {
    // lint:allow(no-alloc-hot): per-net convenience entry; the hot loop calls the core with the model's own scratch
    eval_net(x, t, Some(grad), None, &mut Vec::new())
}

/// Largest net degree the class kernel [`eval_class`] serves; nets of more
/// pins go through the sort + scan of the generic path.
pub(crate) const MAX_CLASS_DEGREE: usize = 16;

/// Largest degree whose class kernel is compiled for that degree alone
/// (array capacity = degree, every loop unrolled). The degrees above it
/// share one body of capacity [`MAX_CLASS_DEGREE`] that takes the degree at
/// run time: 84 % of a Table II circuit's pins sit on nets of at most 8
/// pins, and a body per degree through 16 costs more resident text than
/// `peak_rss_mb` has room for (DESIGN.md §7).
pub(crate) const MAX_UNROLLED_DEGREE: usize = 8;

/// Batcher's merge exchange (Knuth, TAOCP 5.2.2, Algorithm M): a sorting
/// network for any `n ≥ 2`. Writes as many of its comparators as `out`
/// holds and returns how many there are.
const fn merge_exchange(n: usize, out: &mut [(u8, u8)]) -> usize {
    let top = n.next_power_of_two() / 2;
    let (mut p, mut len) = (top, 0);
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            let mut i = 0;
            while i + d < n {
                if i & p == r {
                    if len < out.len() {
                        out[len] = (i as u8, (i + d) as u8);
                    }
                    len += 1;
                }
                i += 1;
            }
            if q == p {
                break;
            }
            (d, q, r) = (q - p, q / 2, p);
        }
        p /= 2;
    }
    len
}

/// The comparator table: the sorting network of every class degree, as
/// `(i, j)` compare-exchanges that leave the smaller element at `i < j`.
/// The one copy that the lane kernel ([`sort_network`]) and the test
/// oracle's slice sort both read. Degrees 2..=8 are the optimal networks, written
/// out; 9..=16 are generated by [`merge_exchange`] (26..=63 comparators
/// against the optimal 25..=60).
#[rustfmt::skip]
pub(crate) const fn network(n: usize) -> &'static [(u8, u8)] {
    macro_rules! generated {
        ($n:literal) => {{
            const LEN: usize = merge_exchange($n, &mut []);
            const NETWORK: [(u8, u8); LEN] = {
                let mut network = [(0, 0); LEN];
                merge_exchange($n, &mut network);
                network
            };
            &NETWORK
        }};
    }
    match n {
        2 => &[(0, 1)],
        3 => &[(0, 1), (0, 2), (1, 2)],
        4 => &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)],
        5 => &[(0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)],
        6 => &[
            (1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4), (2, 5), (0, 3), (1, 4), (2, 4),
            (1, 3), (2, 3),
        ],
        7 => &[
            (1, 2), (3, 4), (5, 6), (0, 2), (3, 5), (4, 6), (0, 1), (4, 5), (2, 6), (0, 4),
            (1, 5), (0, 3), (2, 5), (1, 3), (2, 4), (2, 3),
        ],
        8 => &[
            (0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7), (1, 2), (5, 6),
            (0, 4), (3, 7), (1, 5), (2, 6), (1, 4), (3, 6), (2, 4), (3, 5), (3, 4),
        ],
        9 => generated!(9),
        10 => generated!(10),
        11 => generated!(11),
        12 => generated!(12),
        13 => generated!(13),
        14 => generated!(14),
        15 => generated!(15),
        16 => generated!(16),
        _ => &[],
    }
}

/// Branchless ascending sort of rows `..n` by the sorting network of
/// [`network`], `L` independent nets side by side (lane `l` of row `i` is
/// one element of net `l`): every compare-exchange is `min`/`max` on whole
/// rows, no data-dependent branches, no comparator closure.
#[inline(always)]
fn sort_network<const C: usize, const L: usize>(n: usize, v: &mut [[f64; L]; C]) {
    for &(i, j) in network(n) {
        let (i, j) = (i as usize, j as usize);
        for l in 0..L {
            let (a, b) = (v[i][l], v[j][l]);
            v[i][l] = a.min(b);
            v[j][l] = a.max(b);
        }
    }
}

/// One axis of `L` independent nets of `n ≤ C` pins each, as
/// [`eval_class`] returns it (lane `l` describes net `l`).
pub(crate) struct ClassEval<const C: usize, const L: usize> {
    /// Envelope `W_e^t` per net (without the `+t` offset).
    pub envelope: [f64; L],
    /// Lower water level (the mean where `collapsed`).
    pub tau1: [f64; L],
    /// Upper water level (the mean where `collapsed`).
    pub tau2: [f64; L],
    /// Whether `τ1 > τ2` collapsed the prox to the mean.
    pub collapsed: [bool; L],
    /// `x − prox_{tW_e}(x)` per pin (rows `..n`), so the gradient is
    /// `residual / t`.
    pub residual: [[f64; L]; C],
}

/// The degree-class kernel: Algorithm 1 on `L` nets of exactly
/// `n ∈ 2..=C` pins at once, `x[i][l]` being pin `i < n` of net `l` (in the
/// net's own pin order; rows `n..` are ignored). No branch depends on a
/// coordinate: a sorting network ([`network`]) whose compare-exchanges are
/// `min`/`max` on whole rows, branch-free water-filling
/// ([`crate::waterfill::solve_class`]), one fused pass for the residuals.
///
/// It is compiled in two shapes from this one body. Called with a constant
/// `n = C` ([`MAX_UNROLLED_DEGREE`] and below) it is inlined and every loop
/// unrolls: straight-line code for that `(n, L)`. Called with a runtime
/// `n` at `C =` [`MAX_CLASS_DEGREE`] its loops run at a trip count that is
/// fixed for a whole class block.
///
/// Each lane is bit-identical to the generic sort + scan path on that net
/// alone (the `reference` oracle of the test module): the residual is
/// selected between the clamp form
/// `max(x−τ2, 0) + min(x−τ1, 0)` — exactly one term is nonzero outside
/// the band, both are +0 inside it, and for a NaN coordinate
/// `f64::max`/`min` return the non-NaN operand, matching a three-way
/// branch whose comparisons are all false — and the collapsed form
/// `x − mean`, with the mean summed in pin order from `−0.0` as
/// `Iterator::sum` does.
///
/// # Panics
///
/// Panics unless `2 ≤ n ≤ C`.
#[inline(always)]
pub(crate) fn eval_class<const C: usize, const L: usize>(
    n: usize,
    x: &[[f64; L]; C],
    t: f64,
) -> ClassEval<C, L> {
    const { assert!(C <= MAX_CLASS_DEGREE, "no network for this degree") };
    assert!(2 <= n && n <= C, "{n} pins in a class kernel for 2..={C}");
    let mut sorted = *x;
    sort_network(n, &mut sorted);
    let (mut tau1, mut tau2) = crate::waterfill::solve_class(n, &sorted, t);
    let mut sum = [-0.0_f64; L];
    for xi in &x[..n] {
        for l in 0..L {
            sum[l] += xi[l];
        }
    }
    let mut collapsed = [false; L];
    let mut mean = [0.0; L];
    for l in 0..L {
        collapsed[l] = tau1[l] > tau2[l];
        mean[l] = sum[l] / n as f64;
    }
    let mut sq = [0.0_f64; L];
    let mut residual = [[0.0; L]; C];
    for (ri, xi) in residual.iter_mut().zip(&x[..n]) {
        for l in 0..L {
            let clamped = (xi[l] - tau2[l]).max(0.0) + (xi[l] - tau1[l]).min(0.0);
            let r = if collapsed[l] {
                xi[l] - mean[l]
            } else {
                clamped
            };
            sq[l] += r * r;
            ri[l] = r;
        }
    }
    let mut envelope = [0.0; L];
    for l in 0..L {
        let quad = sq[l] / (2.0 * t);
        envelope[l] = if collapsed[l] {
            quad
        } else {
            (tau2[l] - tau1[l]) + quad
        };
        if collapsed[l] {
            tau1[l] = mean[l];
            tau2[l] = mean[l];
        }
    }
    ClassEval {
        envelope,
        tau1,
        tau2,
        collapsed,
        residual,
    }
}

/// Both axes of `L` nets of `n` pins under net weights `w`, as the
/// whole-netlist evaluator consumes them: returns `w · (W_x + W_y)` per net
/// (each axis reporting envelope `+ t`) and writes `w · ∂/∂x_i` and
/// `w · ∂/∂y_i` into rows `..n` of `gx`/`gy`.
#[inline(always)]
pub(crate) fn eval_class_nets<const C: usize, const L: usize>(
    n: usize,
    x: &[[f64; L]; C],
    y: &[[f64; L]; C],
    t: f64,
    w: &[f64; L],
    gx: &mut [[f64; L]; C],
    gy: &mut [[f64; L]; C],
) -> [f64; L] {
    let ex = eval_class(n, x, t);
    let ey = eval_class(n, y, t);
    for i in 0..n {
        for l in 0..L {
            gx[i][l] = w[l] * (ex.residual[i][l] / t);
            gy[i][l] = w[l] * (ey.residual[i][l] / t);
        }
    }
    let mut value = [0.0; L];
    for l in 0..L {
        value[l] = w[l] * ((ex.envelope[l] + t) + (ey.envelope[l] + t));
    }
    value
}

/// The per-net entry points on a net of `n ∈ 2..=C` pins: one lane of the
/// class kernel, then the requested outputs from its residuals and levels.
#[inline(always)]
fn eval_small<const C: usize>(
    n: usize,
    x: &[f64],
    t: f64,
    grad: Option<&mut [f64]>,
    prox_out: Option<&mut [f64]>,
) -> EnvelopeEval {
    let mut pins = [[0.0; 1]; C];
    for (pin, &xi) in pins.iter_mut().zip(x) {
        pin[0] = xi;
    }
    let eval = eval_class(n, &pins, t);
    let (tau1, tau2, collapsed) = (eval.tau1[0], eval.tau2[0], eval.collapsed[0]);
    if let Some(g) = grad {
        for (gi, r) in g.iter_mut().zip(&eval.residual) {
            *gi = r[0] / t;
        }
    }
    if let Some(p) = prox_out {
        if collapsed {
            p.fill(tau1);
        } else {
            for (pi, &xi) in p.iter_mut().zip(x) {
                *pi = xi.clamp(tau1, tau2);
            }
        }
    }
    EnvelopeEval {
        envelope: eval.envelope[0],
        tau1,
        tau2,
        collapsed,
    }
}

/// The one per-net core: nets of 2..=16 pins go through one lane of the
/// class kernel, in the shape the whole-netlist evaluator runs for that
/// degree, so a net has one answer whichever entry point evaluates it;
/// any other degree sorts a copy of `x` in `scratch` (zero allocations once
/// it has grown to the largest net degree), solves the water levels by the
/// scans, then fills the requested outputs from the *original*
/// coordinates.
pub(crate) fn eval_net(
    x: &[f64],
    t: f64,
    grad: Option<&mut [f64]>,
    prox_out: Option<&mut [f64]>,
    scratch: &mut Vec<f64>,
) -> EnvelopeEval {
    assert!(!x.is_empty(), "net must have at least one pin");
    assert!(t > 0.0, "smoothing parameter must be positive, got {t}");
    if let Some(g) = &grad {
        assert_eq!(x.len(), g.len(), "gradient length must match input");
    }
    if let Some(p) = &prox_out {
        assert_eq!(x.len(), p.len(), "output length must match input");
    }
    // NaN coordinates are tolerated rather than asserted away: a poisoned
    // iterate must propagate NaN through value/gradient (the placer's
    // health guard detects and rolls it back) instead of panicking here.
    match x.len() {
        2 => return eval_small::<2>(2, x, t, grad, prox_out),
        3 => return eval_small::<3>(3, x, t, grad, prox_out),
        4 => return eval_small::<4>(4, x, t, grad, prox_out),
        5 => return eval_small::<5>(5, x, t, grad, prox_out),
        6 => return eval_small::<6>(6, x, t, grad, prox_out),
        7 => return eval_small::<7>(7, x, t, grad, prox_out),
        8 => return eval_small::<8>(8, x, t, grad, prox_out),
        n @ 9..=MAX_CLASS_DEGREE => return eval_small::<MAX_CLASS_DEGREE>(n, x, t, grad, prox_out),
        _ => {}
    }
    scratch.clear();
    scratch.extend_from_slice(x);
    scratch.sort_unstable_by(f64::total_cmp);
    let pair = TauPair::solve(scratch, t);
    let n = x.len() as f64;

    if pair.is_collapsed() {
        // Theorem 1, second case: prox is the mean in every component.
        let mean = x.iter().sum::<f64>() / n;
        let mut sq = 0.0;
        for &xi in x {
            let r = xi - mean;
            sq += r * r;
        }
        if let Some(g) = grad {
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi = (xi - mean) / t;
            }
        }
        if let Some(p) = prox_out {
            p.fill(mean);
        }
        return EnvelopeEval {
            envelope: sq / (2.0 * t),
            tau1: mean,
            tau2: mean,
            collapsed: true,
        };
    }

    let (tau1, tau2) = (pair.tau1, pair.tau2);
    // The clamp residual of [`eval_class`] is a pure function of `x_i`,
    // so the value and each requested output take one pass of their own.
    let residual = |xi: f64| (xi - tau2).max(0.0) + (xi - tau1).min(0.0);
    let mut sq = 0.0;
    for &xi in x {
        let r = residual(xi);
        sq += r * r;
    }
    if let Some(g) = grad {
        for (gi, &xi) in g.iter_mut().zip(x) {
            *gi = residual(xi) / t;
        }
    }
    if let Some(p) = prox_out {
        for (pi, &xi) in p.iter_mut().zip(x) {
            *pi = xi.clamp(tau1, tau2);
        }
    }
    EnvelopeEval {
        envelope: (tau2 - tau1) + sq / (2.0 * t),
        tau1,
        tau2,
        collapsed: false,
    }
}

/// Test oracle: the plainly-written scalar evaluation — the sorting network
/// of [`network`] on a slice, the scans of [`crate::waterfill`], the
/// three-way branch form of Theorem 1 / Corollary 1 with separate loops for
/// value, gradient and prox. The production kernels ([`eval_class`] for
/// 2..=16 pins, the generic path above them) are restructurings that
/// must stay **bit-identical** to this module on every input; the property
/// tests here and the whole-netlist tests of [`crate::netgrad`] compare
/// with `to_bits`.
///
/// A net of 9..=16 pins is sorted by its min/max network like the nets of
/// 2..=8 pins always were, not by `total_cmp` any more. The two orders are
/// the same bits on finite coordinates without a `+0.0`/`−0.0` tie; with
/// such a tie the network may leave the zeros in either order, and a NaN
/// pin is dropped by `f64::min`/`max` (its neighbour is duplicated) where
/// `total_cmp` sorted it to an end.
#[cfg(test)]
pub(crate) mod reference {
    use super::{network, EnvelopeEval, MAX_CLASS_DEGREE};
    use crate::waterfill::TauPair;

    /// The sorting network of the slice's length, one compare-exchange at a
    /// time.
    pub(crate) fn sort_small(v: &mut [f64]) {
        assert!(v.len() <= MAX_CLASS_DEGREE, "no network for {}", v.len());
        for &(i, j) in network(v.len()) {
            let (a, b) = (v[i as usize], v[j as usize]);
            v[i as usize] = a.min(b);
            v[j as usize] = a.max(b);
        }
    }

    /// Branchy scalar evaluation of value + optional gradient + optional
    /// prox. Same contract as the production `eval_net` core.
    pub(crate) fn eval(
        x: &[f64],
        t: f64,
        grad: Option<&mut [f64]>,
        prox_out: Option<&mut [f64]>,
        scratch: &mut Vec<f64>,
    ) -> EnvelopeEval {
        assert!(!x.is_empty(), "net must have at least one pin");
        assert!(t > 0.0, "smoothing parameter must be positive, got {t}");
        scratch.clear();
        scratch.extend_from_slice(x);
        if scratch.len() <= MAX_CLASS_DEGREE {
            sort_small(scratch);
        } else {
            scratch.sort_unstable_by(f64::total_cmp);
        }
        let pair = TauPair::solve(scratch, t);
        let n = x.len() as f64;

        if pair.is_collapsed() {
            let mean = x.iter().sum::<f64>() / n;
            let mut sq = 0.0;
            for &xi in x {
                let r = xi - mean;
                sq += r * r;
            }
            if let Some(g) = grad {
                for (gi, &xi) in g.iter_mut().zip(x) {
                    *gi = (xi - mean) / t;
                }
            }
            if let Some(p) = prox_out {
                p.fill(mean);
            }
            return EnvelopeEval {
                envelope: sq / (2.0 * t),
                tau1: mean,
                tau2: mean,
                collapsed: true,
            };
        }

        let (tau1, tau2) = (pair.tau1, pair.tau2);
        let mut sq = 0.0;
        for &xi in x {
            let r = if xi > tau2 {
                xi - tau2
            } else if xi < tau1 {
                xi - tau1
            } else {
                0.0
            };
            sq += r * r;
        }
        if let Some(g) = grad {
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi = if xi > tau2 {
                    (xi - tau2) / t
                } else if xi < tau1 {
                    (xi - tau1) / t
                } else {
                    0.0
                };
            }
        }
        if let Some(p) = prox_out {
            for (pi, &xi) in p.iter_mut().zip(x) {
                *pi = xi.clamp(tau1, tau2);
            }
        }
        EnvelopeEval {
            envelope: (tau2 - tau1) + sq / (2.0 * t),
            tau1,
            tau2,
            collapsed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;

    /// The envelope value alone.
    fn envelope(x: &[f64], t: f64) -> f64 {
        eval_net(x, t, None, None, &mut Vec::new()).envelope
    }

    fn span(x: &[f64]) -> f64 {
        let mx = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mn = x.iter().cloned().fold(f64::INFINITY, f64::min);
        mx - mn
    }

    /// Brute-force envelope by dense 1-D search over u is infeasible; instead
    /// verify the prox by first-order optimality: for the convex objective
    /// H(u) = (max u − min u) + ‖u−x‖²/(2t), any feasible direction from u*
    /// must not decrease H (checked along coordinate and random directions).
    fn check_prox_optimality(x: &[f64], t: f64) {
        let mut u = vec![0.0; x.len()];
        prox(x, t, &mut u);
        let h = |v: &[f64]| -> f64 {
            let mut s = 0.0;
            for (vi, xi) in v.iter().zip(x) {
                s += (vi - xi) * (vi - xi);
            }
            span(v) + s / (2.0 * t)
        };
        let h0 = h(&u);
        let eps = 1e-4;
        // coordinate probes
        for i in 0..u.len() {
            for delta in [eps, -eps] {
                let mut v = u.clone();
                v[i] += delta;
                assert!(
                    h(&v) >= h0 - 1e-9,
                    "prox not optimal: x={x:?} t={t} i={i} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn prox_first_order_optimality() {
        check_prox_optimality(&[0.0, 1.0, 5.0, 9.0], 0.7);
        check_prox_optimality(&[2.0, 2.0, 2.0], 0.5);
        check_prox_optimality(&[-3.0, 4.0], 1.0);
        check_prox_optimality(&[0.0, 100.0, 100.0, 100.0, 3.0], 2.5);
        check_prox_optimality(&[1.0], 1.0);
    }

    #[test]
    fn gradient_matches_envelope_theorem() {
        let x = [0.0, 2.0, 7.0, 11.0];
        let t = 0.9;
        let mut g = vec![0.0; 4];
        let mut u = vec![0.0; 4];
        eval_with_gradient(&x, t, &mut g);
        prox(&x, t, &mut u);
        for i in 0..4 {
            assert!((g[i] - (x[i] - u[i]) / t).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_finite_difference() {
        let x = [0.3, -1.2, 4.5, 2.0, 4.5];
        let t = 0.8;
        let mut g = vec![0.0; x.len()];
        eval_with_gradient(&x, t, &mut g);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (envelope(&xp, t) - envelope(&xm, t)) / (2.0 * h);
            assert!(
                (fd - g[i]).abs() < 1e-5,
                "coordinate {i}: fd {fd} vs analytic {}",
                g[i]
            );
        }
    }

    #[test]
    fn envelope_bounds_of_theorem_2() {
        // −t/2 (1/n_max + 1/n_min) ≤ W^t − W ≤ 0
        let cases: &[&[f64]] = &[
            &[0.0, 5.0, 10.0],
            &[0.0, 0.0, 10.0, 10.0],
            &[1.0, 4.0, 4.0, 9.0, 9.0, 9.0],
            &[-5.0, 3.0],
        ];
        for &x in cases {
            let w = span(x);
            let mx = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mn = x.iter().cloned().fold(f64::INFINITY, f64::min);
            let nmax = x.iter().filter(|&&v| v == mx).count() as f64;
            let nmin = x.iter().filter(|&&v| v == mn).count() as f64;
            for &t in &[0.01, 0.1, 1.0] {
                let e = envelope(x, t);
                let lower = -t / 2.0 * (1.0 / nmax + 1.0 / nmin);
                assert!(e - w <= 1e-12, "upper bound broken: {x:?} t={t}");
                assert!(e - w >= lower - 1e-12, "lower bound broken: {x:?} t={t}");
            }
        }
    }

    #[test]
    fn envelope_converges_to_hpwl_as_t_vanishes() {
        let x = [0.0, 3.0, 8.0, 20.0];
        let w = span(&x);
        let mut prev_err = f64::INFINITY;
        for &t in &[4.0, 1.0, 0.25, 0.0625] {
            let err = (envelope(&x, t) - w).abs();
            assert!(err <= prev_err + 1e-12);
            prev_err = err;
        }
        assert!(prev_err < 0.07);
    }

    #[test]
    fn gradient_components_sum_to_zero() {
        // Corollary 3
        let x = [0.0, 1.5, 6.0, 6.0, -2.0];
        for &t in &[0.1, 1.0, 100.0] {
            let mut g = vec![0.0; x.len()];
            eval_with_gradient(&x, t, &mut g);
            assert!(g.iter().sum::<f64>().abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn gradient_upper_side_sums_to_one() {
        // Theorem 6: Σ_{x_i > τ2} g_i = 1 and Σ_{x_i < τ1} g_i = −1
        let x = [0.0, 2.0, 5.0, 9.0, 10.0];
        let t = 1.3;
        let mut g = vec![0.0; x.len()];
        let eval = eval_with_gradient(&x, t, &mut g);
        assert!(!eval.collapsed);
        let up: f64 = x
            .iter()
            .zip(&g)
            .filter(|(&xi, _)| xi > eval.tau2)
            .map(|(_, &gi)| gi)
            .sum();
        let dn: f64 = x
            .iter()
            .zip(&g)
            .filter(|(&xi, _)| xi < eval.tau1)
            .map(|(_, &gi)| gi)
            .sum();
        assert!((up - 1.0).abs() < 1e-9, "upper sum {up}");
        assert!((dn + 1.0).abs() < 1e-9, "lower sum {dn}");
    }

    #[test]
    fn small_t_gradient_matches_wa_limit_subgradient() {
        // Theorem 4: for small t the gradient equals Eq. (17)
        let x = [0.0, 0.0, 3.0, 7.0, 7.0, 7.0];
        let t = 1e-3;
        let mut g = vec![0.0; x.len()];
        eval_with_gradient(&x, t, &mut g);
        let expect = [-0.5, -0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
        for (gi, ei) in g.iter().zip(&expect) {
            assert!((gi - ei).abs() < 1e-9, "{g:?}");
        }
    }

    #[test]
    fn collapsed_case_uses_mean() {
        let x = [1.0, 2.0, 3.0];
        let t = 100.0; // enormous smoothing ⇒ collapse
        let mut g = vec![0.0; 3];
        let eval = eval_with_gradient(&x, t, &mut g);
        assert!(eval.collapsed);
        for (gi, &xi) in g.iter().zip(&x) {
            assert!((gi - (xi - 2.0) / t).abs() < 1e-12);
        }
        assert!((eval.envelope - (1.0 + 0.0 + 1.0) / (2.0 * t)).abs() < 1e-12);
    }

    #[test]
    fn single_pin_net_has_zero_gradient() {
        let x = [5.0];
        let mut g = [123.0];
        let eval = eval_with_gradient(&x, 1.0, &mut g);
        assert_eq!(g[0], 0.0);
        assert_eq!(eval.envelope, 0.0);
    }

    #[test]
    fn model_reports_envelope_plus_t() {
        let mut m = ModelKind::Moreau.instantiate(0.5);
        let x = [0.0, 10.0];
        let mut g = [0.0; 2];
        let v = m.eval_axis(&x, &mut g);
        assert!((v - (envelope(&x, 0.5) + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn convexity_along_random_segments() {
        // Moreau envelopes of convex functions are convex (§II-D.2)
        let a = [0.0, 4.0, 9.0, 2.0];
        let b = [3.0, -1.0, 5.0, 8.0];
        let t = 0.7;
        let f = |lam: f64| {
            let v: Vec<f64> = a
                .iter()
                .zip(&b)
                .map(|(&ai, &bi)| (1.0 - lam) * ai + lam * bi)
                .collect();
            envelope(&v, t)
        };
        for k in 1..10 {
            let lam = k as f64 / 10.0;
            assert!(
                f(lam) <= (1.0 - lam) * f(0.0) + lam * f(1.0) + 1e-9,
                "convexity violated at λ={lam}"
            );
        }
    }

    #[test]
    fn translation_equivariance() {
        // envelope(x + c) == envelope(x); gradient unchanged
        let x = [0.0, 2.0, 5.0];
        let shifted: Vec<f64> = x.iter().map(|v| v + 1234.5).collect();
        let t = 0.4;
        let mut g1 = vec![0.0; 3];
        let mut g2 = vec![0.0; 3];
        let e1 = eval_with_gradient(&x, t, &mut g1);
        let e2 = eval_with_gradient(&shifted, t, &mut g2);
        assert!((e1.envelope - e2.envelope).abs() < 1e-9);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// Sorts a slice of ≤ 16 elements through one lane of the production
    /// network for its length: at its own capacity through 8 elements, at
    /// capacity 16 above, as the kernels are compiled.
    fn sort_by_network(v: &mut [f64]) {
        fn one<const C: usize>(v: &mut [f64]) {
            let mut rows = [[0.0; 1]; C];
            for (row, &x) in rows.iter_mut().zip(v.iter()) {
                row[0] = x;
            }
            sort_network(v.len(), &mut rows);
            for (x, row) in v.iter_mut().zip(&rows) {
                *x = row[0];
            }
        }
        match v.len() {
            0 | 1 => {}
            2 => one::<2>(v),
            3 => one::<3>(v),
            4 => one::<4>(v),
            5 => one::<5>(v),
            6 => one::<6>(v),
            7 => one::<7>(v),
            8 => one::<8>(v),
            9..=MAX_CLASS_DEGREE => one::<MAX_CLASS_DEGREE>(v),
            n => panic!("no network for {n} elements"),
        }
    }

    #[test]
    fn sorting_networks_pass_zero_one_principle() {
        // a comparator network sorts all inputs iff it sorts every 0/1
        // sequence (Knuth's 0-1 principle); n ≤ 16 is exhaustible
        for n in 0..=MAX_CLASS_DEGREE {
            for mask in 0..(1u32 << n) {
                let mut v: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                sort_by_network(&mut v);
                assert!(
                    v.windows(2).all(|w| w[0] <= w[1]),
                    "n={n} mask={mask:b}: {v:?}"
                );
            }
        }
    }

    #[test]
    fn sorting_networks_match_std_sort_on_random_data() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in 1..=MAX_CLASS_DEGREE {
            for _ in 0..200 {
                let v: Vec<f64> = (0..n).map(|_| next()).collect();
                let mut want = v.clone();
                want.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                let mut got = v.clone();
                sort_by_network(&mut got);
                let mut oracle = v;
                reference::sort_small(&mut oracle);
                for i in 0..n {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "n={n}");
                    assert_eq!(oracle[i].to_bits(), want[i].to_bits(), "oracle n={n}");
                }
            }
        }
    }

    #[test]
    fn fused_kernel_bitwise_matches_branchy_reference() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut scratch = Vec::new();
        let mut rscratch = Vec::new();
        for n in 1..=24usize {
            for rep in 0..40 {
                let mut x: Vec<f64> = (0..n).map(|_| next() * 20.0).collect();
                if rep % 5 == 0 && n >= 2 {
                    x[n / 2] = x[0]; // exercise duplicate coordinates
                }
                // spread t across collapse and non-collapse regimes
                for &t in &[1e-3, 0.7, 5.0, 500.0] {
                    let mut g = vec![0.0; n];
                    let mut p = vec![0.0; n];
                    let got = eval_net(&x, t, Some(&mut g), Some(&mut p), &mut scratch);
                    let mut rg = vec![0.0; n];
                    let mut rp = vec![0.0; n];
                    let want = reference::eval(&x, t, Some(&mut rg), Some(&mut rp), &mut rscratch);
                    assert_eq!(
                        got.envelope.to_bits(),
                        want.envelope.to_bits(),
                        "n={n} t={t}"
                    );
                    assert_eq!(got.tau1.to_bits(), want.tau1.to_bits());
                    assert_eq!(got.tau2.to_bits(), want.tau2.to_bits());
                    assert_eq!(got.collapsed, want.collapsed);
                    for i in 0..n {
                        assert_eq!(g[i].to_bits(), rg[i].to_bits(), "grad n={n} t={t} i={i}");
                        assert_eq!(p[i].to_bits(), rp[i].to_bits(), "prox n={n} t={t} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_matches_reference_on_nan_coordinates() {
        let x = [1.0, f64::NAN, 3.0, -2.0];
        let t = 0.5;
        let mut scratch = Vec::new();
        let mut g = vec![0.0; 4];
        let got = eval_net(&x, t, Some(&mut g), None, &mut scratch);
        let mut rg = vec![0.0; 4];
        let want = reference::eval(&x, t, Some(&mut rg), None, &mut Vec::new());
        assert_eq!(got.envelope.to_bits(), want.envelope.to_bits());
        for i in 0..4 {
            assert_eq!(g[i].to_bits(), rg[i].to_bits(), "i={i}");
        }
    }

    /// One net of `n` pins per lane of the class kernel of capacity `C`,
    /// against the oracle on each net alone: levels and envelope from
    /// [`eval_class`], weighted value and gradients from
    /// [`eval_class_nets`], all by `to_bits`.
    fn check_class_kernel<const C: usize, const L: usize>(
        n: usize,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        t: f64,
        w: &[f64],
    ) -> Result<(), String> {
        let mut x = [[0.0; L]; C];
        let mut y = [[0.0; L]; C];
        let mut weights = [0.0; L];
        for l in 0..L {
            for i in 0..n {
                x[i][l] = xs[l][i];
                y[i][l] = ys[l][i];
            }
            weights[l] = w[l];
        }
        let ex = eval_class(n, &x, t);
        let mut gx = [[0.0; L]; C];
        let mut gy = [[0.0; L]; C];
        let value = eval_class_nets::<C, L>(n, &x, &y, t, &weights, &mut gx, &mut gy);
        let mut scratch = Vec::new();
        for l in 0..L {
            let mut rgx = vec![0.0; n];
            let mut rgy = vec![0.0; n];
            let wx = reference::eval(&xs[l], t, Some(&mut rgx), None, &mut scratch);
            let wy = reference::eval(&ys[l], t, Some(&mut rgy), None, &mut scratch);
            let ctx = format!("n={n} C={C} L={L} lane {l} t={t} w={} x={:?}", w[l], xs[l]);
            let same = |got: f64, want: f64, what: &str| {
                if got.to_bits() == want.to_bits() {
                    Ok(())
                } else {
                    Err(format!("{what}: {got:e} vs oracle {want:e} ({ctx})"))
                }
            };
            same(ex.tau1[l], wx.tau1, "tau1")?;
            same(ex.tau2[l], wx.tau2, "tau2")?;
            same(ex.envelope[l], wx.envelope, "envelope")?;
            if ex.collapsed[l] != wx.collapsed {
                return Err(format!("collapsed flag ({ctx})"));
            }
            let want = w[l] * ((wx.envelope + t) + (wy.envelope + t));
            same(value[l], want, "value")?;
            for i in 0..n {
                same(gx[i][l], w[l] * rgx[i], "grad x")?;
                same(gy[i][l], w[l] * rgy[i], "grad y")?;
            }
        }
        Ok(())
    }

    /// Lanes 4 (the whole-netlist evaluator) and 1 (the per-net entry
    /// points) of the class kernel of capacity `C` on nets of `n` pins.
    fn check_class_degree<const C: usize>(
        n: usize,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        t: f64,
        w: &[f64],
    ) -> Result<(), String> {
        check_class_kernel::<C, 4>(n, xs, ys, t, w)?;
        for l in 0..4 {
            check_class_kernel::<C, 1>(n, &xs[l..], &ys[l..], t, &w[l..])?;
        }
        Ok(())
    }

    /// The water amounts that put `t` exactly on a breakpoint of the lower
    /// or the upper scan of `x` (the strict `trial > t` exit, both sides).
    fn breakpoints(x: &[f64]) -> Vec<f64> {
        let mut sorted = x.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let (mut lower, mut upper) = (0.0, 0.0);
        let mut out = Vec::new();
        for k in 1..n {
            lower += k as f64 * (sorted[k] - sorted[k - 1]);
            upper += k as f64 * (sorted[n - k] - sorted[n - k - 1]);
            out.extend([lower, upper]);
        }
        out.retain(|&t| t > 0.0 && t.is_finite());
        out
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// Degrees 1..=40 × smoothing across collapse, non-collapse and
        /// exact breakpoints × duplicate coordinates × ±0.0 × a NaN pin ×
        /// net weights ≠ 1: the class kernel (4 lanes and 1 lane; compiled
        /// per degree on 2..=8 pins, the run-time-degree body on 9..=16),
        /// the generic per-net path on every other degree, bit for bit
        /// against the oracle.
        #[test]
        fn kernels_bitwise_match_the_oracle(
            // two cases in three land on a class degree
            (degree, coords) in (1usize..41, 0usize..3).prop_flat_map(|(n, any)| {
                let n = if any == 0 { n } else { 2 + n % 15 };
                (Just(n), prop::collection::vec(-300.0f64..300.0, 8 * n))
            }),
            t_free in 1e-3f64..400.0,
            t_mode in 0usize..4,
            breakpoint in 0usize..80,
            corrupt in 0usize..6,
            at in 0usize..40,
            w in prop::collection::vec(-2.0f64..5.0, 4),
        ) {
            let n = degree;
            let mut nets: Vec<Vec<f64>> = coords.chunks(n).map(<[f64]>::to_vec).collect();
            let at = at % n;
            for (k, net) in nets.iter_mut().enumerate() {
                match (corrupt + k) % 6 {
                    1 => net[at] = net[(at + 1) % n], // duplicate coordinates
                    2 => {
                        // both zeros, tied
                        net[at] = 0.0;
                        net[(at + 1) % n] = -0.0;
                    }
                    3 => {
                        // degenerate: every pin equal
                        let v = net[at];
                        net.fill(v);
                    }
                    4 => net[at] = f64::NAN,
                    _ => {}
                }
            }
            let (xs, ys) = nets.split_at(4);
            let t = match t_mode {
                0 => t_free,
                1 => t_free * 1e-3, // tight: no collapse
                2 => t_free * 50.0, // loose: most nets collapse
                _ => {
                    let points = breakpoints(&xs[0]);
                    if points.is_empty() { t_free } else { points[breakpoint % points.len()] }
                }
            };
            let checked = match n {
                2 => check_class_degree::<2>(2, xs, ys, t, &w),
                3 => check_class_degree::<3>(3, xs, ys, t, &w),
                4 => check_class_degree::<4>(4, xs, ys, t, &w),
                5 => check_class_degree::<5>(5, xs, ys, t, &w),
                6 => check_class_degree::<6>(6, xs, ys, t, &w),
                7 => check_class_degree::<7>(7, xs, ys, t, &w),
                8 => check_class_degree::<8>(8, xs, ys, t, &w),
                9..=MAX_CLASS_DEGREE => check_class_degree::<MAX_CLASS_DEGREE>(n, xs, ys, t, &w),
                _ => Ok(()),
            };
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            // the per-net entry points: the class kernel again on 2..=16
            // pins, the fused sort + scan path on every other degree
            let (mut scratch, mut rscratch) = (Vec::new(), Vec::new());
            for x in xs {
                let mut g = vec![0.0; n];
                let mut rg = vec![0.0; n];
                let got = eval_net(x, t, Some(&mut g), None, &mut scratch);
                let want = reference::eval(x, t, Some(&mut rg), None, &mut rscratch);
                prop_assert_eq!(got.envelope.to_bits(), want.envelope.to_bits(), "n={} t={}", n, t);
                prop_assert_eq!(got.tau1.to_bits(), want.tau1.to_bits(), "n={} t={}", n, t);
                prop_assert_eq!(got.tau2.to_bits(), want.tau2.to_bits(), "n={} t={}", n, t);
                prop_assert_eq!(got.collapsed, want.collapsed);
                for i in 0..n {
                    prop_assert_eq!(g[i].to_bits(), rg[i].to_bits(), "n={} t={} i={}", n, t, i);
                }
            }
        }
    }
}
