//! The water-filling solver (Algorithm 2 of the paper).
//!
//! Given sorted pin coordinates `x_1 ≤ … ≤ x_n` and a water amount `t > 0`,
//! [`solve_lower`] finds the level `τ1` with
//! `Σ_i (τ1 − x_i)^+ = t`, and [`solve_upper`] finds `τ2` with
//! `Σ_i (x_i − τ2)^+ = t`. Both run in `O(n)` using the Abel-summation
//! telescoping of the sorted gaps (Eq. (11)–(13) of the paper).
//!
//! Intuition: pour `t` units of water into a reservoir whose uneven bottom
//! is the bar graph of the coordinates; `τ1` is the final water level
//! (Fig. 2 of the paper). `τ2` is the mirrored problem from above.

/// Solves `Σ_i (τ1 − x_i)^+ = t` for `τ1` on ascending-sorted coordinates.
///
/// Runs in `O(n)`. If `t` exceeds the water needed to level the whole
/// reservoir at `x_n`, the level rises above `x_n` by `(t − q)/n`.
///
/// The caller sorts (the Moreau model does so immediately before calling).
/// NaN coordinates are tolerated and propagate as NaN levels, so a
/// poisoned iterate reaches the placer's health guard instead of erroring
/// here.
///
/// # Panics
///
/// Panics (debug builds) if `sorted` is empty, out of ascending order
/// (NaNs excepted), or `t` is not positive.
pub fn solve_lower(sorted: &[f64], t: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "water-filling needs at least one pin");
    debug_assert!(t > 0.0, "water amount must be positive, got {t}");
    debug_assert!(
        sorted
            .windows(2)
            .all(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Greater)),
        "coordinates must be ascending"
    );
    let n = sorted.len();
    let mut filled = 0.0_f64;
    // zipped adjacent-pair walk: no index arithmetic, no bounds checks in
    // the hot loop; arithmetic is expression-identical to the indexed form
    for (k, (&lo, &hi)) in sorted.iter().zip(&sorted[1..]).enumerate() {
        let k = (k + 1) as f64;
        // filling the k lowest bottoms up from `lo` to `hi`
        let trial = filled + k * (hi - lo);
        if trial > t {
            return hi - (trial - t) / k;
        }
        filled = trial;
    }
    sorted[n - 1] + (t - filled) / n as f64
}

/// Solves `Σ_i (x_i − τ2)^+ = t` for `τ2` on ascending-sorted coordinates.
///
/// Mirror image of [`solve_lower`]: water is poured from above.
///
/// # Panics
///
/// Same contract as [`solve_lower`].
pub fn solve_upper(sorted: &[f64], t: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "water-filling needs at least one pin");
    debug_assert!(t > 0.0, "water amount must be positive, got {t}");
    debug_assert!(
        sorted
            .windows(2)
            .all(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Greater)),
        "coordinates must be ascending"
    );
    let n = sorted.len();
    let mut filled = 0.0_f64;
    // mirrored adjacent-pair walk from the top, same bounds-check-free shape
    // as `solve_lower`
    for (k, (&hi, &lo)) in sorted
        .iter()
        .rev()
        .zip(sorted[..n - 1].iter().rev())
        .enumerate()
    {
        let k = (k + 1) as f64;
        let trial = filled + k * (hi - lo);
        if trial > t {
            return lo + (trial - t) / k;
        }
        filled = trial;
    }
    sorted[0] - (t - filled) / n as f64
}

/// Both water levels of `L` independent nets of exactly `n ≤ C` pins each,
/// without a data-dependent branch: `sorted[i][l]` is the `i`-th smallest
/// coordinate of net `l` (rows `n..` are ignored), and the result is
/// `(τ1, τ2)` per lane, bit-identical to [`solve_lower`] / [`solve_upper`]
/// on every lane.
///
/// All `n − 1` prefix trials are computed unconditionally — they are the
/// values the scans produce before their exit — and a descending select
/// chain keeps the first `trial > t`. Exit and fall-through then share one
/// expression, `base ± (t − filled) / k`: on the exit path it rewrites
/// `hi − (trial − t)/k` as `hi + (t − trial)/k`, which is the same bits
/// because negation commutes exactly with `−` and `/`, and `trial > t`
/// rules out the one case (`trial == t`, where `t − trial` and
/// `−(trial − t)` differ in the sign of zero). A NaN trial compares false
/// and falls through, like the scan.
///
/// # Panics
///
/// Panics unless `2 ≤ n ≤ C` (a class net has at least two pins).
#[inline(always)]
pub(crate) fn solve_class<const C: usize, const L: usize>(
    n: usize,
    sorted: &[[f64; L]; C],
    t: f64,
) -> ([f64; L], [f64; L]) {
    assert!(2 <= n && n <= C, "{n} pins in a class solver for 2..={C}");
    // row `k` holds the water needed to level the `k` lowest (resp.
    // highest) bottoms; row 0 is the empty reservoir
    let mut lower = [[0.0_f64; L]; C];
    let mut upper = [[0.0_f64; L]; C];
    for k in 1..n {
        let kf = k as f64;
        for l in 0..L {
            lower[k][l] = lower[k - 1][l] + kf * (sorted[k][l] - sorted[k - 1][l]);
            upper[k][l] = upper[k - 1][l] + kf * (sorted[n - k][l] - sorted[n - k - 1][l]);
        }
    }
    let mut base1 = sorted[n - 1];
    let mut fill1 = lower[n - 1];
    let mut k1 = [n as f64; L];
    let mut base2 = sorted[0];
    let mut fill2 = upper[n - 1];
    let mut k2 = [n as f64; L];
    for k in (1..n).rev() {
        let kf = k as f64;
        // rows read before the selects, so that no select arm can panic
        let (above, below) = (&sorted[k], &sorted[n - k - 1]);
        let (low, up) = (&lower[k], &upper[k]);
        for l in 0..L {
            let exit1 = low[l] > t;
            base1[l] = if exit1 { above[l] } else { base1[l] };
            fill1[l] = if exit1 { low[l] } else { fill1[l] };
            k1[l] = if exit1 { kf } else { k1[l] };
            let exit2 = up[l] > t;
            base2[l] = if exit2 { below[l] } else { base2[l] };
            fill2[l] = if exit2 { up[l] } else { fill2[l] };
            k2[l] = if exit2 { kf } else { k2[l] };
        }
    }
    let mut tau1 = [0.0; L];
    let mut tau2 = [0.0; L];
    for l in 0..L {
        tau1[l] = base1[l] + (t - fill1[l]) / k1[l];
        tau2[l] = base2[l] - (t - fill2[l]) / k2[l];
    }
    (tau1, tau2)
}

/// Both water levels `(τ1, τ2)` for one net in a single call.
///
/// When `τ1 > τ2` the proximal mapping of Theorem 1 collapses to the mean;
/// callers should check [`TauPair::is_collapsed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauPair {
    /// Lower water level.
    pub tau1: f64,
    /// Upper water level.
    pub tau2: f64,
}

impl TauPair {
    /// Solves both levels on ascending-sorted coordinates.
    pub fn solve(sorted: &[f64], t: f64) -> Self {
        Self {
            tau1: solve_lower(sorted, t),
            tau2: solve_upper(sorted, t),
        }
    }

    /// Whether the levels crossed (`τ1 > τ2`), i.e. `t` is so large that the
    /// prox collapses every coordinate to the mean.
    pub fn is_collapsed(&self) -> bool {
        self.tau1 > self.tau2
    }
}

/// Residual of the lower water-filling equation, `Σ (τ1 − x_i)^+ − t`.
/// Exposed for tests and verification harnesses.
pub fn lower_residual(x: &[f64], tau1: f64, t: f64) -> f64 {
    x.iter().map(|&xi| (tau1 - xi).max(0.0)).sum::<f64>() - t
}

/// Residual of the upper water-filling equation, `Σ (x_i − τ2)^+ − t`.
pub fn upper_residual(x: &[f64], tau2: f64, t: f64) -> f64 {
    x.iter().map(|&xi| (xi - tau2).max(0.0)).sum::<f64>() - t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn paper_four_pin_example() {
        // 4 bars; small t keeps the level within the first gap
        let x = [1.0, 2.0, 4.0, 7.0];
        let tau1 = solve_lower(&x, 0.5);
        assert_near(tau1, 1.5); // only the lowest bottom holds water
        assert_near(lower_residual(&x, tau1, 0.5), 0.0);
    }

    #[test]
    fn level_crosses_multiple_bottoms() {
        let x = [1.0, 2.0, 4.0, 7.0];
        // filling to level 2 costs 1; to level 4 costs 1 + 2*2 = 5
        let tau1 = solve_lower(&x, 3.0);
        // between x2=2 and x3=4: 3 = 1 + 2*(tau-2) => tau = 3
        assert_near(tau1, 3.0);
        assert_near(lower_residual(&x, tau1, 3.0), 0.0);
    }

    #[test]
    fn level_exceeds_top_coordinate() {
        let x = [1.0, 2.0, 4.0, 7.0];
        // leveling everything at 7 costs 6+5+3+0 = 14; extra spreads over 4
        let tau1 = solve_lower(&x, 18.0);
        assert_near(tau1, 8.0);
        assert_near(lower_residual(&x, tau1, 18.0), 0.0);
    }

    #[test]
    fn exact_breakpoint_water_amount() {
        let x = [0.0, 1.0, 2.0];
        // q after first gap = 1 exactly
        let tau1 = solve_lower(&x, 1.0);
        assert_near(tau1, 1.0);
        assert_near(lower_residual(&x, tau1, 1.0), 0.0);
    }

    #[test]
    fn upper_mirrors_lower() {
        let x = [1.0, 2.0, 4.0, 7.0];
        for &t in &[0.3, 1.0, 2.5, 9.0, 30.0] {
            let tau2 = solve_upper(&x, t);
            let neg: Vec<f64> = x.iter().rev().map(|&v| -v).collect();
            let mirrored = -solve_lower(&neg, t);
            assert_near(tau2, mirrored);
            assert_near(upper_residual(&x, tau2, t), 0.0);
        }
    }

    #[test]
    fn single_pin_net() {
        let x = [5.0];
        assert_near(solve_lower(&x, 2.0), 7.0);
        assert_near(solve_upper(&x, 2.0), 3.0);
        let pair = TauPair::solve(&x, 2.0);
        assert!(pair.is_collapsed());
    }

    #[test]
    fn duplicate_coordinates() {
        let x = [1.0, 1.0, 1.0, 5.0];
        let tau1 = solve_lower(&x, 1.5);
        assert_near(tau1, 1.5);
        assert_near(lower_residual(&x, tau1, 1.5), 0.0);
        let tau2 = solve_upper(&x, 1.5);
        // from above: gap 4 over 1 bar costs 4 > 1.5 → tau2 = 5 - 1.5
        assert_near(tau2, 3.5);
    }

    #[test]
    fn all_equal_coordinates_collapse() {
        let x = [2.0, 2.0, 2.0];
        let pair = TauPair::solve(&x, 0.3);
        assert_near(pair.tau1, 2.1);
        assert_near(pair.tau2, 1.9);
        assert!(pair.is_collapsed());
    }

    #[test]
    fn small_t_keeps_levels_separated() {
        let x = [0.0, 10.0, 20.0, 100.0];
        let pair = TauPair::solve(&x, 0.5);
        assert!(!pair.is_collapsed());
        assert_near(pair.tau1, 0.5);
        assert_near(pair.tau2, 99.5);
    }

    #[test]
    fn negative_coordinates() {
        let x = [-10.0, -5.0, 0.0];
        let tau1 = solve_lower(&x, 2.0);
        assert_near(lower_residual(&x, tau1, 2.0), 0.0);
        assert!(tau1 > -10.0 && tau1 < 0.0);
    }

    /// Straightforward indexed transliteration of Eq. (11)–(13), kept as the
    /// bitwise oracle for the zipped bounds-check-free scans above.
    fn indexed_lower(sorted: &[f64], t: f64) -> f64 {
        let n = sorted.len();
        let mut filled = 0.0_f64;
        for k in 1..n {
            let trial = filled + k as f64 * (sorted[k] - sorted[k - 1]);
            if trial > t {
                return sorted[k] - (trial - t) / k as f64;
            }
            filled = trial;
        }
        sorted[n - 1] + (t - filled) / n as f64
    }

    fn indexed_upper(sorted: &[f64], t: f64) -> f64 {
        let n = sorted.len();
        let mut filled = 0.0_f64;
        for k in 1..n {
            let trial = filled + k as f64 * (sorted[n - k] - sorted[n - k - 1]);
            if trial > t {
                return sorted[n - k - 1] + (trial - t) / k as f64;
            }
            filled = trial;
        }
        sorted[0] - (t - filled) / n as f64
    }

    #[test]
    fn zipped_scans_bitwise_match_indexed_reference() {
        let mut state = 0x1234_5678_9ABC_DEF0_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        for n in 1..=16 {
            for rep in 0..25 {
                let mut x: Vec<f64> = (0..n).map(|_| next()).collect();
                if rep % 4 == 1 && n > 2 {
                    x[1] = x[0]; // exercise duplicate coordinates
                }
                x.sort_unstable_by(f64::total_cmp);
                for &t in &[1e-6, 0.03, 0.7, 4.0, 150.0] {
                    assert_eq!(
                        solve_lower(&x, t).to_bits(),
                        indexed_lower(&x, t).to_bits(),
                        "lower n={n} rep={rep} t={t}"
                    );
                    assert_eq!(
                        solve_upper(&x, t).to_bits(),
                        indexed_upper(&x, t).to_bits(),
                        "upper n={n} rep={rep} t={t}"
                    );
                }
            }
        }
    }

    /// `solve_class` at capacity `C` on `L` nets of equally many pins
    /// against the scans, lane by lane.
    fn check_class<const C: usize, const L: usize>(nets: &[Vec<f64>], t: f64) {
        let n = nets[0].len();
        let mut sorted = [[0.0; L]; C];
        for (l, net) in nets.iter().enumerate() {
            for i in 0..n {
                sorted[i][l] = net[i];
            }
        }
        let (tau1, tau2) = solve_class(n, &sorted, t);
        for (l, net) in nets.iter().enumerate() {
            assert_eq!(
                tau1[l].to_bits(),
                solve_lower(net, t).to_bits(),
                "lower n={n} C={C} L={L} lane {l} t={t} {net:?}"
            );
            assert_eq!(
                tau2[l].to_bits(),
                solve_upper(net, t).to_bits(),
                "upper n={n} C={C} L={L} lane {l} t={t} {net:?}"
            );
        }
    }

    fn check_class_degree<const C: usize>(n: usize, next: &mut impl FnMut() -> f64) {
        for rep in 0..60 {
            let nets: Vec<Vec<f64>> = (0..4)
                .map(|lane| {
                    let mut x: Vec<f64> = (0..n).map(|_| next()).collect();
                    if (rep + lane) % 4 == 1 {
                        x[n - 1] = x[0]; // duplicate coordinates
                    }
                    if (rep + lane) % 7 == 2 {
                        x[0] = 0.0;
                        x[n - 1] = -0.0; // both zeros
                    }
                    x.sort_unstable_by(f64::total_cmp);
                    x
                })
                .collect();
            // water amounts exactly on every breakpoint of lane 0, so the
            // strict `trial > t` exit is exercised on both of its sides
            let mut ts = vec![1e-6, 0.03, 0.7, 4.0, 150.0];
            let mut filled = 0.0;
            for k in 1..n {
                filled += k as f64 * (nets[0][k] - nets[0][k - 1]);
                ts.push(filled);
            }
            for t in ts.into_iter().filter(|&t| t > 0.0) {
                check_class::<C, 4>(&nets, t);
                check_class::<C, 1>(&nets[..1], t);
            }
        }
    }

    #[test]
    fn class_solver_bitwise_matches_the_scans() {
        let mut state = 0x0DDB_1A5E_5BAD_5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        check_class_degree::<2>(2, &mut next);
        check_class_degree::<3>(3, &mut next);
        check_class_degree::<4>(4, &mut next);
        check_class_degree::<5>(5, &mut next);
        check_class_degree::<6>(6, &mut next);
        check_class_degree::<7>(7, &mut next);
        check_class_degree::<8>(8, &mut next);
        // the run-time-degree shape: room for 16 pins, 9..=16 in use
        for n in 9..=16 {
            check_class_degree::<16>(n, &mut next);
        }
    }

    #[test]
    fn class_solver_propagates_nan_like_the_scans() {
        // a NaN bottom poisons every later trial: no exit, NaN levels
        let net = vec![1.0, f64::NAN, 3.0, 9.0];
        for t in [0.5, 5.0, 500.0] {
            check_class::<4, 1>(std::slice::from_ref(&net), t);
        }
    }

    #[test]
    fn residual_is_monotone_in_level() {
        let x = [0.0, 3.0, 9.0];
        let t = 2.0;
        let tau = solve_lower(&x, t);
        assert!(lower_residual(&x, tau - 0.1, t) < 0.0);
        assert!(lower_residual(&x, tau + 0.1, t) > 0.0);
    }
}
