//! A self-contained iterative radix-2 complex FFT, driven by a reusable
//! plan.
//!
//! The spectral Poisson solver only needs power-of-two sizes (the bin grid
//! is chosen as one), so a clean radix-2 implementation suffices. Data is
//! split-complex (`re`/`im` slices) to avoid a complex-number dependency.
//!
//! [`FftPlan`] holds the bit-reversal permutation and all stage twiddle
//! factors as precomputed tables. The placement hot loop runs thousands of
//! same-size transforms per iteration, so the tables are computed once per
//! grid size and amortized to zero; no transform performs trigonometry.

/// A reusable plan for radix-2 complex FFTs of one fixed power-of-two
/// size: the bit-reversal permutation and every stage's twiddle factors,
/// precomputed once so [`FftPlan::process`] performs no trigonometry.
///
/// The twiddle table is laid out stage-major: for the stage whose
/// butterflies span `2h` points, entry `h + k` holds
/// `e^{-iπk/h}` (`k = 0..h`), so the whole table is exactly `n` entries.
/// Inverse transforms conjugate the factors on the fly.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (`n` entries).
    bitrev: Vec<u32>,
    /// Forward twiddle factors, stage-major (see the type docs).
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl FftPlan {
    /// Builds the plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if n <= 1 {
                    0
                } else {
                    (i as u32).reverse_bits() >> (32 - bits)
                }
            })
            // lint:allow(no-alloc-hot): construction; every transform reuses the plan
            .collect();
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut tw_re = vec![0.0; n];
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut tw_im = vec![0.0; n];
        let mut h = 1;
        while h < n {
            for k in 0..h {
                let ang = -std::f64::consts::PI * k as f64 / h as f64;
                tw_re[h + k] = ang.cos();
                tw_im[h + k] = ang.sin();
            }
            h <<= 1;
        }
        Self {
            n,
            bitrev,
            tw_re,
            tw_im,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length-0 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place FFT (`inverse = false`) or unnormalized inverse FFT
    /// (`inverse = true`) of `W` independent split-complex sequences,
    /// driven entirely by the precomputed tables. The sequences are stored
    /// SoA: element `u` of lane `l` lives at index `u * W + l`, so
    /// `W = 1` is one plain sequence. The inverse is **unnormalized**:
    /// `ifft(fft(x)) = n · x`.
    ///
    /// Every lane runs the same expressions on its own data whatever `W`
    /// is, so lane `l` of `process::<W>` is bit-identical to
    /// `process::<1>` on that sequence alone — the property the tiled 2-D
    /// sweeps rely on. The butterfly loops are structured for
    /// autovectorization: each stage walks zipped sub-slices (no bounds
    /// checks survive), the products fold into exactly-rounded `mul_add`s,
    /// and the first stage — whose twiddle factor is exactly `1` — is
    /// specialized to a pure add/sub pass.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from `W` times the planned
    /// length.
    pub fn process<const W: usize>(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let n = self.n;
        assert_eq!(re.len(), n * W, "re length differs from planned length");
        assert_eq!(im.len(), n * W, "im length differs from planned length");
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                let (lo, hi) = re.split_at_mut(j * W);
                lo[i * W..i * W + W].swap_with_slice(&mut hi[..W]);
                let (lo, hi) = im.split_at_mut(j * W);
                lo[i * W..i * W + W].swap_with_slice(&mut hi[..W]);
            }
        }
        // Stage h = 1: the only twiddle factor is exactly 1, so the
        // butterfly degenerates to add/sub over adjacent pairs.
        for (pr, pi) in re.chunks_exact_mut(2 * W).zip(im.chunks_exact_mut(2 * W)) {
            let (ar, br) = pr.split_at_mut(W);
            let (ai, bi) = pi.split_at_mut(W);
            for l in 0..W {
                let tr = br[l];
                let ti = bi[l];
                br[l] = ar[l] - tr;
                bi[l] = ai[l] - ti;
                ar[l] += tr;
                ai[l] += ti;
            }
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut h = 2;
        while h < n {
            let len = 2 * h;
            let stage_re = &self.tw_re[h..len];
            let stage_im = &self.tw_im[h..len];
            for (blk_re, blk_im) in re
                .chunks_exact_mut(len * W)
                .zip(im.chunks_exact_mut(len * W))
            {
                let (ar, br) = blk_re.split_at_mut(h * W);
                let (ai, bi) = blk_im.split_at_mut(h * W);
                for ((((ar, br), (ai, bi)), &wr), &twi) in ar
                    .chunks_exact_mut(W)
                    .zip(br.chunks_exact_mut(W))
                    .zip(ai.chunks_exact_mut(W).zip(bi.chunks_exact_mut(W)))
                    .zip(stage_re)
                    .zip(stage_im)
                {
                    let wi = sign * twi;
                    for l in 0..W {
                        let xr = br[l];
                        let xi = bi[l];
                        let tr = f64::mul_add(xr, wr, -(xi * wi));
                        let ti = f64::mul_add(xr, wi, xi * wr);
                        br[l] = ar[l] - tr;
                        bi[l] = ai[l] - ti;
                        ar[l] += tr;
                        ai[l] += ti;
                    }
                }
            }
            h = len;
        }
    }
}

/// Number of adjacent grid lines a 2-D sweep transforms per tile. Eight
/// `f64`s fill one 64-byte cache line, so a column-pass tile of eight
/// adjacent grid columns turns every strided row access into a single
/// full-line load — the key to the transpose-free sweeps.
pub const LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_naive;

    fn rand_seq(n: usize, seed: u64) -> Vec<f64> {
        // tiny deterministic LCG; avoids a test-only dependency here
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn round_trip_recovers_input_times_n() {
        let n = 256;
        let plan = FftPlan::new(n);
        let re0 = rand_seq(n, 11);
        let im0 = rand_seq(n, 17);
        let mut re = re0.clone();
        let mut im = im0.clone();
        plan.process::<1>(&mut re, &mut im, false);
        plan.process::<1>(&mut re, &mut im, true);
        for i in 0..n {
            assert!((re[i] - n as f64 * re0[i]).abs() < 1e-9);
            assert!((im[i] - n as f64 * im0[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let re0 = rand_seq(n, 23);
        let im0 = vec![0.0; n];
        let t: f64 = re0.iter().map(|v| v * v).sum();
        let mut re = re0;
        let mut im = im0;
        FftPlan::new(n).process::<1>(&mut re, &mut im, false);
        let f: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        assert!((f - n as f64 * t).abs() < 1e-6 * f.max(1.0));
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        re[0] = 1.0;
        FftPlan::new(n).process::<1>(&mut re, &mut im, false);
        for i in 0..n {
            assert!((re[i] - 1.0).abs() < 1e-12);
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn plan_matches_naive_dft_both_directions() {
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            for inverse in [false, true] {
                let re0 = rand_seq(n, 31);
                let im0 = rand_seq(n, 37);
                let (want_re, want_im) = dft_naive(&re0, &im0, inverse);
                let mut re = re0;
                let mut im = im0;
                plan.process::<1>(&mut re, &mut im, inverse);
                for i in 0..n {
                    assert!((re[i] - want_re[i]).abs() < 1e-9, "n={n} inv={inverse}");
                    assert!((im[i] - want_im[i]).abs() < 1e-9, "n={n} inv={inverse}");
                }
            }
        }
    }

    #[test]
    fn plan_is_reusable_and_deterministic() {
        let plan = FftPlan::new(128);
        let re0 = rand_seq(128, 41);
        let im0 = rand_seq(128, 43);
        let mut first: Option<(Vec<f64>, Vec<f64>)> = None;
        for _ in 0..3 {
            let mut re = re0.clone();
            let mut im = im0.clone();
            plan.process::<1>(&mut re, &mut im, false);
            match &first {
                None => first = Some((re, im)),
                Some((fr, fi)) => {
                    for i in 0..128 {
                        assert_eq!(re[i].to_bits(), fr[i].to_bits());
                        assert_eq!(im[i].to_bits(), fi[i].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_bitwise_match_single_lane() {
        for &n in &[2usize, 4, 8, 64, 256] {
            let plan = FftPlan::new(n);
            for inverse in [false, true] {
                // SoA pack of LANES distinct sequences.
                let mut lre = vec![0.0; n * LANES];
                let mut lim = vec![0.0; n * LANES];
                let mut singles = Vec::new();
                for l in 0..LANES {
                    let re0 = rand_seq(n, 100 + l as u64);
                    let im0 = rand_seq(n, 200 + l as u64);
                    for u in 0..n {
                        lre[u * LANES + l] = re0[u];
                        lim[u * LANES + l] = im0[u];
                    }
                    singles.push((re0, im0));
                }
                plan.process::<LANES>(&mut lre, &mut lim, inverse);
                for (l, (re, im)) in singles.iter_mut().enumerate() {
                    plan.process::<1>(re, im, inverse);
                    for u in 0..n {
                        assert_eq!(
                            lre[u * LANES + l].to_bits(),
                            re[u].to_bits(),
                            "n={n} inv={inverse} lane={l} re[{u}]"
                        );
                        assert_eq!(
                            lim[u * LANES + l].to_bits(),
                            im[u].to_bits(),
                            "n={n} inv={inverse} lane={l} im[{u}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(24);
    }

    #[test]
    #[should_panic(expected = "differs from planned length")]
    fn plan_rejects_length_mismatch() {
        let plan = FftPlan::new(8);
        let mut re = vec![0.0; 4];
        let mut im = vec![0.0; 4];
        plan.process::<1>(&mut re, &mut im, false);
    }
}
