//! Trigonometric transforms (DCT-II / DCT-III / DST-III) built on the FFT.
//!
//! These are the kernels of the ePlace spectral Poisson solver. With the
//! half-sample cosine basis `cos(πu(i+½)/N)` (Neumann boundary):
//!
//! * [`Kind::Dct2`] — analysis:  `X_u = Σ_i x_i cos(πu(i+½)/N)`
//! * [`Kind::Dct3`] — synthesis: `y_i = X_0/2 + Σ_{u≥1} X_u cos(πu(i+½)/N)`
//! * [`Kind::Dst3`] — synthesis with sines: `y_i = Σ_{u≥1} X_u sin(πu(i+½)/N)`
//!   (what DREAMPlace calls IDXST; used for the electric field; the
//!   `u = 0` slot is ignored since `sin 0 = 0`)
//!
//! The pair satisfies `x = (2/N)·dct3(dct2(x))`.
//!
//! There is one stack, single-threaded, and one body per transform: every
//! 1-D transform is [`DctPlan::apply`], generic over the number `W` of
//! strided lines it transforms at once, and [`Spectral2d::execute`] is the
//! 2-D transform every Poisson solve runs. A [`DctPlan`] per axis runs each
//! length-`N` transform on one `N/2`-point complex FFT through Makhoul's
//! reordering (even samples ascending, odd samples descending, packed in
//! pairs), and every phase factor is a table lookup. Both passes of a 2-D
//! transform take [`LANES`] adjacent lines per tile — the column pass
//! strided in place, so no transpose exists — and a line left over when a
//! dimension is below [`LANES`] goes through the same function at `W = 1`.
//! A lane's arithmetic does not depend on `W`, so a grid is bit-identical
//! to `apply::<1>` on every row, then on every column.

use crate::fft::{FftPlan, LANES};
use mep_obs::StageStats;

/// Scratch buffers for the FFT-based transforms (reused across calls): the
/// split-complex pair of the `N/2`-point FFT and the `N` spectral values a
/// synthesis reads, each holding the `W` interleaved sequences of a tile.
#[derive(Debug, Clone, Default)]
pub struct TransformScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    tile: Vec<f64>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The FFT pair (`half` slots each) and the tile (`2·half` slots),
    /// grown first — never shrunk, so the alternating row/column sweeps of
    /// a rectangular grid never resize twice — and not zeroed: the kernels
    /// overwrite every slot they read.
    fn buffers(&mut self, half: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        if self.re.len() < half {
            self.re.resize(half, 0.0);
            self.im.resize(half, 0.0);
        }
        if self.tile.len() < 2 * half {
            self.tile.resize(2 * half, 0.0);
        }
        (
            &mut self.re[..half],
            &mut self.im[..half],
            &mut self.tile[..2 * half],
        )
    }
}

/// Copies one group of `dst.len()` lanes out of strided grid storage
/// (`src[at + l · lstep]`). `lstep == 1` — the column pass — is a straight
/// copy, one 64-byte line for a [`LANES`]-wide tile.
#[inline]
fn load_group(src: &[f64], at: usize, lstep: usize, dst: &mut [f64]) {
    if lstep == 1 {
        dst.copy_from_slice(&src[at..at + dst.len()]);
    } else {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = src[at + l * lstep];
        }
    }
}

/// Scatters one group of lanes back into strided grid storage; mirror of
/// [`load_group`].
#[inline]
fn store_group(dst: &mut [f64], at: usize, lstep: usize, src: &[f64]) {
    if lstep == 1 {
        dst[at..at + src.len()].copy_from_slice(src);
    } else {
        for (l, &s) in src.iter().enumerate() {
            dst[at + l * lstep] = s;
        }
    }
}

/// Element `u` of a `W`-lane SoA buffer as a fixed-width array: one bounds
/// check per element, none per lane, so the twiddle loops over these
/// arrays compile to packed arithmetic.
#[inline(always)]
fn lane<const W: usize>(s: &[f64], u: usize) -> [f64; W] {
    let mut out = [0.0; W];
    out.copy_from_slice(&s[u * W..u * W + W]);
    out
}

/// Writes element `u` of a `W`-lane SoA buffer; mirror of [`lane`].
#[inline(always)]
fn set_lane<const W: usize>(s: &mut [f64], u: usize, v: &[f64; W]) {
    s[u * W..u * W + W].copy_from_slice(v);
}

/// Which of the three length-`N` transforms to apply along one axis (see
/// the module docs for the definitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DCT-II analysis.
    Dct2,
    /// DCT-III synthesis.
    Dct3,
    /// DST-III synthesis.
    Dst3,
}

/// A reusable plan for the three length-`N` trigonometric transforms.
///
/// Holds an `N/2`-point [`FftPlan`] plus two phase-factor tables, so
/// [`DctPlan::apply`] performs **no** trigonometry. With `M = N/2`,
/// Makhoul's reordering `v_k = x_{2k}`, `v_{N−1−k} = x_{2k+1}` (`k < M`)
/// turns the DCT-II into `X_u = Re[e^{−iπu/2N} V_u]`, `V = DFT_N(v)`:
///
/// * **Analysis** ([`Kind::Dct2`]): `v` is real, so its `N`-point DFT is
///   one `M`-point FFT of `z_j = v_{2j} + i·v_{2j+1}`; one post-twiddle
///   pass splits each pair `Z_k`, `Z_{M−k}` into `V_k`, `V_{M−k}`, and
///   each `V_u` gives both `X_u` and `X_{N−u} = −Im[e^{−iπu/2N} V_u]`.
/// * **Synthesis** ([`Kind::Dct3`]): the exact inverse. The pre-twiddle
///   pass builds `V_u = ½e^{iπu/2N}(X_u − iX_{N−u})` (`V_0 = X_0/2`) and
///   folds each pair `V_k`, `V_{M−k}` into the Hermitian-packed input of
///   one `M`-point inverse FFT, whose output is `v` pairwise; the store
///   undoes the reordering.
/// * [`Kind::Dst3`] is the DCT-III of the index-reversed spectrum
///   (`X'_w = X_{N−w}`, `X'_0 = 0`) with the odd outputs negated, since
///   `sin(π(N−w)(i+½)/N) = (−1)^i cos(πw(i+½)/N)`: the reversal is the
///   load's index order and the sign the store's, so both synthesis kinds
///   run one body.
///
/// Either way a 1-D transform costs one `N/2`-point complex FFT and two
/// `O(N)` passes: analysis twiddles on the way out to the grid, synthesis
/// on the way in from one tile of scratch.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    fft: FftPlan,
    /// `½(cos, sin)` of `πk/2N`, `k = 0..=N/2`: the synthesis rotation
    /// `½e^{iπk/2N}`; its conjugate is the analysis rotation (the `½`
    /// absorbs the unpack's halving).
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    /// `(cos, sin)` of `2πk/N`, `k = 0..N/4`: the split/fold rotation
    /// `e^{2πik/N}` (conjugated in analysis).
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl DctPlan {
    /// Builds the plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "transform length {n} is not a power of two"
        );
        let half = n / 2;
        // `len` entries `scale·f(πk/denom)`
        let table = |len: usize, scale: f64, denom: usize, f: fn(f64) -> f64| {
            (0..len)
                .map(|k| scale * f(std::f64::consts::PI * k as f64 / denom as f64))
                // lint:allow(no-alloc-hot): construction; every transform reuses the plan
                .collect()
        };
        Self {
            n,
            fft: FftPlan::new(half.max(1)),
            ph_re: table(half + 1, 0.5, 2 * n, f64::cos),
            ph_im: table(half + 1, 0.5, 2 * n, f64::sin),
            tw_re: table(half.div_ceil(2), 1.0, half, f64::cos),
            tw_im: table(half.div_ceil(2), 1.0, half, f64::sin),
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

    /// Position in the line of element `m` of Makhoul's reordering.
    #[inline]
    fn reordered(&self, m: usize) -> usize {
        if 2 * m < self.n {
            2 * m
        } else {
            2 * self.n - 1 - 2 * m
        }
    }

    /// Applies `kind` in place to `W` strided sequences of the grid `data`
    /// at once: element `u` of lane `l` lives at
    /// `data[base + u * estep + l * lstep]`.
    ///
    /// `W = 1, estep = 1` transforms one contiguous sequence. With
    /// `W = LANES`, `estep = 1, lstep = cols` transforms eight adjacent
    /// grid rows; `estep = cols, lstep = 1` eight adjacent grid columns in
    /// place — no transpose. Lane `l` of the result is bit-identical to
    /// `apply::<1>` on that sequence alone: no expression depends on `W`.
    ///
    /// # Panics
    ///
    /// Panics if an addressed element falls outside `data`.
    pub fn apply<const W: usize>(
        &self,
        kind: Kind,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        let n = self.n;
        let last = base + (n - 1) * estep + (W - 1) * lstep;
        assert!(
            last < data.len(),
            "data ends before element {last} of a line of planned length {n}"
        );
        if n == 1 {
            for l in 0..W {
                let at = base + l * lstep;
                data[at] = match kind {
                    Kind::Dct2 => data[at],
                    Kind::Dct3 => 0.5 * data[at],
                    Kind::Dst3 => 0.0,
                };
            }
            return;
        }
        let (re, im, tile) = scratch.buffers(n / 2 * W);
        let at = |u: usize| base + u * estep;
        if kind == Kind::Dct2 {
            // z_j = v_{2j} + i·v_{2j+1}, read straight into the FFT pair
            for (j, (zr, zi)) in re
                .chunks_exact_mut(W)
                .zip(im.chunks_exact_mut(W))
                .enumerate()
            {
                load_group(data, at(self.reordered(2 * j)), lstep, zr);
                load_group(data, at(self.reordered(2 * j + 1)), lstep, zi);
            }
            self.fft.process::<W>(re, im, false);
            self.split_spectrum::<W>(re, im, |u, x| store_group(data, at(u), lstep, x));
            return;
        }
        // the whole spectrum is read into the tile in one sequential walk
        // (V_u needs both X_u and X_{N−u}); DST-III reads it index-reversed
        let sine = kind == Kind::Dst3;
        if sine {
            tile[..W].fill(0.0);
        } else {
            load_group(data, at(0), lstep, &mut tile[..W]);
        }
        for u in 1..n {
            let src = if sine { n - u } else { u };
            load_group(data, at(src), lstep, &mut tile[u * W..u * W + W]);
        }
        self.fold_spectrum::<W>(tile, re, im);
        self.fft.process::<W>(re, im, true);
        // v_{2j} = Re z_j, v_{2j+1} = Im z_j, back to line order; DST-III
        // negates the odd outputs (the second half of v)
        let mut neg = [0.0_f64; W];
        for m in 0..n {
            let part = if m % 2 == 0 { &*re } else { &*im };
            let src = &part[m / 2 * W..m / 2 * W + W];
            if sine && 2 * m >= n {
                for (d, &s) in neg.iter_mut().zip(src) {
                    *d = -s;
                }
                store_group(data, at(self.reordered(m)), lstep, &neg);
            } else {
                store_group(data, at(self.reordered(m)), lstep, src);
            }
        }
    }

    /// DCT-II post-twiddle: from the `M`-point FFT `Z` of the packed pairs,
    /// `2V_k = A − T` and `2V_{M−k} = conj(A + T)` with
    /// `A = Z_k + conj Z_{M−k}`, `D = Z_k − conj Z_{M−k}` and
    /// `T = i·e^{−2πik/N}·D`; then `X_u = Re[Y_u]`, `X_{N−u} = −Im[Y_u]`
    /// for `Y_u = ½e^{−iπu/2N}·2V_u`. Hands each of the `N` outputs to
    /// `put(u, X_u)`.
    fn split_spectrum<const W: usize>(
        &self,
        re: &[f64],
        im: &[f64],
        mut put: impl FnMut(usize, &[f64; W]),
    ) {
        let (n, m) = (self.n, self.n / 2);
        // k = 0: V_0 and V_M are real
        let (zr, zi) = (lane::<W>(re, 0), lane::<W>(im, 0));
        let pm = 2.0 * self.ph_re[m];
        let (mut x0, mut xm) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            x0[l] = zr[l] + zi[l];
            xm[l] = pm * (zr[l] - zi[l]);
        }
        put(0, &x0);
        put(m, &xm);
        if m < 2 {
            return;
        }
        // k = M/2 is its own mirror: 2V = 2·conj Z, so Y = 2·conj(p·Z)
        let h = m / 2;
        let (zr, zi) = (lane::<W>(re, h), lane::<W>(im, h));
        let (pc, ps) = (2.0 * self.ph_re[h], 2.0 * self.ph_im[h]);
        let (mut xh, mut xnh) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            xh[l] = f64::mul_add(pc, zr[l], -(ps * zi[l]));
            xnh[l] = f64::mul_add(pc, zi[l], ps * zr[l]);
        }
        put(h, &xh);
        put(n - h, &xnh);
        for k in 1..h {
            let (ur, ui) = (lane::<W>(re, k), lane::<W>(im, k));
            let (vr, vi) = (lane::<W>(re, m - k), lane::<W>(im, m - k));
            let (qc, qs) = (self.tw_re[k], self.tw_im[k]);
            let (pc, ps) = (self.ph_re[k], self.ph_im[k]);
            let (pc2, ps2) = (self.ph_re[m - k], self.ph_im[m - k]);
            let (mut xk, mut xnk, mut xmk, mut xpk) = ([0.0; W], [0.0; W], [0.0; W], [0.0; W]);
            for l in 0..W {
                let (ar, ai) = (ur[l] + vr[l], ui[l] - vi[l]);
                let (dr, di) = (ur[l] - vr[l], ui[l] + vi[l]);
                let tr = f64::mul_add(qs, dr, -(qc * di));
                let ti = f64::mul_add(qc, dr, qs * di);
                // 2V_k = A − T
                let (gr, gi) = (ar - tr, ai - ti);
                xk[l] = f64::mul_add(pc, gr, ps * gi);
                xnk[l] = f64::mul_add(ps, gr, -(pc * gi));
                // 2V_{M−k} = conj(A + T)
                let (hr, hi) = (ar + tr, ai + ti);
                xmk[l] = f64::mul_add(pc2, hr, -(ps2 * hi));
                xpk[l] = f64::mul_add(ps2, hr, pc2 * hi);
            }
            put(k, &xk);
            put(n - k, &xnk);
            put(m - k, &xmk);
            put(m + k, &xpk);
        }
    }

    /// DCT-III pre-twiddle, the inverse of [`DctPlan::split_spectrum`]:
    /// `V_u = ½e^{iπu/2N}(X_u − iX_{N−u})` from `tile`, folded as
    /// `Ẑ_k = A + T`, `Ẑ_{M−k} = conj(A − T)` with `A = V_k + conj V_{M−k}`,
    /// `D = V_k − conj V_{M−k}` and `T = i·e^{2πik/N}·D`, into the FFT
    /// pair, whose unnormalized `M`-point inverse is `v_{2j} + i·v_{2j+1}`.
    fn fold_spectrum<const W: usize>(&self, tile: &[f64], re: &mut [f64], im: &mut [f64]) {
        let (n, m) = (self.n, self.n / 2);
        // k = 0: V_0 = X_0/2 and V_M = (cos + sin)(π/4)/2 · X_M are real
        let (x0, xm) = (lane::<W>(tile, 0), lane::<W>(tile, m));
        let (p0, pm) = (self.ph_re[0], self.ph_re[m] + self.ph_im[m]);
        let (mut zr, mut zi) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            let (v0, vm) = (p0 * x0[l], pm * xm[l]);
            zr[l] = v0 + vm;
            zi[l] = v0 - vm;
        }
        set_lane(re, 0, &zr);
        set_lane(im, 0, &zi);
        if m < 2 {
            return;
        }
        // k = M/2 is its own mirror: Ẑ = 2·conj V
        let h = m / 2;
        let (xh, xnh) = (lane::<W>(tile, h), lane::<W>(tile, n - h));
        let (pc, ps) = (2.0 * self.ph_re[h], 2.0 * self.ph_im[h]);
        for l in 0..W {
            zr[l] = f64::mul_add(pc, xh[l], ps * xnh[l]);
            zi[l] = f64::mul_add(pc, xnh[l], -(ps * xh[l]));
        }
        set_lane(re, h, &zr);
        set_lane(im, h, &zi);
        for k in 1..h {
            let (xk, xnk) = (lane::<W>(tile, k), lane::<W>(tile, n - k));
            let (xmk, xpk) = (lane::<W>(tile, m - k), lane::<W>(tile, m + k));
            let (qc, qs) = (self.tw_re[k], self.tw_im[k]);
            let (pc, ps) = (self.ph_re[k], self.ph_im[k]);
            let (pc2, ps2) = (self.ph_re[m - k], self.ph_im[m - k]);
            let (mut ur, mut ui, mut wr, mut wi) = ([0.0; W], [0.0; W], [0.0; W], [0.0; W]);
            for l in 0..W {
                // V_k and V_{M−k}
                let vr = f64::mul_add(pc, xk[l], ps * xnk[l]);
                let vi = f64::mul_add(ps, xk[l], -(pc * xnk[l]));
                let sr = f64::mul_add(pc2, xmk[l], ps2 * xpk[l]);
                let si = f64::mul_add(ps2, xmk[l], -(pc2 * xpk[l]));
                let (ar, ai) = (vr + sr, vi - si);
                let (dr, di) = (vr - sr, vi + si);
                let tr = -f64::mul_add(qc, di, qs * dr);
                let ti = f64::mul_add(qc, dr, -(qs * di));
                ur[l] = ar + tr;
                ui[l] = ai + ti;
                wr[l] = ar - tr;
                wi[l] = ti - ai;
            }
            set_lane(re, k, &ur);
            set_lane(im, k, &ui);
            set_lane(re, m - k, &wr);
            set_lane(im, m - k, &wi);
        }
    }
}

/// Separable 2-D transform engine for one fixed `rows × cols` grid.
///
/// Owns a [`DctPlan`] per axis and one FFT scratch, so the placement hot
/// loop performs no allocation and no trigonometry. Both passes take
/// [`LANES`] adjacent lines per tile, and the column pass walks the grid in
/// place with strided tiles — eight adjacent columns per tile, so every row
/// touch is one full cache line and the grid is never transposed.
///
/// # Determinism
///
/// Single-threaded, and a line's arithmetic does not depend on the width of
/// the tile it is transformed in, so a grid is bit-identical to applying
/// [`DctPlan::apply`] at `W = 1` to each row and then to each column.
#[derive(Debug, Clone)]
pub struct Spectral2d {
    rows: usize,
    cols: usize,
    row_plan: DctPlan,
    col_plan: DctPlan,
    scratch: TransformScratch,
    stats: StageStats,
}

impl Spectral2d {
    /// Builds the engine for a row-major `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_plan: DctPlan::new(cols),
            col_plan: DctPlan::new(rows),
            scratch: TransformScratch::new(),
            stats: StageStats::default(),
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// [`Spectral2d::execute`] calls and their cumulative wall time.
    pub fn stats(&self) -> StageStats {
        self.stats
    }

    /// Applies `kind_x` along rows (the x-direction, i.e. over columns)
    /// then `kind_y` along columns of the row-major grid `data`, in place.
    /// The grid is traversed twice per call, once per pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn execute(&mut self, data: &mut [f64], kind_x: Kind, kind_y: Kind) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(data.len(), rows * cols, "grid shape mismatch");
        // rows are contiguous and `cols` apart; columns the other way round
        let scratch = &mut self.scratch;
        let (row_plan, col_plan) = (&self.row_plan, &self.col_plan);
        self.stats.time(|| {
            sweep(row_plan, kind_x, data, rows, 1, cols, scratch);
            sweep(col_plan, kind_y, data, cols, cols, 1, scratch);
        });
    }
}

/// One pass of a 2-D transform: `kind` along each of `lines` parallel grid
/// lines, line `i` starting at `i · lstep` with its elements `estep` apart.
/// Whole tiles of [`LANES`] adjacent lines, then any leftover line (a
/// dimension below [`LANES`]) one at a time through the same kernel.
fn sweep(
    plan: &DctPlan,
    kind: Kind,
    data: &mut [f64],
    lines: usize,
    estep: usize,
    lstep: usize,
    scratch: &mut TransformScratch,
) {
    let whole = lines - lines % LANES;
    for i in (0..whole).step_by(LANES) {
        plan.apply::<LANES>(kind, data, i * lstep, estep, lstep, scratch);
    }
    for i in whole..lines {
        plan.apply::<1>(kind, data, i * lstep, estep, lstep, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive;

    fn rand_seq(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// `kind` on one contiguous sequence: the `W = 1` instantiation.
    fn apply_one(plan: &DctPlan, kind: Kind, x: &mut [f64], scratch: &mut TransformScratch) {
        plan.apply::<1>(kind, x, 0, 1, 1, scratch);
    }

    #[test]
    fn dct_round_trip() {
        let n = 64;
        let plan = DctPlan::new(n);
        let x = rand_seq(n, 4);
        let mut back = x.clone();
        let mut s = TransformScratch::new();
        apply_one(&plan, Kind::Dct2, &mut back, &mut s);
        apply_one(&plan, Kind::Dct3, &mut back, &mut s);
        for i in 0..n {
            assert!((x[i] - 2.0 / n as f64 * back[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn execute_single_mode() {
        // a pure cosine mode concentrates in a single coefficient
        let (rows, cols) = (8usize, 8usize);
        let (u, v) = (3usize, 2usize);
        let mut data = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let cy = (std::f64::consts::PI * u as f64 * (r as f64 + 0.5) / rows as f64).cos();
                let cx = (std::f64::consts::PI * v as f64 * (c as f64 + 0.5) / cols as f64).cos();
                data[r * cols + c] = cy * cx;
            }
        }
        Spectral2d::new(rows, cols).execute(&mut data, Kind::Dct2, Kind::Dct2);
        // expected magnitude N·M/4 in the (u, v) slot, ~0 elsewhere
        for r in 0..rows {
            for c in 0..cols {
                let want = if (r, c) == (u, v) {
                    rows as f64 * cols as f64 / 4.0
                } else {
                    0.0
                };
                assert!(
                    (data[r * cols + c] - want).abs() < 1e-9,
                    "({r},{c}) = {}",
                    data[r * cols + c]
                );
            }
        }
    }

    /// Both instantiations against the `O(N²)` references: one sequence at
    /// `W = 1`, and [`LANES`] distinct sequences interleaved as a column
    /// tile (`estep = LANES, lstep = 1`) at `W = LANES`.
    #[test]
    fn dct_plan_matches_naive_all_kinds() {
        for &n in &[1usize, 2, 4, 8, 32, 128, 1024] {
            let plan = DctPlan::new(n);
            assert_eq!(plan.len(), n);
            let mut scratch = TransformScratch::new();
            let tol = 1e-9 * n as f64; // the reference itself drifts with n
            for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
                let want = |x: &[f64]| match kind {
                    Kind::Dct2 => naive::dct2(x),
                    Kind::Dct3 => naive::dct3(x),
                    Kind::Dst3 => naive::dst3(x),
                };
                let x = rand_seq(n, 100 + n as u64);
                let mut got = x.clone();
                apply_one(&plan, kind, &mut got, &mut scratch);
                for (i, w) in want(&x).iter().enumerate() {
                    assert!(
                        (got[i] - w).abs() < tol,
                        "n={n} kind={kind:?} i={i}: {} vs {w}",
                        got[i]
                    );
                }
                let mut tile = rand_seq(n * LANES, 300 + n as u64);
                let lanes: Vec<Vec<f64>> = (0..LANES)
                    .map(|l| (0..n).map(|u| tile[u * LANES + l]).collect())
                    .collect();
                plan.apply::<LANES>(kind, &mut tile, 0, LANES, 1, &mut scratch);
                for (l, x) in lanes.iter().enumerate() {
                    for (i, w) in want(x).iter().enumerate() {
                        let got = tile[i * LANES + l];
                        assert!(
                            (got - w).abs() < tol,
                            "n={n} kind={kind:?} lane={l} i={i}: {got} vs {w}"
                        );
                    }
                }
            }
        }
    }

    /// DST-III is the DCT-III of the index-reversed spectrum
    /// (`X'_w = X_{N−w}`, `X'_0 = 0`) with its odd outputs negated, to the
    /// bit: the two kinds share one synthesis body.
    #[test]
    fn dst3_is_the_reversed_sign_alternated_dct3() {
        for &n in &[1usize, 2, 4, 8, 128, 1024] {
            let plan = DctPlan::new(n);
            let mut scratch = TransformScratch::new();
            let x = rand_seq(n, 500 + n as u64);
            let mut sine = x.clone();
            apply_one(&plan, Kind::Dst3, &mut sine, &mut scratch);
            let mut cosine: Vec<f64> = (0..n)
                .map(|w| if w == 0 { 0.0 } else { x[n - w] })
                .collect();
            apply_one(&plan, Kind::Dct3, &mut cosine, &mut scratch);
            for i in 0..n {
                let want = if i % 2 == 1 { -cosine[i] } else { cosine[i] };
                assert_eq!(sine[i].to_bits(), want.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dct_plan_is_deterministic_across_calls() {
        let n = 64;
        let plan = DctPlan::new(n);
        let x = rand_seq(n, 9);
        let mut scratch = TransformScratch::new();
        let mut first = x.clone();
        apply_one(&plan, Kind::Dct2, &mut first, &mut scratch);
        for _ in 0..3 {
            let mut again = x.clone();
            apply_one(&plan, Kind::Dct2, &mut again, &mut scratch);
            for i in 0..n {
                assert_eq!(again[i].to_bits(), first[i].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn dct_plan_rejects_non_power_of_two() {
        let _ = DctPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "of planned length 8")]
    fn dct_plan_rejects_length_mismatch() {
        let plan = DctPlan::new(8);
        let mut x = vec![0.0; 4];
        apply_one(&plan, Kind::Dct2, &mut x, &mut TransformScratch::new());
    }

    #[test]
    fn lanes_bitwise_match_single_lane() {
        for &n in &[2usize, 8, 16, 128] {
            let plan = DctPlan::new(n);
            let mut scratch = TransformScratch::new();
            for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
                // strided layout: element u of lane l at u*LANES + l
                let cols = LANES;
                let mut grid = rand_seq(n * cols, 70 + n as u64);
                let mut want: Vec<Vec<f64>> = (0..cols)
                    .map(|l| (0..n).map(|u| grid[u * cols + l]).collect())
                    .collect();
                plan.apply::<LANES>(kind, &mut grid, 0, cols, 1, &mut scratch);
                for (l, col) in want.iter_mut().enumerate() {
                    apply_one(&plan, kind, col, &mut scratch);
                    for u in 0..n {
                        assert_eq!(
                            grid[u * cols + l].to_bits(),
                            col[u].to_bits(),
                            "n={n} kind={kind:?} lane={l} elem={u}"
                        );
                    }
                }
            }
        }
    }
}
