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
//! There is one stack, single-threaded: every 1-D transform is a method of
//! [`DctPlan`], and [`Spectral2d::execute`] is the 2-D transform every
//! Poisson solve runs. A [`DctPlan`] per axis collapses each length-`2N`
//! transform onto an `N`-point complex FFT through the real-input
//! pack/unpack identities (the inputs are real, and the synthesis output of
//! a real spectrum is mirror-conjugate, so half the butterflies vanish),
//! every phase factor is a table lookup, and both passes transform
//! [`LANES`] adjacent lines at once — the column pass strided in place, so
//! no transpose exists. Lines left over when a dimension is below [`LANES`]
//! go through the scalar [`DctPlan::apply`], whose expressions the lane
//! kernels mirror one-for-one: a grid is bit-identical to applying the
//! scalar kernel to every row, then every column.

use crate::fft::{FftPlan, LANES};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scratch buffers for the FFT-based transforms (reused across calls).
#[derive(Debug, Clone, Default)]
pub struct TransformScratch {
    re: Vec<f64>,
    im: Vec<f64>,
    /// SoA buffers for the `*_lanes` kernels ([`LANES`] interleaved
    /// sequences). Grow-only, so alternating row/column sweeps of a
    /// rectangular grid never shrink-and-refill them.
    lre: Vec<f64>,
    lim: Vec<f64>,
    /// One gathered column for the scalar remainder lines of the column
    /// pass.
    line: Vec<f64>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffers without zeroing them (the kernels overwrite every
    /// slot before reading).
    fn ensure(&mut self, n: usize) {
        if self.re.len() != n {
            self.re.resize(n, 0.0);
            self.im.resize(n, 0.0);
        }
    }

    /// Grows (never shrinks) the lane buffers to `n · LANES` slots; the
    /// lane kernels overwrite every slot they read.
    fn ensure_lanes(&mut self, n: usize) {
        let need = n * LANES;
        if self.lre.len() < need {
            self.lre.resize(need, 0.0);
            self.lim.resize(need, 0.0);
        }
    }
}

/// Copies one [`LANES`]-wide group out of strided grid storage
/// (`src[at + l · lstep]`, `l = 0..LANES`). `lstep == 1` — the fused
/// column pass — is a straight 64-byte line copy.
#[inline]
fn load_group(src: &[f64], at: usize, lstep: usize, dst: &mut [f64]) {
    if lstep == 1 {
        dst.copy_from_slice(&src[at..at + LANES]);
    } else {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = src[at + l * lstep];
        }
    }
}

/// Scatters one [`LANES`]-wide group back into strided grid storage;
/// mirror of [`load_group`].
#[inline]
fn store_group(dst: &mut [f64], at: usize, lstep: usize, src: &[f64]) {
    if lstep == 1 {
        dst[at..at + LANES].copy_from_slice(src);
    } else {
        for (l, &s) in src.iter().enumerate() {
            dst[at + l * lstep] = s;
        }
    }
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
/// Holds an `N`-point [`FftPlan`] plus the two phase-factor tables the
/// real-input fast path needs, so [`DctPlan::apply`] performs **no**
/// trigonometry:
///
/// * **Analysis** ([`Kind::Dct2`]): the even-mirrored extension of the
///   input is a length-`2N` *real* sequence; its FFT is computed by packing
///   adjacent pairs into an `N`-point complex FFT and unpacking with the
///   conjugate-symmetry identity
///   `Y_u = (Z_u + Z̄_{N−u})/2 − (i/2)·e^{−iπu/N}(Z_u − Z̄_{N−u})`.
/// * **Synthesis** ([`Kind::Dct3`] / [`Kind::Dst3`]): the length-`2N`
///   half-spectrum inverse FFT `s_i = Σ_u c_u e^{iπu(i+½)/N}` of *real*
///   coefficients `c` satisfies `s_{2N−1−i} = s̄_i`, so its even-indexed
///   samples are exactly the `N`-point inverse FFT of
///   `d_u = c_u e^{iπu/2N}` and the odd-indexed samples are conjugated
///   mirror reads of the same array.
///
/// Either way a 1-D transform costs one `N`-point complex FFT and two
/// `O(N)` table passes.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    fft: FftPlan,
    /// `(cos, sin)` of `πu/2N`, `u = 0..N`: synthesis input rotation
    /// `e^{iπu/2N}`; its conjugate is the analysis output rotation.
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    /// `(cos, sin)` of `πk/N`, `k = 0..N`: real-FFT unpack rotation
    /// (used conjugated, as `e^{−iπk/N}`).
    un_re: Vec<f64>,
    un_im: Vec<f64>,
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
        let half_angle = |u: usize, denom: f64| {
            let ang = std::f64::consts::PI * u as f64 / denom;
            (ang.cos(), ang.sin())
        };
        let mut ph_re = Vec::with_capacity(n);
        let mut ph_im = Vec::with_capacity(n);
        let mut un_re = Vec::with_capacity(n);
        let mut un_im = Vec::with_capacity(n);
        for u in 0..n {
            let (c, s) = half_angle(u, 2.0 * n as f64);
            ph_re.push(c);
            ph_im.push(s);
            let (c, s) = half_angle(u, n as f64);
            un_re.push(c);
            un_im.push(s);
        }
        Self {
            n,
            fft: FftPlan::new(n),
            ph_re,
            ph_im,
            un_re,
            un_im,
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

    /// Applies `kind` to `inout` in place.
    ///
    /// # Panics
    ///
    /// Panics if `inout.len()` differs from the planned length.
    pub fn apply(&self, kind: Kind, inout: &mut [f64], scratch: &mut TransformScratch) {
        match kind {
            Kind::Dct2 => self.dct2(inout, scratch),
            Kind::Dct3 => self.dct3(inout, scratch),
            Kind::Dst3 => self.dst3(inout, scratch),
        }
    }

    /// In-place DCT-II: `X_u = Σ_i x_i cos(πu(i+½)/N)`.
    pub fn dct2(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        let n = self.n;
        assert_eq!(inout.len(), n, "input length differs from planned length");
        if n <= 1 {
            return; // X_0 = x_0
        }
        scratch.ensure(n);
        // pack the even-mirrored sequence y (y_i = x_i, y_{2N−1−i} = x_i)
        // pairwise: z_j = y_{2j} + i·y_{2j+1}
        let half = n / 2;
        for j in 0..half {
            scratch.re[j] = inout[2 * j];
            scratch.im[j] = inout[2 * j + 1];
        }
        for j in half..n {
            scratch.re[j] = inout[2 * n - 1 - 2 * j];
            scratch.im[j] = inout[2 * n - 2 - 2 * j];
        }
        self.fft.process(&mut scratch.re, &mut scratch.im, false);
        // Unpack bins 0..N of the 2N-point real FFT and rotate into
        // DCT-II. Conjugate symmetry pairs bin u with N−u, so one walk
        // over mirror pairs shares the Z loads and halves the unpack
        // traffic; u = 0 and u = N/2 are their own mirrors. `rot` is
        // mirrored verbatim in `dct2_lanes` — keep the expression shapes
        // in lockstep or the lane/scalar bitwise contract breaks.
        let rot = |u: usize, zr_u: f64, zi_u: f64, zr_v: f64, zi_v: f64| -> f64 {
            let a_re = 0.5 * (zr_u + zr_v);
            let a_im = 0.5 * (zi_u - zi_v);
            let d_re = 0.5 * (zr_u - zr_v);
            let d_im = 0.5 * (zi_u + zi_v);
            // B = −i·D, then Y = A + e^{−iπu/N}·B
            let (b_re, b_im) = (d_im, -d_re);
            let y_re = f64::mul_add(self.un_im[u], b_im, f64::mul_add(self.un_re[u], b_re, a_re));
            let y_im = f64::mul_add(
                -self.un_im[u],
                b_re,
                f64::mul_add(self.un_re[u], b_im, a_im),
            );
            // X_u = ½·Re[Y_u e^{−iπu/2N}]
            0.5 * f64::mul_add(self.ph_im[u], y_im, y_re * self.ph_re[u])
        };
        inout[0] = rot(
            0,
            scratch.re[0],
            scratch.im[0],
            scratch.re[0],
            scratch.im[0],
        );
        inout[half] = rot(
            half,
            scratch.re[half],
            scratch.im[half],
            scratch.re[half],
            scratch.im[half],
        );
        for u in 1..half {
            let v = n - u;
            let (zr_u, zi_u) = (scratch.re[u], scratch.im[u]);
            let (zr_v, zi_v) = (scratch.re[v], scratch.im[v]);
            inout[u] = rot(u, zr_u, zi_u, zr_v, zi_v);
            inout[v] = rot(v, zr_v, zi_v, zr_u, zi_u);
        }
    }

    /// In-place DCT-III: `y_i = X_0/2 + Σ_{u≥1} X_u cos(πu(i+½)/N)`.
    pub fn dct3(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        self.synthesize(inout, scratch, false)
    }

    /// In-place DST-III synthesis: `y_i = Σ_{u≥1} X_u sin(πu(i+½)/N)`.
    pub fn dst3(&self, inout: &mut [f64], scratch: &mut TransformScratch) {
        self.synthesize(inout, scratch, true)
    }

    fn synthesize(&self, inout: &mut [f64], scratch: &mut TransformScratch, sine: bool) {
        let n = self.n;
        assert_eq!(inout.len(), n, "input length differs from planned length");
        if n == 0 {
            return;
        }
        if n == 1 {
            inout[0] = if sine { 0.0 } else { 0.5 * inout[0] };
            return;
        }
        scratch.ensure(n);
        // d_u = c_u·e^{iπu/2N}; c_0 contributes only to the real (cosine)
        // output, so the sine path zeroes it
        let c0 = if sine { 0.0 } else { 0.5 * inout[0] };
        scratch.re[0] = c0;
        scratch.im[0] = 0.0;
        for u in 1..n {
            let c = inout[u];
            scratch.re[u] = c * self.ph_re[u];
            scratch.im[u] = c * self.ph_im[u];
        }
        self.fft.process(&mut scratch.re, &mut scratch.im, true);
        // s_{2m} = E_m, s_{2m+1} = conj(E_{N−1−m}); cosine output reads the
        // real parts, sine output the (sign-flipped on odd) imaginary parts
        let half = n / 2;
        if sine {
            for m in 0..half {
                inout[2 * m] = scratch.im[m];
                inout[2 * m + 1] = -scratch.im[n - 1 - m];
            }
        } else {
            for m in 0..half {
                inout[2 * m] = scratch.re[m];
                inout[2 * m + 1] = scratch.re[n - 1 - m];
            }
        }
    }

    /// Applies `kind` to [`LANES`] strided sequences of the grid `data`
    /// at once: element `u` of lane `l` lives at
    /// `data[base + u * estep + l * lstep]`.
    ///
    /// With `estep = 1, lstep = cols` this transforms eight adjacent grid
    /// rows; with `estep = cols, lstep = 1` eight adjacent grid columns
    /// in place — no transpose. Lane `l` of the result is bit-identical
    /// to [`DctPlan::apply`] on that sequence alone: the lane kernels
    /// mirror the scalar expressions one-for-one.
    ///
    /// # Panics
    ///
    /// Panics if any addressed element falls outside `data`.
    pub fn apply_lanes(
        &self,
        kind: Kind,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        match kind {
            Kind::Dct2 => self.dct2_lanes(data, base, estep, lstep, scratch),
            Kind::Dct3 => self.synthesize_lanes(data, base, estep, lstep, scratch, false),
            Kind::Dst3 => self.synthesize_lanes(data, base, estep, lstep, scratch, true),
        }
    }

    /// Lane variant of [`DctPlan::dct2`]; see [`DctPlan::apply_lanes`]
    /// for the addressing scheme and the bitwise-mirroring contract.
    pub fn dct2_lanes(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        const W: usize = LANES;
        let n = self.n;
        if n <= 1 {
            return; // X_0 = x_0
        }
        scratch.ensure_lanes(n);
        let lre = &mut scratch.lre[..n * W];
        let lim = &mut scratch.lim[..n * W];
        // pairwise pack of the even-mirrored sequence, per lane
        let half = n / 2;
        for j in 0..half {
            let e0 = base + (2 * j) * estep;
            let e1 = base + (2 * j + 1) * estep;
            load_group(data, e0, lstep, &mut lre[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut lim[j * W..j * W + W]);
        }
        for j in half..n {
            let e0 = base + (2 * n - 1 - 2 * j) * estep;
            let e1 = base + (2 * n - 2 - 2 * j) * estep;
            load_group(data, e0, lstep, &mut lre[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut lim[j * W..j * W + W]);
        }
        self.fft.process_lanes(lre, lim, false);
        // mirror-pair unpack; `rot` mirrors `DctPlan::dct2` verbatim
        let rot = |u: usize, zr_u: f64, zi_u: f64, zr_v: f64, zi_v: f64| -> f64 {
            let a_re = 0.5 * (zr_u + zr_v);
            let a_im = 0.5 * (zi_u - zi_v);
            let d_re = 0.5 * (zr_u - zr_v);
            let d_im = 0.5 * (zi_u + zi_v);
            let (b_re, b_im) = (d_im, -d_re);
            let y_re = f64::mul_add(self.un_im[u], b_im, f64::mul_add(self.un_re[u], b_re, a_re));
            let y_im = f64::mul_add(
                -self.un_im[u],
                b_re,
                f64::mul_add(self.un_re[u], b_im, a_im),
            );
            0.5 * f64::mul_add(self.ph_im[u], y_im, y_re * self.ph_re[u])
        };
        let mut tmp = [0.0_f64; W];
        for (l, t) in tmp.iter_mut().enumerate() {
            *t = rot(0, lre[l], lim[l], lre[l], lim[l]);
        }
        store_group(data, base, lstep, &tmp);
        for (l, t) in tmp.iter_mut().enumerate() {
            let (zr, zi) = (lre[half * W + l], lim[half * W + l]);
            *t = rot(half, zr, zi, zr, zi);
        }
        store_group(data, base + half * estep, lstep, &tmp);
        let mut tmp_v = [0.0_f64; W];
        for u in 1..half {
            let v = n - u;
            for l in 0..W {
                let (zr_u, zi_u) = (lre[u * W + l], lim[u * W + l]);
                let (zr_v, zi_v) = (lre[v * W + l], lim[v * W + l]);
                tmp[l] = rot(u, zr_u, zi_u, zr_v, zi_v);
                tmp_v[l] = rot(v, zr_v, zi_v, zr_u, zi_u);
            }
            store_group(data, base + u * estep, lstep, &tmp);
            store_group(data, base + v * estep, lstep, &tmp_v);
        }
    }

    /// Lane variant of the synthesis core; mirrors
    /// [`DctPlan::synthesize`] expression-for-expression.
    fn synthesize_lanes(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
        sine: bool,
    ) {
        const W: usize = LANES;
        let n = self.n;
        if n == 0 {
            return;
        }
        if n == 1 {
            for l in 0..W {
                let at = base + l * lstep;
                data[at] = if sine { 0.0 } else { 0.5 * data[at] };
            }
            return;
        }
        scratch.ensure_lanes(n);
        let lre = &mut scratch.lre[..n * W];
        let lim = &mut scratch.lim[..n * W];
        let mut tmp = [0.0_f64; W];
        load_group(data, base, lstep, &mut tmp);
        for l in 0..W {
            let c0 = if sine { 0.0 } else { 0.5 * tmp[l] };
            lre[l] = c0;
            lim[l] = 0.0;
        }
        for u in 1..n {
            let (pr, pi) = (self.ph_re[u], self.ph_im[u]);
            load_group(data, base + u * estep, lstep, &mut tmp);
            for l in 0..W {
                let c = tmp[l];
                lre[u * W + l] = c * pr;
                lim[u * W + l] = c * pi;
            }
        }
        self.fft.process_lanes(lre, lim, true);
        let half = n / 2;
        if sine {
            let mut odd = [0.0_f64; W];
            for m in 0..half {
                let src = &lim[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                for (l, o) in odd.iter_mut().enumerate() {
                    *o = -lim[(n - 1 - m) * W + l];
                }
                store_group(data, base + (2 * m + 1) * estep, lstep, &odd);
            }
        } else {
            for m in 0..half {
                let src = &lre[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                let mirror = &lre[(n - 1 - m) * W..(n - 1 - m) * W + W];
                store_group(data, base + (2 * m + 1) * estep, lstep, mirror);
            }
        }
    }
}

/// Process-wide [`DctPlan`] cache, keyed by transform length.
///
/// Plan construction is pure table precomputation — two plans for the
/// same length are element-for-element identical — so every
/// [`Spectral2d`] in the process shares one immutable plan per length
/// through an `Arc`. A long-lived multi-job driver (the `mep-serve`
/// daemon) pays the `O(N log N)` table build once per grid size ever
/// seen, not once per job, and concurrent jobs on same-sized grids share
/// the tables' cache footprint. Plans are read-only after construction,
/// so sharing cannot leak state between jobs.
fn plan_cache() -> &'static Mutex<std::collections::BTreeMap<usize, Arc<DctPlan>>> {
    static CACHE: std::sync::OnceLock<Mutex<std::collections::BTreeMap<usize, Arc<DctPlan>>>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

/// Returns the process-wide shared plan for length `n`, building and
/// caching it on first use.
///
/// # Panics
///
/// Panics if `n` is not a power of two (same contract as
/// [`DctPlan::new`]); the failed build is not cached.
pub fn shared_dct_plan(n: usize) -> Arc<DctPlan> {
    let mut cache = match plan_cache().lock() {
        Ok(g) => g,
        // a panic inside DctPlan::new (non-power-of-two) poisons the
        // lock but never left a partial entry behind; keep serving
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(plan) = cache.get(&n) {
        return Arc::clone(plan);
    }
    let plan = Arc::new(DctPlan::new(n));
    cache.insert(n, Arc::clone(&plan));
    plan
}

/// Call count, cumulative wall time, and per-kernel work counters of the
/// 2-D transforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Number of [`Spectral2d::execute`] calls.
    pub calls: u64,
    /// Cumulative wall time, nanoseconds.
    pub nanos: u64,
    /// [`LANES`]-wide row tiles transformed by the row pass.
    pub row_lane_tiles: u64,
    /// [`LANES`]-wide column tiles transformed by the column pass.
    pub col_lane_tiles: u64,
    /// Rows/columns that went through the scalar 1-D kernel instead of a
    /// lane tile (grid dimensions below [`LANES`]).
    pub scalar_lines: u64,
}

impl TransformStats {
    /// Cumulative wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Separable 2-D transform engine for one fixed `rows × cols` grid.
///
/// Caches a [`DctPlan`] per axis and one FFT scratch, so the placement hot
/// loop performs no allocation and no trigonometry. Both passes run
/// through [`LANES`]-wide SIMD-friendly lane kernels, and the column pass
/// walks the grid in place with strided tiles — eight adjacent columns
/// per tile, so every row touch is one full cache line and the grid is
/// never transposed.
///
/// # Determinism
///
/// Single-threaded, and every lane runs the same arithmetic as the scalar
/// 1-D kernel ([`DctPlan::apply`]), so a grid is bit-identical to applying
/// that kernel to each row and then to each column.
#[derive(Debug, Clone)]
pub struct Spectral2d {
    rows: usize,
    cols: usize,
    /// Shared per-length plans from the process-wide [`shared_dct_plan`]
    /// cache (immutable tables; cloning the engine clones the `Arc`).
    row_plan: Arc<DctPlan>,
    col_plan: Arc<DctPlan>,
    scratch: TransformScratch,
    stats: TransformStats,
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
            row_plan: shared_dct_plan(cols),
            col_plan: shared_dct_plan(rows),
            scratch: TransformScratch::new(),
            stats: TransformStats::default(),
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

    /// Instrumentation snapshot (calls, cumulative wall time, per-kernel
    /// work counters).
    pub fn stats(&self) -> TransformStats {
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
        assert_eq!(data.len(), self.rows * self.cols, "grid shape mismatch");
        // lint:allow(determinism): TransformStats timing telemetry; durations never feed back into results
        let t0 = Instant::now();
        self.sweep_rows(kind_x, data);
        self.sweep_cols(kind_y, data);
        self.stats.calls += 1;
        self.stats.nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Row pass: [`LANES`] adjacent rows per tile, transformed by the lane
    /// kernels; leftover rows (dimensions below [`LANES`]) go through the
    /// scalar kernel.
    fn sweep_rows(&mut self, kind: Kind, data: &mut [f64]) {
        const W: usize = LANES;
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return;
        }
        let tiles = rows / W;
        let rem = rows % W; // nonzero only when rows < LANES (power of two)
        for t in 0..tiles {
            self.row_plan
                .apply_lanes(kind, data, t * W * cols, 1, cols, &mut self.scratch);
        }
        for r in tiles * W..rows {
            let row = &mut data[r * cols..(r + 1) * cols];
            self.row_plan.apply(kind, row, &mut self.scratch);
        }
        self.stats.row_lane_tiles += tiles as u64;
        self.stats.scalar_lines += rem as u64;
    }

    /// Column pass: [`LANES`] adjacent columns per strided tile,
    /// transformed in place — every row touch is one cache line. Leftover
    /// columns (dimensions below [`LANES`]) are gathered, transformed by
    /// the scalar kernel and scattered back.
    fn sweep_cols(&mut self, kind: Kind, data: &mut [f64]) {
        const W: usize = LANES;
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return;
        }
        let tiles = cols / W;
        let rem = cols % W; // nonzero only when cols < LANES (power of two)
        for t in 0..tiles {
            self.col_plan
                .apply_lanes(kind, data, t * W, cols, 1, &mut self.scratch);
        }
        if rem > 0 {
            let mut line = std::mem::take(&mut self.scratch.line);
            line.resize(rows, 0.0);
            for c in tiles * W..cols {
                for (r, slot) in line.iter_mut().enumerate() {
                    *slot = data[r * cols + c];
                }
                self.col_plan.apply(kind, &mut line, &mut self.scratch);
                for (r, &val) in line.iter().enumerate() {
                    data[r * cols + c] = val;
                }
            }
            self.scratch.line = line;
        }
        self.stats.col_lane_tiles += tiles as u64;
        self.stats.scalar_lines += rem as u64;
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

    #[test]
    fn dct_round_trip() {
        let n = 64;
        let plan = DctPlan::new(n);
        let x = rand_seq(n, 4);
        let mut back = x.clone();
        let mut s = TransformScratch::new();
        plan.dct2(&mut back, &mut s);
        plan.dct3(&mut back, &mut s);
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

    #[test]
    fn dct_plan_matches_naive_all_kinds() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = DctPlan::new(n);
            assert_eq!(plan.len(), n);
            let mut scratch = TransformScratch::new();
            for kind in [Kind::Dct2, Kind::Dct3, Kind::Dst3] {
                let x = rand_seq(n, 100 + n as u64);
                let want = match kind {
                    Kind::Dct2 => naive::dct2(&x),
                    Kind::Dct3 => naive::dct3(&x),
                    Kind::Dst3 => naive::dst3(&x),
                };
                let mut got = x.clone();
                plan.apply(kind, &mut got, &mut scratch);
                for i in 0..n {
                    assert!(
                        (got[i] - want[i]).abs() < 1e-9,
                        "n={n} kind={kind:?} i={i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn shared_plan_cache_returns_one_instance_per_length() {
        let a = shared_dct_plan(32);
        let b = shared_dct_plan(32);
        assert!(Arc::ptr_eq(&a, &b), "same length shares one plan");
        assert_eq!(a.len(), 32);
        let c = shared_dct_plan(64);
        assert!(!Arc::ptr_eq(&a, &c));
        // two same-shape engines share both axis plans
        let e1 = Spectral2d::new(16, 32);
        let e2 = Spectral2d::new(16, 32);
        assert!(Arc::ptr_eq(&e1.row_plan, &e2.row_plan));
        assert!(Arc::ptr_eq(&e1.col_plan, &e2.col_plan));
        assert!(Arc::ptr_eq(&e1.row_plan, &a), "row plan has length cols");
    }

    #[test]
    fn dct_plan_is_deterministic_across_calls() {
        let n = 64;
        let plan = DctPlan::new(n);
        let x = rand_seq(n, 9);
        let mut scratch = TransformScratch::new();
        let mut first = x.clone();
        plan.dct2(&mut first, &mut scratch);
        for _ in 0..3 {
            let mut again = x.clone();
            plan.dct2(&mut again, &mut scratch);
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
    #[should_panic(expected = "differs from planned length")]
    fn dct_plan_rejects_length_mismatch() {
        let plan = DctPlan::new(8);
        let mut x = vec![0.0; 4];
        plan.dct2(&mut x, &mut TransformScratch::new());
    }

    #[test]
    fn apply_lanes_bitwise_matches_scalar_apply() {
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
                plan.apply_lanes(kind, &mut grid, 0, cols, 1, &mut scratch);
                for (l, col) in want.iter_mut().enumerate() {
                    plan.apply(kind, col, &mut scratch);
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
