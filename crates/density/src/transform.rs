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
//! 2-D transform every Poisson solve runs. A [`DctPlan`] per axis collapses
//! each length-`2N` transform onto an `N`-point complex FFT through the
//! real-input pack/unpack identities (the inputs are real, and the
//! synthesis output of a real spectrum is mirror-conjugate, so half the
//! butterflies vanish), and every phase factor is a table lookup. Both
//! passes of a 2-D transform take [`LANES`] adjacent lines per tile — the
//! column pass strided in place, so no transpose exists — and a line left
//! over when a dimension is below [`LANES`] goes through the same function
//! at `W = 1`. A lane's arithmetic does not depend on `W`, so a grid is
//! bit-identical to `apply::<1>` on every row, then on every column.

use crate::fft::{FftPlan, LANES};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scratch buffers for the FFT-based transforms (reused across calls): one
/// split-complex pair holding the `W` interleaved sequences of a tile.
#[derive(Debug, Clone, Default)]
pub struct TransformScratch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl TransformScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows (never shrinks, so the alternating row/column sweeps of a
    /// rectangular grid never resize twice) the buffers to `len` slots,
    /// without zeroing: the kernels overwrite every slot they read.
    fn ensure(&mut self, len: usize) {
        if self.re.len() < len {
            self.re.resize(len, 0.0);
            self.im.resize(len, 0.0);
        }
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
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut ph_re = Vec::with_capacity(n);
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut ph_im = Vec::with_capacity(n);
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut un_re = Vec::with_capacity(n);
        // lint:allow(no-alloc-hot): construction; every transform reuses the plan
        let mut un_im = Vec::with_capacity(n);
        for u in 0..n {
            let (c, s) = half_angle(u, 2.0 * n as f64);
            // lint:allow(no-alloc-hot): construction; every transform reuses the plan
            ph_re.push(c);
            // lint:allow(no-alloc-hot): construction; every transform reuses the plan
            ph_im.push(s);
            let (c, s) = half_angle(u, n as f64);
            // lint:allow(no-alloc-hot): construction; every transform reuses the plan
            un_re.push(c);
            // lint:allow(no-alloc-hot): construction; every transform reuses the plan
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
        let last = base + (self.n - 1) * estep + (W - 1) * lstep;
        assert!(
            last < data.len(),
            "data ends before element {last} of a line of planned length {}",
            self.n
        );
        match kind {
            Kind::Dct2 => self.dct2::<W>(data, base, estep, lstep, scratch),
            Kind::Dct3 => self.synthesize::<W>(data, base, estep, lstep, scratch, false),
            Kind::Dst3 => self.synthesize::<W>(data, base, estep, lstep, scratch, true),
        }
    }

    /// DCT-II: `X_u = Σ_i x_i cos(πu(i+½)/N)`.
    fn dct2<const W: usize>(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
    ) {
        let n = self.n;
        if n <= 1 {
            return; // X_0 = x_0
        }
        scratch.ensure(n * W);
        let re = &mut scratch.re[..n * W];
        let im = &mut scratch.im[..n * W];
        // pack the even-mirrored sequence y (y_i = x_i, y_{2N−1−i} = x_i)
        // pairwise: z_j = y_{2j} + i·y_{2j+1}
        let half = n / 2;
        for j in 0..half {
            let e0 = base + (2 * j) * estep;
            let e1 = base + (2 * j + 1) * estep;
            load_group(data, e0, lstep, &mut re[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut im[j * W..j * W + W]);
        }
        for j in half..n {
            let e0 = base + (2 * n - 1 - 2 * j) * estep;
            let e1 = base + (2 * n - 2 - 2 * j) * estep;
            load_group(data, e0, lstep, &mut re[j * W..j * W + W]);
            load_group(data, e1, lstep, &mut im[j * W..j * W + W]);
        }
        self.fft.process::<W>(re, im, false);
        // Unpack bins 0..N of the 2N-point real FFT and rotate into
        // DCT-II. Conjugate symmetry pairs bin u with N−u, so one walk
        // over mirror pairs shares the Z loads and halves the unpack
        // traffic; u = 0 and u = N/2 are their own mirrors.
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
        let mut tmp = [0.0_f64; W];
        for (l, t) in tmp.iter_mut().enumerate() {
            *t = rot(0, re[l], im[l], re[l], im[l]);
        }
        store_group(data, base, lstep, &tmp);
        for (l, t) in tmp.iter_mut().enumerate() {
            let (zr, zi) = (re[half * W + l], im[half * W + l]);
            *t = rot(half, zr, zi, zr, zi);
        }
        store_group(data, base + half * estep, lstep, &tmp);
        let mut tmp_v = [0.0_f64; W];
        for u in 1..half {
            let v = n - u;
            for l in 0..W {
                let (zr_u, zi_u) = (re[u * W + l], im[u * W + l]);
                let (zr_v, zi_v) = (re[v * W + l], im[v * W + l]);
                tmp[l] = rot(u, zr_u, zi_u, zr_v, zi_v);
                tmp_v[l] = rot(v, zr_v, zi_v, zr_u, zi_u);
            }
            store_group(data, base + u * estep, lstep, &tmp);
            store_group(data, base + v * estep, lstep, &tmp_v);
        }
    }

    /// DCT-III (`sine = false`): `y_i = X_0/2 + Σ_{u≥1} X_u cos(πu(i+½)/N)`;
    /// DST-III (`sine = true`): `y_i = Σ_{u≥1} X_u sin(πu(i+½)/N)`.
    fn synthesize<const W: usize>(
        &self,
        data: &mut [f64],
        base: usize,
        estep: usize,
        lstep: usize,
        scratch: &mut TransformScratch,
        sine: bool,
    ) {
        let n = self.n;
        if n == 1 {
            for l in 0..W {
                let at = base + l * lstep;
                data[at] = if sine { 0.0 } else { 0.5 * data[at] };
            }
            return;
        }
        scratch.ensure(n * W);
        let re = &mut scratch.re[..n * W];
        let im = &mut scratch.im[..n * W];
        // d_u = c_u·e^{iπu/2N}; c_0 contributes only to the real (cosine)
        // output, so the sine path zeroes it
        let mut tmp = [0.0_f64; W];
        load_group(data, base, lstep, &mut tmp);
        for l in 0..W {
            let c0 = if sine { 0.0 } else { 0.5 * tmp[l] };
            re[l] = c0;
            im[l] = 0.0;
        }
        for u in 1..n {
            let (pr, pi) = (self.ph_re[u], self.ph_im[u]);
            load_group(data, base + u * estep, lstep, &mut tmp);
            for l in 0..W {
                let c = tmp[l];
                re[u * W + l] = c * pr;
                im[u * W + l] = c * pi;
            }
        }
        self.fft.process::<W>(re, im, true);
        // s_{2m} = E_m, s_{2m+1} = conj(E_{N−1−m}); cosine output reads the
        // real parts, sine output the (sign-flipped on odd) imaginary parts
        let half = n / 2;
        if sine {
            let mut odd = [0.0_f64; W];
            for m in 0..half {
                let src = &im[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                for (l, o) in odd.iter_mut().enumerate() {
                    *o = -im[(n - 1 - m) * W + l];
                }
                store_group(data, base + (2 * m + 1) * estep, lstep, &odd);
            }
        } else {
            for m in 0..half {
                let src = &re[m * W..m * W + W];
                store_group(data, base + (2 * m) * estep, lstep, src);
                let mirror = &re[(n - 1 - m) * W..(n - 1 - m) * W + W];
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

/// Call count and cumulative wall time of the 2-D transforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Number of [`Spectral2d::execute`] calls.
    pub calls: u64,
    /// Cumulative wall time, nanoseconds.
    pub nanos: u64,
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

    /// Instrumentation snapshot (calls, cumulative wall time).
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
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(data.len(), rows * cols, "grid shape mismatch");
        // lint:allow(determinism): TransformStats timing telemetry; durations never feed back into results
        let t0 = Instant::now();
        // rows are contiguous and `cols` apart; columns the other way round
        let scratch = &mut self.scratch;
        sweep(&self.row_plan, kind_x, data, rows, 1, cols, scratch);
        sweep(&self.col_plan, kind_y, data, cols, cols, 1, scratch);
        self.stats.calls += 1;
        self.stats.nanos += t0.elapsed().as_nanos() as u64;
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
