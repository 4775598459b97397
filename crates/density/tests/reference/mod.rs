//! `O(N²)` textbook references for the FFT and the three trigonometric
//! transforms: the correctness oracles of the density crate's tests.
//!
//! One copy, test code only: `tests/properties.rs` declares it as a
//! module, and the library's unit tests reach the same file through the
//! `#[cfg(test)] #[path]` declaration in `src/lib.rs`.

use std::f64::consts::PI;

/// Naive DFT (`inverse = false`) or unnormalized inverse DFT of a
/// split-complex sequence.
pub fn dft_naive(re: &[f64], im: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
    let n = re.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out_re = vec![0.0; n];
    let mut out_im = vec![0.0; n];
    for (k, (orr, oii)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
        let (mut sr, mut si) = (0.0, 0.0);
        for i in 0..n {
            let ang = sign * 2.0 * PI * (k * i) as f64 / n as f64;
            let (c, s) = (ang.cos(), ang.sin());
            sr += re[i] * c - im[i] * s;
            si += re[i] * s + im[i] * c;
        }
        *orr = sr;
        *oii = si;
    }
    (out_re, out_im)
}

/// Naive references for the three transforms.
pub mod naive {
    use std::f64::consts::PI;

    /// `O(N²)` DCT-II.
    pub fn dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|u| {
                x.iter()
                    .enumerate()
                    .map(|(i, &xi)| xi * (PI * u as f64 * (i as f64 + 0.5) / n as f64).cos())
                    .sum()
            })
            .collect()
    }

    /// `O(N²)` DCT-III.
    pub fn dct3(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                x[0] / 2.0
                    + (1..n)
                        .map(|u| x[u] * (PI * u as f64 * (i as f64 + 0.5) / n as f64).cos())
                        .sum::<f64>()
            })
            .collect()
    }

    /// `O(N²)` DST-III.
    pub fn dst3(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                (1..n)
                    .map(|u| x[u] * (PI * u as f64 * (i as f64 + 0.5) / n as f64).sin())
                    .sum()
            })
            .collect()
    }
}
