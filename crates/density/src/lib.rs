//! ePlace-style electrostatic density system for analytical placement.
//!
//! The density penalty `D(x, y)` of the global-placement objective
//! (Eq. (1) of the paper) is modeled electrostatically, as in ePlace \[18\]
//! and DREAMPlace \[20\]: cells are charges, density is charge density, and
//! the penalty is the field energy obtained from a Poisson solve.
//!
//! Layers, bottom-up:
//!
//! * [`fft`] — a from-scratch iterative radix-2 complex FFT;
//! * [`transform`] — DCT-II / DCT-III / DST-III on top of the FFT
//!   (the DREAMPlace transform set);
//! * [`grid`] — bin grid, exact-overlap rasterization with ePlace local
//!   smoothing, and the density-overflow metric (the movable cells'
//!   footprints are tabled once per stage and shared with the gather);
//! * [`poisson`] — the spectral Poisson solver (`ψ`, `E_x`, `E_y`);
//! * [`electro`] — the user-facing [`electro::Electrostatics`] system:
//!   energy, overflow, and per-cell density gradients.
//!
//! # Example
//!
//! ```
//! use mep_density::electro::Electrostatics;
//! use mep_netlist::synth;
//!
//! let c = synth::generate(&synth::smoke_spec());
//! let mut es = Electrostatics::new(&c.design, &c.placement);
//! let report = es.update(&c.design.netlist, &c.placement);
//! assert!(report.overflow > 0.0); // cells start piled at the die center
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels index several parallel arrays with one counter; the
// iterator rewrites clippy suggests obscure those loops.
#![allow(clippy::needless_range_loop)]

pub mod electro;
pub mod fft;
mod footprint;
pub mod grid;
pub mod poisson;
pub mod transform;

/// The `O(N²)` test oracles, shared with `tests/properties.rs`.
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

pub use electro::{DensityReport, Electrostatics};
pub use fft::FftPlan;
pub use grid::{BinGrid, DensityMap};
pub use poisson::PoissonSolver;
pub use transform::{DctPlan, Spectral2d};
