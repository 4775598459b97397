//! Differentiable wirelength models for analytical global placement.
//!
//! This crate implements the paper's contribution — the **Moreau-envelope
//! HPWL model** ([`moreau`]) computed via the water-filling algorithm
//! ([`waterfill`]) — alongside every baseline the paper compares against:
//! log-sum-exp ([`lse`]), weighted-average ([`wa`]), the CHKS bivariate
//! model ([`big`]), and exact HPWL with its canonical subgradient
//! ([`hpwl`]). Each model is one per-net function; the one model type
//! [`model::AnyModel`] holds which model, its smoothing and the scratch
//! they evaluate in, and [`netgrad::NetlistEvaluator`] sums it over a
//! netlist.
//!
//! The overflow-driven smoothing schedules of §III-C (the paper's tangent
//! schedule Eq. (14) and ePlace's decade schedule) live in [`schedule`].
//!
//! # Example
//!
//! ```
//! use mep_wirelength::model::ModelKind;
//!
//! let mut ours = ModelKind::Moreau.instantiate(0.5);
//! let x = [0.0, 4.0, 10.0];
//! let mut grad = [0.0; 3];
//! let w = ours.eval_axis(&x, &mut grad);
//! assert!((w - 10.0).abs() < 0.6); // close to the exact span
//! assert!(grad.iter().sum::<f64>().abs() < 1e-12); // Corollary 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels index several parallel arrays with one counter; the
// iterator rewrites clippy suggests obscure those loops.
#![allow(clippy::needless_range_loop)]

pub mod big;
pub mod engine;
pub mod hpwl;
pub mod lse;
pub mod model;
pub mod moreau;
pub mod netgrad;
pub mod schedule;
pub mod wa;
pub mod waterfill;

pub use engine::{EngineStats, EvalEngine, Stage, StageStats};
pub use model::{AnyModel, ModelKind};
pub use netgrad::{NetlistEvaluator, WirelengthGrad};
pub use schedule::{EplaceGammaSchedule, SmoothingSchedule, TangentTSchedule};
