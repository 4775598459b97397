//! # moreau-placer
//!
//! A complete Rust reproduction of *"On a Moreau Envelope Wirelength Model
//! for Analytical Global Placement"* (DAC 2023): an electrostatic
//! (ePlace-style) analytical placer whose wirelength model is the Moreau
//! envelope of HPWL, computed exactly per net by a water-filling algorithm,
//! together with the LSE / WA / BiG_CHKS baselines, Abacus legalization,
//! and detailed placement.
//!
//! This facade re-exports the whole stack:
//!
//! * [`netlist`] — circuit data model, Bookshelf IO, synthetic ISPD-style
//!   benchmark generation;
//! * [`wirelength`] — the Moreau-envelope model and every baseline, plus
//!   the smoothing schedules;
//! * [`density`] — the electrostatic density system (FFT, spectral
//!   Poisson solver, overflow);
//! * [`optim`] — Nesterov (ePlace variant), the loop's one optimizer, and
//!   the `Problem` trait it drives;
//! * [`placer`] — global placement, legalization, detailed placement, and
//!   the full pipeline;
//! * [`obs`] — flow telemetry: per-iteration trace sinks and the one
//!   metric store, the end-of-run [`obs::RunReport`].
//!
//! # Quickstart
//!
//! ```no_run
//! use moreau_placer::netlist::synth;
//! use moreau_placer::placer::pipeline::{run, PipelineConfig};
//!
//! let circuit = synth::generate(&synth::smoke_spec());
//! let result = run(&circuit, &PipelineConfig::default()).expect("placeable input");
//! println!("final HPWL {:.4e} in {:.1}s", result.dpwl, result.rt_total());
//! ```

#![forbid(unsafe_code)]

pub use mep_density as density;
pub use mep_netlist as netlist;
pub use mep_obs as obs;
pub use mep_optim as optim;
pub use mep_placer as placer;
pub use mep_wirelength as wirelength;
