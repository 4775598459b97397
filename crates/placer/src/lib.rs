//! The placement engine: electrostatic global placement, Abacus
//! legalization, and ABCDPlace-style detailed placement.
//!
//! This crate assembles the substrates (`mep-netlist`, `mep-wirelength`,
//! `mep-density`, `mep-optim`) into the paper's evaluation flow:
//!
//! * [`objective`] — the Eq. (1) objective `Σ W_e + λ D` as an
//!   optimizable problem over movable-cell centers;
//! * [`global`] — the ePlace loop with the Eq. (15) density-weight
//!   schedule and the Eq. (14) / decade smoothing schedules;
//! * [`legalize`](mod@legalize) — macro legalization + Abacus row legalization;
//! * [`detail`] — local reordering and global swap;
//! * [`pipeline`] — GP → LG → DP with the LGWL / DPWL / RT metrics of
//!   Tables II and III;
//! * [`flow`] — the multilevel driver (cluster coarsening, coarse solve,
//!   prolongation) and incremental (ECO) re-placement;
//! * [`guard`] + [`error`] — numerical-health monitoring with
//!   best-snapshot rollback and typed, fault-tolerant errors for the whole
//!   flow.
//!
//! # Example
//!
//! ```no_run
//! use mep_netlist::synth;
//! use mep_placer::pipeline::{run, PipelineConfig};
//!
//! let circuit = synth::generate(&synth::smoke_spec());
//! let result = run(&circuit, &PipelineConfig::default()).expect("placeable input");
//! println!("DPWL = {:.3e}, RT = {:.1}s", result.dpwl, result.rt_total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels index several parallel arrays with one counter; the
// iterator rewrites clippy suggests obscure those loops.
#![allow(clippy::needless_range_loop)]

pub mod cancel;
pub mod detail;
pub mod error;
pub mod flow;
pub mod global;
pub mod guard;
pub mod legalize;
pub mod objective;
pub mod pipeline;
pub mod telemetry;

pub use cancel::CancelToken;
pub use detail::{DetailConfig, DetailReport};
pub use error::PlacerError;
pub use flow::{
    replace_region, run_multilevel, EcoConfig, EcoResult, LevelStats, MultilevelConfig,
    MultilevelResult,
};
pub use global::{place, GlobalConfig, GlobalResult, MoreauSchedule, RampStart};
pub use guard::{Fault, RecoveryAction, RecoveryEvent, RecoveryLog, Termination};
pub use legalize::{check_legal, legalize, LegalizeReport, Violation};
pub use objective::EngineStats;
pub use pipeline::{run, PipelineConfig, PipelineResult};
pub use telemetry::DispHistogram;
