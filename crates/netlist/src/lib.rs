//! Circuit data model for analytical placement.
//!
//! This crate is the substrate every other `mep-*` crate builds on:
//!
//! * [`netlist::Netlist`] — an immutable, flat (CSR) placement hypergraph;
//! * [`placement::Placement`] — cell positions plus the exact HPWL metric;
//! * [`design::Design`] — the full placement problem (die, rows, density);
//! * [`bookshelf`] — reader/writer for the ISPD contest Bookshelf format;
//! * [`synth`] — deterministic synthetic stand-ins for the ISPD2006 and
//!   ISPD2019 circuits of the paper's Table I.
//!
//! # Example
//!
//! ```
//! use mep_netlist::synth;
//! use mep_netlist::placement::total_hpwl;
//!
//! let circuit = synth::generate(&synth::smoke_spec());
//! let hpwl = total_hpwl(&circuit.design.netlist, &circuit.placement);
//! assert!(hpwl > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bookshelf;
pub mod cluster;
pub mod design;
pub mod error;
pub mod geom;
pub mod ids;
pub mod lefdef;
pub mod netlist;
pub mod placement;
pub mod synth;

/// Hasher state of every hash container on the placement path: SipHash
/// under fixed keys, not `RandomState`'s per-process ones. None of the
/// containers is iterated for a result, but cloning and dropping one walks
/// its table, so with random keys the order of allocations, and with it
/// the peak resident set, differed between two runs on the same input.
pub type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

pub use cluster::{coarsen, CoarsenStats, Coarsened, ProlongationMap};
pub use design::{Design, Region, Row};
pub use error::NetlistError;
pub use geom::{Point, Rect};
pub use ids::{CellId, NetId, PinId};
pub use netlist::{Netlist, NetlistBuilder};
pub use placement::{net_hpwl, total_hpwl, Placement};
