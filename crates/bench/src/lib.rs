//! Shared experiment-harness utilities: the command line and the artifact
//! rule of every harness binary, table formatting, and the claims run
//! behind the paper's tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod harness;
pub mod peko;
pub mod svg;
pub mod table;

pub use flow::{converged, run_claim, run_paper_table, run_suite, BenchmarkRow, FAST_SHRINK};
pub use harness::{Args, Artifacts};
pub use peko::{run_peko, PekoRow};
pub use table::Table;
