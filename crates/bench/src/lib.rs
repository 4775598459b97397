//! Shared experiment-harness utilities: table formatting, CSV export, and
//! the run-one-benchmark flow used by the Table II/III binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod peko;
pub mod svg;
pub mod table;

pub use flow::{converged, run_claim, run_paper_table, write_jsonl, BenchmarkRow, FlowOptions};
pub use peko::{run_peko, PekoRow};
pub use table::Table;
