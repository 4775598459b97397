//! `mep-lint`: workspace-aware static analysis enforcing the invariants
//! the placement flow's tests assume — panic-freedom in library code,
//! bit-identical determinism in result-affecting crates, allocation-free
//! hot loops, and `unsafe`-free crates.
//!
//! The pass is zero-dependency and self-contained (no `syn`, consistent
//! with the workspace's vendored-offline constraint): a hand-rolled
//! span-tracking [`lexer`] and one per-file [`context`] feed a set of
//! token-level [`rules`], an [`items`] parser and [`callgraph`] lift the
//! token streams into a workspace-scope view for the one interprocedural
//! rule ([`surface`]: the ratcheted panic surface), and an [`engine`]
//! applies inline [`suppress`]ions (`// lint:allow(rule): reason`, reason
//! mandatory, an unused one fails; the one way to allow a finding) before
//! reporting `file:line:col` diagnostics and a machine-readable
//! [`report`].
//!
//! Run it as:
//!
//! ```text
//! cargo run -p mep-lint -- check       # lint the workspace (CI gate)
//! cargo run -p mep-lint -- rules       # list rules
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod context;
pub mod diag;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod surface;
pub mod workspace;

pub use config::Config;
pub use diag::Violation;
pub use engine::{Engine, Outcome};
