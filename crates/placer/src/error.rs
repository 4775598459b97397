//! Typed errors for the placement flow.
//!
//! Every fallible entry point of this crate ([`crate::global::place`],
//! [`crate::pipeline::run`], …) returns [`PlacerError`] instead of
//! panicking: malformed inputs surface as [`PlacerError::Netlist`] with
//! file/line context from the parsers, degenerate-but-well-formed inputs
//! (nothing to place, zero-area die) as [`PlacerError::DegenerateInput`],
//! unrecoverable numerical faults as [`PlacerError::NumericalFailure`], a
//! design the legalizer cannot fit as [`PlacerError::Legalize`], and a
//! final placement that fails [`check_legal`](crate::legalize::check_legal)
//! as [`PlacerError::Illegal`]: every `Ok` of the pipeline is legal.

use crate::legalize::Violation;
use mep_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Error produced by the placement flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacerError {
    /// Netlist construction or parsing failed (carries file/line context).
    Netlist(NetlistError),
    /// The input is well-formed but cannot be placed (e.g. no movable
    /// cells, zero-area die, non-finite initial coordinates).
    DegenerateInput {
        /// What makes the input degenerate.
        reason: String,
    },
    /// A numerical fault that the recovery guard could not handle (e.g. a
    /// non-finite objective before the first iteration).
    NumericalFailure {
        /// Iteration at which the fault surfaced (0 for setup).
        iteration: usize,
        /// What went wrong.
        detail: String,
    },
    /// Legalization could not produce an overlap-free placement — the
    /// design's movable area exceeds its free row capacity (globally or
    /// within one fence region), so some cell has no segment to live in.
    Legalize {
        /// Which cell failed to place and why.
        reason: String,
    },
    /// The flow's final placement fails
    /// [`check_legal`](crate::legalize::check_legal).
    Illegal {
        /// How many violations it found.
        count: usize,
        /// The first of them (at most five).
        first: Vec<Violation>,
    },
}

impl fmt::Display for PlacerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacerError::Netlist(e) => write!(f, "{e}"),
            PlacerError::DegenerateInput { reason } => {
                write!(f, "degenerate placement input: {reason}")
            }
            PlacerError::NumericalFailure { iteration, detail } => {
                write!(f, "numerical failure at iteration {iteration}: {detail}")
            }
            PlacerError::Legalize { reason } => {
                write!(f, "legalization failed: {reason}")
            }
            PlacerError::Illegal { count, first } => {
                write!(f, "illegal placement: {count} violations, first {first:?}")
            }
        }
    }
}

impl Error for PlacerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlacerError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for PlacerError {
    fn from(e: NetlistError) -> Self {
        PlacerError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = PlacerError::DegenerateInput {
            reason: "no movable cells".into(),
        };
        assert!(e.to_string().contains("no movable cells"));
        let e = PlacerError::NumericalFailure {
            iteration: 7,
            detail: "non-finite objective".into(),
        };
        assert!(e.to_string().contains("iteration 7"));
        let e: PlacerError = NetlistError::Parse {
            file: "nets",
            line: 3,
            message: "bad NetDegree".into(),
        }
        .into();
        assert!(e.to_string().contains("line 3"));
        let e = PlacerError::Legalize {
            reason: "no free row segment can host cell `c7`".into(),
        };
        assert!(e.to_string().contains("legalization failed"));
        assert!(e.to_string().contains("c7"));
        let e = PlacerError::Illegal {
            count: 3,
            first: vec![Violation::OffRow(mep_netlist::CellId(4))],
        };
        assert_eq!(
            e.to_string(),
            "illegal placement: 3 violations, first [OffRow(CellId(4))]",
            "one line: the CLI prints it as its reason"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlacerError>();
    }
}
