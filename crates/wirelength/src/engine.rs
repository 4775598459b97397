//! An inert name kept for the frozen `examples/bench_e2e`.
//!
//! [`EvalEngine`] holds nothing and nothing reads it: each stage owns its
//! counters by value (`NetlistEvaluator::stats`, the placer's
//! `PlacementProblem::stats`). The type, and the engine argument of the
//! entry points that still take one, go with the benchmark PR that deletes
//! the benchmark's other inert names (ROADMAP item 1(d)).

/// An empty type; see the module docs.
#[derive(Debug, Default)]
pub struct EvalEngine;

impl EvalEngine {
    /// [`EvalEngine::default`]; the argument is ignored.
    pub fn new(_threads: usize) -> Self {
        Self
    }
}
