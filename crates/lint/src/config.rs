//! Per-rule configuration: which crates must be deterministic, which
//! modules are hot, where wall-clock reads are sanctioned, and which
//! functions must be panic-free.
//!
//! The defaults encode this workspace's invariants; tests construct
//! custom configs to exercise rules in isolation.

/// Rule configuration consulted by [`crate::rules`] and [`crate::surface`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs must be bit-identical run to run (the
    /// determinism rule only fires inside these). Crate names as in
    /// [`crate::workspace::SourceFile::crate_name`].
    pub result_affecting: Vec<String>,
    /// Workspace-relative paths of hot-loop modules where the no-alloc
    /// rule applies.
    pub hot_paths: Vec<String>,
    /// Workspace-relative path prefixes where `Instant::now` /
    /// `SystemTime` are sanctioned (the telemetry layer).
    pub clock_whitelist: Vec<String>,
    /// Workspace-relative paths of individual modules that must be
    /// deterministic even though their crate as a whole is not
    /// result-affecting — e.g. the known-optimum harness plumbing in the
    /// bench crate, whose measured suboptimality ratios feed the CI
    /// quality guard and must reproduce bit-exactly.
    pub deterministic_paths: Vec<String>,
    /// Functions (`crate::fn` or `crate::Type::fn`) from which no panic
    /// site may be transitively reachable outside `catch_unwind` — the
    /// daemon's job-execution prologue, where a panic would take down a
    /// worker thread instead of failing one job.
    pub protected_roots: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            result_affecting: [
                "netlist",
                "wirelength",
                "density",
                "optim",
                "placer",
                "moreau-placer",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            hot_paths: [
                // the Moreau prox / water-filling / whole-netlist
                // evaluation hot loops (paper Alg. 1–2), the stage clock
                // that times every evaluation, the spectral density solver,
                // including the fused lane kernels and the per-net gather,
                // and the whole density stage: its two per-cell passes and
                // the update, reductions and overflow around them
                "crates/wirelength/src/moreau.rs",
                "crates/wirelength/src/waterfill.rs",
                "crates/wirelength/src/netgrad.rs",
                "crates/obs/src/stage.rs",
                "crates/density/src/transform.rs",
                "crates/density/src/fft.rs",
                "crates/density/src/poisson.rs",
                "crates/density/src/footprint.rs",
                "crates/density/src/electro.rs",
                "crates/density/src/grid.rs",
                // the daemon's admission queue: steady-state scheduling
                // must never allocate (backpressure, not buffer growth)
                "crates/serve/src/queue.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            clock_whitelist: ["crates/obs/", "crates/placer/src/telemetry.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            deterministic_paths: [
                // the PEKO known-optimum harness: its ratios are compared
                // exactly against a committed baseline by the CI guard
                "crates/bench/src/peko.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            // the worker loop and its claim/finish phases run outside the
            // per-job catch_unwind; a panic there kills the worker thread,
            // not just the job
            protected_roots: [
                "serve::worker_loop",
                "serve::claim_next_job",
                "serve::finish_job",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl Config {
    /// True when `crate_name` must produce bit-identical results.
    pub fn is_result_affecting(&self, crate_name: &str) -> bool {
        self.result_affecting.iter().any(|c| c == crate_name)
    }

    /// True when `rel_path` is a declared hot-loop module.
    pub fn is_hot(&self, rel_path: &str) -> bool {
        self.hot_paths.iter().any(|p| p == rel_path)
    }

    /// True when `rel_path` may read wall clocks.
    pub fn clock_allowed(&self, rel_path: &str) -> bool {
        self.clock_whitelist
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    /// True when `rel_path` is individually declared deterministic (the
    /// determinism rule fires there regardless of the owning crate).
    pub fn is_deterministic_path(&self, rel_path: &str) -> bool {
        self.deterministic_paths.iter().any(|p| p == rel_path)
    }
}
