//! Job descriptions, typed terminal states, and the memory-budget
//! estimator.

use crate::parse::JsonValue;
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::synth;
use mep_placer::Termination;
use std::time::Duration;

/// Where a job's circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A built-in synthetic benchmark or smoke design by name.
    Builtin(String),
    /// A Bookshelf `.aux` file on the daemon's filesystem.
    Aux(String),
    /// The seeded scalable clustered generator
    /// ([`synth::scaled_clustered_spec`]): `{movable, seed}`.
    Scaled {
        /// Movable-cell count to generate.
        movable: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl CircuitSource {
    /// Parses the protocol's `circuit` field: a string (builtin name or
    /// `*.aux` path) or `{"scaled":[movable, seed]}`.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        if let Some(s) = v.as_str() {
            if s.ends_with(".aux") {
                return Ok(CircuitSource::Aux(s.to_string()));
            }
            return Ok(CircuitSource::Builtin(s.to_string()));
        }
        if let Some(arr) = v.get("scaled").and_then(JsonValue::as_arr) {
            if let [m, s] = arr {
                if let (Some(movable), Some(seed)) = (m.as_u64(), s.as_u64()) {
                    return Ok(CircuitSource::Scaled {
                        movable: movable as usize,
                        seed,
                    });
                }
            }
            return Err("circuit.scaled must be [movable, seed]".to_string());
        }
        Err("circuit must be a name, an .aux path, or {\"scaled\":[movable,seed]}".to_string())
    }

    /// Conservative pre-load working-set estimate in bytes, used to
    /// reject oversized jobs **before** any allocation happens. For
    /// generated sources the cell/net counts are known from the spec
    /// alone; for an `.aux` index only the sizes of the files it lists are
    /// known up front (8 × their sum), and a second estimate runs after
    /// parsing. An index that cannot be read or parsed estimates 0 and
    /// fails at load.
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            // cost model: estimate_bytes over the spec's counts
            CircuitSource::Builtin(name) => match synth::builtin(name) {
                Some(builtin) => {
                    let (cells, nets, pins) = builtin.size();
                    estimate_bytes(cells, nets, pins)
                }
                None => 0, // unknown name fails at load with JobError::Load
            },
            CircuitSource::Scaled { movable, seed } => {
                let spec = synth::scaled_clustered_spec(*movable, *seed);
                estimate_bytes(spec.movable + spec.fixed, spec.nets, spec.pins)
            }
            CircuitSource::Aux(path) => match mep_netlist::bookshelf::aux_files(path) {
                Ok(files) => files
                    .paths()
                    .filter_map(|p| std::fs::metadata(p).ok())
                    .fold(0_u64, |sum, m| sum.saturating_add(m.len()))
                    .saturating_mul(8),
                Err(_) => 0,
            },
        }
    }

    /// Loads/generates the circuit.
    pub fn load(&self) -> Result<BookshelfCircuit, JobError> {
        match self {
            CircuitSource::Builtin(name) => {
                synth::builtin(name)
                    .map(|b| b.generate())
                    .ok_or_else(|| JobError::Load {
                        detail: format!("unknown circuit {name:?}"),
                    })
            }
            CircuitSource::Scaled { movable, seed } => Ok(synth::generate(
                &synth::scaled_clustered_spec(*movable, *seed),
            )),
            CircuitSource::Aux(path) => {
                mep_netlist::bookshelf::read_aux(path, 1.0).map_err(|e| JobError::Load {
                    detail: e.to_string(),
                })
            }
        }
    }
}

/// Rough per-job working-set cost model, in bytes, of a circuit with these
/// counts. Deliberately generous: coordinate/gradient/parameter arrays,
/// net/pin index structures, the density grid, and multilevel copies. Used
/// only for admission control — an order-of-magnitude screen against jobs
/// that would OOM the daemon, not an allocator accounting. Takes a spec's
/// counts before generation and a parsed `.aux` circuit's after it (a PEKO
/// spec leaves out its stitch nets, O(√n) more — noise at this
/// granularity).
pub fn estimate_bytes(cells: usize, nets: usize, pins: usize) -> u64 {
    let (cells, nets, pins) = (cells as u64, nets as u64, pins as u64);
    // ~12 f64 arrays over cells (coords, grads, params, snapshots,
    // multilevel copies), ~6 usize-ish arrays over pins, net bounds, plus
    // a density grid that scales with cell count
    cells * 12 * 8 + pins * 6 * 8 + nets * 4 * 8 + cells * 16
}

/// One placement request, decoded from a protocol `place` frame.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Circuit to place.
    pub circuit: CircuitSource,
    /// Wirelength model, any name `ModelKind::from_name` accepts; `None` =
    /// Moreau.
    pub model: Option<String>,
    /// Global-placement iteration cap (clamped to the server's cap).
    pub max_iters: Option<usize>,
    /// Multilevel levels (1 = flat flow). Defaults to 1.
    pub levels: usize,
    /// Per-job wall-clock budget; `None` = the server default.
    pub budget: Option<Duration>,
    /// Stream per-iteration [`mep_obs::IterationRecord`]s to the client.
    pub trace: bool,
    /// Fault-injection hook passthrough (`(after, count)` NaN countdown),
    /// for chaos testing against a live daemon.
    pub fault_injection: Option<(u64, u64)>,
    /// Chaos hook: deliberately panic inside the job to exercise
    /// isolation. Never set by well-behaved clients.
    pub chaos: Option<ChaosMode>,
}

/// Deliberate in-job panics for the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic before the solve starts.
    PanicBefore,
    /// Panic from inside the iteration trace hook after N records
    /// (mid-solve).
    PanicMid(u64),
}

/// Why a job failed, as reported to the client. Every failure is typed;
/// none of them kills the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The circuit could not be loaded/generated.
    Load {
        /// Human-readable cause.
        detail: String,
    },
    /// The placement flow returned a typed [`mep_placer::PlacerError`]
    /// (degenerate input, unrecoverable numerical fault).
    Placer {
        /// Display form of the inner error.
        detail: String,
    },
    /// The job's estimated working set exceeds the per-job budget; it was
    /// rejected before any allocation.
    MemoryBudget {
        /// Estimated bytes.
        estimated: u64,
        /// Configured per-job budget, bytes.
        budget: u64,
    },
    /// The job panicked; the panic was caught and the job marked failed.
    Panicked {
        /// Panic payload, if it was a string.
        detail: String,
    },
}

impl JobError {
    /// Stable protocol tag for the error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Load { .. } => "load",
            JobError::Placer { .. } => "placer",
            JobError::MemoryBudget { .. } => "memory_budget",
            JobError::Panicked { .. } => "panicked",
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            JobError::Load { detail } | JobError::Placer { detail } => detail.clone(),
            JobError::MemoryBudget { estimated, budget } => {
                format!("estimated {estimated} B exceeds per-job budget {budget} B")
            }
            JobError::Panicked { detail } => detail.clone(),
        }
    }
}

/// A successfully terminated job (including partial results: cancelled /
/// deadlined jobs land here with the matching [`Termination`]).
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Why the placement loop stopped.
    pub termination: Termination,
    /// Final (detailed-placement) HPWL; NaN for a cancelled-while-queued
    /// job that never ran.
    pub hpwl: f64,
    /// Global-placement iterations executed.
    pub iterations: usize,
    /// Final density overflow.
    pub overflow: f64,
    /// FNV-1a hash over every cell coordinate's bit pattern — the
    /// cross-job determinism fingerprint the chaos harness compares
    /// against a cold run.
    pub placement_hash: u64,
    /// Wall-clock milliseconds from execution start to completion.
    pub elapsed_ms: u64,
}

/// Terminal state of a job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Ran (possibly partially) and produced a placement.
    Done(JobSummary),
    /// Failed with a typed error.
    Failed(JobError),
}

/// FNV-1a over the placement's coordinate bit patterns, in cell order.
/// Bitwise: two placements hash equal iff every coordinate is
/// bit-identical, which is exactly the flow's determinism contract.
pub fn placement_fingerprint(p: &mep_netlist::Placement) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (bits >> shift) & 0xff;
            h = h.wrapping_mul(PRIME);
        }
    };
    for &x in &p.x {
        eat(x.to_bits());
    }
    for &y in &p.y {
        eat(y.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_json;

    #[test]
    fn circuit_source_parses_all_shapes() {
        let v = parse_json("\"smoke\"").unwrap();
        assert_eq!(
            CircuitSource::from_json(&v).unwrap(),
            CircuitSource::Builtin("smoke".to_string())
        );
        let v = parse_json("\"/tmp/x.aux\"").unwrap();
        assert_eq!(
            CircuitSource::from_json(&v).unwrap(),
            CircuitSource::Aux("/tmp/x.aux".to_string())
        );
        let v = parse_json("{\"scaled\":[500,7]}").unwrap();
        assert_eq!(
            CircuitSource::from_json(&v).unwrap(),
            CircuitSource::Scaled {
                movable: 500,
                seed: 7
            }
        );
        let v = parse_json("{\"scaled\":[1]}").unwrap();
        assert!(CircuitSource::from_json(&v).is_err());
        let v = parse_json("42").unwrap();
        assert!(CircuitSource::from_json(&v).is_err());
    }

    #[test]
    fn memory_estimate_scales_and_screens_before_generation() {
        let small = CircuitSource::Scaled {
            movable: 1_000,
            seed: 1,
        }
        .estimated_bytes();
        let huge = CircuitSource::Scaled {
            movable: 10_000_000,
            seed: 1,
        }
        .estimated_bytes();
        assert!(small > 0);
        assert!(
            huge > 1_000 * small,
            "estimate must scale with the spec: {small} vs {huge}"
        );
        // 10M movable cells must blow the server's default 2 GiB budget
        assert!(
            huge > 2 << 30,
            "10M-cell estimate {huge} should exceed the 2 GiB default budget"
        );
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let mut p = mep_netlist::Placement::zeros(4);
        let a = placement_fingerprint(&p);
        assert_eq!(a, placement_fingerprint(&p), "deterministic");
        p.x[2] = 1.0e-300; // tiny but bitwise different
        assert_ne!(a, placement_fingerprint(&p));
        // -0.0 differs from +0.0 bitwise, and the fingerprint sees it
        p.x[2] = 0.0;
        p.y[3] = -0.0;
        assert_ne!(a, placement_fingerprint(&p));
    }

    #[test]
    fn unknown_builtin_is_a_typed_load_error() {
        let src = CircuitSource::Builtin("no-such-bench".to_string());
        assert!(matches!(src.load(), Err(JobError::Load { .. })));
        assert_eq!(src.estimated_bytes(), 0);
    }

    #[test]
    fn peko_ladder_circuits_are_servable_builtins() {
        let src = CircuitSource::Builtin("peko_600".to_string());
        assert!(
            src.estimated_bytes() > 0,
            "admission screen must know PEKO sizes up front"
        );
        let circuit = src.load().expect("peko_600 loads");
        assert_eq!(circuit.design.netlist.num_movable(), 600);
    }

    #[test]
    fn job_error_kinds_are_stable() {
        assert_eq!(
            JobError::MemoryBudget {
                estimated: 2,
                budget: 1
            }
            .kind(),
            "memory_budget"
        );
        assert_eq!(
            JobError::Panicked {
                detail: "x".to_string()
            }
            .kind(),
            "panicked"
        );
    }
}
