//! Shared plumbing for the known-optimum (PEKO) suboptimality harness.
//!
//! [`run_peko`] places one [`PekoSpec`] with one wirelength model through
//! the full GP → LG → DP pipeline, then measures the one thing ordinary
//! benchmarks cannot: the **suboptimality ratio** `final HPWL / optimal HPWL`
//! against the generator's constructively exact optimum. Every run also
//! gets a mandatory legality audit (pairwise overlap-free, in-die,
//! row/site aligned) — a placement that "wins" by escaping the die or
//! stacking cells is a bug, not a result.
//!
//! All `peko.*` quality metrics are merged into the run's [`RunReport`],
//! so the JSONL record carries the certificate next to the standard
//! telemetry (DESIGN.md §10/§15).

use mep_netlist::synth::peko::{generate_peko, PekoSpec};
use mep_obs::json::JsonObject;
use mep_obs::{Registry, RunReport};
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::{audit_legality, GlobalConfig, LegalityAudit, PlacerError};
use mep_wirelength::ModelKind;
use std::io::Write as _;
use std::path::Path;

/// Options controlling one harness run.
#[derive(Debug, Clone)]
pub struct PekoOptions {
    /// GP iteration cap. The guard rows must always use
    /// [`GUARD_ITERS`] so measured ratios are comparable to the
    /// committed baseline.
    pub max_iters: usize,
}

/// Iteration cap used for the guarded Moreau rows and the committed
/// baseline — fixed so every future measurement is comparable.
pub const GUARD_ITERS: usize = 600;

impl Default for PekoOptions {
    fn default() -> Self {
        Self {
            max_iters: GUARD_ITERS,
        }
    }
}

/// Result of one spec × model run.
#[derive(Debug, Clone)]
pub struct PekoRow {
    /// Benchmark name (`peko_600`, …).
    pub bench: String,
    /// Wirelength model used.
    pub model: ModelKind,
    /// Movable cell count.
    pub movable: usize,
    /// The constructively exact optimal HPWL.
    pub optimal_hpwl: f64,
    /// HPWL after global placement (may dip below the optimum while
    /// cells still overlap — the optimum bounds *legal* placements).
    pub gpwl: f64,
    /// HPWL after legalization.
    pub lgwl: f64,
    /// HPWL after detailed placement.
    pub dpwl: f64,
    /// Suboptimality ratio `dpwl / optimal_hpwl` (≥ 1 up to float dust;
    /// the quality metric the guard tracks).
    pub ratio: f64,
    /// Total runtime, seconds.
    pub rt: f64,
    /// GP iterations executed.
    pub iterations: usize,
    /// Final density overflow after GP.
    pub overflow: f64,
    /// Legality audit of the final placement (must be clean).
    pub audit: LegalityAudit,
    /// Full run telemetry with `peko.*` metrics merged in.
    pub report: RunReport,
}

/// Runs one spec × model through the full pipeline and
/// certifies the result against the known optimum.
///
/// # Errors
///
/// Propagates [`PlacerError`] from the pipeline (degenerate input,
/// unrecoverable numerical fault, legalization failure).
pub fn run_peko(
    spec: &PekoSpec,
    model: ModelKind,
    opts: &PekoOptions,
) -> Result<PekoRow, PlacerError> {
    let p = generate_peko(spec);
    let config = PipelineConfig {
        global: GlobalConfig {
            model,
            max_iters: opts.max_iters,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&p.circuit, &config)?;
    let audit = audit_legality(&p.circuit.design, &r.placement);
    let ratio = r.dpwl / p.optimal_hpwl;

    let mut report = r.report;
    let reg = Registry::new();
    reg.gauge("peko.optimal_hpwl").set(p.optimal_hpwl);
    reg.gauge("peko.ratio_gp").set(r.gpwl / p.optimal_hpwl);
    reg.gauge("peko.ratio_lg").set(r.lgwl / p.optimal_hpwl);
    reg.gauge("peko.ratio_dp").set(ratio);
    reg.counter("peko.audit.overlaps")
        .add(audit.overlaps as u64);
    reg.counter("peko.audit.outside_die")
        .add(audit.outside_die as u64);
    reg.counter("peko.audit.off_row").add(audit.off_row as u64);
    reg.counter("peko.audit.off_site")
        .add(audit.off_site as u64);
    reg.counter("peko.audit.outside_region")
        .add(audit.outside_region as u64);
    report.merge_registry(&reg);

    Ok(PekoRow {
        bench: spec.name.clone(),
        model,
        movable: spec.movable,
        optimal_hpwl: p.optimal_hpwl,
        gpwl: r.gpwl,
        lgwl: r.lgwl,
        dpwl: r.dpwl,
        ratio,
        rt: r.rt_gp + r.rt_lg + r.rt_dp,
        iterations: r.iterations,
        overflow: r.overflow,
        audit,
        report,
    })
}

/// Serializes a legality audit as a JSON object.
pub fn audit_json(audit: &LegalityAudit) -> String {
    let mut o = JsonObject::new();
    o.field_u64("overlaps", audit.overlaps as u64)
        .field_u64("outside_die", audit.outside_die as u64)
        .field_u64("off_row", audit.off_row as u64)
        .field_u64("off_site", audit.off_site as u64)
        .field_u64("outside_region", audit.outside_region as u64)
        .field_bool("clean", audit.is_clean());
    o.finish()
}

/// One JSONL line for a row: bench/model, the certificate
/// numbers, the audit, and the full merged report.
pub fn row_json(row: &PekoRow) -> String {
    let mut o = JsonObject::new();
    o.field_str("bench", &row.bench)
        .field_str("model", row.model.label())
        .field_u64("movable", row.movable as u64)
        .field_f64("optimal_hpwl", row.optimal_hpwl)
        .field_f64("gpwl", row.gpwl)
        .field_f64("lgwl", row.lgwl)
        .field_f64("dpwl", row.dpwl)
        .field_f64("ratio", row.ratio)
        .field_f64("rt", row.rt)
        .field_u64("iterations", row.iterations as u64)
        .field_f64("overflow", row.overflow)
        .field_raw("audit", &audit_json(&row.audit))
        .field_raw("report", &row.report.to_json());
    o.finish()
}

/// Writes one JSON line per run into `path` (creating parent dirs).
///
/// # Errors
///
/// Returns the underlying I/O error if `path` cannot be written.
pub fn write_peko_jsonl(
    path: impl AsRef<Path>,
    rows: impl IntoIterator<Item = impl std::borrow::Borrow<PekoRow>>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in rows {
        writeln!(out, "{}", row_json(row.borrow()))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth::peko::peko_spec;

    #[test]
    fn run_peko_certifies_a_small_ladder_rung() {
        let spec = peko_spec(100, 5);
        let opts = PekoOptions { max_iters: 250 };
        let row = run_peko(&spec, ModelKind::Moreau, &opts).expect("peko flow");
        assert!(
            row.audit.is_clean(),
            "final placement must be legal: {}",
            row.audit
        );
        // a legal placement can never beat the certificate
        assert!(
            row.dpwl >= row.optimal_hpwl - 1e-6,
            "dpwl {} below the certified optimum {}",
            row.dpwl,
            row.optimal_hpwl
        );
        assert!(row.ratio >= 1.0 - 1e-9);
        assert!(row.ratio < 4.0, "suboptimality ratio {} absurd", row.ratio);
        // peko.* metrics merged into the standard report
        assert_eq!(row.report.gauge("peko.ratio_dp"), Some(row.ratio));
        assert_eq!(row.report.counter("peko.audit.overlaps"), Some(0));
        // and the usual pipeline metrics are still there
        assert_eq!(row.report.gauge("dp.hpwl"), Some(row.dpwl));

        let line = row_json(&row);
        assert!(line.starts_with("{\"bench\":\"peko_100\",\"model\":\"Ours\""));
        assert!(line.contains("\"audit\":{\"overlaps\":0"));

        let path = std::env::temp_dir().join(format!("mep_peko_{}.jsonl", std::process::id()));
        write_peko_jsonl(&path, [&row]).expect("write jsonl");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let spec = peko_spec(64, 6);
        let opts = PekoOptions { max_iters: 120 };
        let a = run_peko(&spec, ModelKind::Wa, &opts).expect("peko flow");
        let b = run_peko(&spec, ModelKind::Wa, &opts).expect("peko flow");
        assert_eq!(a.dpwl, b.dpwl);
        assert_eq!(a.ratio, b.ratio);
    }
}
