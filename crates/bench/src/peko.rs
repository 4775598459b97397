//! Shared plumbing for the known-optimum (PEKO) suboptimality harness.
//!
//! [`run_peko`] places one [`PekoSpec`] with one wirelength model through
//! [`run_claim`], the full GP → LG → DP pipeline run to convergence, then
//! measures the one thing ordinary benchmarks cannot: the
//! **suboptimality ratio** `final HPWL / optimal HPWL` against the
//! generator's constructively exact optimum. Every run also gets a
//! mandatory legality audit (pairwise overlap-free, in-die, row/site
//! aligned) — a placement that "wins" by escaping the die or stacking
//! cells is a bug, not a result.
//!
//! All `peko.*` quality metrics are merged into the run's
//! [`RunReport`](mep_obs::RunReport), so the JSONL record carries the
//! certificate next to the standard telemetry (DESIGN.md §10/§15).

use crate::flow::{run_claim, BenchmarkRow};
use mep_netlist::synth::peko::{generate_peko, PekoSpec};
use mep_obs::json::JsonObject;
use mep_obs::Registry;
use mep_placer::{audit_legality, GlobalConfig, LegalityAudit};

/// Result of one spec × model run: the claims run and its certificate.
#[derive(Debug, Clone)]
pub struct PekoRow {
    /// The run as any table row sees it (`peko_600`, …); its report has
    /// the `peko.*` metrics merged in.
    pub run: BenchmarkRow,
    /// Movable cell count.
    pub movable: usize,
    /// The constructively exact optimal HPWL.
    pub optimal_hpwl: f64,
    /// HPWL after global placement (may dip below the optimum while
    /// cells still overlap — the optimum bounds *legal* placements).
    pub gpwl: f64,
    /// Suboptimality ratio `dpwl / optimal_hpwl` (≥ 1 up to float dust;
    /// the quality metric the guard tracks).
    pub ratio: f64,
    /// Legality audit of the final placement (clean).
    pub audit: LegalityAudit,
}

/// Runs one spec under `global` through [`run_claim`] and certifies the
/// result against the known optimum.
///
/// # Errors
///
/// [`run_claim`]'s: a failed, illegal or unconverged run.
pub fn run_peko(spec: &PekoSpec, global: GlobalConfig) -> Result<PekoRow, String> {
    let p = generate_peko(spec);
    let model = global.model;
    let r = run_claim(&p.circuit, global)?;
    // clean: `run_claim` refuses a run with any `check_legal` violation
    let audit = audit_legality(&p.circuit.design, &r.placement);
    let (gpwl, ratio) = (r.gpwl, r.dpwl / p.optimal_hpwl);

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
    let mut run = BenchmarkRow::new(spec.name.clone(), model, r);
    run.report.merge_registry(&reg);

    Ok(PekoRow {
        run,
        movable: spec.movable,
        optimal_hpwl: p.optimal_hpwl,
        gpwl,
        ratio,
        audit,
    })
}

fn audit_json(audit: &LegalityAudit) -> String {
    let mut o = JsonObject::new();
    o.field_u64("overlaps", audit.overlaps as u64)
        .field_u64("outside_die", audit.outside_die as u64)
        .field_u64("off_row", audit.off_row as u64)
        .field_u64("off_site", audit.off_site as u64)
        .field_u64("outside_region", audit.outside_region as u64)
        .field_bool("clean", audit.is_clean());
    o.finish()
}

impl PekoRow {
    /// The row's JSON line: bench/model, the certificate numbers, the
    /// audit, and the full merged report.
    pub fn to_json(&self) -> String {
        let run = &self.run;
        let mut o = JsonObject::new();
        o.field_str("bench", &run.bench)
            .field_str("model", run.model.label())
            .field_u64("movable", self.movable as u64)
            .field_f64("optimal_hpwl", self.optimal_hpwl)
            .field_f64("gpwl", self.gpwl)
            .field_f64("lgwl", run.lgwl)
            .field_f64("dpwl", run.dpwl)
            .field_f64("ratio", self.ratio)
            .field_f64("rt", run.rt)
            .field_u64("iterations", run.iterations as u64)
            .field_f64("overflow", run.overflow)
            .field_raw("audit", &audit_json(&self.audit))
            .field_raw("report", &run.report.to_json());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth::peko::peko_spec;
    use mep_wirelength::ModelKind;

    #[test]
    fn run_peko_certifies_a_small_ladder_rung() {
        let spec = peko_spec(100, 5);
        let row = run_peko(&spec, GlobalConfig::default()).expect("peko flow");
        assert!(row.audit.is_clean());
        // a legal placement can never beat the certificate
        let run = &row.run;
        assert!(
            run.dpwl >= row.optimal_hpwl - 1e-6,
            "dpwl {} below the certified optimum {}",
            run.dpwl,
            row.optimal_hpwl
        );
        assert!(row.ratio >= 1.0 - 1e-9);
        assert!(row.ratio < 4.0, "suboptimality ratio {} absurd", row.ratio);
        // peko.* metrics merged into the standard report
        assert_eq!(run.report.gauge("peko.ratio_dp"), Some(row.ratio));
        assert_eq!(run.report.counter("peko.audit.overlaps"), Some(0));
        // and the usual pipeline metrics are still there
        assert_eq!(run.report.gauge("dp.hpwl"), Some(run.dpwl));

        let line = row.to_json();
        assert!(line.starts_with("{\"bench\":\"peko_100\",\"model\":\"Ours\""));
        assert!(line.contains("\"audit\":{\"overlaps\":0"));
    }

    #[test]
    fn run_peko_refuses_a_capped_run() {
        let capped = GlobalConfig {
            max_iters: 5,
            ..GlobalConfig::default()
        };
        let err = run_peko(&peko_spec(100, 5), capped).expect_err("a capped run is no row");
        assert!(err.starts_with("peko_100 × Ours: "), "{err}");
        assert!(err.contains("iteration cap"), "{err}");
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let spec = peko_spec(64, 6);
        let wa = GlobalConfig {
            model: ModelKind::Wa,
            ..GlobalConfig::default()
        };
        let a = run_peko(&spec, wa.clone()).expect("peko flow");
        let b = run_peko(&spec, wa).expect("peko flow");
        assert_eq!(a.run.dpwl, b.run.dpwl);
        assert_eq!(a.ratio, b.ratio);
    }
}
