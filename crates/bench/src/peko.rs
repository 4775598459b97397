//! Shared plumbing for the known-optimum (PEKO) suboptimality harness.
//!
//! [`run_peko`] places one [`PekoSpec`] with one wirelength model through
//! [`run_claim`], the full GP → LG → DP pipeline run to convergence, then
//! measures the one thing ordinary benchmarks cannot: the
//! **suboptimality ratio** `final HPWL / optimal HPWL` against the
//! generator's constructively exact optimum. Every row is legal: a
//! placement that "wins" by escaping the die or stacking cells is
//! [`mep_placer::PlacerError::Illegal`], which [`run_claim`] refuses.
//!
//! All `peko.*` quality metrics are written into the run's
//! [`RunReport`](mep_obs::RunReport), so the JSONL record carries the
//! certificate next to the standard telemetry (DESIGN.md §10/§15).

use crate::flow::{run_claim, BenchmarkRow};
use mep_netlist::synth::peko::{generate_peko, PekoSpec};
use mep_obs::json::JsonObject;
use mep_placer::GlobalConfig;

/// Result of one spec × model run: the claims run and its certificate.
#[derive(Debug, Clone)]
pub struct PekoRow {
    /// The run as any table row sees it (`peko_600`, …); its report
    /// carries the `peko.*` metrics too.
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
    let (gpwl, ratio) = (r.gpwl, r.dpwl / p.optimal_hpwl);

    let mut run = BenchmarkRow::new(spec.name.clone(), model, r);
    let report = &mut run.report;
    report.set_gauge("peko.optimal_hpwl", p.optimal_hpwl);
    report.set_gauge("peko.ratio_gp", gpwl / p.optimal_hpwl);
    report.set_gauge("peko.ratio_lg", run.lgwl / p.optimal_hpwl);
    report.set_gauge("peko.ratio_dp", ratio);

    Ok(PekoRow {
        run,
        movable: spec.movable,
        optimal_hpwl: p.optimal_hpwl,
        gpwl,
        ratio,
    })
}

impl PekoRow {
    /// The row's JSON line: bench/model, the certificate numbers and the
    /// full report.
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
        // peko.* metrics ride on the standard report
        assert_eq!(run.report.gauge("peko.ratio_dp"), Some(row.ratio));
        // and the usual pipeline metrics are still there
        assert_eq!(run.report.gauge("dp.hpwl"), Some(run.dpwl));

        let line = row.to_json();
        assert!(line.starts_with("{\"bench\":\"peko_100\",\"model\":\"Ours\""));
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
