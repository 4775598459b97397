//! The one claims run, the one circuit × contestant loop over a suite, and
//! the table body shared by the Table II / Table III binaries.

use crate::harness::Artifacts;
use crate::table::{avg_ratio, Table};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::synth::SynthSpec;
use mep_obs::json::JsonObject;
use mep_obs::RunReport;
use mep_placer::pipeline::{run, PipelineConfig, PipelineResult};
use mep_placer::{GlobalConfig, Termination};
use mep_wirelength::ModelKind;

/// How many times smaller `--fast` makes every circuit of a suite.
pub const FAST_SHRINK: usize = 10;

/// `spec` shrunk [`FAST_SHRINK`]×: the circuit of a `--fast` run.
fn shrink_spec(spec: &SynthSpec) -> SynthSpec {
    let s = FAST_SHRINK;
    SynthSpec {
        movable: (spec.movable / s).max(64),
        fixed: (spec.fixed / s).max(if spec.fixed == 0 { 0 } else { 2 }),
        nets: (spec.nets / s).max(64),
        pins: (spec.pins / s).max(256),
        movable_macros: (spec.movable_macros / s).min(spec.movable_macros),
        ..spec.clone()
    }
}

/// Result of one benchmark × one model run — one table cell group.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub bench: String,
    /// Wirelength model used.
    pub model: ModelKind,
    /// HPWL after legalization.
    pub lgwl: f64,
    /// HPWL after detailed placement.
    pub dpwl: f64,
    /// Total runtime in seconds.
    pub rt: f64,
    /// GP iterations.
    pub iterations: usize,
    /// Final overflow.
    pub overflow: f64,
    /// Full machine-readable telemetry of the run (DESIGN.md §10).
    pub report: RunReport,
}

impl BenchmarkRow {
    /// The row of one [`run_claim`] of `bench` with `model`.
    pub(crate) fn new(bench: String, model: ModelKind, r: PipelineResult) -> Self {
        Self {
            bench,
            model,
            lgwl: r.lgwl,
            dpwl: r.dpwl,
            rt: r.rt_total(),
            iterations: r.iterations,
            overflow: r.overflow,
            report: r.report,
        }
    }

    /// The row's JSON line: `{"bench":…,"model":…,"report":{…}}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("bench", &self.bench)
            .field_str("model", self.model.label())
            .field_raw("report", &self.report.to_json());
        o.finish()
    }
}

/// The run behind every claim: the full GP → LG → DP pipeline of
/// `circuit` under `global`. The paper compares models at convergence, so
/// a run that is illegal or whose GP stopped short of the target overflow
/// is no result.
///
/// # Errors
///
/// Names the design, the model and the reason when the pipeline fails,
/// the placement is illegal or GP did not converge.
pub fn run_claim(
    circuit: &BookshelfCircuit,
    global: GlobalConfig,
) -> Result<PipelineResult, String> {
    let model = global.model;
    let what = format!("{} × {}", circuit.design.name, model.label());
    let config = PipelineConfig {
        global,
        ..PipelineConfig::default()
    };
    let r = run(circuit, &config).map_err(|e| format!("{what}: {e}"))?;
    converged(circuit, model, r.termination, r.iterations)?;
    Ok(r)
}

/// [`run_claim`]'s convergence check, for a claim on global placement
/// alone (Fig. 3): `Ok` if GP of `circuit` with `model` stopped at the
/// target overflow.
///
/// # Errors
///
/// Names the design, the model, the stop reason and the iteration count.
pub fn converged(
    circuit: &BookshelfCircuit,
    model: ModelKind,
    termination: Termination,
    iterations: usize,
) -> Result<(), String> {
    if termination == Termination::Converged {
        return Ok(());
    }
    let what = format!("{} × {}", circuit.design.name, model.label());
    Err(format!(
        "{what}: GP stopped by {termination} after {iterations} iterations"
    ))
}

/// Every contestant on every circuit of `suite` through [`run_claim`],
/// each circuit shrunk [`FAST_SHRINK`]× when `fast`: per circuit, one
/// row per contestant in [`ModelKind::contestants`] order. `tag` prefixes
/// the progress lines.
///
/// # Errors
///
/// Names the first circuit × model [`run_claim`] refuses.
pub fn run_suite(
    suite: &[SynthSpec],
    fast: bool,
    tag: &str,
) -> Result<Vec<Vec<BenchmarkRow>>, String> {
    let mut rows = Vec::new();
    for spec in suite {
        let spec = if fast {
            shrink_spec(spec)
        } else {
            spec.clone()
        };
        let circuit = mep_netlist::synth::generate(&spec);
        let mut per_model = Vec::new();
        for model in ModelKind::contestants() {
            eprintln!("[{tag}] {} × {} …", spec.name, model.label());
            let global = GlobalConfig {
                model,
                ..GlobalConfig::default()
            };
            let r = run_claim(&circuit, global)?;
            per_model.push(BenchmarkRow::new(spec.name.clone(), model, r));
        }
        rows.push(per_model);
    }
    Ok(rows)
}

/// One of the paper's Tables II/III over `suite` ([`run_suite`]): LGWL /
/// DPWL / RT of the four contestants per circuit, then the Avg. Ratio row
/// against Ours (the paper's convention: Ours = 1.000). Prints `title`
/// above the table. A full-size run (not `fast`) writes
/// `results/{stem}.csv` and `results/{stem}_reports.jsonl`; a `fast` one
/// writes nothing ([`Artifacts::commit`]).
///
/// # Errors
///
/// Names the first circuit × model [`run_claim`] refuses, or the artifact
/// that could not be written.
pub fn run_paper_table(
    suite: &[SynthSpec],
    title: &str,
    stem: &str,
    fast: bool,
) -> Result<(), String> {
    let models = ModelKind::contestants();
    let rows = run_suite(suite, fast, stem)?;

    let mut header = vec!["Benchmark".to_string()];
    for m in models {
        header.extend(["LGWL", "DPWL", "RT(s)"].map(|c| format!("{} {c}", m.label())));
    }
    let mut table = Table::new(header);
    for (spec, per_model) in suite.iter().zip(&rows) {
        let mut cells = vec![spec.name.clone()];
        for r in per_model {
            cells.push(format!("{:.4e}", r.lgwl));
            cells.push(format!("{:.4e}", r.dpwl));
            cells.push(format!("{:.1}", r.rt));
        }
        table.push(cells);
    }
    // one run per circuit × model, so each column has one entry per circuit
    let column = |model: ModelKind, pick: fn(&BenchmarkRow) -> f64| -> Vec<f64> {
        rows.iter()
            .flatten()
            .filter(|r| r.model == model)
            .map(pick)
            .collect()
    };
    let ratio = |model, pick| avg_ratio(&column(model, pick), &column(ModelKind::Moreau, pick));
    let mut cells = vec!["Avg. Ratio".to_string()];
    for model in models {
        cells.push(format!("{:.3}", ratio(model, |r| r.lgwl)));
        cells.push(format!("{:.3}", ratio(model, |r| r.dpwl)));
        cells.push(format!("{:.2}", ratio(model, |r| r.rt)));
    }
    table.push(cells);

    println!("{title}\n");
    print!("{}", table.to_text());
    let mut out = Artifacts::default();
    out.add(format!("results/{stem}.csv"), table.to_csv());
    let reports = rows.iter().flatten().map(BenchmarkRow::to_json);
    out.jsonl(format!("results/{stem}_reports.jsonl"), reports);
    out.commit(!fast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;

    #[test]
    fn shrink_reduces_counts() {
        let spec = synth::spec_by_name("newblue7").unwrap();
        let small = shrink_spec(&spec);
        assert_eq!(small.movable, spec.movable / 10);
        assert_eq!(small.name, spec.name);
    }

    #[test]
    fn a_claims_run_makes_a_legal_row() {
        let circuit = synth::generate(&synth::smoke_spec());
        let r = run_claim(&circuit, GlobalConfig::default()).expect("smoke converges");
        let row = BenchmarkRow::new("smoke".into(), ModelKind::Moreau, r);
        assert!(row.dpwl <= row.lgwl + 1e-9);
        assert!(row.rt > 0.0);
        // the run's telemetry rides along and serializes
        assert_eq!(row.report.gauge("dp.hpwl"), Some(row.dpwl));
        let json = row.to_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with("{\"bench\":\"smoke\",\"model\":\"Ours\",\"report\":{"));
    }

    #[test]
    fn run_claim_refuses_a_capped_run() {
        let circuit = synth::generate(&synth::smoke_spec());
        let capped = GlobalConfig {
            max_iters: 5,
            ..GlobalConfig::default()
        };
        let gp = mep_placer::global::place(&circuit, &capped).expect("5 GP iterations");
        let err = converged(&circuit, capped.model, gp.termination, gp.iterations)
            .expect_err("a capped GP is no claim");
        assert!(err.starts_with("smoke × Ours: "), "{err}");
        assert!(err.contains("iteration cap after 5 iterations"), "{err}");
        let err = run_claim(&circuit, capped).expect_err("a capped run is no claim");
        assert!(err.starts_with("smoke × Ours: "), "{err}");
        assert!(err.contains("iteration cap"), "{err}");
    }
}
