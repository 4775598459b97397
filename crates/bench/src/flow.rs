//! The run-one-benchmark flow and the table body shared by the Table II /
//! Table III binaries.

use crate::table::{avg_ratio, Table};
use mep_netlist::synth::SynthSpec;
use mep_obs::json::JsonObject;
use mep_obs::RunReport;
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;
use std::io::Write as _;
use std::path::Path;

/// Options controlling a table run.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Shrink every benchmark by this factor (1 = full scale). The
    /// `--fast` CLI flag of the table binaries sets 10 for smoke-level
    /// turnaround.
    pub shrink: usize,
    /// GP iteration cap.
    pub max_iters: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            shrink: 1,
            max_iters: 800,
        }
    }
}

impl FlowOptions {
    /// Parses `--fast` / `--shrink N` from CLI args.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().collect();
        for (i, a) in args.iter().enumerate() {
            match a.as_str() {
                "--fast" => opts.shrink = 10,
                "--shrink" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.shrink = v;
                    }
                }
                _ => {}
            }
        }
        opts
    }

    /// Applies the shrink factor to a spec.
    pub fn shrink_spec(&self, spec: &SynthSpec) -> SynthSpec {
        if self.shrink <= 1 {
            return spec.clone();
        }
        let s = self.shrink;
        SynthSpec {
            movable: (spec.movable / s).max(64),
            fixed: (spec.fixed / s).max(if spec.fixed == 0 { 0 } else { 2 }),
            nets: (spec.nets / s).max(64),
            pins: (spec.pins / s).max(256),
            movable_macros: (spec.movable_macros / s).min(spec.movable_macros),
            ..spec.clone()
        }
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
    /// Legality violations (must be 0).
    pub violations: usize,
    /// Full machine-readable telemetry of the run (DESIGN.md §10).
    pub report: RunReport,
}

/// Writes one JSON line per benchmark × model run:
/// `{"bench":…,"model":…,"report":{…}}`, so table binaries leave a
/// machine-readable record next to their CSVs.
///
/// # Errors
///
/// Returns the underlying I/O error if `path` cannot be written.
pub fn write_reports_jsonl(
    path: impl AsRef<Path>,
    rows: impl IntoIterator<Item = impl std::borrow::Borrow<BenchmarkRow>>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in rows {
        let row = row.borrow();
        let mut o = JsonObject::new();
        o.field_str("bench", &row.bench)
            .field_str("model", row.model.label())
            .field_raw("report", &row.report.to_json());
        writeln!(out, "{}", o.finish())?;
    }
    out.flush()
}

/// Runs the full pipeline for one spec × model.
pub fn run_benchmark(spec: &SynthSpec, model: ModelKind, opts: &FlowOptions) -> BenchmarkRow {
    let spec = opts.shrink_spec(spec);
    let circuit = mep_netlist::synth::generate(&spec);
    let config = PipelineConfig {
        global: GlobalConfig {
            model,
            max_iters: opts.max_iters,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&circuit, &config).expect("placement flow");
    BenchmarkRow {
        bench: spec.name.clone(),
        model,
        lgwl: r.lgwl,
        dpwl: r.dpwl,
        rt: r.rt_total(),
        iterations: r.iterations,
        overflow: r.overflow,
        violations: r.violations,
        report: r.report,
    }
}

/// One of the paper's Tables II/III over `suite`: LGWL / DPWL / RT of the
/// four contestants per circuit, then the Avg. Ratio row against Ours
/// (the paper's convention: Ours = 1.000). Prints `title` above the
/// table and writes `results/{stem}.csv` and
/// `results/{stem}_reports.jsonl`. The circuit size comes from the
/// command line (`--fast`, `--shrink N`; [`FlowOptions::from_args`]).
///
/// # Errors
///
/// Names the first circuit × model whose placement is not legal.
pub fn run_paper_table(suite: &[SynthSpec], title: &str, stem: &str) -> Result<(), String> {
    let opts = FlowOptions::from_args();
    let models = ModelKind::contestants();
    let mut rows: Vec<Vec<BenchmarkRow>> = Vec::new();
    for spec in suite {
        let mut per_model = Vec::new();
        for model in models {
            eprintln!("[{stem}] {} × {} …", spec.name, model.label());
            let row = run_benchmark(spec, model, &opts);
            if row.violations != 0 {
                let what = format!("{} × {}", spec.name, model.label());
                return Err(format!("{what} produced an illegal placement"));
            }
            per_model.push(row);
        }
        rows.push(per_model);
    }

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
    let csv = format!("results/{stem}.csv");
    match table.write_csv(&csv) {
        Ok(()) => println!("\nwrote {csv}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    let reports = format!("results/{stem}_reports.jsonl");
    match write_reports_jsonl(&reports, rows.iter().flatten()) {
        Ok(()) => println!("wrote {reports}"),
        Err(e) => eprintln!("could not write run reports: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;

    #[test]
    fn shrink_reduces_counts() {
        let spec = synth::spec_by_name("newblue7").unwrap();
        let opts = FlowOptions {
            shrink: 10,
            ..FlowOptions::default()
        };
        let small = opts.shrink_spec(&spec);
        assert_eq!(small.movable, spec.movable / 10);
        assert_eq!(small.name, spec.name);
    }

    #[test]
    fn run_benchmark_produces_legal_result() {
        let spec = synth::smoke_spec();
        let opts = FlowOptions {
            max_iters: 300,
            ..FlowOptions::default()
        };
        let row = run_benchmark(&spec, ModelKind::Moreau, &opts);
        assert_eq!(row.violations, 0);
        assert!(row.dpwl <= row.lgwl + 1e-9);
        assert!(row.rt > 0.0);
        // the run's telemetry rides along and serializes
        assert_eq!(row.report.gauge("dp.hpwl"), Some(row.dpwl));

        let path = std::env::temp_dir().join(format!("mep_reports_{}.jsonl", std::process::id()));
        write_reports_jsonl(&path, [&row]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"bench\":\"smoke\",\"model\":\"Ours\",\"report\":{"));
        std::fs::remove_file(&path).ok();
    }
}
