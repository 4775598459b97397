//! **Ablation** (beyond the paper's tables): initial-placement choice for
//! the nonlinear global placer — the ePlace default (cells piled at the
//! die center) versus a B2B quadratic warm start (the classic
//! quadratic-then-nonlinear flow of the paper's §I taxonomy).
//!
//! ```text
//! cargo run -p mep-bench --release --bin ablation_init [--fast]
//! ```
//!
//! Writes `results/ablation_init.csv`.

use mep_bench::{FlowOptions, Table};
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::synth;
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::quadratic::{place_b2b, B2bConfig};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;

fn main() {
    let opts = FlowOptions::from_args();
    let mut table = Table::new(["bench", "init", "DPWL", "GP iters", "RT(s)"]);
    for bench in ["newblue2", "ispd19_test5"] {
        let spec = opts.shrink_spec(&synth::spec_by_name(bench).expect("Table I name"));
        let circuit = synth::generate(&spec);
        let config = PipelineConfig {
            global: GlobalConfig {
                model: ModelKind::Moreau,
                max_iters: opts.max_iters,
                ..GlobalConfig::default()
            },
            ..PipelineConfig::default()
        };
        // center init (default)
        eprintln!("[ablation] {bench} × center-init …");
        let center = run(&circuit, &config).expect("placement flow");
        // B2B warm start
        eprintln!("[ablation] {bench} × quadratic-init …");
        let t0 = std::time::Instant::now();
        let (qp, qreport) = place_b2b(&circuit, &B2bConfig::default()).expect("placeable circuit");
        let qp_time = t0.elapsed().as_secs_f64();
        let warm_circuit = BookshelfCircuit {
            design: circuit.design.clone(),
            placement: qp,
        };
        let warm = run(&warm_circuit, &config).expect("placement flow");
        for (name, r, extra) in [("center", &center, 0.0), ("quadratic(B2B)", &warm, qp_time)] {
            println!(
                "{bench:<14} {name:<16} DPWL {:.4e}  iters {}  RT {:.1}s",
                r.dpwl,
                r.iterations,
                r.rt_total() + extra
            );
            table.push([
                bench.to_string(),
                name.to_string(),
                format!("{:.4e}", r.dpwl),
                r.iterations.to_string(),
                format!("{:.1}", r.rt_total() + extra),
            ]);
        }
        println!(
            "  (B2B warm start itself: HPWL {:.4e} after {} rounds, {:.2}s)",
            qreport.hpwl, qreport.rounds, qp_time
        );
    }
    if let Err(e) = table.write_csv("results/ablation_init.csv") {
        eprintln!("could not write CSV: {e}");
    } else {
        println!("\nwrote results/ablation_init.csv");
    }
}
