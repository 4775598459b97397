//! **Ablation** (beyond the paper's tables): optimizer choice for the
//! Moreau model — ePlace Nesterov versus Adam versus the PRP conjugate
//! subgradient method the related work \[23\] uses to optimize non-smooth
//! wirelength directly. Also runs PRP-CG on *exact HPWL* (the non-smooth
//! baseline the paper's §I discusses: "may encounter slow and poor
//! convergence").
//!
//! ```text
//! cargo run -p mep-bench --release --bin ablation_optimizer [--fast]
//! ```
//!
//! Writes `results/ablation_optimizer.csv`.

use mep_bench::{FlowOptions, Table};
use mep_netlist::synth;
use mep_placer::global::OptimizerKind;
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;

fn main() {
    let opts = FlowOptions::from_args();
    let benches = ["newblue1", "ispd19_test5"];
    let variants: [(&str, ModelKind, OptimizerKind); 4] = [
        (
            "Moreau+Nesterov (paper)",
            ModelKind::Moreau,
            OptimizerKind::Nesterov,
        ),
        ("Moreau+Adam", ModelKind::Moreau, OptimizerKind::Adam),
        (
            "Moreau+PRP-CG",
            ModelKind::Moreau,
            OptimizerKind::ConjugateSubgradient,
        ),
        (
            "HPWL+PRP-CG (non-smooth)",
            ModelKind::Hpwl,
            OptimizerKind::ConjugateSubgradient,
        ),
    ];
    let mut table = Table::new(["bench", "variant", "DPWL", "overflow", "iters", "RT(s)"]);
    for bench in benches {
        let spec = opts.shrink_spec(&synth::spec_by_name(bench).expect("Table I name"));
        let circuit = synth::generate(&spec);
        let mut base: Option<f64> = None;
        for (name, model, optimizer) in variants {
            eprintln!("[ablation] {bench} × {name} …");
            let config = PipelineConfig {
                global: GlobalConfig {
                    model,
                    optimizer,
                    max_iters: opts.max_iters,
                    ..GlobalConfig::default()
                },
                ..PipelineConfig::default()
            };
            let r = run(&circuit, &config).expect("placement flow");
            if base.is_none() {
                base = Some(r.dpwl);
            }
            println!(
                "{bench:<14} {name:<26} DPWL {:.4e} ({:+.2}%)  φ={:.3}  iters {}  RT {:.1}s",
                r.dpwl,
                100.0 * (r.dpwl / base.expect("set above") - 1.0),
                r.overflow,
                r.iterations,
                r.rt_total()
            );
            table.push([
                bench.to_string(),
                name.to_string(),
                format!("{:.4e}", r.dpwl),
                format!("{:.4}", r.overflow),
                r.iterations.to_string(),
                format!("{:.1}", r.rt_total()),
            ]);
        }
    }
    if let Err(e) = table.write_csv("results/ablation_optimizer.csv") {
        eprintln!("could not write CSV: {e}");
    } else {
        println!("\nwrote results/ablation_optimizer.csv");
    }
}
