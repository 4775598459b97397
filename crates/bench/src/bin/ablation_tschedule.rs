//! **Ablation** (beyond the paper's tables): the paper's tangent
//! `t`-schedule (Eq. (14)) versus reusing ePlace's decade schedule for
//! `t`, and a sweep over the `t0` coefficient — quantifying the §III-C
//! design choices.
//!
//! ```text
//! cargo run -p mep-bench --release --bin ablation_tschedule [--fast]
//! ```
//!
//! Writes `results/ablation_tschedule.csv`.

use mep_bench::{FlowOptions, Table};
use mep_netlist::synth;
use mep_placer::global::MoreauSchedule;
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;

fn main() {
    let opts = FlowOptions::from_args();
    let benches = ["newblue1", "newblue2", "ispd19_test5"];
    let variants: [(&str, MoreauSchedule, f64); 4] = [
        ("tangent_t0=4 (paper)", MoreauSchedule::Tangent, 4.0),
        ("tangent_t0=1", MoreauSchedule::Tangent, 1.0),
        ("tangent_t0=16", MoreauSchedule::Tangent, 16.0),
        ("decade", MoreauSchedule::Decade, 4.0),
    ];

    let mut table = Table::new(["bench", "variant", "DPWL", "LGWL", "iters", "RT(s)"]);
    for bench in benches {
        let spec = opts.shrink_spec(&synth::spec_by_name(bench).expect("Table I name"));
        let circuit = synth::generate(&spec);
        let mut base: Option<f64> = None;
        for (name, schedule, t0) in variants {
            eprintln!("[ablation] {bench} × {name} …");
            let config = PipelineConfig {
                global: GlobalConfig {
                    model: ModelKind::Moreau,
                    moreau_schedule: schedule,
                    t0,
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
                "{bench:<14} {name:<22} DPWL {:.4e} ({:+.2}% vs paper cfg)  iters {}  RT {:.1}s",
                r.dpwl,
                100.0 * (r.dpwl / base.expect("set above") - 1.0),
                r.iterations,
                r.rt_total()
            );
            table.push([
                bench.to_string(),
                name.to_string(),
                format!("{:.4e}", r.dpwl),
                format!("{:.4e}", r.lgwl),
                r.iterations.to_string(),
                format!("{:.1}", r.rt_total()),
            ]);
        }
    }
    if let Err(e) = table.write_csv("results/ablation_tschedule.csv") {
        eprintln!("could not write CSV: {e}");
    } else {
        println!("\nwrote results/ablation_tschedule.csv");
    }
}
