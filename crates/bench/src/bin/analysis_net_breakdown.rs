//! **Analysis** (beyond the paper's tables): where does the Moreau model
//! win? Breaks final DPWL down by net-degree class for WA vs Ours on the
//! macro-heavy `newblue1` — the paper attributes its largest gain (5.4%)
//! to that circuit, and this view shows which nets pay for it.
//!
//! ```text
//! cargo run -p mep-bench --release --bin analysis_net_breakdown [--fast]
//! ```
//!
//! Writes `results/analysis_net_breakdown.csv`.

use mep_bench::{FlowOptions, Table};
use mep_netlist::{net_hpwl, synth};
use mep_placer::pipeline::{run, PipelineConfig};
use mep_placer::GlobalConfig;
use mep_wirelength::ModelKind;

const CLASSES: [(usize, usize, &str); 5] = [
    (2, 2, "2-pin"),
    (3, 3, "3-pin"),
    (4, 7, "4-7 pin"),
    (8, 15, "8-15 pin"),
    (16, usize::MAX, "16+ pin"),
];

fn main() {
    let opts = FlowOptions::from_args();
    let spec = opts.shrink_spec(&synth::spec_by_name("newblue1").expect("Table I name"));
    let circuit = synth::generate(&spec);
    let nl = &circuit.design.netlist;

    let mut by_model: Vec<(ModelKind, Vec<f64>)> = Vec::new();
    for model in [ModelKind::Wa, ModelKind::Moreau] {
        eprintln!("[analysis] newblue1 × {} …", model.label());
        let config = PipelineConfig {
            global: GlobalConfig {
                model,
                max_iters: opts.max_iters,
                ..GlobalConfig::default()
            },
            ..PipelineConfig::default()
        };
        let r = run(&circuit, &config).expect("placement flow");
        // per-class HPWL totals of the final placement
        let mut class_wl = vec![0.0; CLASSES.len()];
        for net in nl.nets() {
            let d = nl.net_degree(net);
            let Some(k) = CLASSES.iter().position(|&(lo, hi, _)| d >= lo && d <= hi) else {
                continue; // 0/1-pin nets
            };
            class_wl[k] += net_hpwl(nl, &r.placement, net);
        }
        by_model.push((model, class_wl));
    }

    let mut table = Table::new(["class", "#nets", "WA HPWL", "Ours HPWL", "Ours/WA"]);
    println!("\nnewblue1 — final DPWL by net-degree class (WA vs Ours):\n");
    println!(
        "{:<10} {:>7} {:>12} {:>12} {:>9}",
        "class", "#nets", "WA", "Ours", "Ours/WA"
    );
    let (wa, ours) = (&by_model[0].1, &by_model[1].1);
    for (k, &(lo, hi, label)) in CLASSES.iter().enumerate() {
        let count = nl
            .nets()
            .filter(|&n| {
                let d = nl.net_degree(n);
                d >= lo && d <= hi
            })
            .count();
        let ratio = if wa[k] > 0.0 { ours[k] / wa[k] } else { 1.0 };
        println!(
            "{label:<10} {count:>7} {:>12.4e} {:>12.4e} {ratio:>9.4}",
            wa[k], ours[k]
        );
        table.push([
            label.to_string(),
            count.to_string(),
            format!("{:.6e}", wa[k]),
            format!("{:.6e}", ours[k]),
            format!("{ratio:.4}"),
        ]);
    }
    let (tw, to): (f64, f64) = (wa.iter().sum(), ours.iter().sum());
    println!(
        "{:<10} {:>7} {tw:>12.4e} {to:>12.4e} {:>9.4}",
        "total",
        nl.num_nets(),
        to / tw
    );
    table.push([
        "total".to_string(),
        nl.num_nets().to_string(),
        format!("{tw:.6e}"),
        format!("{to:.6e}"),
        format!("{:.4}", to / tw),
    ]);
    if let Err(e) = table.write_csv("results/analysis_net_breakdown.csv") {
        eprintln!("could not write CSV: {e}");
    } else {
        println!("\nwrote results/analysis_net_breakdown.csv");
    }
}
