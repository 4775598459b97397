//! Regenerates **Fig. 3**: the HPWL-vs-density-overflow trajectory during
//! global placement, WA versus the Moreau model ("Ours"), on
//! (a) `newblue1` (ISPD2006) and (b) `ispd19_test10` (ISPD2019).
//!
//! ```text
//! cargo run -p mep-bench --release --bin fig3_wl_vs_overflow [--fast]
//! ```
//!
//! Writes `results/fig3_trajectories.csv` in long format
//! (`bench,model,iter,overflow,hpwl`) — plot HPWL against overflow with
//! the x-axis reversed to reproduce the figure.

use mep_bench::{FlowOptions, Table};
use mep_netlist::synth;
use mep_obs::RingSink;
use mep_placer::global::{place, GlobalConfig};
use mep_wirelength::ModelKind;
use std::sync::Arc;

fn main() {
    let opts = FlowOptions::from_args();
    let mut table = Table::new(["bench", "model", "iter", "overflow", "hpwl"]);
    for bench in ["newblue1", "ispd19_test10"] {
        let spec = opts.shrink_spec(&synth::spec_by_name(bench).expect("Table I name"));
        let circuit = synth::generate(&spec);
        let mut finals = Vec::new();
        for model in [ModelKind::Wa, ModelKind::Moreau] {
            eprintln!("[fig3] {bench} × {} …", model.label());
            let sink = Arc::new(RingSink::new(opts.max_iters.max(1)));
            let cfg = GlobalConfig {
                model,
                max_iters: opts.max_iters,
                trace: sink.clone(),
                ..GlobalConfig::default()
            };
            let r = place(&circuit, &cfg).expect("placement flow");
            for p in &sink.records() {
                table.push([
                    bench.to_string(),
                    model.label().to_string(),
                    p.iter.to_string(),
                    format!("{:.6}", p.overflow),
                    format!("{:.2}", p.hpwl),
                ]);
            }
            finals.push((model, r.hpwl, r.overflow));
        }
        println!("\nFig. 3 — {bench}: final GP HPWL at matched overflow");
        for (model, hpwl, phi) in &finals {
            println!(
                "  {:<8} HPWL {hpwl:.4e} at overflow {phi:.3}",
                model.label()
            );
        }
        if let [(_, wa, _), (_, ours, _)] = finals[..] {
            println!("  Ours/WA at GP end: {:.4}", ours / wa);
        }
        // the figure's key read-out: HPWL at matched overflow levels
        println!("  HPWL at matched overflow levels (lower is better):");
        for target in [0.8, 0.6, 0.4, 0.2, 0.1] {
            let pick = |model: &str| -> Option<f64> {
                // last trajectory point with overflow >= target (overflow decreases)
                table_rows_for(&table, bench, model)
                    .into_iter()
                    .rfind(|(phi, _)| *phi >= target)
                    .map(|(_, h)| h)
            };
            if let (Some(wa), Some(ours)) = (pick("WA"), pick("Ours")) {
                println!(
                    "    φ≈{target:.1}: WA {wa:.4e}  Ours {ours:.4e}  ratio {:.4}",
                    ours / wa
                );
            }
        }
    }
    if let Err(e) = table.write_csv("results/fig3_trajectories.csv") {
        eprintln!("could not write CSV: {e}");
    } else {
        println!(
            "\nwrote results/fig3_trajectories.csv ({} points)",
            table.len()
        );
    }

    // the figures themselves: HPWL against overflow, x reversed by
    // plotting −overflow (the run proceeds right-to-left in the paper)
    for bench in ["newblue1", "ispd19_test10"] {
        let mut plot = mep_bench::svg::LinePlot::new(
            format!("Fig. 3: wirelength vs density overflow — {bench}"),
            "density overflow φ (negated: run proceeds left to right)",
            "HPWL",
        );
        for model in ["WA", "Ours"] {
            plot.add_series(
                model,
                table_rows_for(&table, bench, model)
                    .into_iter()
                    .map(|(phi, h)| (-phi, h)),
            );
        }
        let path = format!("results/fig3_{bench}.svg");
        if plot.write(&path).is_ok() {
            println!("wrote {path}");
        }
    }
}

/// Extracts `(overflow, hpwl)` points of one curve from the long table.
fn table_rows_for(table: &Table, bench: &str, model: &str) -> Vec<(f64, f64)> {
    table
        .rows()
        .iter()
        .filter(|r| r[0] == bench && r[1] == model)
        .map(|r| {
            (
                r[3].parse().expect("overflow cell"),
                r[4].parse().expect("hpwl cell"),
            )
        })
        .collect()
}
