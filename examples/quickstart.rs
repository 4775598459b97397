//! Quickstart: place a small synthetic circuit with the Moreau-envelope
//! wirelength model and print the pipeline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moreau_placer::netlist::synth;
use moreau_placer::netlist::total_hpwl;
use moreau_placer::placer::pipeline::{run, PipelineConfig};

fn main() {
    // 1. get a circuit: a deterministic synthetic design with ~400 cells
    //    (swap in `bookshelf::read_aux(...)` for a real ISPD benchmark)
    let circuit = synth::generate(&synth::smoke_spec());
    let nl = &circuit.design.netlist;
    println!(
        "circuit `{}`: {} movable + {} fixed cells, {} nets, {} pins",
        circuit.design.name,
        nl.num_movable(),
        nl.num_fixed(),
        nl.num_nets(),
        nl.num_pins()
    );
    println!(
        "initial HPWL (cells piled at die center): {:.4e}",
        total_hpwl(nl, &circuit.placement)
    );

    // 2. run the full flow: global placement -> legalization -> detailed
    //    placement, all with default (paper) settings; an `Ok` is a legal
    //    placement (an illegal one is `PlacerError::Illegal`)
    let result = run(&circuit, &PipelineConfig::default()).expect("placement flow");

    // 3. report
    println!(
        "global placement : HPWL {:.4e}  (overflow {:.3}, {} iters, {:.2}s)",
        result.gpwl, result.overflow, result.iterations, result.rt_gp
    );
    println!(
        "legalization     : HPWL {:.4e}  (avg move {:.2}, {:.2}s)",
        result.lgwl, result.legalize.avg_displacement, result.rt_lg
    );
    println!(
        "detailed place   : HPWL {:.4e}  ({} reorders, {} swaps, {:.2}s)",
        result.dpwl, result.detail.reorders, result.detail.swaps, result.rt_dp
    );
}
