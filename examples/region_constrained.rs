//! Region-constrained placement: ISPD2019-style fence regions.
//!
//! Generates the demo circuit with two fences holding ~10% of the cells,
//! runs the full flow and shows where the fenced cells ended up. The flow
//! returns `Ok` only for a legal placement: every constrained cell inside
//! its fence, and every other cell out of all of them.
//!
//! ```text
//! cargo run --release --example region_constrained
//! ```

use moreau_placer::netlist::synth;
use moreau_placer::placer::pipeline::{run, PipelineConfig};

fn main() {
    let circuit = synth::generate(&synth::smoke_regions_spec());
    let design = &circuit.design;
    println!(
        "circuit `{}` with {} fence regions:",
        design.name,
        design.regions.len()
    );
    for region in &design.regions {
        let members = design
            .cell_region
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some_and(|idx| design.regions[idx as usize].name == region.name))
            .count();
        println!(
            "  {} at {} holding {members} cells",
            region.name, region.rect
        );
    }

    let result = run(&circuit, &PipelineConfig::default()).expect("placement flow");
    println!(
        "\nGPWL {:.4e} → LGWL {:.4e} → DPWL {:.4e} in {:.1}s",
        result.gpwl,
        result.lgwl,
        result.dpwl,
        result.rt_total()
    );

    // show where the fenced cells ended up
    let nl = &design.netlist;
    let mut shown = 0;
    for cell in nl.movable_cells() {
        if let Some(region) = design.region_of(cell) {
            if shown < 5 {
                let p = result.placement.center(nl, cell);
                println!(
                    "  {} pinned to {}: placed at {p} (fence {})",
                    nl.cell_name(cell),
                    region.name,
                    region.rect
                );
                shown += 1;
            }
        }
    }
    println!("…and every other fenced cell likewise (the flow returned `Ok`).");
}
