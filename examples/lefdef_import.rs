//! LEF/DEF import: parse an ISPD2019-style LEF library + DEF design (the
//! small ring fixture shipped with the tests) and place it.
//!
//! ```text
//! cargo run --release --example lefdef_import [design.def library.lef]
//! ```

use moreau_placer::netlist::lefdef::{parse_def, parse_lef};
use moreau_placer::placer::pipeline::{run, PipelineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let (def_text, lef_text) = match (args.next(), args.next()) {
        (Some(def_path), Some(lef_path)) => (
            std::fs::read_to_string(def_path)?,
            std::fs::read_to_string(lef_path)?,
        ),
        _ => (
            include_str!("../tests/fixtures/sample.def").to_string(),
            include_str!("../tests/fixtures/sample.lef").to_string(),
        ),
    };

    let lib = parse_lef(&lef_text)?;
    println!(
        "LEF: {} sites, {} macros",
        lib.sites.len(),
        lib.macros.len()
    );
    let circuit = parse_def(&def_text, &lib, 0.9)?;
    let nl = &circuit.design.netlist;
    println!(
        "DEF `{}`: {} movable + {} fixed cells, {} nets (die {}, {} rows)",
        circuit.design.name,
        nl.num_movable(),
        nl.num_fixed(),
        nl.num_nets(),
        circuit.design.die,
        circuit.design.rows.len()
    );

    let result = run(&circuit, &PipelineConfig::default()).expect("placement flow");
    println!(
        "placed: GPWL {:.4e} → LGWL {:.4e} → DPWL {:.4e} in {:.2}s",
        result.gpwl,
        result.lgwl,
        result.dpwl,
        result.rt_total()
    );
    Ok(())
}
