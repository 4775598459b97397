//! Contest-evaluator-style checker: loads a placed Bookshelf circuit,
//! verifies legality, and reports (weighted) HPWL — the role NTUPlace3's
//! evaluator plays in the paper's Table II ("evaluated by NTUPlace3 for a
//! fair comparison").
//!
//! ```text
//! cargo run -p mep-bench --release --bin verify_placement -- <circuit.aux> [target_density]
//! ```
//!
//! Exit code 0 iff the placement is legal (`check_legal`, the site lattice
//! included), 2 on a command line it does not take.

use mep_netlist::bookshelf;
use mep_netlist::placement::{total_hpwl, total_weighted_hpwl};
use mep_placer::legalize::check_legal;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = mep_bench::Args::read("verify_placement", &["<circuit.aux>", "[target_density]"]);
    let aux: String = args.positional(0).unwrap_or_default();
    let density = args.positional(1).unwrap_or(1.0);
    let circuit = match bookshelf::read_aux(&aux, density) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error reading {aux}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nl = &circuit.design.netlist;
    println!("circuit  : {}", circuit.design.name);
    println!(
        "cells    : {} movable + {} fixed",
        nl.num_movable(),
        nl.num_fixed()
    );
    println!("nets/pins: {} / {}", nl.num_nets(), nl.num_pins());
    let hpwl = total_hpwl(nl, &circuit.placement);
    let whpwl = total_weighted_hpwl(nl, &circuit.placement);
    println!("HPWL     : {hpwl:.6e}");
    if (whpwl - hpwl).abs() > 1e-9 * hpwl.max(1.0) {
        println!("weighted : {whpwl:.6e}");
    }
    let violations = check_legal(&circuit.design, &circuit.placement);
    if violations.is_empty() {
        println!("legality : OK");
        ExitCode::SUCCESS
    } else {
        println!("legality : {} violations", violations.len());
        for v in violations.iter().take(10) {
            println!("  {v:?}");
        }
        ExitCode::FAILURE
    }
}
