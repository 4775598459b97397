//! Run the full flow on one synthetic ISPD benchmark and export the result
//! as a Bookshelf directory (so any Bookshelf viewer / evaluator can
//! inspect it).
//!
//! ```text
//! cargo run --release --example ispd_flow -- ispd19_test1 /tmp/out
//! ```

use moreau_placer::netlist::bookshelf::{self, BookshelfCircuit};
use moreau_placer::netlist::synth;
use moreau_placer::placer::pipeline::{run, PipelineConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "ispd19_test1".to_string());
    let outdir = args
        .next()
        .unwrap_or_else(|| "target/ispd_flow".to_string());

    let spec = synth::spec_by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{bench}`; Table I names, e.g. newblue1 or ispd19_test3");
        std::process::exit(2);
    });
    println!(
        "generating `{}` (scaled stand-in, seed {}) …",
        spec.name, spec.seed
    );
    let circuit = synth::generate(&spec);

    let result = run(&circuit, &PipelineConfig::default()).expect("placement flow");
    println!(
        "{}: GPWL {:.4e} → LGWL {:.4e} → DPWL {:.4e} in {:.1}s",
        spec.name,
        result.gpwl,
        result.lgwl,
        result.dpwl,
        result.rt_total()
    );

    // export the placed circuit in Bookshelf format
    let placed = BookshelfCircuit {
        design: circuit.design.clone(),
        placement: result.placement.clone(),
    };
    match bookshelf::write_dir(&outdir, &placed) {
        Ok(()) => println!("wrote Bookshelf files to {outdir}/{}.*", spec.name),
        Err(e) => eprintln!("could not write {outdir}: {e}"),
    }
}
