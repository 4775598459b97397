//! Cross-crate integration test: Bookshelf export/import composes with
//! the placer — a placed circuit survives a round trip through the five
//! Bookshelf files with identical HPWL and legality.

use moreau_placer::netlist::bookshelf::{self, BookshelfCircuit};
use moreau_placer::netlist::{synth, total_hpwl};
use moreau_placer::placer::pipeline::{run, PipelineConfig};
use moreau_placer::placer::{check_legal, GlobalConfig};
use moreau_placer::wirelength::ModelKind;

#[test]
fn placed_circuit_round_trips_through_bookshelf_files() {
    let circuit = synth::generate(&synth::smoke_spec());
    let config = PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 300,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let result = run(&circuit, &config).expect("placement flow");

    let placed = BookshelfCircuit {
        design: circuit.design.clone(),
        placement: result.placement.clone(),
    };
    let files = bookshelf::to_strings(&placed);
    let back = bookshelf::read_files(
        circuit.design.name.clone(),
        &files.nodes,
        &files.nets,
        &files.pl,
        &files.scl,
        None,
        circuit.design.target_density,
    )
    .expect("round trip parses");

    // identical structure
    assert_eq!(
        back.design.netlist.num_cells(),
        circuit.design.netlist.num_cells()
    );
    assert_eq!(
        back.design.netlist.num_pins(),
        circuit.design.netlist.num_pins()
    );
    // identical wirelength
    let h1 = total_hpwl(&circuit.design.netlist, &result.placement);
    let h2 = total_hpwl(&back.design.netlist, &back.placement);
    assert!((h1 - h2).abs() < 1e-6 * h1.max(1.0));
    // still legal after the round trip
    assert!(check_legal(&back.design, &back.placement).is_empty());
}

#[test]
fn two_round_trips_are_bit_identical_including_fixedness() {
    // synth circuits carry fixed terminals; push one through two full
    // write→parse cycles and demand bit-identical coordinates and
    // unchanged fixed/movable status for every cell (regression: the
    // `/FIXED` suffix used to be parsed, then dropped on re-import)
    let circuit = synth::generate(&synth::smoke_spec());
    let nl0 = &circuit.design.netlist;
    assert!(nl0.num_fixed() > 0, "smoke spec must contain fixed cells");

    let trip = |c: &BookshelfCircuit| -> BookshelfCircuit {
        let files = bookshelf::to_strings(c);
        bookshelf::read_files(
            c.design.name.clone(),
            &files.nodes,
            &files.nets,
            &files.pl,
            &files.scl,
            None,
            c.design.target_density,
        )
        .expect("round trip parses")
    };
    let once = trip(&circuit);
    let twice = trip(&once);

    for (label, back) in [("first", &once), ("second", &twice)] {
        let nl = &back.design.netlist;
        assert_eq!(nl.num_cells(), nl0.num_cells(), "{label} trip");
        assert_eq!(nl.num_fixed(), nl0.num_fixed(), "{label} trip");
        for cell in nl0.cells() {
            let name = nl0.cell_name(cell);
            let there = nl.cell_by_name(name).expect("cell survives");
            assert_eq!(
                nl.is_movable(there),
                nl0.is_movable(cell),
                "{label} trip: fixedness of `{name}`"
            );
            // bit-identical, not approximately equal: f64 Display/parse
            // must round-trip exactly
            assert_eq!(
                back.placement.x[there.index()].to_bits(),
                circuit.placement.x[cell.index()].to_bits(),
                "{label} trip: x of `{name}`"
            );
            assert_eq!(
                back.placement.y[there.index()].to_bits(),
                circuit.placement.y[cell.index()].to_bits(),
                "{label} trip: y of `{name}`"
            );
        }
    }

    // the serialized bytes themselves reach a fixed point after one trip
    let f1 = bookshelf::to_strings(&once);
    let f2 = bookshelf::to_strings(&twice);
    assert_eq!(f1.pl, f2.pl, ".pl stabilizes after one round trip");
    assert_eq!(f1.nodes, f2.nodes);
    assert_eq!(f1.nets, f2.nets);
}

#[test]
fn imported_circuit_can_be_placed() {
    // export the *unplaced* circuit, re-import, then run the flow on the
    // imported copy — exercises parser → placer composition
    let circuit = synth::generate(&synth::smoke_spec());
    let files = bookshelf::to_strings(&circuit);
    let imported = bookshelf::read_files(
        "reimport".to_string(),
        &files.nodes,
        &files.nets,
        &files.pl,
        &files.scl,
        None,
        circuit.design.target_density,
    )
    .expect("parses");
    let config = PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Wa,
            max_iters: 250,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&imported, &config).expect("placement flow");
    assert!(r.dpwl.is_finite() && r.dpwl > 0.0);
}
