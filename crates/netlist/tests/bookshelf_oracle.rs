//! The one-pass Bookshelf reader against the reader it replaced
//! (`tests/reference/`): every built-in circuit, written to Bookshelf text
//! and read back by both, must come back the same to the bit.

mod reference;

use mep_netlist::bookshelf::{read_files, to_strings};
use mep_netlist::synth;
use reference::Reader;

#[test]
fn every_catalogue_circuit_reads_as_the_reference_reads_it() {
    for builtin in synth::builtins() {
        let circuit = builtin.generate();
        let files = to_strings(&circuit);
        let read = |reader: Reader| {
            reader(
                builtin.name().to_string(),
                &files.nodes,
                &files.nets,
                &files.pl,
                &files.scl,
                Some(&files.wts),
                circuit.design.target_density,
            )
        };
        let ours = read(read_files).unwrap_or_else(|e| panic!("{}: {e}", builtin.name()));
        let theirs = read(reference::read_files).expect("the reference reads its own output");
        reference::assert_same(&ours, &theirs);
    }
}

#[test]
fn a_pl_out_of_nodes_order_reads_as_the_reference_reads_it() {
    let circuit = synth::generate(&synth::smoke_spec());
    let files = to_strings(&circuit);
    // reversed, a name no node has, and one cell twice: its last line wins
    let mut pl: Vec<&str> = files.pl.lines().rev().collect();
    pl.push("ghost 1 2 : N");
    pl.push("o7 11 12 : N /FIXED");
    let pl = pl.join("\n");
    let read = |reader: Reader| {
        reader(
            "smoke".into(),
            &files.nodes,
            &files.nets,
            &pl,
            &files.scl,
            None,
            0.8,
        )
    };
    let ours = read(read_files).unwrap();
    reference::assert_same(&ours, &read(reference::read_files).unwrap());
    let o7 = ours.design.netlist.cell_by_name("o7").unwrap();
    assert!(!ours.design.netlist.is_movable(o7));
}
