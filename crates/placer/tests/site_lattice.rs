//! The flow snaps every cell onto the site lattice of its own row,
//! `row.xl + k·site_width`, not onto the integers: a full `GP → LG → DP`
//! run on rows with a half-site origin or two-unit sites, or with cells
//! narrower than a whole number of sites, must return `Ok`, which
//! `check_legal` (site lattice included) guards.

use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{synth, CellId, Design, Netlist, NetlistBuilder, Row};
use mep_placer::pipeline::{run, PipelineConfig};

/// Runs the default flow on `circuit`: an `Ok` is a legal placement.
fn assert_places_on_sites(circuit: &BookshelfCircuit) {
    if let Err(e) = run(circuit, &PipelineConfig::default()) {
        panic!("{}: {e}", circuit.design.name);
    }
}

/// `circuit`'s design with `rows` in place of its own.
fn with_rows(circuit: &BookshelfCircuit, rows: Vec<Row>) -> BookshelfCircuit {
    let d = &circuit.design;
    let design = Design::new(
        d.name.clone(),
        d.netlist.clone(),
        d.die,
        rows,
        d.target_density,
    )
    .expect("design with new rows");
    BookshelfCircuit {
        design,
        placement: circuit.placement.clone(),
    }
}

#[test]
fn rows_with_a_half_site_origin_place_on_their_sites() {
    // `SubrowOrigin : 0.5 NumSites : 53` on every row of `smoke`
    let circuit = synth::generate(&synth::smoke_spec());
    let rows = circuit.design.rows.iter().map(|r| Row {
        xl: 0.5,
        xh: 53.5,
        ..*r
    });
    assert_places_on_sites(&with_rows(&circuit, rows.collect()));
}

/// `circuit` stretched `sx`× along x (die, rows, sites, pin offsets and
/// the start placement), each cell `width` wide instead.
fn rebuilt(
    circuit: &BookshelfCircuit,
    sx: f64,
    width: impl Fn(&Netlist, CellId) -> f64,
) -> BookshelfCircuit {
    let d = &circuit.design;
    let nl = &d.netlist;
    let mut b = NetlistBuilder::with_capacity(nl.num_cells(), nl.num_nets(), nl.num_pins());
    for cell in nl.cells() {
        let (w, h) = (width(nl, cell), nl.cell_height(cell));
        b.add_cell(nl.cell_name(cell), w, h, nl.is_movable(cell))
            .expect("unique cell names");
    }
    for net in nl.nets() {
        let pins = nl
            .net_pins(net)
            .map(|p| (nl.pin_cell(p), sx * nl.pin_offset_x(p), nl.pin_offset_y(p)));
        let id = b.add_net(nl.net_name(net), pins);
        b.set_net_weight(id, nl.net_weight(net));
    }
    let mut die = d.die;
    (die.xl, die.xh) = (sx * die.xl, sx * die.xh);
    let rows = d.rows.iter().map(|r| Row {
        xl: sx * r.xl,
        xh: sx * r.xh,
        site_width: sx * r.site_width,
        ..*r
    });
    let design = Design::new(
        d.name.clone(),
        b.build(),
        die,
        rows.collect(),
        d.target_density,
    )
    .expect("rebuilt design");
    let mut placement = circuit.placement.clone();
    placement.x.iter_mut().for_each(|x| *x *= sx);
    BookshelfCircuit { design, placement }
}

#[test]
fn two_unit_sites_hold_cells_of_even_width() {
    // `smoke` stretched 2× along x, cell widths included
    let circuit = synth::generate(&synth::smoke_spec());
    let stretched = rebuilt(&circuit, 2.0, |nl, c| 2.0 * nl.cell_width(c));
    assert_places_on_sites(&stretched);
}

#[test]
fn cells_of_fractional_width_take_whole_sites() {
    // every movable cell of `smoke` 0.9× as wide: each takes the whole
    // sites of its old width, and the cell after it starts on a site
    let circuit = synth::generate(&synth::smoke_spec());
    let narrow = |nl: &Netlist, c| match nl.is_movable(c) {
        true => 0.9 * nl.cell_width(c),
        false => nl.cell_width(c),
    };
    assert_places_on_sites(&rebuilt(&circuit, 1.0, narrow));
}
