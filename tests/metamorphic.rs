//! Flow-level metamorphic properties: transformations of the input that
//! cannot change the answer must leave the final DPWL of a full
//! `GP → LG → DP` run where it was.
//!
//! Neither property holds to the bit. Translating every coordinate by `2^k`
//! re-rounds each sum that mixes a coordinate with the die origin, and
//! permuting the nets moves them between the class kernel's lanes and
//! reorders every net-order sum. So each property holds within a tolerance
//! measured on `smoke` (see [`DPWL_TOLERANCE`]).

use moreau_placer::netlist::bookshelf::BookshelfCircuit;
use moreau_placer::netlist::{synth, Design, NetlistBuilder, Row};
use moreau_placer::placer::pipeline::{run, PipelineConfig};

/// Largest relative DPWL change either transformation may cause on `smoke`.
///
/// Measured with the default flow (333 GP iterations): the GP HPWL moved by
/// 1.1e-11 under the 2^10 translation and by at most 1.1e-13 under the three
/// net permutations, and legalization plus detailed placement absorbed it,
/// so DPWL moved by at most 1.4e-15 (the summation order of the final HPWL).
/// The bound leaves room for last-bit drift, not for a different placement.
const DPWL_TOLERANCE: f64 = 1e-9;

fn dpwl(circuit: &BookshelfCircuit) -> f64 {
    let r = run(circuit, &PipelineConfig::default()).expect("placement flow");
    assert_eq!(
        r.violations, 0,
        "{}: illegal placement",
        circuit.design.name
    );
    r.dpwl
}

fn assert_close(name: &str, base: f64, got: f64) {
    let rel = got / base - 1.0;
    assert!(
        rel.abs() <= DPWL_TOLERANCE,
        "{name}: DPWL {got} vs {base} ({:+.3} %)",
        100.0 * rel
    );
}

/// `circuit` with die, rows and every cell moved by `(off, off)`.
fn translated(circuit: &BookshelfCircuit, off: f64) -> BookshelfCircuit {
    let d = &circuit.design;
    let mut die = d.die;
    die.xl += off;
    die.xh += off;
    die.yl += off;
    die.yh += off;
    let rows = d
        .rows
        .iter()
        .map(|r| Row {
            y: r.y + off,
            xl: r.xl + off,
            xh: r.xh + off,
            ..*r
        })
        .collect();
    let design = Design::new(
        d.name.clone(),
        d.netlist.clone(),
        die,
        rows,
        d.target_density,
    )
    .expect("translated design");
    let mut placement = circuit.placement.clone();
    placement.x.iter_mut().for_each(|x| *x += off);
    placement.y.iter_mut().for_each(|y| *y += off);
    BookshelfCircuit { design, placement }
}

/// `circuit` with its nets rebuilt in the order `order` (cells, pins and
/// weights unchanged).
fn renumbered_nets(circuit: &BookshelfCircuit, order: &[usize]) -> BookshelfCircuit {
    let d = &circuit.design;
    let nl = &d.netlist;
    let mut b = NetlistBuilder::with_capacity(nl.num_cells(), nl.num_nets(), nl.num_pins());
    for cell in nl.cells() {
        b.add_cell(
            nl.cell_name(cell),
            nl.cell_width(cell),
            nl.cell_height(cell),
            nl.is_movable(cell),
        )
        .expect("unique cell names");
    }
    let nets: Vec<_> = nl.nets().collect();
    for &i in order {
        let net = nets[i];
        let pins = nl
            .net_pins(net)
            .map(|p| (nl.pin_cell(p), nl.pin_offset_x(p), nl.pin_offset_y(p)));
        let id = b.add_net(nl.net_name(net), pins);
        b.set_net_weight(id, nl.net_weight(net));
    }
    let design = Design::new(
        d.name.clone(),
        b.build(),
        d.die,
        d.rows.clone(),
        d.target_density,
    )
    .expect("renumbered design");
    BookshelfCircuit {
        design,
        placement: circuit.placement.clone(),
    }
}

#[test]
fn translating_the_die_leaves_dpwl_in_place() {
    let circuit = synth::generate(&synth::smoke_spec());
    let base = dpwl(&circuit);
    let off = 1024.0;
    assert_close("translate 2^10", base, dpwl(&translated(&circuit, off)));
}

#[test]
fn permuting_the_nets_leaves_dpwl_in_place() {
    let circuit = synth::generate(&synth::smoke_spec());
    let base = dpwl(&circuit);
    let n = circuit.design.netlist.num_nets();
    let reversed: Vec<usize> = (0..n).rev().collect();
    // a stride coprime to the net count visits every net once
    let stride = (n / 2..n).find(|&k| gcd(k, n) == 1).unwrap_or(1);
    let strided: Vec<usize> = (0..n).map(|i| i * stride % n).collect();
    let rotated: Vec<usize> = (0..n).map(|i| (i + n / 3) % n).collect();
    for (name, order) in [
        ("reversed", reversed),
        ("strided", strided),
        ("rotated", rotated),
    ] {
        assert_close(name, base, dpwl(&renumbered_nets(&circuit, &order)));
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
