//! Cross-crate integration test: a LEF/DEF circuit (the ISPD2019 native
//! format) parses, normalizes to site units, and runs through the full
//! placement pipeline legally.

use moreau_placer::netlist::lefdef::{parse_def, parse_lef};
use moreau_placer::netlist::total_hpwl;
use moreau_placer::placer::pipeline::{run, PipelineConfig};
use moreau_placer::placer::GlobalConfig;
use moreau_placer::wirelength::ModelKind;

const LEF: &str = include_str!("fixtures/sample.lef");
const DEF: &str = include_str!("fixtures/sample.def");

#[test]
fn lefdef_parses_with_expected_shape() {
    let lib = parse_lef(LEF).expect("LEF parses");
    assert_eq!(lib.macros.len(), 2);
    let circuit = parse_def(DEF, &lib, 0.9).expect("DEF parses");
    let nl = &circuit.design.netlist;
    assert_eq!(nl.num_movable(), 60);
    assert_eq!(nl.num_fixed(), 2); // two IO pins
    assert_eq!(nl.num_nets(), 61);
    // site-unit normalization: 16000 dbu die at 200 dbu sites = 80 sites
    assert_eq!(circuit.design.die.width(), 80.0);
    assert_eq!(circuit.design.rows.len(), 10);
    assert!((circuit.design.rows[0].height - 8.0).abs() < 1e-9);
}

#[test]
fn lefdef_circuit_places_legally() {
    let lib = parse_lef(LEF).expect("LEF parses");
    let circuit = parse_def(DEF, &lib, 0.9).expect("DEF parses");
    let before = total_hpwl(&circuit.design.netlist, &circuit.placement);
    let config = PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 300,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&circuit, &config).expect("placement flow");
    assert!(r.dpwl.is_finite() && r.dpwl > 0.0);
    // a 60-cell chain between opposite corners: placement should order
    // the chain far better than the everything-at-center start
    assert!(
        r.dpwl < 3.0 * before + 300.0,
        "dpwl {} vs initial {before}",
        r.dpwl
    );
    // chain structure: consecutive cells should end up near each other on
    // average (the whole point of placement)
    let nl = &circuit.design.netlist;
    let mut total_link = 0.0;
    for i in 1..60 {
        let a = nl.cell_by_name(&format!("u{}", i - 1)).expect("exists");
        let b = nl.cell_by_name(&format!("u{i}")).expect("exists");
        let pa = r.placement.center(nl, a);
        let pb = r.placement.center(nl, b);
        total_link += (pa.x - pb.x).abs() + (pa.y - pb.y).abs();
    }
    let avg_link = total_link / 59.0;
    assert!(
        avg_link < 0.25 * circuit.design.die.width(),
        "avg chain link {avg_link}"
    );
}

/// `sample.def` with every `ROW` raised by 800 dbu (half a row) and the
/// `DIEAREA` top raised with them: the rows no longer start at the die
/// bottom.
fn half_row_offset_def() -> String {
    let shift = |line: &str, field: usize| -> String {
        let mut words: Vec<String> = line.split(' ').map(str::to_string).collect();
        let y: i64 = words[field].parse().expect("integer coordinate");
        words[field] = (y + 800).to_string();
        words.join(" ")
    };
    DEF.lines()
        .map(|line| match line.split(' ').next() {
            // ROW name site x y orient ...
            Some("ROW") => shift(line, 4),
            // DIEAREA ( xl yl ) ( xh yh ) ;
            Some("DIEAREA") => shift(line, 7),
            _ => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rows_offset_from_the_die_place_legally() {
    let def = half_row_offset_def();
    assert!(def.contains("DIEAREA ( 0 0 ) ( 16000 16800 ) ;"));
    assert!(def.contains("ROW r9 core 0 15200 N"));
    let lib = parse_lef(LEF).expect("LEF parses");
    let circuit = parse_def(&def, &lib, 0.9).expect("DEF parses");
    assert_eq!(circuit.design.rows[0].y, 4.0);
    let config = PipelineConfig {
        global: GlobalConfig {
            model: ModelKind::Moreau,
            max_iters: 300,
            ..GlobalConfig::default()
        },
        ..PipelineConfig::default()
    };
    let r = run(&circuit, &config).expect("placement flow");
    let nl = &circuit.design.netlist;
    for cell in nl.movable_cells() {
        let y = r.placement.y[cell.index()];
        assert!(
            circuit.design.rows.iter().any(|row| row.y == y),
            "cell {} at y {y} sits on no row",
            nl.cell_name(cell)
        );
    }
}
