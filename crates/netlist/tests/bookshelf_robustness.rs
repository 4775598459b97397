//! Robustness tests for the Bookshelf parser: whitespace, comments,
//! unusual-but-legal formatting, clear errors for broken files, and
//! fuzzing of truncated/corrupted Bookshelf and DEF inputs (the parsers
//! must never panic — every malformed input is a typed error).

use mep_netlist::bookshelf::read_files;
use mep_netlist::lefdef::{parse_def, parse_lef};
use mep_netlist::NetlistError;
use proptest::prelude::*;

const SCL: &str = "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1 Sitespacing : 1\n SubrowOrigin : 0 NumSites : 50\nEnd\n";

fn parse(nodes: &str, nets: &str, pl: &str) -> Result<(), NetlistError> {
    read_files("t".into(), nodes, nets, pl, SCL, None, 0.9).map(|_| ())
}

#[test]
fn tolerates_comments_and_blank_lines() {
    let nodes = "UCLA nodes 1.0\n# a comment\n\nNumNodes : 1\nNumTerminals : 0\n\n  a 1 1  # trailing comment\n";
    let nets =
        "# header comment\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n\n a I : 0 0\n a O : 0.5 0\n";
    let pl = "a 3 0 : N\n# done\n";
    assert!(parse(nodes, nets, pl).is_ok());
}

#[test]
fn tolerates_extreme_whitespace() {
    let nodes = "NumNodes : 1\n   a\t\t2.5    1   \n";
    let nets = "NetDegree : 1    solo\n     a   I  :   -0.25   0.125\n";
    let pl = "   a    7.5   0  : N\n";
    assert!(parse(nodes, nets, pl).is_ok());
}

#[test]
fn pin_without_direction_token_is_accepted() {
    // some generators omit the I/O token entirely
    let nodes = "NumNodes : 2\n a 1 1\n b 1 1\n";
    let nets = "NetDegree : 2 n\n a : 0 0\n b : 0 0\n";
    let pl = "a 0 0 : N\nb 5 0 : N\n";
    assert!(parse(nodes, nets, pl).is_ok());
}

#[test]
fn missing_width_is_a_clear_error() {
    let nodes = "NumNodes : 1\n a\n";
    let err = parse(nodes, "", "");
    match err {
        Err(NetlistError::Parse { file, .. }) => assert_eq!(file, "nodes"),
        other => panic!("expected nodes parse error, got {other:?}"),
    }
}

#[test]
fn bad_coordinate_in_pl_is_a_clear_error() {
    let nodes = "NumNodes : 1\n a 1 1\n";
    let pl = "a not-a-number 0 : N\n";
    let err = parse(nodes, "", pl);
    match err {
        Err(NetlistError::Parse { file, .. }) => assert_eq!(file, "pl"),
        other => panic!("expected pl parse error, got {other:?}"),
    }
}

#[test]
fn scl_without_rows_is_a_geometry_error() {
    let nodes = "NumNodes : 1\n a 1 1\n";
    let err = read_files(
        "t".into(),
        nodes,
        "",
        "a 0 0 : N\n",
        "UCLA scl 1.0\nNumRows : 0\n",
        None,
        0.9,
    );
    assert!(matches!(err, Err(NetlistError::Geometry(_))));
}

#[test]
fn zero_pin_net_is_allowed_and_harmless() {
    let nodes = "NumNodes : 1\n a 1 1\n";
    let nets = "NetDegree : 0 empty\n";
    let pl = "a 0 0 : N\n";
    let c = read_files("t".into(), nodes, nets, pl, SCL, None, 0.9).unwrap();
    assert_eq!(c.design.netlist.num_nets(), 1);
    assert_eq!(c.design.netlist.num_pins(), 0);
    // HPWL of the empty net is zero
    assert_eq!(
        mep_netlist::total_hpwl(&c.design.netlist, &c.placement),
        0.0
    );
}

#[test]
fn duplicate_node_is_reported() {
    let nodes = "NumNodes : 2\n a 1 1\n a 2 2\n";
    let err = parse(nodes, "", "");
    assert!(matches!(err, Err(NetlistError::DuplicateCell(_))));
}

#[test]
fn fixed_flag_in_pl_is_read() {
    // the /FIXED marker is currently informational (movability comes from
    // the .nodes terminal flag); it must at least parse
    let nodes = "NumNodes : 1\n a 1 1\n";
    let pl = "a 4 0 : N /FIXED\n";
    assert!(parse(nodes, "", pl).is_ok());
}

// ---------------------------------------------------------------------------
// fuzzing: the parsers must return a typed Result on ANY mangling of valid
// input — truncation, token corruption, or garbage injection — not panic

const GOOD_NODES: &str =
    "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n  o0 2 1\n  o1 4 1\n  p0 0 0 terminal\n";
const GOOD_NETS: &str = "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\nNetDegree : 3 n0\n  o0 I : 0.5 0\n  o1 O : 0 0\n  p0 I : 0 0\nNetDegree : 2\n  o0 I : 0 0\n  o1 I : -1 0\n";
const GOOD_PL: &str = "UCLA pl 1.0\no0 1 2 : N\no1 5 2 : N\np0 0 0 : N /FIXED\n";

const GOOD_LEF: &str = "SITE core\n SIZE 0.2 BY 1.6 ;\nEND core\nMACRO INV\n CLASS CORE ;\n SIZE 0.4 BY 1.6 ;\n PIN A\n  PORT\n   RECT 0.05 0.7 0.15 0.9 ;\n  END\n END A\nEND INV\nEND LIBRARY\n";
const GOOD_DEF: &str = "VERSION 5.8 ;\nDESIGN top ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 20000 16000 ) ;\nROW r0 core 0 0 N DO 100 BY 1 STEP 200 0 ;\nROW r1 core 0 1600 N DO 100 BY 1 STEP 200 0 ;\nCOMPONENTS 2 ;\n - u1 INV + PLACED ( 1000 0 ) N ;\n - u2 INV + PLACED ( 5000 1600 ) N ;\nEND COMPONENTS\nPINS 1 ;\n - io1 + NET n1 + DIRECTION INPUT + FIXED ( 0 8000 ) N ;\nEND PINS\nNETS 1 ;\n - n1 ( u1 A ) ( u2 A ) ( PIN io1 ) ;\nEND NETS\nREGIONS 1 ;\n - fence1 ( 0 0 ) ( 8000 3200 ) ;\nEND REGIONS\nGROUPS 1 ;\n - g1 u1 u2 + REGION fence1 ;\nEND GROUPS\nEND DESIGN\n";

const GARBAGE: [&str; 8] = [
    "",
    ";",
    "NaN",
    "-",
    "NetDegree :",
    "999999999999999999999",
    "(",
    "END",
];

/// Applies one mangling operation to ASCII `text` (all fixtures are ASCII,
/// so byte positions are char boundaries).
fn mangle(text: &str, op: usize, pos_frac: f64, garbage_idx: usize) -> String {
    let pos = ((text.len() as f64) * pos_frac) as usize;
    let pos = pos.min(text.len());
    let garbage = GARBAGE[garbage_idx % GARBAGE.len()];
    match op % 3 {
        // truncate
        0 => text[..pos].to_string(),
        // splice garbage into the middle
        1 => format!("{}{garbage}{}", &text[..pos], &text[pos..]),
        // drop a chunk after pos (simulates a torn write)
        _ => {
            let end = (pos + text.len() / 4).min(text.len());
            format!("{}{}", &text[..pos], &text[end..])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn corrupted_bookshelf_never_panics(
        which in 0usize..3,
        op in 0usize..3,
        pos_frac in 0.0f64..1.0,
        garbage_idx in 0usize..8,
    ) {
        let mut nodes = GOOD_NODES.to_string();
        let mut nets = GOOD_NETS.to_string();
        let mut pl = GOOD_PL.to_string();
        match which {
            0 => nodes = mangle(GOOD_NODES, op, pos_frac, garbage_idx),
            1 => nets = mangle(GOOD_NETS, op, pos_frac, garbage_idx),
            _ => pl = mangle(GOOD_PL, op, pos_frac, garbage_idx),
        }
        // must return Ok or a typed error — reaching here without a panic
        // is the property; errors must carry the right file tag
        match read_files("fuzz".into(), &nodes, &nets, &pl, SCL, None, 0.9) {
            Ok(_) => {}
            Err(NetlistError::Parse { file, .. }) => {
                prop_assert!(matches!(file, "nodes" | "nets" | "pl" | "scl"));
            }
            Err(_) => {} // other typed variants (UnknownCell, Geometry, …)
        }
    }

    #[test]
    fn corrupted_def_never_panics(
        target_def in prop::bool::weighted(0.5),
        op in 0usize..3,
        pos_frac in 0.0f64..1.0,
        garbage_idx in 0usize..8,
    ) {
        let (lef_text, def_text) = if target_def {
            (GOOD_LEF.to_string(), mangle(GOOD_DEF, op, pos_frac, garbage_idx))
        } else {
            (mangle(GOOD_LEF, op, pos_frac, garbage_idx), GOOD_DEF.to_string())
        };
        match parse_lef(&lef_text) {
            Ok(lib) => {
                // any outcome is fine as long as it is a Result, not a panic
                let _ = parse_def(&def_text, &lib, 0.9);
            }
            Err(NetlistError::Parse { file, .. }) => prop_assert_eq!(file, "lefdef"),
            Err(_) => {}
        }
    }
}
