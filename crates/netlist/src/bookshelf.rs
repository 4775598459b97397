//! Bookshelf placement-format reader and writer.
//!
//! The Bookshelf format is the interchange format of the ISPD2005/2006
//! placement contests: an `.aux` index file naming `.nodes` (cells),
//! `.nets` (hypergraph), `.pl` (positions), and `.scl` (rows) files.
//! This module parses the subset those contests use and can write the same
//! subset back, so real contest circuits drop into this placer unmodified.
//!
//! Pin offsets in `.nets` are measured from the **cell center**, matching
//! [`crate::netlist::Netlist`]'s convention. Positions in `.pl` are
//! lower-left corners, matching [`crate::placement::Placement`].

use crate::design::{Design, Row};
use crate::error::NetlistError;
use crate::netlist::NetlistBuilder;
use crate::placement::Placement;
use crate::FixedState;
// lint:allow(determinism): name-keyed lookup tables for parsing; never iterated
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed Bookshelf benchmark: the design plus its `.pl` placement
/// (initial positions of movable cells, final positions of fixed ones).
#[derive(Debug, Clone)]
pub struct BookshelfCircuit {
    /// The placement problem.
    pub design: Design,
    /// Positions from the `.pl` file.
    pub placement: Placement,
}

fn parse_err(file: &'static str, line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        file,
        line,
        message: message.into(),
    }
}

/// `token` as a finite number; otherwise a parse error saying `message`.
fn finite(
    token: Option<&str>,
    file: &'static str,
    line: usize,
    message: &str,
) -> Result<f64, NetlistError> {
    token
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or_else(|| parse_err(file, line, message))
}

/// Lines of a Bookshelf file with comments and headers stripped,
/// keeping 1-based line numbers.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() || line.starts_with("UCLA") {
            None
        } else {
            Some((i + 1, line))
        }
    })
}

fn key_value(line: &str) -> Option<(&str, &str)> {
    let (k, v) = line.split_once(':')?;
    Some((k.trim(), v.trim()))
}

/// Reads a benchmark given its `.aux` file path.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if any referenced file is missing and
/// [`NetlistError::Parse`] on malformed content.
pub fn read_aux(
    aux_path: impl AsRef<Path>,
    target_density: f64,
) -> Result<BookshelfCircuit, NetlistError> {
    let aux_path = aux_path.as_ref();
    let text = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or(Path::new("."));
    let mut nodes = None;
    let mut nets = None;
    let mut pl = None;
    let mut scl = None;
    let mut wts = None;
    for (lineno, line) in content_lines(&text) {
        let (_, files) = line
            .split_once(':')
            .ok_or_else(|| parse_err("aux", lineno, "expected `RowBasedPlacement : files...`"))?;
        for f in files.split_whitespace() {
            let p: PathBuf = dir.join(f);
            match Path::new(f).extension().and_then(|e| e.to_str()) {
                Some("nodes") => nodes = Some(p),
                Some("nets") => nets = Some(p),
                Some("pl") => pl = Some(p),
                Some("scl") => scl = Some(p),
                Some("wts") => wts = Some(p),
                _ => {}
            }
        }
    }
    let nodes = nodes.ok_or_else(|| parse_err("aux", 1, "no .nodes file listed"))?;
    let nets = nets.ok_or_else(|| parse_err("aux", 1, "no .nets file listed"))?;
    let pl = pl.ok_or_else(|| parse_err("aux", 1, "no .pl file listed"))?;
    let scl = scl.ok_or_else(|| parse_err("aux", 1, "no .scl file listed"))?;

    let name = aux_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bookshelf")
        .to_string();
    // .wts is optional; a missing file just means unit weights
    let wts_text = match wts {
        Some(p) if p.exists() => Some(fs::read_to_string(p)?),
        _ => None,
    };
    read_files(
        name,
        &fs::read_to_string(nodes)?,
        &fs::read_to_string(nets)?,
        &fs::read_to_string(pl)?,
        &fs::read_to_string(scl)?,
        wts_text.as_deref(),
        target_density,
    )
}

/// Parses a benchmark from in-memory file contents. `wts_text` is the
/// optional `.wts` net-weight file; without it every net weighs 1.0.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed content.
pub fn read_files(
    name: String,
    nodes_text: &str,
    nets_text: &str,
    pl_text: &str,
    scl_text: &str,
    wts_text: Option<&str>,
    target_density: f64,
) -> Result<BookshelfCircuit, NetlistError> {
    // --- .nodes -----------------------------------------------------------
    struct NodeDecl {
        name: String,
        w: f64,
        h: f64,
        terminal: bool,
    }
    let mut decls: Vec<NodeDecl> = Vec::new();
    for (lineno, line) in content_lines(nodes_text) {
        if let Some((k, _)) = key_value(line) {
            if k.starts_with("NumNodes") || k.starts_with("NumTerminals") {
                continue;
            }
        }
        let mut tok = line.split_whitespace();
        let name = tok
            .next()
            .ok_or_else(|| parse_err("nodes", lineno, "missing node name"))?;
        let w = finite(tok.next(), "nodes", lineno, "bad width")?;
        let h = finite(tok.next(), "nodes", lineno, "bad height")?;
        let terminal = tok.next().is_some_and(|t| t.starts_with("terminal"));
        decls.push(NodeDecl {
            name: name.to_string(),
            w,
            h,
            terminal,
        });
    }

    // --- .pl (read early: FIXED flags override movability) ----------------
    // lint:allow(determinism): .pl positions are looked up per cell name; never iterated
    let mut positions: HashMap<String, (f64, f64, bool), FixedState> = HashMap::default();
    for (lineno, line) in content_lines(pl_text) {
        let mut tok = line.split_whitespace();
        let name = tok
            .next()
            .ok_or_else(|| parse_err("pl", lineno, "missing cell name"))?;
        let x = finite(tok.next(), "pl", lineno, "bad x")?;
        let y = finite(tok.next(), "pl", lineno, "bad y")?;
        let fixed = line.contains("/FIXED");
        positions.insert(name.to_string(), (x, y, fixed));
    }

    let mut builder = NetlistBuilder::with_capacity(decls.len(), 0, 0);
    for d in &decls {
        // a cell is fixed if the .nodes file says `terminal` OR its .pl
        // line carries `/FIXED` — ISPD flows use either marker alone, and
        // dropping the .pl-only one silently un-fixes cells on re-import
        let fixed_in_pl = positions.get(&d.name).is_some_and(|&(_, _, f)| f);
        builder.add_cell(d.name.clone(), d.w, d.h, !(d.terminal || fixed_in_pl))?;
    }

    // --- .nets -------------------------------------------------------------
    // lint:allow(determinism): net-name dedup index for .nets parsing; never iterated
    let mut net_index: HashMap<String, crate::ids::NetId, FixedState> = HashMap::default();
    {
        let mut lines = content_lines(nets_text).peekable();
        let mut net_counter = 0usize;
        while let Some((lineno, line)) = lines.next() {
            if let Some((k, v)) = key_value(line) {
                if k.starts_with("NumNets") || k.starts_with("NumPins") {
                    continue;
                }
                if k.starts_with("NetDegree") {
                    let mut tok = v.split_whitespace();
                    let degree: usize = tok
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| parse_err("nets", lineno, "bad NetDegree"))?;
                    let net_name = tok
                        .next()
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("net{net_counter}"));
                    net_counter += 1;
                    let mut pins = Vec::with_capacity(degree);
                    for _ in 0..degree {
                        let (pl_no, pline) = lines
                            .next()
                            .ok_or_else(|| parse_err("nets", lineno, "truncated net"))?;
                        // `cell I : dx dy`  (direction token optional)
                        let (head, tail) = match pline.split_once(':') {
                            Some((h, t)) => (h, Some(t)),
                            None => (pline, None),
                        };
                        let cell_name = head
                            .split_whitespace()
                            .next()
                            .ok_or_else(|| parse_err("nets", pl_no, "missing pin cell"))?;
                        let (dx, dy) = match tail {
                            Some(t) => {
                                let mut it = t.split_whitespace();
                                let dx = finite(it.next(), "nets", pl_no, "bad pin dx")?;
                                let dy = finite(it.next(), "nets", pl_no, "bad pin dy")?;
                                (dx, dy)
                            }
                            None => (0.0, 0.0),
                        };
                        let cell = builder
                            .cell_by_name(cell_name)
                            .ok_or_else(|| NetlistError::UnknownCell(cell_name.to_string()))?;
                        pins.push((cell, dx, dy));
                    }
                    let id = builder.add_net(net_name.clone(), pins);
                    net_index.insert(net_name, id);
                    continue;
                }
            }
            return Err(parse_err(
                "nets",
                lineno,
                format!("unexpected line `{line}`"),
            ));
        }
    }

    // --- .wts (optional): `netname weight` per line --------------------------
    if let Some(wts) = wts_text {
        for (lineno, line) in content_lines(wts) {
            let mut tok = line.split_whitespace();
            let net_name = tok
                .next()
                .ok_or_else(|| parse_err("wts", lineno, "missing net name"))?;
            let weight = finite(tok.next(), "wts", lineno, "bad weight")?;
            // cell-weight lines (some suites weight nodes too) are skipped
            if let Some(&net) = net_index.get(net_name) {
                if weight > 0.0 {
                    builder.set_net_weight(net, weight);
                }
            }
        }
    }

    let netlist = builder.build();

    // --- .scl --------------------------------------------------------------
    let mut rows: Vec<Row> = Vec::new();
    {
        let mut current: Option<(f64, f64, f64, f64, f64)> = None; // y, h, site_w, origin, num_sites
        for (lineno, line) in content_lines(scl_text) {
            if line.starts_with("NumRows") {
                continue;
            }
            if line.starts_with("CoreRow") {
                current = Some((0.0, 0.0, 1.0, 0.0, 0.0));
                continue;
            }
            if line == "End" {
                let (y, h, sw, origin, nsites) = current
                    .take()
                    .ok_or_else(|| parse_err("scl", lineno, "End without CoreRow"))?;
                rows.push(Row {
                    y,
                    height: h,
                    xl: origin,
                    xh: origin + nsites * sw,
                    site_width: sw,
                });
                continue;
            }
            if let Some(cur) = current.as_mut() {
                // one or more `Key : value` pairs per line
                for part in line.split_terminator(';') {
                    if let Some((k, v)) = key_value(part) {
                        let mut vals = v.split_whitespace();
                        let first: Option<f64> = vals.next().and_then(|s| s.parse().ok());
                        match (k, first) {
                            ("Coordinate", Some(f)) => cur.0 = f,
                            ("Height", Some(f)) => cur.1 = f,
                            ("Sitewidth", Some(f)) => cur.2 = f,
                            ("SubrowOrigin", Some(f)) => {
                                cur.3 = f;
                                // `SubrowOrigin : x NumSites : n` on one line
                                if let Some(rest) = v.split_once(':') {
                                    if let Some(n) = rest.1.split_whitespace().next() {
                                        if let Ok(n) = n.parse() {
                                            cur.4 = n;
                                        }
                                    }
                                }
                            }
                            ("NumSites", Some(f)) => cur.4 = f,
                            _ => {} // Sitespacing, Siteorient, Sitesymmetry ignored
                        }
                    }
                }
            }
        }
    }
    if rows.is_empty() {
        return Err(NetlistError::Geometry("scl file declared no rows".into()));
    }

    // --- positions into Placement ------------------------------------------
    let mut placement = Placement::zeros(netlist.num_cells());
    for cell in netlist.cells() {
        if let Some(&(x, y, _fixed)) = positions.get(netlist.cell_name(cell)) {
            placement.x[cell.index()] = x;
            placement.y[cell.index()] = y;
        }
    }

    let die = rows
        .iter()
        .map(Row::rect)
        .reduce(|a, b| a.union(&b))
        .ok_or_else(|| NetlistError::Geometry("scl file declared no rows".into()))?;
    let design = Design::new(name, netlist, die, rows, target_density)?;
    Ok(BookshelfCircuit { design, placement })
}

/// Serializes a design + placement to the five Bookshelf files inside `dir`,
/// named `<design.name>.{aux,nodes,nets,pl,scl}`.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] on filesystem failures.
pub fn write_dir(dir: impl AsRef<Path>, circuit: &BookshelfCircuit) -> Result<(), NetlistError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let base = circuit.design.name.clone();
    let files = to_strings(circuit);
    fs::write(dir.join(format!("{base}.aux")), files.aux)?;
    fs::write(dir.join(format!("{base}.nodes")), files.nodes)?;
    fs::write(dir.join(format!("{base}.nets")), files.nets)?;
    fs::write(dir.join(format!("{base}.pl")), files.pl)?;
    fs::write(dir.join(format!("{base}.scl")), files.scl)?;
    fs::write(dir.join(format!("{base}.wts")), files.wts)?;
    Ok(())
}

/// The five Bookshelf files as in-memory strings.
#[derive(Debug, Clone)]
pub struct BookshelfFiles {
    /// `.aux` index file.
    pub aux: String,
    /// `.nodes` cell declarations.
    pub nodes: String,
    /// `.nets` hypergraph.
    pub nets: String,
    /// `.pl` positions.
    pub pl: String,
    /// `.scl` rows.
    pub scl: String,
    /// `.wts` net weights.
    pub wts: String,
}

/// Serializes a circuit to in-memory Bookshelf text (useful for tests).
pub fn to_strings(circuit: &BookshelfCircuit) -> BookshelfFiles {
    let design = &circuit.design;
    let nl = &design.netlist;
    let pl_data = &circuit.placement;
    let base = &design.name;

    let aux =
        format!("RowBasedPlacement : {base}.nodes {base}.nets {base}.wts {base}.pl {base}.scl\n");

    let mut nodes = String::from("UCLA nodes 1.0\n\n");
    let _ = writeln!(nodes, "NumNodes : {}", nl.num_cells());
    let _ = writeln!(nodes, "NumTerminals : {}", nl.num_fixed());
    for c in nl.cells() {
        let term = if nl.is_movable(c) { "" } else { " terminal" };
        let _ = writeln!(
            nodes,
            "  {} {} {}{}",
            nl.cell_name(c),
            nl.cell_width(c),
            nl.cell_height(c),
            term
        );
    }

    let mut nets = String::from("UCLA nets 1.0\n\n");
    let _ = writeln!(nets, "NumNets : {}", nl.num_nets());
    let _ = writeln!(nets, "NumPins : {}", nl.num_pins());
    for n in nl.nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", nl.net_degree(n), nl.net_name(n));
        for p in nl.net_pins(n) {
            let _ = writeln!(
                nets,
                "  {} I : {} {}",
                nl.cell_name(nl.pin_cell(p)),
                nl.pin_offset_x(p),
                nl.pin_offset_y(p)
            );
        }
    }

    let mut pl = String::from("UCLA pl 1.0\n\n");
    for c in nl.cells() {
        let fixed = if nl.is_movable(c) { "" } else { " /FIXED" };
        let _ = writeln!(
            pl,
            "{} {} {} : N{}",
            nl.cell_name(c),
            pl_data.x[c.index()],
            pl_data.y[c.index()],
            fixed
        );
    }

    let mut scl = String::from("UCLA scl 1.0\n\n");
    let _ = writeln!(scl, "NumRows : {}", design.rows.len());
    for row in &design.rows {
        let nsites = (row.width() / row.site_width).round() as u64;
        let _ = writeln!(scl, "CoreRow Horizontal");
        let _ = writeln!(scl, " Coordinate : {}", row.y);
        let _ = writeln!(scl, " Height : {}", row.height);
        let _ = writeln!(
            scl,
            " Sitewidth : {} Sitespacing : {}",
            row.site_width, row.site_width
        );
        let _ = writeln!(scl, " SubrowOrigin : {} NumSites : {}", row.xl, nsites);
        let _ = writeln!(scl, "End");
    }

    let mut wts = String::from("UCLA wts 1.0\n\n");
    for n in nl.nets() {
        let _ = writeln!(wts, "{} {}", nl.net_name(n), nl.net_weight(n));
    }

    BookshelfFiles {
        aux,
        nodes,
        nets,
        pl,
        scl,
        wts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    const NODES: &str = "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n  o0 2 1\n  o1 4 1\n  p0 0 0 terminal\n";
    const NETS: &str = "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\nNetDegree : 3 n0\n  o0 I : 0.5 0\n  o1 O : 0 0\n  p0 I : 0 0\nNetDegree : 2\n  o0 I : 0 0\n  o1 I : -1 0\n";
    const PL: &str = "UCLA pl 1.0\no0 1 2 : N\no1 5 2 : N\np0 0 0 : N /FIXED\n";
    const SCL: &str = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1 Sitespacing : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\nCoreRow Horizontal\n Coordinate : 1\n Height : 1\n Sitewidth : 1 Sitespacing : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n";

    fn parse() -> BookshelfCircuit {
        read_files("t".into(), NODES, NETS, PL, SCL, None, 0.9).unwrap()
    }

    #[test]
    fn parses_counts() {
        let c = parse();
        let nl = &c.design.netlist;
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_fixed(), 1);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 5);
        assert_eq!(c.design.rows.len(), 2);
        assert_eq!(c.design.die, Rect::new(0.0, 0.0, 10.0, 2.0));
    }

    #[test]
    fn parses_positions_and_offsets() {
        let c = parse();
        let nl = &c.design.netlist;
        let o0 = nl.cell_by_name("o0").unwrap();
        assert_eq!(c.placement.position(o0), Point::new(1.0, 2.0));
        // first pin of n0 has offset (0.5, 0)
        let n0 = crate::ids::NetId(0);
        let pin = nl.net_pins(n0).next().unwrap();
        assert_eq!(nl.pin_offset_x(pin), 0.5);
    }

    #[test]
    fn terminal_flag_makes_cells_fixed() {
        let c = parse();
        let nl = &c.design.netlist;
        assert!(!nl.is_movable(nl.cell_by_name("p0").unwrap()));
        assert!(nl.is_movable(nl.cell_by_name("o0").unwrap()));
    }

    #[test]
    fn unnamed_net_gets_synthetic_name() {
        let c = parse();
        assert_eq!(c.design.netlist.net_name(crate::ids::NetId(1)), "net1");
    }

    #[test]
    fn unknown_cell_in_nets_is_an_error() {
        let nets = "NetDegree : 1 n0\n  ghost I : 0 0\n";
        let err = read_files("t".into(), NODES, nets, PL, SCL, None, 0.9);
        assert!(matches!(err, Err(NetlistError::UnknownCell(_))));
    }

    #[test]
    fn round_trip_through_strings() {
        let c = parse();
        let files = to_strings(&c);
        let c2 = read_files(
            "t".into(),
            &files.nodes,
            &files.nets,
            &files.pl,
            &files.scl,
            None,
            0.9,
        )
        .unwrap();
        let nl = &c.design.netlist;
        let nl2 = &c2.design.netlist;
        assert_eq!(nl.num_cells(), nl2.num_cells());
        assert_eq!(nl.num_nets(), nl2.num_nets());
        assert_eq!(nl.num_pins(), nl2.num_pins());
        assert_eq!(c.placement, c2.placement);
        assert_eq!(c.design.rows.len(), c2.design.rows.len());
        // HPWL identical through the round trip
        let h1 = crate::placement::total_hpwl(nl, &c.placement);
        let h2 = crate::placement::total_hpwl(nl2, &c2.placement);
        assert!((h1 - h2).abs() < 1e-9);
    }

    #[test]
    fn pl_only_fixed_marker_fixes_the_cell() {
        // o1 carries /FIXED in .pl but no `terminal` in .nodes — ISPD
        // flows use either marker alone, and fixedness must survive a
        // write→parse cycle (regression: the flag was parsed then dropped)
        let pl = "UCLA pl 1.0\no0 1 2 : N\no1 5 2 : N /FIXED\np0 0 0 : N /FIXED\n";
        let c = read_files("t".into(), NODES, NETS, pl, SCL, None, 0.9).unwrap();
        let nl = &c.design.netlist;
        assert!(!nl.is_movable(nl.cell_by_name("o1").unwrap()));
        assert!(nl.is_movable(nl.cell_by_name("o0").unwrap()));

        let files = to_strings(&c);
        assert!(
            files
                .pl
                .lines()
                .any(|l| l.starts_with("o1") && l.contains("/FIXED")),
            "writer must keep the /FIXED suffix:\n{}",
            files.pl
        );
        let c2 = read_files(
            "t".into(),
            &files.nodes,
            &files.nets,
            &files.pl,
            &files.scl,
            None,
            0.9,
        )
        .unwrap();
        let nl2 = &c2.design.netlist;
        assert!(!nl2.is_movable(nl2.cell_by_name("o1").unwrap()));
        assert_eq!(nl2.num_fixed(), 2);
        assert_eq!(c.placement, c2.placement);
    }

    #[test]
    fn truncated_net_reports_parse_error() {
        let nets = "NetDegree : 3 n0\n  o0 I : 0 0\n";
        let err = read_files("t".into(), NODES, nets, PL, SCL, None, 0.9);
        assert!(matches!(err, Err(NetlistError::Parse { file: "nets", .. })));
    }

    #[test]
    fn wts_weights_are_parsed_and_round_trip() {
        let wts = "UCLA wts 1.0\nn0 2.5\n";
        let c = read_files("t".into(), NODES, NETS, PL, SCL, Some(wts), 0.9).unwrap();
        let nl = &c.design.netlist;
        assert_eq!(nl.net_weight(crate::ids::NetId(0)), 2.5);
        assert_eq!(nl.net_weight(crate::ids::NetId(1)), 1.0);
        // weights survive serialization
        let files = to_strings(&c);
        let c2 = read_files(
            "t".into(),
            &files.nodes,
            &files.nets,
            &files.pl,
            &files.scl,
            Some(&files.wts),
            0.9,
        )
        .unwrap();
        assert_eq!(c2.design.netlist.net_weight(crate::ids::NetId(0)), 2.5);
    }

    #[test]
    fn malformed_wts_is_an_error() {
        let wts = "n0 not-a-number\n";
        let err = read_files("t".into(), NODES, NETS, PL, SCL, Some(wts), 0.9);
        assert!(matches!(err, Err(NetlistError::Parse { file: "wts", .. })));
    }

    #[test]
    fn bad_node_size_is_a_typed_error() {
        // a negative size reaches `NetlistBuilder::add_cell`, a non-finite
        // one stops at the number reader
        let read = |w: &str| {
            let nodes = NODES.replace("o0 2 1", &format!("o0 {w} 1"));
            read_files("t".into(), &nodes, NETS, PL, SCL, None, 0.9)
        };
        let err = read("-3");
        assert!(matches!(err, Err(NetlistError::Geometry(_))), "{err:?}");
        for w in ["nan", "inf"] {
            let err = read(w);
            assert!(
                matches!(err, Err(NetlistError::Parse { file: "nodes", .. })),
                "{w}: {err:?}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_are_parse_errors() {
        let err = read_files("t".into(), NODES, NETS, PL, SCL, Some("n0 inf\n"), 0.9);
        assert!(
            matches!(err, Err(NetlistError::Parse { file: "wts", .. })),
            "{err:?}"
        );
        let pl = PL.replace("o1 5 2", "o1 inf 2");
        let err = read_files("t".into(), NODES, NETS, &pl, SCL, None, 0.9);
        assert!(
            matches!(err, Err(NetlistError::Parse { file: "pl", .. })),
            "{err:?}"
        );
        let nets = NETS.replace("0.5 0", "NaN 0");
        let err = read_files("t".into(), NODES, &nets, PL, SCL, None, 0.9);
        assert!(
            matches!(err, Err(NetlistError::Parse { file: "nets", .. })),
            "{err:?}"
        );
    }

    #[test]
    fn write_and_read_directory() {
        let c = parse();
        let dir = std::env::temp_dir().join("mep_bookshelf_test");
        write_dir(&dir, &c).unwrap();
        let c2 = read_aux(dir.join("t.aux"), 0.9).unwrap();
        assert_eq!(c2.design.netlist.num_cells(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
