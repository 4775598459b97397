//! The Bookshelf reader as it was before the one-pass rewrite: every
//! `.pl` line into a name-keyed map, each net's pins into its own `Vec`,
//! each net name cloned into a second map. It is the oracle of the
//! one-pass reader's tests (`tests/bookshelf_robustness.rs`), which must
//! return the same circuit to the bit, or the same error, on every input.

use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{Design, FixedState, NetId, NetlistBuilder, NetlistError, Placement, Row};
use std::collections::HashMap;

/// The signature both readers share, so a test can run either.
pub type Reader =
    fn(String, &str, &str, &str, &str, Option<&str>, f64) -> Result<BookshelfCircuit, NetlistError>;

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
    // .pl positions are looked up per cell name; never iterated
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
    // net-name dedup index for .nets parsing; never iterated
    let mut net_index: HashMap<String, NetId, FixedState> = HashMap::default();
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

/// Panics unless two readers' circuits agree to the bit: names, sizes,
/// movability (the `terminal` and `/FIXED` markers), pins and their
/// offsets, net weights, rows, die and placement.
pub fn assert_same(a: &BookshelfCircuit, b: &BookshelfCircuit) {
    let (da, db) = (&a.design, &b.design);
    assert_eq!(da.name, db.name);
    assert_eq!(da.target_density.to_bits(), db.target_density.to_bits());
    let rect = |r: mep_netlist::Rect| [r.xl, r.yl, r.xh, r.yh].map(f64::to_bits);
    assert_eq!(rect(da.die), rect(db.die));
    let row = |r: &Row| [r.y, r.height, r.xl, r.xh, r.site_width].map(f64::to_bits);
    let rows = |d: &Design| d.rows.iter().map(row).collect::<Vec<_>>();
    assert_eq!(rows(da), rows(db));
    assert_eq!(da.regions.len(), db.regions.len());
    assert_eq!(da.cell_region, db.cell_region);

    let (na, nb) = (&da.netlist, &db.netlist);
    assert_eq!(na.num_cells(), nb.num_cells());
    for c in na.cells() {
        assert_eq!(na.cell_name(c), nb.cell_name(c));
        assert_eq!(na.cell_width(c).to_bits(), nb.cell_width(c).to_bits());
        assert_eq!(na.cell_height(c).to_bits(), nb.cell_height(c).to_bits());
        assert_eq!(na.is_movable(c), nb.is_movable(c), "{}", na.cell_name(c));
        assert_eq!(na.cell_pins(c), nb.cell_pins(c));
        assert_eq!(nb.cell_by_name(na.cell_name(c)), Some(c));
    }
    assert_eq!(na.num_nets(), nb.num_nets());
    assert_eq!(na.num_pins(), nb.num_pins());
    for n in na.nets() {
        assert_eq!(na.net_name(n), nb.net_name(n));
        assert_eq!(na.net_weight(n).to_bits(), nb.net_weight(n).to_bits());
        assert_eq!(na.net_pin_range(n), nb.net_pin_range(n));
    }
    for p in na.pins() {
        assert_eq!(na.pin_cell(p), nb.pin_cell(p));
        assert_eq!(na.pin_net(p), nb.pin_net(p));
        assert_eq!(na.pin_offset_x(p).to_bits(), nb.pin_offset_x(p).to_bits());
        assert_eq!(na.pin_offset_y(p).to_bits(), nb.pin_offset_y(p).to_bits());
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.placement.x), bits(&b.placement.x));
    assert_eq!(bits(&a.placement.y), bits(&b.placement.y));
}
