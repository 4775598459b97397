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
use crate::ids::CellId;
use crate::netlist::NetlistBuilder;
use crate::placement::Placement;
use crate::FixedState;
// lint:allow(determinism): the `.wts` net-name lookup; never iterated
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io;
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

/// The count a `Num… : n` header states, 0 when it states none. It only
/// ever sizes a reservation, and only up to what the file's length allows.
fn stated(value: &str) -> usize {
    value
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// The content lines of a Bookshelf file: each line is cut at its first
/// `#` and trimmed, and skipped when that leaves it empty or it is a
/// `UCLA …` header.
struct Lines<'a> {
    rest: &'a str,
    no: usize,
}

/// One content line: its 1-based number and its text, a slice of the file.
#[derive(Clone, Copy)]
struct Line<'a> {
    no: usize,
    text: &'a str,
}

fn lines(text: &str) -> Lines<'_> {
    Lines { rest: text, no: 0 }
}

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        while !self.rest.is_empty() {
            let (raw, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            self.rest = rest;
            self.no += 1;
            let text = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
            if !text.is_empty() && !text.starts_with("UCLA") {
                return Some(Line { no: self.no, text });
            }
        }
        None
    }
}

impl<'a> Line<'a> {
    /// The text before the first `:` (all of it when there is none) and
    /// the text after it.
    fn split_colon(self) -> (&'a str, Option<&'a str>) {
        match self.text.split_once(':') {
            Some((key, value)) => (key, Some(value)),
            None => (self.text, None),
        }
    }

    /// This line read as a `.nets` pin.
    fn pin(self) -> Pin<'a> {
        let (head, tail) = self.split_colon();
        let tail = tail.map(|t| {
            let mut it = t.split_whitespace();
            (it.next(), it.next())
        });
        (self.no, head.split_whitespace().next(), tail)
    }
}

/// A `.nets` pin line `cell [direction] [: dx dy]` as the reader takes it:
/// its number, its first token before any `:` and, when it has a `:`, the
/// first two tokens after it.
type Pin<'a> = (
    usize,
    Option<&'a str>,
    Option<(Option<&'a str>, Option<&'a str>)>,
);

impl<'a> Lines<'a> {
    /// The next line read as a pin in one walk over its bytes — the bulk
    /// of a `.nets` file. `None`, with the cursor unmoved, for a line the
    /// walk might not read as [`Lines::next`] and [`Line::pin`] do: one
    /// that is blank, a comment or a `UCLA` header, opens with a byte other
    /// than a letter, digit or `_`, or holds a non-ASCII byte before its
    /// comment.
    fn next_pin(&mut self) -> Option<Pin<'a>> {
        let s = self.rest;
        let b = s.as_bytes();
        let blank = |c| class(c) == SPACE;
        let start = run_end(b, 0, blank);
        let opens = b
            .get(start)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_');
        if !opens || b.get(start..).is_some_and(|t| t.starts_with(b"UCLA")) {
            return None;
        }
        let end = run_end(b, start, |c| class(c) == 0);
        let cell = s.get(start..end)?;
        let mut i = run_end(b, end, |c| class(c) & !SPACE == 0);
        let tail = (b.get(i) == Some(&b':')).then(|| {
            i += 1;
            let mut token = || {
                let from = run_end(b, i, blank);
                i = run_end(b, from, |c| class(c) & !COLON == 0);
                s.get(from..i).filter(|t| !t.is_empty())
            };
            (token(), token())
        });
        let rest = run_end(b, i, |c| class(c) & (NEWLINE | HASH | NON_ASCII) == 0);
        if b.get(rest).is_some_and(|&c| class(c) == NON_ASCII) {
            return None;
        }
        let eol = run_end(b, rest, |c| class(c) & NEWLINE == 0);
        self.rest = s.get(eol + 1..).unwrap_or("");
        self.no += 1;
        Some((self.no, Some(cell), tail))
    }
}

// Byte classes of the walk over a pin line: whitespace as `char::is_whitespace`
// has it among ASCII bytes (`u8::is_ascii_whitespace` leaves out the
// vertical tab), the newline, the comment mark, the key separator, and
// every non-ASCII byte.
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const HASH: u8 = 4;
const COLON: u8 = 8;
const NON_ASCII: u8 = 16;

static CLASS: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r' => SPACE,
            b'\n' => SPACE | NEWLINE,
            b'#' => HASH,
            b':' => COLON,
            0x80..=0xff => NON_ASCII,
            _ => 0,
        };
        b += 1;
    }
    table
};

fn class(b: u8) -> u8 {
    CLASS.get(usize::from(b)).copied().unwrap_or(0)
}

/// The end of the run of bytes from `i` on that `keep` accepts.
fn run_end(b: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while b.get(i).is_some_and(|&c| keep(c)) {
        i += 1;
    }
    i
}

/// The reader between files: the cells `.nodes` declared, in a builder
/// whose name index every later file resolves through, and the positions
/// `.pl` gave them. Nothing is sized from a count a file states unless the
/// file's length bounds it.
struct Reader {
    builder: NetlistBuilder,
    placement: Placement,
    /// The first error `add_cell` returned. It is reported once `.pl` has
    /// parsed, so a parse error in `.nodes` or `.pl` comes first.
    cell_error: Option<NetlistError>,
}

impl Reader {
    /// `.nodes`: `name width height [terminal]` per line.
    fn read_nodes(text: &str) -> Result<Self, NetlistError> {
        let mut builder = NetlistBuilder::new();
        let mut cell_error = None;
        for line in lines(text) {
            if let (key, Some(v)) = line.split_colon() {
                if key.starts_with("NumNodes") {
                    // a node line (`a 1 1` and its newline) takes six bytes
                    builder.reserve(stated(v).min(text.len() / 6), 0, 0);
                    continue;
                }
                if key.starts_with("NumTerminals") {
                    continue;
                }
            }
            let mut tok = line.text.split_whitespace();
            let name = tok
                .next()
                .ok_or_else(|| parse_err("nodes", line.no, "missing node name"))?;
            let w = finite(tok.next(), "nodes", line.no, "bad width")?;
            let h = finite(tok.next(), "nodes", line.no, "bad height")?;
            let terminal = tok.next().is_some_and(|t| t.starts_with("terminal"));
            if let Err(e) = builder.add_cell(name, w, h, !terminal) {
                cell_error.get_or_insert(e);
            }
        }
        let placement = Placement::zeros(builder.num_cells());
        Ok(Self {
            builder,
            placement,
            cell_error,
        })
    }

    /// `.pl`: `name x y [: orient] [/FIXED]` per line, lower-left corners.
    /// A name `.nodes` did not declare is skipped; of two lines naming one
    /// cell the last wins, its `/FIXED` marker included.
    fn read_pl(&mut self, text: &str) -> Result<(), NetlistError> {
        let mut fixed_in_pl = vec![false; self.builder.num_cells()];
        for line in lines(text) {
            let mut tok = line.text.split_whitespace();
            let name = tok
                .next()
                .ok_or_else(|| parse_err("pl", line.no, "missing cell name"))?;
            let x = finite(tok.next(), "pl", line.no, "bad x")?;
            let y = finite(tok.next(), "pl", line.no, "bad y")?;
            if let Some(i) = self.builder.cell_by_name(name).map(CellId::index) {
                let slots = (
                    self.placement.x.get_mut(i),
                    self.placement.y.get_mut(i),
                    fixed_in_pl.get_mut(i),
                );
                if let (Some(px), Some(py), Some(fixed)) = slots {
                    (*px, *py, *fixed) = (x, y, line.text.contains("/FIXED"));
                }
            }
        }
        // a cell is fixed if the .nodes file says `terminal` OR its .pl
        // line carries `/FIXED` — ISPD flows use either marker alone, and
        // dropping the .pl-only one silently un-fixes cells on re-import
        for (i, _) in fixed_in_pl.iter().enumerate().filter(|&(_, &f)| f) {
            self.builder.fix_cell(CellId::from_usize(i));
        }
        self.cell_error.take().map_or(Ok(()), Err)
    }

    /// `.nets`: `NetDegree : d [name]`, then `d` pin lines
    /// `cell [direction] [: dx dy]` with offsets from the cell centre. Each
    /// pin goes into the builder as it is read.
    fn read_nets(&mut self, text: &str) -> Result<(), NetlistError> {
        let mut cursor = lines(text);
        while let Some(line) = cursor.next() {
            match line.split_colon() {
                // a net takes a line of twelve bytes or more (`NetDegree:0`
                // and its newline), a pin one of two (`a` and its newline)
                (k, Some(v)) if k.starts_with("NumNets") => {
                    self.builder.reserve(0, stated(v).min(text.len() / 12), 0);
                }
                (k, Some(v)) if k.starts_with("NumPins") => {
                    self.builder.reserve(0, 0, stated(v).min(text.len() / 2));
                }
                (k, Some(v)) if k.starts_with("NetDegree") => {
                    let mut tok = v.split_whitespace();
                    let degree: usize = tok
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| parse_err("nets", line.no, "bad NetDegree"))?;
                    let name = match tok.next() {
                        Some(name) => name.to_string(),
                        None => format!("net{}", self.builder.num_nets()),
                    };
                    let net = self.builder.add_net(name, []);
                    for _ in 0..degree {
                        let (pin_no, cell_name, tail) = cursor
                            .next_pin()
                            .or_else(|| cursor.next().map(Line::pin))
                            .ok_or_else(|| parse_err("nets", line.no, "truncated net"))?;
                        let cell_name = cell_name
                            .ok_or_else(|| parse_err("nets", pin_no, "missing pin cell"))?;
                        let (dx, dy) = match tail {
                            Some((dx, dy)) => (
                                finite(dx, "nets", pin_no, "bad pin dx")?,
                                finite(dy, "nets", pin_no, "bad pin dy")?,
                            ),
                            None => (0.0, 0.0),
                        };
                        let cell = self
                            .builder
                            .cell_by_name(cell_name)
                            .ok_or_else(|| NetlistError::UnknownCell(cell_name.to_string()))?;
                        self.builder.push_pin(net, cell, dx, dy);
                    }
                }
                _ => {
                    return Err(parse_err(
                        "nets",
                        line.no,
                        format!("unexpected line `{}`", line.text),
                    ))
                }
            }
        }
        Ok(())
    }

    /// `.wts`: `name weight` per line. A positive weight goes to the last
    /// net of that name; a line naming no net (some suites weight cells
    /// too) is skipped.
    fn read_wts(&mut self, text: &str) -> Result<(), NetlistError> {
        let (names, weights) = self.builder.net_names_and_weights();
        // lint:allow(determinism): net-name lookup for `.wts` lines; never iterated
        let index: HashMap<&str, usize, FixedState> = names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        for line in lines(text) {
            let mut tok = line.text.split_whitespace();
            let name = tok
                .next()
                .ok_or_else(|| parse_err("wts", line.no, "missing net name"))?;
            let weight = finite(tok.next(), "wts", line.no, "bad weight")?;
            if let Some(w) = index.get(name).and_then(|&i| weights.get_mut(i)) {
                if weight > 0.0 {
                    *w = weight;
                }
            }
        }
        Ok(())
    }

    /// `.scl` and the design: rows from `CoreRow … End` blocks, the die
    /// their union.
    fn into_circuit(
        self,
        name: String,
        scl_text: &str,
        target_density: f64,
    ) -> Result<BookshelfCircuit, NetlistError> {
        let rows = scl_rows(scl_text)?;
        let die = rows
            .iter()
            .map(Row::rect)
            .reduce(|a, b| a.union(&b))
            .ok_or_else(|| NetlistError::Geometry("scl file declared no rows".into()))?;
        let design = Design::new(name, self.builder.build(), die, rows, target_density)?;
        Ok(BookshelfCircuit {
            design,
            placement: self.placement,
        })
    }
}

/// The rows of a `.scl` file.
fn scl_rows(text: &str) -> Result<Vec<Row>, NetlistError> {
    let mut rows: Vec<Row> = Vec::new();
    let mut current: Option<(f64, f64, f64, f64, f64)> = None; // y, h, site_w, origin, num_sites
    for Line { no, text: line } in lines(text) {
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
                .ok_or_else(|| parse_err("scl", no, "End without CoreRow"))?;
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
                let Some((k, v)) = part.split_once(':') else {
                    continue;
                };
                let first: Option<f64> = v.split_whitespace().next().and_then(|s| s.parse().ok());
                match (k.trim(), first) {
                    ("Coordinate", Some(f)) => cur.0 = f,
                    ("Height", Some(f)) => cur.1 = f,
                    ("Sitewidth", Some(f)) => cur.2 = f,
                    ("SubrowOrigin", Some(f)) => {
                        cur.3 = f;
                        // `SubrowOrigin : x NumSites : n` on one line
                        if let Some((_, rest)) = v.split_once(':') {
                            if let Some(Ok(n)) = rest.split_whitespace().next().map(str::parse) {
                                cur.4 = n;
                            }
                        }
                    }
                    ("NumSites", Some(f)) => cur.4 = f,
                    _ => {} // Sitespacing, Siteorient, Sitesymmetry ignored
                }
            }
        }
    }
    Ok(rows)
}

/// The files a Bookshelf `.aux` index lists, as paths beside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuxFiles {
    /// The `.nodes` file (cells).
    pub nodes: PathBuf,
    /// The `.nets` file (hypergraph).
    pub nets: PathBuf,
    /// The `.pl` file (positions).
    pub pl: PathBuf,
    /// The `.scl` file (rows).
    pub scl: PathBuf,
    /// The optional `.wts` file (net weights).
    pub wts: Option<PathBuf>,
}

impl AuxFiles {
    /// Every listed file: `.nodes`, `.nets`, `.pl`, `.scl`, then `.wts`
    /// when listed.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        [&self.nodes, &self.nets, &self.pl, &self.scl]
            .into_iter()
            .chain(&self.wts)
            .map(PathBuf::as_path)
    }
}

/// Reads the `.aux` index at `aux_path`: the one place its grammar
/// (`RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl`) is parsed.
/// Nothing but the index is read.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if the index cannot be read and
/// [`NetlistError::Parse`] if a line has no `:` or a required file is not
/// listed.
pub fn aux_files(aux_path: impl AsRef<Path>) -> Result<AuxFiles, NetlistError> {
    let aux_path = aux_path.as_ref();
    let text = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or(Path::new("."));
    let mut nodes = None;
    let mut nets = None;
    let mut pl = None;
    let mut scl = None;
    let mut wts = None;
    for line in lines(&text) {
        let (_, files) = line.split_colon();
        let files = files
            .ok_or_else(|| parse_err("aux", line.no, "expected `RowBasedPlacement : files...`"))?;
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
    Ok(AuxFiles {
        nodes: nodes.ok_or_else(|| parse_err("aux", 1, "no .nodes file listed"))?,
        nets: nets.ok_or_else(|| parse_err("aux", 1, "no .nets file listed"))?,
        pl: pl.ok_or_else(|| parse_err("aux", 1, "no .pl file listed"))?,
        scl: scl.ok_or_else(|| parse_err("aux", 1, "no .scl file listed"))?,
        wts,
    })
}

/// Reads a benchmark given its `.aux` file path.
///
/// Every listed file ([`aux_files`]) is opened before any is parsed, so a
/// missing one is an `Io` error whatever the others hold. Then the files
/// are read, parsed and dropped one at a time, in the order `.nodes`,
/// `.pl`, `.nets`, `.wts`, `.scl`, so only one file's text is held at a
/// time. A file that opens but cannot be read (one that is not UTF-8,
/// say) is an `Io` error when its turn comes: an error in a file read
/// before it comes first.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if any referenced file is missing or
/// unreadable and [`NetlistError::Parse`] on malformed content.
pub fn read_aux(
    aux_path: impl AsRef<Path>,
    target_density: f64,
) -> Result<BookshelfCircuit, NetlistError> {
    let aux_path = aux_path.as_ref();
    let files = aux_files(aux_path)?;
    let name = aux_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bookshelf")
        .to_string();
    // .wts is optional; a missing file just means unit weights
    let wts = match files.wts {
        Some(p) if p.exists() => Some(File::open(p)?),
        _ => None,
    };
    let (nodes, nets, pl, scl) = (
        File::open(files.nodes)?,
        File::open(files.nets)?,
        File::open(files.pl)?,
        File::open(files.scl)?,
    );
    let mut reader = Reader::read_nodes(&io::read_to_string(nodes)?)?;
    reader.read_pl(&io::read_to_string(pl)?)?;
    reader.read_nets(&io::read_to_string(nets)?)?;
    if let Some(wts) = wts {
        reader.read_wts(&io::read_to_string(wts)?)?;
    }
    reader.into_circuit(name, &io::read_to_string(scl)?, target_density)
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
    let mut reader = Reader::read_nodes(nodes_text)?;
    reader.read_pl(pl_text)?;
    reader.read_nets(nets_text)?;
    if let Some(wts) = wts_text {
        reader.read_wts(wts)?;
    }
    reader.into_circuit(name, scl_text, target_density)
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
    fn the_pin_walk_reads_pins_as_the_general_path_does() {
        // (text, whether the one-walk reading takes its first line)
        let cases = [
            ("  o1 I : 0.5 -0.25\nnext", true),
            ("o1:1 2", true),
            ("o1 : 1:2 3\n", true),
            ("o1 I", true),
            ("o1 # c : 1 2\n", true),
            ("o1#c\n", true),
            ("o1 I : 1 2 # c\n", true),
            ("o1\tI\x0b:\t1\x0c2\r\n", true),
            ("o1 I :\n", true),
            ("o1 I : 1\n", true),
            ("o1 I : 1 2 3 extra é\n", false),
            ("o1 I : 1 2 3 extra # é\n", true),
            ("_c : 1 2", true),
            ("9 : 1 2", true),
            ("UCLAcell : 1 2\nnext", false),
            ("o1 I : 1\u{a0}2\n", false),
            ("o1é : 1 2", false),
            ("\u{a0}o1 : 1 2", false),
            (": 1 2", false),
            ("# a comment\no1 : 1 2", false),
            ("\n \no1 : 1 2", false),
            ("/o1 : 1 2", false),
            ("", false),
        ];
        for (text, walks) in cases {
            let mut cursor = lines(text);
            match cursor.next_pin() {
                Some(pin) => {
                    assert!(walks, "{text:?}");
                    let mut general = lines(text);
                    assert_eq!(Some(pin), general.next().map(Line::pin), "{text:?}");
                    assert_eq!(cursor.rest, general.rest, "{text:?}");
                }
                None => {
                    assert!(!walks, "{text:?}");
                    assert_eq!(cursor.rest, text, "{text:?}");
                }
            }
        }
    }

    #[test]
    fn a_missing_file_is_an_io_error_whatever_the_others_hold() {
        let dir =
            std::env::temp_dir().join(format!("mep_bookshelf_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("t.aux"),
            "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n",
        )
        .unwrap();
        std::fs::write(dir.join("t.nodes"), "o0 not-a-width 1\n").unwrap();
        let err = read_aux(dir.join("t.aux"), 0.9);
        assert!(matches!(err, Err(NetlistError::Io(_))), "{err:?}");
        // every file is there but `.nets` is not UTF-8: the `.nodes` parse
        // error comes first, since `.nodes` is read before `.nets`
        std::fs::write(dir.join("t.nets"), b"NetDegree : 1 n0\n  o\xff0\n").unwrap();
        std::fs::write(dir.join("t.pl"), PL).unwrap();
        std::fs::write(dir.join("t.scl"), SCL).unwrap();
        let err = read_aux(dir.join("t.aux"), 0.9);
        assert!(
            matches!(err, Err(NetlistError::Parse { file: "nodes", .. })),
            "{err:?}"
        );
        // with a good `.nodes` the unreadable `.nets` is an `Io` error
        std::fs::write(dir.join("t.nodes"), NODES).unwrap();
        let err = read_aux(dir.join("t.aux"), 0.9);
        assert!(matches!(err, Err(NetlistError::Io(_))), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
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
