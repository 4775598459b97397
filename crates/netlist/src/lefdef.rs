//! A LEF/DEF-lite reader.
//!
//! The ISPD2019 contest circuits (the paper's Table III) ship as LEF/DEF
//! rather than Bookshelf. This module parses the placement-relevant subset:
//!
//! * **LEF**: `SITE` (name + size), `MACRO` blocks (`CLASS`, `SIZE`,
//!   `PIN … PORT … RECT`);
//! * **DEF**: `UNITS DISTANCE MICRONS`, `DIEAREA`, `ROW`, and the item
//!   sections `COMPONENTS` (with `PLACED`/`FIXED`), `PINS` (IO pads),
//!   `NETS`, `REGIONS` rectangles and `GROUPS` in the simple
//!   `- name comp… + REGION r ;` form (region membership).
//!
//! Geometry is normalized so one **site width = 1.0** (the convention the
//! legalizer snaps to), matching the synthetic benchmarks. Unsupported
//! statements are skipped; this is a reader for placement research, not a
//! sign-off parser. Every number read must be finite and the DEF database
//! unit positive; anything else is a [`NetlistError::Parse`].

use crate::bookshelf::BookshelfCircuit;
use crate::design::Design;
use crate::error::NetlistError;
use crate::geom::{Point, Rect};
use crate::netlist::NetlistBuilder;
use crate::placement::Placement;
use crate::Row;
// lint:allow(determinism): LEF library tables are keyed lookups; see field notes below
use std::collections::HashMap;

/// A macro (cell type) parsed from LEF.
#[derive(Debug, Clone)]
pub struct LefMacro {
    /// Macro name.
    pub name: String,
    /// Width in microns.
    pub width: f64,
    /// Height in microns.
    pub height: f64,
    /// Pin name → offset from the macro **center**, microns.
    // lint:allow(determinism): looked up by pin name; the one values_mut() pass applies a uniform scale (order-independent)
    pub pins: HashMap<String, Point>,
}

/// Parsed LEF library: sites and macros.
#[derive(Debug, Clone, Default)]
pub struct LefLibrary {
    /// Site name → (width, height) in microns.
    // lint:allow(determinism): site dimensions looked up by site name; never iterated
    pub sites: HashMap<String, (f64, f64)>,
    /// Macro name → definition.
    // lint:allow(determinism): macros looked up by name when instantiating components; never iterated
    pub macros: HashMap<String, LefMacro>,
}

/// Whitespace/token stream over LEF/DEF text (both are token-oriented;
/// statements end with `;`). Each token carries its 1-based source line so
/// parse errors can point at the offending statement.
struct Tokens<'a> {
    iter: std::iter::Peekable<std::vec::IntoIter<(usize, &'a str)>>,
    /// Line of the most recently consumed token (error context).
    line: usize,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        // strip `#` comments per line, then tokenize
        let tokens: Vec<(usize, &'a str)> = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let line = match line.find('#') {
                    Some(pos) => &line[..pos],
                    None => line,
                };
                (i + 1, line)
            })
            .flat_map(|(no, line)| line.split_whitespace().map(move |t| (no, t)))
            .collect();
        Self {
            iter: tokens.into_iter().peekable(),
            line: 0,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let (no, t) = self.iter.next()?;
        self.line = no;
        Some(t)
    }

    /// Consumes the next token if it is `word`.
    fn eat(&mut self, word: &str) -> bool {
        let hit = self.iter.peek().is_some_and(|&(_, t)| t == word);
        if hit {
            self.next();
        }
        hit
    }

    /// The next token, or a parse error naming `what`.
    fn word(&mut self, what: &str) -> Result<&'a str, NetlistError> {
        self.next().ok_or_else(|| self.err(what))
    }

    /// Skips tokens through the next `;`.
    fn skip_statement(&mut self) {
        while let Some(t) = self.next() {
            if t == ";" || t.ends_with(';') {
                return;
            }
        }
    }

    /// The next token as a finite number (a trailing `;` is allowed).
    fn expect_f64(&mut self, what: &str) -> Result<f64, NetlistError> {
        self.next()
            .and_then(|t| t.trim_end_matches(';').parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err(what))
    }

    /// `( x y )`; the parentheses are optional (LEF `RECT`, DEF `ROW`).
    fn point(&mut self) -> Result<Point, NetlistError> {
        self.eat("(");
        let p = Point::new(self.expect_f64("x")?, self.expect_f64("y")?);
        self.eat(")");
        Ok(p)
    }

    /// Two corners, in either order, as a rectangle.
    fn rect(&mut self) -> Result<Rect, NetlistError> {
        let (a, b) = (self.point()?, self.point()?);
        Ok(Rect::new(
            a.x.min(b.x),
            a.y.min(b.y),
            a.x.max(b.x),
            a.y.max(b.y),
        ))
    }

    /// `w BY h ;` after a LEF `SIZE`.
    fn size(&mut self) -> Result<(f64, f64), NetlistError> {
        let w = self.expect_f64("SIZE width")?;
        if self.next() != Some("BY") {
            return Err(self.err("expected BY in SIZE"));
        }
        let h = self.expect_f64("SIZE height")?;
        self.skip_statement();
        Ok((w, h))
    }

    /// Hands each token of the current statement to `token`, through its `;`.
    fn statement(
        &mut self,
        mut token: impl FnMut(&mut Self, &'a str) -> Result<(), NetlistError>,
    ) -> Result<(), NetlistError> {
        loop {
            match self.next() {
                Some(t) if t == ";" || t.ends_with(';') => return Ok(()),
                Some(t) => token(self, t)?,
                None => return Err(self.err("unterminated statement")),
            }
        }
    }

    /// Walks one DEF item section (`COMPONENTS`, `PINS`, `NETS`, `REGIONS`,
    /// `GROUPS`): skips its count statement, hands each `- name …` item to
    /// `item` (which consumes it through its `;`), and stops after
    /// `END <section>`.
    fn section(
        &mut self,
        mut item: impl FnMut(&mut Self, &'a str) -> Result<(), NetlistError>,
    ) -> Result<(), NetlistError> {
        self.skip_statement();
        loop {
            match self.next() {
                Some("-") => {
                    let name = self.word("item name")?;
                    item(self, name)?;
                }
                Some("END") => {
                    self.next();
                    return Ok(());
                }
                Some(_) => {}
                None => return Err(self.err("unterminated section")),
            }
        }
    }

    /// Scans a `COMPONENTS` or `PINS` item through its `;` for
    /// `PLACED`/`FIXED ( x y )`: the location (origin if absent) and
    /// whether it is `FIXED`.
    fn location(&mut self) -> Result<(Point, bool), NetlistError> {
        let mut at = (Point::new(0.0, 0.0), false);
        self.statement(|tok, t| {
            if t == "PLACED" || t == "FIXED" {
                at = (tok.point()?, t == "FIXED");
            }
            Ok(())
        })?;
        Ok(at)
    }

    /// A parse error anchored at the last consumed token's line.
    fn err(&self, message: &str) -> NetlistError {
        NetlistError::Parse {
            file: "lefdef",
            line: self.line,
            message: message.to_string(),
        }
    }
}

/// Parses a LEF library (subset; see module docs).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed content.
pub fn parse_lef(text: &str) -> Result<LefLibrary, NetlistError> {
    let mut lib = LefLibrary::default();
    let mut tok = Tokens::new(text);
    while let Some(kind) = tok.next() {
        if kind != "SITE" && kind != "MACRO" {
            continue;
        }
        let name = tok.word("SITE/MACRO name")?;
        let mut size = (0.0, 0.0);
        // lint:allow(determinism): lookup-only table (see LefLibrary field notes)
        let mut pins = HashMap::new();
        loop {
            match tok.word("unterminated SITE/MACRO")? {
                "SIZE" => size = tok.size()?,
                "PIN" => {
                    let pin = tok.word("PIN name")?;
                    let mut shape: Option<Rect> = None;
                    loop {
                        match tok.word("unterminated PIN")? {
                            "RECT" => {
                                let r = tok.rect()?;
                                tok.skip_statement();
                                shape = Some(shape.map_or(r, |acc| acc.union(&r)));
                            }
                            // `END <pin>` closes the pin; a bare `END`
                            // closes an inner PORT block
                            "END" if tok.eat(pin) => break,
                            _ => {}
                        }
                    }
                    let center = shape.map_or(Point::new(0.0, 0.0), |r| r.center());
                    pins.insert(pin.to_string(), center);
                }
                "END" if tok.eat(name) => break,
                _ => {}
            }
        }
        let (width, height) = size;
        if !(width > 0.0 && height > 0.0) {
            return Err(tok.err("SITE/MACRO has no SIZE"));
        }
        if kind == "SITE" {
            lib.sites.insert(name.to_string(), size);
            continue;
        }
        // convert pin locations (from origin) to center offsets
        for p in pins.values_mut() {
            p.x -= width / 2.0;
            p.y -= height / 2.0;
        }
        let name = name.to_string();
        let mac = LefMacro {
            name: name.clone(),
            width,
            height,
            pins,
        };
        lib.macros.insert(name, mac);
    }
    Ok(lib)
}

/// Parses a DEF file against a LEF library into a placement problem.
///
/// All geometry is converted to site units (site width = 1.0). `target
/// density` is a flow parameter, not in the files.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed content and
/// [`NetlistError::UnknownCell`] on references to macros missing from the
/// LEF or to undeclared components and pins.
pub fn parse_def(
    def_text: &str,
    lef: &LefLibrary,
    target_density: f64,
) -> Result<BookshelfCircuit, NetlistError> {
    /// A component (with its macro) or an IO pin (without), in DEF units.
    struct Placed<'a, 'l> {
        name: &'a str,
        mac: Option<&'l LefMacro>,
        at: Point,
        fixed: bool,
    }
    let mut tok = Tokens::new(def_text);
    let mut design_name = "def_design";
    let mut dbu: f64 = 1000.0;
    let mut die: Option<Rect> = None;
    // (width, height) in microns of the site the first row references
    let mut site: Option<(f64, f64)> = None;
    let mut rows: Vec<Row> = Vec::new();
    let mut comps: Vec<Placed> = Vec::new();
    let mut io_pins: Vec<Placed> = Vec::new();
    // (net, [(component | "PIN", pin)])
    let mut nets: Vec<(&str, Vec<(&str, &str)>)> = Vec::new();
    let mut regions: Vec<(&str, Rect)> = Vec::new();
    // (members, region)
    let mut groups: Vec<(Vec<&str>, &str)> = Vec::new();

    while let Some(t) = tok.next() {
        match t {
            "DESIGN" => {
                if let Some(n) = tok.next() {
                    design_name = n.trim_end_matches(';');
                }
            }
            "UNITS" => {
                // UNITS DISTANCE MICRONS <dbu> ;
                if tok.next() == Some("DISTANCE") && tok.next() == Some("MICRONS") {
                    // `expect_f64` returns only finite numbers
                    dbu = tok.expect_f64("DEF database unit")?;
                    if dbu <= 0.0 {
                        return Err(tok.err("DEF database unit must be > 0"));
                    }
                }
                tok.skip_statement();
            }
            "DIEAREA" => {
                die = Some(tok.rect()?);
                tok.skip_statement();
            }
            "ROW" => {
                // ROW name site x y orient [DO nx BY ny [STEP sx sy]] ;
                tok.next();
                let site_name = tok.next().unwrap_or("");
                let at = tok.point()?;
                tok.next(); // orient
                let (mut nx, mut step_x) = (1.0, 0.0);
                if tok.eat("DO") {
                    nx = tok.expect_f64("row DO count")?;
                    tok.next(); // BY
                    tok.expect_f64("row BY count")?;
                    if tok.eat("STEP") {
                        step_x = tok.expect_f64("row step x")?;
                        tok.expect_f64("row step y")?;
                    }
                }
                tok.skip_statement();
                let (sw, sh) = lef
                    .sites
                    .get(site_name)
                    .copied()
                    .unwrap_or((step_x.max(1.0) / dbu, 0.0));
                let (_, site_h) = *site.get_or_insert((sw, if sh > 0.0 { sh } else { sw * 8.0 }));
                let pitch = if step_x > 0.0 { step_x } else { sw * dbu };
                rows.push(Row {
                    y: at.y,
                    height: site_h * dbu,
                    xl: at.x,
                    xh: at.x + nx * pitch,
                    site_width: pitch,
                });
            }
            "COMPONENTS" => tok.section(|tok, name| {
                let macro_name = tok.word("component macro")?;
                let mac = lef
                    .macros
                    .get(macro_name)
                    .ok_or_else(|| NetlistError::UnknownCell(macro_name.to_string()))?;
                let (at, fixed) = tok.location()?;
                comps.push(Placed {
                    name,
                    mac: Some(mac),
                    at,
                    fixed,
                });
                Ok(())
            })?,
            "PINS" => tok.section(|tok, name| {
                let (at, _) = tok.location()?;
                io_pins.push(Placed {
                    name,
                    mac: None,
                    at,
                    fixed: true,
                });
                Ok(())
            })?,
            "NETS" => tok.section(|tok, name| {
                let mut pins = Vec::new();
                tok.statement(|tok, t| {
                    if t == "(" {
                        pins.push((tok.word("net pin owner")?, tok.word("net pin name")?));
                        tok.eat(")");
                    }
                    Ok(())
                })?;
                nets.push((name, pins));
                Ok(())
            })?,
            "REGIONS" => tok.section(|tok, name| {
                regions.push((name, tok.rect()?));
                tok.skip_statement();
                Ok(())
            })?,
            "GROUPS" => tok.section(|tok, _| {
                let (mut members, mut region) = (Vec::new(), None);
                tok.statement(|tok, t| {
                    if t != "+" {
                        members.push(t);
                    } else if tok.eat("REGION") {
                        region = tok.next().map(|r| r.trim_end_matches(';'));
                    }
                    Ok(())
                })?;
                if let Some(r) = region {
                    groups.push((members, r));
                }
                Ok(())
            })?,
            _ => {}
        }
    }

    let die = die.ok_or_else(|| tok.err("no DIEAREA"))?;
    let Some((site_w, _)) = site else {
        return Err(tok.err("no ROW statements"));
    };
    // normalization: one site width → 1.0. `sites` maps DEF database units
    // (die, rows, regions, positions); `lef_scale` maps LEF microns.
    let scale = 1.0 / (site_w * dbu);
    let sites = |v: f64| v * scale;
    let sites_rect = |r: Rect| Rect::new(sites(r.xl), sites(r.yl), sites(r.xh), sites(r.yh));
    let lef_scale = 1.0 / site_w;

    // cells: components, then IO pins as fixed zero-size cells
    comps.append(&mut io_pins);
    let mut builder = NetlistBuilder::with_capacity(comps.len(), nets.len(), 0);
    for c in &comps {
        let (w, h) = c
            .mac
            .map_or((0.0, 0.0), |m| (m.width * lef_scale, m.height * lef_scale));
        builder.add_cell(c.name, w, h, !c.fixed)?;
    }
    for (name, pins) in nets {
        let mut net = Vec::with_capacity(pins.len());
        for (owner, pin) in pins {
            let (owner, port) = if owner == "PIN" {
                (pin, None)
            } else {
                (owner, Some(pin))
            };
            let cell = builder
                .cell_by_name(owner)
                .ok_or_else(|| NetlistError::UnknownCell(owner.to_string()))?;
            // pin offset from the macro, if the LEF declares it
            let offset = port
                .and_then(|p| comps.get(cell.index())?.mac?.pins.get(p).copied())
                .unwrap_or(Point::new(0.0, 0.0));
            net.push((cell, offset.x * lef_scale, offset.y * lef_scale));
        }
        builder.add_net(name, net);
    }

    let die = sites_rect(die);
    let rows = rows
        .into_iter()
        .map(|r| Row {
            y: sites(r.y),
            height: sites(r.height),
            xl: sites(r.xl),
            xh: sites(r.xh).min(die.xh),
            site_width: sites(r.site_width),
        })
        .collect();
    let mut design = Design::new(design_name, builder.build(), die, rows, target_density)?;

    // regions + group membership
    // lint:allow(determinism): region name to id lookup while parsing DEF REGIONS; never iterated
    let mut region_ids = HashMap::new();
    for (name, rect) in regions {
        region_ids.insert(name, design.add_region(name, sites_rect(rect))?);
    }
    for (members, region) in groups {
        let Some(&id) = region_ids.get(region) else {
            continue;
        };
        for member in members {
            if let Some(cell) = design.netlist.cell_by_name(member) {
                design.assign_region(cell, Some(id));
            }
        }
    }

    let placement = Placement {
        x: comps.iter().map(|c| sites(c.at.x)).collect(),
        y: comps.iter().map(|c| sites(c.at.y)).collect(),
    };
    Ok(BookshelfCircuit { design, placement })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEF: &str = r#"
VERSION 5.8 ;
SITE core
  CLASS CORE ;
  SIZE 0.2 BY 1.6 ;
END core
MACRO INV
  CLASS CORE ;
  SIZE 0.4 BY 1.6 ;
  PIN A
    DIRECTION INPUT ;
    PORT
      LAYER M1 ;
      RECT 0.05 0.7 0.15 0.9 ;
    END
  END A
  PIN Y
    DIRECTION OUTPUT ;
    PORT
      RECT 0.25 0.7 0.35 0.9 ;
    END
  END Y
END INV
MACRO BLOCK
  CLASS BLOCK ;
  SIZE 4.0 BY 4.8 ;
  PIN P
    PORT
      RECT 0.0 0.0 0.2 0.2 ;
    END
  END P
END BLOCK
END LIBRARY
"#;

    const DEF: &str = r#"
VERSION 5.8 ;
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 20000 16000 ) ;
ROW r0 core 0 0 N DO 100 BY 1 STEP 200 0 ;
ROW r1 core 0 1600 N DO 100 BY 1 STEP 200 0 ;
ROW r2 core 0 3200 N DO 100 BY 1 STEP 200 0 ;
COMPONENTS 3 ;
 - u1 INV + PLACED ( 1000 0 ) N ;
 - u2 INV + PLACED ( 5000 1600 ) N ;
 - blk BLOCK + FIXED ( 10000 0 ) N ;
END COMPONENTS
PINS 1 ;
 - io1 + NET n2 + DIRECTION INPUT + FIXED ( 0 8000 ) N ;
END PINS
NETS 2 ;
 - n1 ( u1 Y ) ( u2 A ) ;
 - n2 ( u2 Y ) ( PIN io1 ) ( blk P ) ;
END NETS
REGIONS 1 ;
 - fence1 ( 0 0 ) ( 8000 3200 ) ;
END REGIONS
GROUPS 1 ;
 - g1 u1 u2 + REGION fence1 ;
END GROUPS
END DESIGN
"#;

    #[test]
    fn lef_parses_sites_and_macros() {
        let lib = parse_lef(LEF).unwrap();
        assert_eq!(lib.sites["core"], (0.2, 1.6));
        let inv = &lib.macros["INV"];
        assert_eq!((inv.width, inv.height), (0.4, 1.6));
        // pin A: rect center (0.1, 0.8) − macro center (0.2, 0.8) = (−0.1, 0)
        let a = inv.pins["A"];
        assert!((a.x - -0.1).abs() < 1e-9);
        assert!(a.y.abs() < 1e-9);
        let y = inv.pins["Y"];
        assert!((y.x - 0.1).abs() < 1e-9);
    }

    #[test]
    fn def_builds_a_normalized_circuit() {
        let lib = parse_lef(LEF).unwrap();
        let c = parse_def(DEF, &lib, 0.9).unwrap();
        let nl = &c.design.netlist;
        assert_eq!(c.design.name, "top");
        assert_eq!(nl.num_cells(), 4); // u1, u2, blk, io1
        assert_eq!(nl.num_movable(), 2);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 5);
        // normalization: site width 0.2 µm at dbu 1000 → 200 dbu = 1 site
        // die 20000×16000 dbu → 100 × 80 sites
        assert_eq!(c.design.die, Rect::new(0.0, 0.0, 100.0, 80.0));
        // INV is 0.4 µm = 2 sites wide, 8 sites tall
        let u1 = nl.cell_by_name("u1").unwrap();
        assert!((nl.cell_width(u1) - 2.0).abs() < 1e-9);
        assert!((nl.cell_height(u1) - 8.0).abs() < 1e-9);
        // u1 placed at (1000, 0) dbu → (5, 0) sites
        assert_eq!(c.placement.position(u1), Point::new(5.0, 0.0));
        // rows: 3 rows of height 1.6 µm = 8 sites
        assert_eq!(c.design.rows.len(), 3);
        assert!((c.design.rows[1].y - 8.0).abs() < 1e-9);
        assert!((c.design.rows[0].site_width - 1.0).abs() < 1e-9);
    }

    #[test]
    fn def_pin_offsets_come_from_lef() {
        let lib = parse_lef(LEF).unwrap();
        let c = parse_def(DEF, &lib, 0.9).unwrap();
        let nl = &c.design.netlist;
        // net n1 pin on u1 is port Y: offset +0.1 µm = +0.5 sites in x
        let n1 = nl.net_by_name("n1").unwrap();
        let pin = nl.net_pins(n1).next().unwrap();
        assert_eq!(nl.pin_cell(pin), nl.cell_by_name("u1").unwrap());
        assert!((nl.pin_offset_x(pin) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn def_regions_and_groups_are_honored() {
        let lib = parse_lef(LEF).unwrap();
        let c = parse_def(DEF, &lib, 0.9).unwrap();
        assert_eq!(c.design.regions.len(), 1);
        assert_eq!(c.design.regions[0].rect, Rect::new(0.0, 0.0, 40.0, 16.0));
        let u1 = c.design.netlist.cell_by_name("u1").unwrap();
        let blk = c.design.netlist.cell_by_name("blk").unwrap();
        assert!(c.design.region_of(u1).is_some());
        assert!(c.design.region_of(blk).is_none());
    }

    #[test]
    fn def_circuit_places_end_to_end() {
        // the parsed circuit must run through exact HPWL machinery
        let lib = parse_lef(LEF).unwrap();
        let c = parse_def(DEF, &lib, 0.9).unwrap();
        let h = crate::placement::total_hpwl(&c.design.netlist, &c.placement);
        assert!(h.is_finite() && h > 0.0);
    }

    #[test]
    fn hash_comments_are_stripped() {
        let lef = "# library header\nSITE s\n SIZE 1.0 BY 2.0 ; # inline comment\nEND s\n";
        let lib = parse_lef(lef).unwrap();
        assert_eq!(lib.sites["s"], (1.0, 2.0));
    }

    #[test]
    fn missing_macro_is_an_error() {
        let lib = LefLibrary::default();
        let err = parse_def(DEF, &lib, 0.9);
        assert!(matches!(err, Err(NetlistError::UnknownCell(_))));
    }

    /// FNV-1a over the bits of everything `parse_def` produces: die, rows,
    /// each cell's name, size, movability, region and position, each pin's
    /// cell and offsets, and each net's name and weight.
    fn fingerprint(c: &BookshelfCircuit) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let d = &c.design;
        let nl = &d.netlist;
        for v in [d.die.xl, d.die.yl, d.die.xh, d.die.yh] {
            eat(&v.to_bits().to_le_bytes());
        }
        for r in &d.rows {
            for v in [r.y, r.height, r.xl, r.xh, r.site_width] {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        for cell in nl.cells() {
            eat(nl.cell_name(cell).as_bytes());
            let pos = c.placement.position(cell);
            for v in [nl.cell_width(cell), nl.cell_height(cell), pos.x, pos.y] {
                eat(&v.to_bits().to_le_bytes());
            }
            eat(&[u8::from(nl.is_movable(cell))]);
            let region = d.region_of(cell).map(|r| (r.name.as_str(), r.rect));
            if let Some((name, r)) = region {
                eat(name.as_bytes());
                for v in [r.xl, r.yl, r.xh, r.yh] {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        for net in nl.nets() {
            eat(nl.net_name(net).as_bytes());
            eat(&nl.net_weight(net).to_bits().to_le_bytes());
            for pin in nl.net_pins(net) {
                eat(&(nl.pin_cell(pin).index() as u64).to_le_bytes());
                eat(&nl.pin_offset_x(pin).to_bits().to_le_bytes());
                eat(&nl.pin_offset_y(pin).to_bits().to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn def_parse_is_pinned() {
        let lib = parse_lef(LEF).unwrap();
        let c = parse_def(DEF, &lib, 0.9).unwrap();
        assert_eq!(fingerprint(&c), 5670492265915145620, "in-module LEF/DEF");
        let lib = parse_lef(include_str!("../../../tests/fixtures/sample.lef")).unwrap();
        let c = parse_def(
            include_str!("../../../tests/fixtures/sample.def"),
            &lib,
            0.9,
        )
        .unwrap();
        assert_eq!(
            fingerprint(&c),
            14074472540702353608,
            "tests/fixtures/sample.{{lef,def}}"
        );
    }

    #[test]
    fn bad_def_units_are_a_parse_error() {
        let lib = parse_lef(LEF).unwrap();
        for dbu in ["-1000", "0", "NaN", "inf"] {
            let def = DEF.replace("MICRONS 1000", &format!("MICRONS {dbu}"));
            let err = parse_def(&def, &lib, 0.9);
            assert!(
                matches!(err, Err(NetlistError::Parse { file: "lefdef", .. })),
                "UNITS DISTANCE MICRONS {dbu}: {err:?}"
            );
        }
    }

    #[test]
    fn negative_macro_size_is_a_typed_error() {
        // the LEF reader refuses it itself; a library built in code meets
        // `NetlistBuilder::add_cell`'s size check in `parse_def`
        let err = parse_lef(&LEF.replace("SIZE 0.4 BY 1.6", "SIZE -3 BY 1"));
        assert!(matches!(err, Err(NetlistError::Parse { .. })), "{err:?}");
        let mut lib = parse_lef(LEF).unwrap();
        if let Some(inv) = lib.macros.get_mut("INV") {
            inv.width = -3.0;
        }
        let err = parse_def(DEF, &lib, 0.9);
        assert!(matches!(err, Err(NetlistError::Geometry(_))), "{err:?}");
    }

    #[test]
    fn missing_diearea_is_an_error() {
        let lib = parse_lef(LEF).unwrap();
        let err = parse_def("VERSION 5.8 ;\nROW r core 0 0 N ;\n", &lib, 0.9);
        assert!(err.is_err());
    }
}
