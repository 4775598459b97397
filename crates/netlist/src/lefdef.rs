//! A LEF/DEF-lite reader.
//!
//! The ISPD2019 contest circuits (the paper's Table III) ship as LEF/DEF
//! rather than Bookshelf. This module parses the placement-relevant subset:
//!
//! * **LEF**: `SITE` (name + size), `MACRO` blocks (`CLASS`, `SIZE`,
//!   `PIN … PORT … RECT`), `UNITS DATABASE MICRONS`;
//! * **DEF**: `UNITS DISTANCE MICRONS`, `DIEAREA`, `ROW`, `COMPONENTS`
//!   (with `PLACED`/`FIXED`), `PINS` (IO pads), `NETS`, and `REGIONS`
//!   rectangles.
//!
//! Geometry is normalized so one **site width = 1.0** (the convention the
//! legalizer snaps to), matching the synthetic benchmarks. Unsupported
//! statements are skipped; this is a reader for placement research, not a
//! sign-off parser. DEF `GROUPS` (region membership) are honored when
//! present in the simple `- name comp… + REGION r ;` form.

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

    fn peek(&mut self) -> Option<&'a str> {
        self.iter.peek().map(|&(_, t)| t)
    }

    /// Skips tokens through the next `;`.
    fn skip_statement(&mut self) {
        while let Some(t) = self.next() {
            if t == ";" || t.ends_with(';') {
                return;
            }
        }
    }

    fn expect_f64(&mut self, what: &str) -> Result<f64, NetlistError> {
        self.next()
            .and_then(|t| t.trim_end_matches(';').parse().ok())
            .ok_or_else(|| self.err(what))
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
    while let Some(t) = tok.next() {
        match t {
            "SITE" => {
                let name = tok.next().ok_or_else(|| tok.err("SITE name"))?.to_string();
                let mut size = (0.0, 0.0);
                while let Some(t) = tok.next() {
                    match t {
                        "SIZE" => {
                            size.0 = tok.expect_f64("site width")?;
                            if tok.next() != Some("BY") {
                                return Err(tok.err("expected BY in SITE SIZE"));
                            }
                            size.1 = tok.expect_f64("site height")?;
                            tok.skip_statement();
                        }
                        "END" => {
                            tok.next(); // name
                            break;
                        }
                        _ => {}
                    }
                }
                if size.0 <= 0.0 || size.1 <= 0.0 {
                    return Err(tok.err("site has no SIZE"));
                }
                lib.sites.insert(name, size);
            }
            "MACRO" => {
                let name = tok.next().ok_or_else(|| tok.err("MACRO name"))?.to_string();
                let mut mac = LefMacro {
                    name: name.clone(),
                    width: 0.0,
                    height: 0.0,
                    // lint:allow(determinism): lookup-only table (see LefLibrary field notes)
                    pins: HashMap::new(),
                };
                loop {
                    let Some(t) = tok.next() else {
                        return Err(tok.err("unterminated MACRO"));
                    };
                    match t {
                        "SIZE" => {
                            mac.width = tok.expect_f64("macro width")?;
                            if tok.next() != Some("BY") {
                                return Err(tok.err("expected BY in MACRO SIZE"));
                            }
                            mac.height = tok.expect_f64("macro height")?;
                            tok.skip_statement();
                        }
                        "PIN" => {
                            let pin_name =
                                tok.next().ok_or_else(|| tok.err("PIN name"))?.to_string();
                            let mut rect_acc: Option<Rect> = None;
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated PIN"));
                                };
                                match t {
                                    "RECT" => {
                                        let x1 = tok.expect_f64("rect x1")?;
                                        let y1 = tok.expect_f64("rect y1")?;
                                        let x2 = tok.expect_f64("rect x2")?;
                                        let y2 = tok.expect_f64("rect y2")?;
                                        tok.skip_statement();
                                        let r = Rect::new(
                                            x1.min(x2),
                                            y1.min(y2),
                                            x1.max(x2),
                                            y1.max(y2),
                                        );
                                        rect_acc = Some(match rect_acc {
                                            Some(acc) => acc.union(&r),
                                            None => r,
                                        });
                                    }
                                    "END"
                                        // `END <pin>` closes the pin; a bare
                                        // `END` closes an inner PORT block
                                        if tok.peek() == Some(pin_name.as_str()) => {
                                            tok.next();
                                            break;
                                        }
                                    _ => {}
                                }
                            }
                            let center =
                                rect_acc.map(|r| r.center()).unwrap_or(Point::new(0.0, 0.0));
                            mac.pins.insert(pin_name, center);
                        }
                        "END" if tok.peek() == Some(name.as_str()) => {
                            tok.next();
                            break;
                        }
                        _ => {}
                    }
                }
                if mac.width <= 0.0 || mac.height <= 0.0 {
                    return Err(tok.err("macro has no SIZE"));
                }
                // convert pin locations (from origin) to center offsets
                let (cw, ch) = (mac.width / 2.0, mac.height / 2.0);
                for p in mac.pins.values_mut() {
                    p.x -= cw;
                    p.y -= ch;
                }
                lib.macros.insert(name, mac);
            }
            _ => {}
        }
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
/// Returns [`NetlistError::Parse`] on malformed content or references to
/// macros missing from the LEF.
pub fn parse_def(
    def_text: &str,
    lef: &LefLibrary,
    target_density: f64,
) -> Result<BookshelfCircuit, NetlistError> {
    let mut tok = Tokens::new(def_text);
    let mut dbu: f64 = 1000.0;
    let mut die: Option<Rect> = None;
    let mut rows: Vec<Row> = Vec::new();
    let mut design_name = String::from("def_design");

    // the site that rows reference (for unit normalization)
    let mut site_w: Option<f64> = None;
    let mut site_h: Option<f64> = None;

    struct Comp {
        name: String,
        macro_name: String,
        x: f64,
        y: f64,
        fixed: bool,
    }
    let mut comps: Vec<Comp> = Vec::new();
    struct IoPin {
        name: String,
        x: f64,
        y: f64,
    }
    let mut io_pins: Vec<IoPin> = Vec::new();
    struct DefNet {
        name: String,
        pins: Vec<(String, String)>, // (component | "PIN", pin name)
    }
    let mut nets: Vec<DefNet> = Vec::new();
    let mut regions: Vec<(String, Rect)> = Vec::new();
    let mut groups: Vec<(Vec<String>, String)> = Vec::new(); // members, region

    while let Some(t) = tok.next() {
        match t {
            "DESIGN" => {
                if let Some(n) = tok.next() {
                    design_name = n.trim_end_matches(';').to_string();
                }
                // tolerate both `DESIGN name ;` and keyword reuse elsewhere
            }
            "UNITS" => {
                // UNITS DISTANCE MICRONS <dbu> ;
                if tok.next() == Some("DISTANCE") && tok.next() == Some("MICRONS") {
                    dbu = tok.expect_f64("dbu")?;
                }
                tok.skip_statement();
            }
            "DIEAREA" => {
                // DIEAREA ( x1 y1 ) ( x2 y2 ) ;
                let mut vals = Vec::new();
                while vals.len() < 4 {
                    let Some(t) = tok.next() else {
                        return Err(tok.err("truncated DIEAREA"));
                    };
                    if let Ok(v) = t.parse::<f64>() {
                        vals.push(v);
                    }
                    if t.ends_with(';') {
                        break;
                    }
                }
                if vals.len() < 4 {
                    return Err(tok.err("DIEAREA needs two points"));
                }
                die = Some(Rect::new(
                    vals[0].min(vals[2]),
                    vals[1].min(vals[3]),
                    vals[0].max(vals[2]),
                    vals[1].max(vals[3]),
                ));
                tok.skip_statement();
            }
            "ROW" => {
                // ROW name site x y orient DO nx BY ny STEP sx sy ;
                let _name = tok.next();
                let site_name = tok.next().unwrap_or("");
                let x = tok.expect_f64("row x")?;
                let y = tok.expect_f64("row y")?;
                let _orient = tok.next();
                let mut nx = 1.0;
                let mut step_x = 0.0;
                if tok.peek() == Some("DO") {
                    tok.next();
                    nx = tok.expect_f64("row DO count")?;
                    tok.next(); // BY
                    let _ny = tok.expect_f64("row BY count")?;
                    if tok.peek() == Some("STEP") {
                        tok.next();
                        step_x = tok.expect_f64("row step x")?;
                        let _sy = tok.expect_f64("row step y")?;
                    }
                }
                tok.skip_statement();
                let (sw, sh) = lef
                    .sites
                    .get(site_name)
                    .copied()
                    .unwrap_or((step_x.max(1.0) / dbu, 0.0));
                site_w.get_or_insert(sw);
                let sh_sites = *site_h.get_or_insert(if sh > 0.0 { sh } else { sw * 8.0 });
                let sw_dbu = sw * dbu;
                let width = if step_x > 0.0 {
                    nx * step_x
                } else {
                    nx * sw_dbu
                };
                rows.push(Row {
                    y,
                    height: sh_sites * dbu,
                    xl: x,
                    xh: x + width,
                    site_width: if step_x > 0.0 { step_x } else { sw_dbu },
                });
            }
            "COMPONENTS" => {
                tok.skip_statement(); // count ;
                loop {
                    match tok.next() {
                        Some("-") => {
                            let name = tok
                                .next()
                                .ok_or_else(|| tok.err("component name"))?
                                .to_string();
                            let macro_name = tok
                                .next()
                                .ok_or_else(|| tok.err("component macro"))?
                                .to_string();
                            let mut c = Comp {
                                name,
                                macro_name,
                                x: 0.0,
                                y: 0.0,
                                fixed: false,
                            };
                            // scan the statement for PLACED/FIXED ( x y )
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated component"));
                                };
                                match t {
                                    "FIXED" | "PLACED" => {
                                        c.fixed = t == "FIXED";
                                        // ( x y ) orient
                                        let mut got = 0;
                                        while got < 2 {
                                            let Some(v) = tok.next() else {
                                                return Err(tok.err("component point"));
                                            };
                                            if let Ok(f) = v.parse::<f64>() {
                                                if got == 0 {
                                                    c.x = f;
                                                } else {
                                                    c.y = f;
                                                }
                                                got += 1;
                                            }
                                        }
                                    }
                                    ";" => break,
                                    t if t.ends_with(';') => break,
                                    _ => {}
                                }
                            }
                            comps.push(c);
                        }
                        Some("END") => {
                            tok.next(); // COMPONENTS
                            break;
                        }
                        Some(_) => {}
                        None => return Err(tok.err("unterminated COMPONENTS")),
                    }
                }
            }
            "PINS" => {
                tok.skip_statement();
                loop {
                    match tok.next() {
                        Some("-") => {
                            let name = tok.next().ok_or_else(|| tok.err("pin name"))?.to_string();
                            let mut p = IoPin {
                                name,
                                x: 0.0,
                                y: 0.0,
                            };
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated pin"));
                                };
                                match t {
                                    "FIXED" | "PLACED" => {
                                        let mut got = 0;
                                        while got < 2 {
                                            let Some(v) = tok.next() else {
                                                return Err(tok.err("pin point"));
                                            };
                                            if let Ok(f) = v.parse::<f64>() {
                                                if got == 0 {
                                                    p.x = f;
                                                } else {
                                                    p.y = f;
                                                }
                                                got += 1;
                                            }
                                        }
                                    }
                                    ";" => break,
                                    t if t.ends_with(';') => break,
                                    _ => {}
                                }
                            }
                            io_pins.push(p);
                        }
                        Some("END") => {
                            tok.next();
                            break;
                        }
                        Some(_) => {}
                        None => return Err(tok.err("unterminated PINS")),
                    }
                }
            }
            "NETS" => {
                tok.skip_statement();
                loop {
                    match tok.next() {
                        Some("-") => {
                            let name = tok.next().ok_or_else(|| tok.err("net name"))?.to_string();
                            let mut net = DefNet {
                                name,
                                pins: Vec::new(),
                            };
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated net"));
                                };
                                match t {
                                    "(" => {
                                        let comp = tok
                                            .next()
                                            .ok_or_else(|| tok.err("net pin comp"))?
                                            .to_string();
                                        let pin = tok
                                            .next()
                                            .ok_or_else(|| tok.err("net pin name"))?
                                            .to_string();
                                        // consume ")"
                                        if tok.peek() == Some(")") {
                                            tok.next();
                                        }
                                        net.pins.push((comp, pin));
                                    }
                                    ";" => break,
                                    t if t.ends_with(';') => break,
                                    _ => {}
                                }
                            }
                            nets.push(net);
                        }
                        Some("END") => {
                            tok.next();
                            break;
                        }
                        Some(_) => {}
                        None => return Err(tok.err("unterminated NETS")),
                    }
                }
            }
            "REGIONS" => {
                tok.skip_statement();
                loop {
                    match tok.next() {
                        Some("-") => {
                            let name = tok
                                .next()
                                .ok_or_else(|| tok.err("region name"))?
                                .to_string();
                            let mut vals = Vec::new();
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated region"));
                                };
                                if let Ok(v) = t.trim_end_matches(';').parse::<f64>() {
                                    vals.push(v);
                                }
                                if t == ";" || t.ends_with(';') {
                                    break;
                                }
                            }
                            if vals.len() >= 4 {
                                regions.push((
                                    name,
                                    Rect::new(
                                        vals[0].min(vals[2]),
                                        vals[1].min(vals[3]),
                                        vals[0].max(vals[2]),
                                        vals[1].max(vals[3]),
                                    ),
                                ));
                            }
                        }
                        Some("END") => {
                            tok.next();
                            break;
                        }
                        Some(_) => {}
                        None => return Err(tok.err("unterminated REGIONS")),
                    }
                }
            }
            "GROUPS" => {
                tok.skip_statement();
                loop {
                    match tok.next() {
                        Some("-") => {
                            let _gname = tok.next();
                            let mut members = Vec::new();
                            let mut region = None;
                            loop {
                                let Some(t) = tok.next() else {
                                    return Err(tok.err("unterminated group"));
                                };
                                match t {
                                    "+" => {
                                        if tok.peek() == Some("REGION") {
                                            tok.next();
                                            region = tok
                                                .next()
                                                .map(|r| r.trim_end_matches(';').to_string());
                                        }
                                    }
                                    ";" => break,
                                    t if t.ends_with(';') => break,
                                    m => members.push(m.to_string()),
                                }
                            }
                            if let Some(r) = region {
                                groups.push((members, r));
                            }
                        }
                        Some("END") => {
                            tok.next();
                            break;
                        }
                        Some(_) => {}
                        None => return Err(tok.err("unterminated GROUPS")),
                    }
                }
            }
            _ => {}
        }
    }

    let die = die.ok_or_else(|| tok.err("no DIEAREA"))?;
    if rows.is_empty() {
        return Err(tok.err("no ROW statements"));
    }
    // normalization: site width → 1.0
    let sw_microns = site_w.unwrap_or(1.0);
    let scale = 1.0 / (sw_microns * dbu); // dbu → sites
    let lef_scale = 1.0 / sw_microns; // microns → sites

    // build the netlist
    let mut builder = NetlistBuilder::with_capacity(comps.len() + io_pins.len(), nets.len(), 0);
    let mut placement_xy: Vec<(f64, f64)> = Vec::with_capacity(comps.len() + io_pins.len());
    for c in &comps {
        let mac = lef
            .macros
            .get(&c.macro_name)
            .ok_or_else(|| NetlistError::UnknownCell(c.macro_name.clone()))?;
        builder.add_cell(
            c.name.clone(),
            mac.width * lef_scale,
            mac.height * lef_scale,
            !c.fixed,
        )?;
        placement_xy.push((c.x * scale, c.y * scale));
    }
    for p in &io_pins {
        builder.add_cell(p.name.clone(), 0.0, 0.0, false)?;
        placement_xy.push((p.x * scale, p.y * scale));
    }
    for net in &nets {
        let mut pins = Vec::with_capacity(net.pins.len());
        for (comp, pin) in &net.pins {
            if comp == "PIN" {
                let cell = builder
                    .cell_by_name(pin)
                    .ok_or_else(|| NetlistError::UnknownCell(pin.clone()))?;
                pins.push((cell, 0.0, 0.0));
            } else {
                let cell = builder
                    .cell_by_name(comp)
                    .ok_or_else(|| NetlistError::UnknownCell(comp.clone()))?;
                // pin offset from the macro, if the LEF declares it
                let comp_idx: usize = cell.index();
                let offset = comps
                    .get(comp_idx)
                    .and_then(|c| lef.macros.get(&c.macro_name))
                    .and_then(|m| m.pins.get(pin))
                    .copied()
                    .unwrap_or(Point::new(0.0, 0.0));
                pins.push((cell, offset.x * lef_scale, offset.y * lef_scale));
            }
        }
        builder.add_net(net.name.clone(), pins);
    }
    let netlist = builder.build();

    // geometry in site units
    let die = Rect::new(
        die.xl * scale,
        die.yl * scale,
        die.xh * scale,
        die.yh * scale,
    );
    let rows: Vec<Row> = rows
        .into_iter()
        .map(|r| Row {
            y: r.y * scale,
            height: r.height * scale,
            xl: r.xl * scale,
            xh: (r.xh * scale).min(die.xh),
            site_width: r.site_width * scale,
        })
        .collect();
    let mut design = Design::new(design_name, netlist, die, rows, target_density)?;

    // regions + group membership
    // lint:allow(determinism): region name to id lookup while parsing DEF REGIONS; never iterated
    let mut region_ids = HashMap::new();
    for (name, rect) in regions {
        let scaled = Rect::new(
            rect.xl * scale,
            rect.yl * scale,
            rect.xh * scale,
            rect.yh * scale,
        );
        let id = design.add_region(name.clone(), scaled)?;
        region_ids.insert(name, id);
    }
    for (members, region_name) in groups {
        if let Some(&id) = region_ids.get(&region_name) {
            for member in members {
                if let Some(cell) = design.netlist.cell_by_name(&member) {
                    design.assign_region(cell, Some(id));
                }
            }
        }
    }

    let mut placement = Placement::zeros(design.netlist.num_cells());
    for (i, (x, y)) in placement_xy.into_iter().enumerate() {
        placement.x[i] = x;
        placement.y[i] = y;
    }
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

    #[test]
    fn missing_diearea_is_an_error() {
        let lib = parse_lef(LEF).unwrap();
        let err = parse_def("VERSION 5.8 ;\nROW r core 0 0 N ;\n", &lib, 0.9);
        assert!(err.is_err());
    }
}
