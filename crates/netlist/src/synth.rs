//! Deterministic synthetic benchmark generation.
//!
//! The paper evaluates on the ISPD2006 \[30\] and ISPD2019 \[31\] contest
//! circuits, which are not redistributable. This module generates, for each
//! contest circuit in Table I, a synthetic stand-in with the same *shape*:
//!
//! * cell / net / pin counts scaled to CPU-laptop size (1/100 for ISPD2006,
//!   1/40 for ISPD2019),
//! * a matched pins-per-net ratio with a geometric-tail degree distribution
//!   (dominant 2–3-pin nets, heavy tail),
//! * the same fixed-cell fraction, split between periphery terminals and
//!   in-die fixed macro blockages,
//! * movable macros for the `newblue1`/`newblue3`-style rows (the paper's
//!   biggest win, 5.4%, is on macro-heavy `newblue1`),
//! * the contest target densities.
//!
//! Nets are drawn with *locality*: pins cluster in a window of a random
//! cell ordering, which gives the hierarchical structure real circuits have
//! and that placement exploits. Everything is seeded and reproducible.

use crate::bookshelf::BookshelfCircuit;
use crate::design::Design;
use crate::error::NetlistError;
use crate::geom::{Point, Rect};
use crate::netlist::NetlistBuilder;
use crate::placement::Placement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod peko;

/// Which contest suite a benchmark mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// ISPD2006 placement contest (wirelength-driven, macro-heavy).
    Ispd2006,
    /// ISPD2019 initial detailed-routing contest benchmarks.
    Ispd2019,
}

/// Recipe for one synthetic circuit.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Benchmark name (matches the Table I row it mimics).
    pub name: String,
    /// Which suite the spec belongs to.
    pub suite: Suite,
    /// Number of movable cells (already scaled).
    pub movable: usize,
    /// Number of fixed cells (terminals + blockages, already scaled).
    pub fixed: usize,
    /// Number of nets (already scaled).
    pub nets: usize,
    /// Target number of pins (already scaled; achieved within a few %).
    pub pins: usize,
    /// Number of movable cells that are multi-row macros.
    pub movable_macros: usize,
    /// Contest target density in `(0, 1]`.
    pub target_density: f64,
    /// Placement-area utilization used to size the die.
    pub utilization: f64,
    /// RNG seed (fixed per benchmark for reproducibility).
    pub seed: u64,
    /// Number of fence regions (0 = unconstrained; the paper's flow places
    /// the ISPD2019 suite without region handling, so Table III specs keep
    /// 0 — see [`smoke_regions_spec`] for a constrained demo).
    pub regions: usize,
    /// Number of hierarchy groups for the clustered generator mode
    /// (0 or 1 = flat legacy mode, bit-identical to earlier releases).
    /// With `clusters > 1` the movable cells are partitioned into that many
    /// groups and nets are drawn group-locally with a small cross-group
    /// fraction — the structure multilevel coarsening exploits.
    pub clusters: usize,
}

impl SynthSpec {
    #[allow(clippy::too_many_arguments)] // one flat row per Table I entry
    fn new(
        name: &str,
        suite: Suite,
        movable: usize,
        fixed: usize,
        nets: usize,
        pins: usize,
        movable_macros: usize,
        target_density: f64,
        utilization: f64,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            suite,
            movable,
            fixed,
            nets,
            pins,
            movable_macros,
            target_density,
            utilization,
            seed,
            regions: 0,
            clusters: 0,
        }
    }
}

const SCALE_2006: usize = 100;
const SCALE_2019: usize = 40;

/// The eight ISPD2006 rows of Table I, scaled by 1/100.
pub fn ispd2006_suite() -> Vec<SynthSpec> {
    let s = |n: usize| n / SCALE_2006;
    use Suite::Ispd2006 as S6;
    vec![
        SynthSpec::new(
            "adaptec5",
            S6,
            s(842_482),
            s(646).max(8),
            s(867_798),
            s(3_433_359),
            0,
            0.50,
            0.40,
            1001,
        ),
        SynthSpec::new(
            "newblue1",
            S6,
            s(330_137),
            s(337).max(8),
            s(338_901),
            s(1_223_165),
            48,
            0.80,
            0.55,
            1002,
        ),
        SynthSpec::new(
            "newblue2",
            S6,
            s(440_239),
            s(1_277),
            s(465_219),
            s(1_761_069),
            0,
            0.90,
            0.55,
            1003,
        ),
        SynthSpec::new(
            "newblue3",
            S6,
            s(482_833),
            s(11_178),
            s(552_199),
            s(1_881_267),
            24,
            0.80,
            0.45,
            1004,
        ),
        SynthSpec::new(
            "newblue4",
            S6,
            s(642_717),
            s(3_422),
            s(637_051),
            s(2_455_617),
            0,
            0.50,
            0.45,
            1005,
        ),
        SynthSpec::new(
            "newblue5",
            S6,
            s(1_228_177),
            s(4_881),
            s(1_284_251),
            s(4_849_194),
            0,
            0.50,
            0.45,
            1006,
        ),
        SynthSpec::new(
            "newblue6",
            S6,
            s(1_248_150),
            s(6_889),
            s(1_288_443),
            s(5_200_208),
            0,
            0.80,
            0.45,
            1007,
        ),
        SynthSpec::new(
            "newblue7",
            S6,
            s(2_481_372),
            s(26_582),
            s(2_636_820),
            s(9_971_913),
            0,
            0.80,
            0.50,
            1008,
        ),
    ]
}

/// The ten ISPD2019 rows of Table I, scaled by 1/40.
pub fn ispd2019_suite() -> Vec<SynthSpec> {
    let s = |n: usize| n / SCALE_2019;
    use Suite::Ispd2019 as S9;
    vec![
        SynthSpec::new(
            "ispd19_test1",
            S9,
            s(8_879),
            0,
            s(3_153),
            s(17_203),
            0,
            0.90,
            0.35,
            2001,
        ),
        SynthSpec::new(
            "ispd19_test2",
            S9,
            s(72_090),
            4,
            s(72_410),
            s(318_245),
            0,
            0.90,
            0.45,
            2002,
        ),
        SynthSpec::new(
            "ispd19_test3",
            S9,
            s(8_208),
            s(75).max(2),
            s(8_953),
            s(30_271),
            0,
            0.90,
            0.45,
            2003,
        ),
        SynthSpec::new(
            "ispd19_test4",
            S9,
            s(146_435),
            7,
            s(151_612),
            s(436_707),
            0,
            0.90,
            0.45,
            2004,
        ),
        SynthSpec::new(
            "ispd19_test5",
            S9,
            s(28_914),
            8,
            s(29_416),
            s(80_757),
            0,
            0.90,
            0.40,
            2005,
        ),
        SynthSpec::new(
            "ispd19_test6",
            S9,
            s(179_865),
            16,
            s(179_863),
            s(793_289),
            0,
            0.90,
            0.45,
            2006,
        ),
        SynthSpec::new(
            "ispd19_test7",
            S9,
            s(359_730),
            16,
            s(358_720),
            s(1_584_844),
            0,
            0.90,
            0.45,
            2007,
        ),
        SynthSpec::new(
            "ispd19_test8",
            S9,
            s(539_595),
            16,
            s(537_577),
            s(2_376_399),
            0,
            0.90,
            0.45,
            2008,
        ),
        SynthSpec::new(
            "ispd19_test9",
            S9,
            s(899_325),
            16,
            s(895_253),
            s(3_957_481),
            0,
            0.90,
            0.45,
            2009,
        ),
        SynthSpec::new(
            "ispd19_test10",
            S9,
            s(899_325),
            s(79).max(2),
            s(895_253),
            s(3_957_499),
            0,
            0.90,
            0.45,
            2010,
        ),
    ]
}

/// Looks a spec up by benchmark name across both suites.
pub fn spec_by_name(name: &str) -> Option<SynthSpec> {
    ispd2006_suite()
        .into_iter()
        .chain(ispd2019_suite())
        .find(|s| s.name == name)
}

/// A small smoke-test circuit (hundreds of cells) for examples and tests.
pub fn smoke_spec() -> SynthSpec {
    SynthSpec::new(
        "smoke",
        Suite::Ispd2006,
        400,
        16,
        420,
        1500,
        4,
        0.8,
        0.45,
        42,
    )
}

/// The smoke circuit with two fence regions holding ~10% of the cells —
/// exercises the region-constrained path (ISPD2019-style fences).
pub fn smoke_regions_spec() -> SynthSpec {
    let mut spec = smoke_spec();
    spec.name = "smoke_regions".to_string();
    spec.regions = 2;
    spec
}

/// The smoke circuit in hierarchical mode (8 groups) — the standard small
/// workload for multilevel coarsening tests.
pub fn smoke_clustered_spec() -> SynthSpec {
    let mut spec = smoke_spec();
    spec.name = "smoke_clustered".to_string();
    spec.clusters = 8;
    spec
}

/// A benchmark that `mep` and the placement daemon load by name.
#[derive(Debug, Clone)]
pub enum Builtin {
    /// A Table I stand-in ([`generate`]).
    Synth(SynthSpec),
    /// One of the smoke designs ([`generate`]).
    Demo(SynthSpec),
    /// A rung of the known-optimum ladder ([`peko::generate_peko`]).
    Peko(peko::PekoSpec),
}

impl Builtin {
    /// The name it is loaded by.
    pub fn name(&self) -> &str {
        match self {
            Builtin::Synth(spec) | Builtin::Demo(spec) => &spec.name,
            Builtin::Peko(spec) => &spec.name,
        }
    }

    /// The group `mep bench-list` files it under.
    pub fn group(&self) -> &'static str {
        match self {
            Builtin::Synth(spec) => match spec.suite {
                Suite::Ispd2006 => "ISPD2006",
                Suite::Ispd2019 => "ISPD2019",
            },
            Builtin::Demo(_) => "demo",
            Builtin::Peko(_) => "PEKO",
        }
    }

    /// `(cells, nets, pins)` as the spec states them, before generation.
    pub fn size(&self) -> (usize, usize, usize) {
        match self {
            Builtin::Synth(spec) | Builtin::Demo(spec) => {
                (spec.movable + spec.fixed, spec.nets, spec.pins)
            }
            Builtin::Peko(spec) => (spec.movable, spec.nets, spec.pins),
        }
    }

    /// The circuit, generated from its spec.
    pub fn generate(&self) -> BookshelfCircuit {
        match self {
            Builtin::Synth(spec) | Builtin::Demo(spec) => generate(spec),
            Builtin::Peko(spec) => peko::generate_peko(spec).circuit,
        }
    }
}

/// Every built-in benchmark: both Table I suites, the three smoke designs
/// and the known-optimum ladder, in that order.
pub fn builtins() -> Vec<Builtin> {
    let suites = ispd2006_suite().into_iter().chain(ispd2019_suite());
    let smoke = [smoke_spec(), smoke_regions_spec(), smoke_clustered_spec()];
    let peko = peko::peko_suite().into_iter().map(Builtin::Peko);
    suites
        .map(Builtin::Synth)
        .chain(smoke.map(Builtin::Demo))
        .chain(peko)
        .collect()
}

/// Looks a built-in benchmark up by name (any of [`builtins`]).
pub fn builtin(name: &str) -> Option<Builtin> {
    builtins().into_iter().find(|b| b.name() == name)
}

/// A scalable hierarchical benchmark for multilevel scaling experiments:
/// `movable` standard cells in `movable / 400` groups (at least 8), with
/// net/pin counts following the ISPD2006 shape.
pub fn scaled_clustered_spec(movable: usize, seed: u64) -> SynthSpec {
    let movable = movable.max(1_000);
    let mut spec = SynthSpec::new(
        "ml_scale",
        Suite::Ispd2006,
        movable,
        (movable / 50).max(16),
        movable + movable / 20,
        movable * 4,
        0,
        0.80,
        0.45,
        seed,
    );
    spec.name = format!("ml_scale_{movable}");
    spec.clusters = (movable / 400).max(8);
    spec
}

/// Generates the circuit for a spec: design geometry, netlist, and an
/// initial placement (fixed cells placed, movable cells at the die center
/// with a small deterministic jitter).
///
/// # Panics
///
/// Panics if the spec's target density or fences make the design invalid
/// (see [`Design::new`] and [`Design::add_region`]). No catalogue spec
/// ([`builtins`]) and no [`scaled_clustered_spec`] does.
pub fn generate(spec: &SynthSpec) -> BookshelfCircuit {
    // lint:allow(no-panic-lib): cell names are distinct by prefix and index, and die, rows and fences are valid for every catalogue spec and for `scaled_clustered_spec`
    try_generate(spec).expect("catalogue specs generate")
}

fn try_generate(spec: &SynthSpec) -> Result<BookshelfCircuit, NetlistError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // --- cell sizes ---------------------------------------------------------
    // standard cells: height 1 row, width 1..=4 sites, biased small
    let n_macros = spec.movable_macros.min(spec.movable);
    let n_std = spec.movable - n_macros;
    let mut builder = NetlistBuilder::with_capacity(
        spec.movable + spec.fixed,
        spec.nets,
        spec.pins + spec.pins / 8,
    );
    let mut movable_area = 0.0;
    for i in 0..n_std {
        let w = match rng.gen_range(0..10) {
            0..=4 => 1.0,
            5..=7 => 2.0,
            8 => 3.0,
            _ => 4.0,
        };
        movable_area += w;
        builder.add_cell(format!("o{i}"), w, 1.0, true)?;
    }
    for i in 0..n_macros {
        let w = rng.gen_range(4..=12) as f64;
        let h = rng.gen_range(4..=12) as f64;
        movable_area += w * h;
        builder.add_cell(format!("m{i}"), w, h, true)?;
    }

    // fixed cells: 75% zero-area periphery terminals, 25% in-die blockages
    let n_blocks = spec.fixed / 4;
    let n_terms = spec.fixed - n_blocks;
    let mut block_area = 0.0;
    let mut block_dims = Vec::with_capacity(n_blocks);
    for i in 0..n_blocks {
        let w = rng.gen_range(6..=20) as f64;
        let h = rng.gen_range(6..=20) as f64;
        block_area += w * h;
        block_dims.push((w, h));
        builder.add_cell(format!("b{i}"), w, h, false)?;
    }
    for i in 0..n_terms {
        builder.add_cell(format!("p{i}"), 0.0, 0.0, false)?;
    }

    // --- die geometry --------------------------------------------------------
    // placeable area = movable / utilization, plus room for blockages
    let row_area = movable_area / spec.utilization + block_area;
    let side = row_area.sqrt().ceil().max(8.0);
    let num_rows = side as usize;
    let die = Rect::new(0.0, 0.0, side, num_rows as f64);

    // fence rectangles (if any) are decided up front so fixed blockages
    // can avoid them: vertical strips in the upper third, row-aligned
    let fence_rects: Vec<Rect> = (0..spec.regions)
        .map(|r| {
            let strip_w = (die.width() / (2.0 * spec.regions as f64 + 1.0))
                .floor()
                .max(4.0);
            let yl = (die.yl + 0.6 * die.height()).floor();
            let yh = (die.yl + 0.9 * die.height()).floor();
            let xl = (die.xl + (2 * r + 1) as f64 * strip_w).floor();
            Rect::new(xl, yl, (xl + strip_w).min(die.xh), yh)
        })
        .collect();

    // --- fixed positions ------------------------------------------------------
    let total_cells = spec.movable + spec.fixed;
    let mut placement = Placement::zeros(total_cells);
    // blockages on a jittered coarse grid, avoiding heavy overlap
    let mut placed_blocks: Vec<Rect> = Vec::with_capacity(n_blocks);
    for (i, &(w, h)) in block_dims.iter().enumerate() {
        let idx = spec.movable + i;
        let mut best = (0.0_f64, Point::new(die.xl, die.yl));
        for _try in 0..24 {
            let x = rng.gen_range(die.xl..=(die.xh - w).max(die.xl)).floor();
            let y = rng.gen_range(die.yl..=(die.yh - h).max(die.yl)).floor();
            let cand = Rect::from_origin_size(x, y, w, h);
            if fence_rects.iter().any(|f| f.intersects(&cand)) {
                continue; // keep blockages out of fences
            }
            let ov: f64 = placed_blocks.iter().map(|r| r.overlap_area(&cand)).sum();
            // lint:allow(float-eq): exact-zero sentinel for a perfect fit; any nonzero overflow takes the other branch
            if ov == 0.0 {
                best = (0.0, Point::new(x, y));
                break;
            }
            // lint:allow(float-eq): best.0 == 0.0 is the explicit unset sentinel, assigned literally
            if best.0 == 0.0 || ov < best.0 {
                best = (ov, Point::new(x, y));
            }
        }
        placement.x[idx] = best.1.x;
        placement.y[idx] = best.1.y;
        placed_blocks.push(Rect::from_origin_size(best.1.x, best.1.y, w, h));
    }
    // terminals evenly around the periphery
    for i in 0..n_terms {
        let idx = spec.movable + n_blocks + i;
        let t = i as f64 / n_terms.max(1) as f64 * 4.0;
        let (x, y) = match t as usize {
            0 => (die.xl + (t - 0.0) * die.width(), die.yl),
            1 => (die.xh, die.yl + (t - 1.0) * die.height()),
            2 => (die.xh - (t - 2.0) * die.width(), die.yh),
            _ => (die.xl, die.yh - (t - 3.0) * die.height()),
        };
        placement.x[idx] = x;
        placement.y[idx] = y;
    }
    // movable cells: die center with jitter (the ePlace initial state)
    let c = die.center();
    let jitter = 0.02 * side;
    for i in 0..spec.movable {
        placement.x[i] = c.x + rng.gen_range(-jitter..=jitter);
        placement.y[i] = c.y + rng.gen_range(-jitter..=jitter);
    }

    // --- nets -----------------------------------------------------------------
    // geometric degree distribution with mean = pins/nets
    let ratio = (spec.pins as f64 / spec.nets.max(1) as f64).max(2.05);
    let p_geom = 1.0 / (ratio - 1.0); // mean of 2 + Geom(p) is 2 + (1-p)/p
    let max_degree = spec.movable.clamp(2, 96);
    // locality: a random permutation of movable cells; nets pick pins in a
    // window around a random anchor, mimicking hierarchical clustering
    let mut order: Vec<u32> = (0..spec.movable as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let term_prob = if spec.fixed == 0 {
        0.0
    } else {
        // aim for each fixed cell to appear on ~2 nets
        (2.0 * spec.fixed as f64 / spec.pins.max(1) as f64).min(0.25)
    };
    // hierarchical mode: groups are contiguous slices of the ordering; a
    // net is confined to its anchor's group except for a small cross-group
    // fraction (clusters <= 1 keeps the flat legacy RNG stream bit-exactly)
    let clusters = if spec.movable >= 4 {
        spec.clusters.min(spec.movable / 2)
    } else {
        0
    };
    let mut scratch: Vec<usize> = Vec::new();
    for n in 0..spec.nets {
        let mut degree = 2usize;
        while degree < max_degree && rng.gen::<f64>() > p_geom {
            degree += 1;
        }
        let window = (degree * 24).clamp(32, spec.movable.max(2));
        let anchor = rng.gen_range(0..spec.movable.max(1));
        let (glo, ghi) = if clusters > 1 {
            let g = anchor * clusters / spec.movable.max(1);
            let lo = g * spec.movable / clusters;
            let hi = ((g + 1) * spec.movable / clusters)
                .max(lo + 2)
                .min(order.len());
            (lo.min(hi.saturating_sub(2)), hi)
        } else {
            (0, order.len())
        };
        scratch.clear();
        let mut guard = 0;
        while scratch.len() < degree && guard < degree * 20 {
            guard += 1;
            let cell = if rng.gen::<f64>() < term_prob {
                // a fixed cell (terminal or blockage)
                spec.movable + rng.gen_range(0..spec.fixed)
            } else if clusters > 1 {
                if rng.gen::<f64>() < 0.08 {
                    // cross-group connection
                    order[rng.gen_range(0..order.len())] as usize
                } else {
                    let lo = anchor
                        .saturating_sub(window / 2)
                        .clamp(glo, ghi.saturating_sub(1));
                    let hi = (lo + window).min(ghi);
                    order[rng.gen_range(lo..hi)] as usize
                }
            } else if rng.gen::<f64>() < 0.1 {
                // long-range connection
                order[rng.gen_range(0..order.len())] as usize
            } else {
                let lo = anchor.saturating_sub(window / 2);
                let hi = (lo + window).min(order.len());
                order[rng.gen_range(lo..hi)] as usize
            };
            if !scratch.contains(&cell) {
                scratch.push(cell);
            }
        }
        if scratch.len() < 2 {
            // degenerate fallback: connect two distinct random cells
            scratch.clear();
            scratch.push(rng.gen_range(0..total_cells.max(2)));
            let mut other = rng.gen_range(0..total_cells.max(2));
            while other == scratch[0] {
                other = rng.gen_range(0..total_cells.max(2));
            }
            scratch.push(other);
        }
        let pins: Vec<_> = scratch
            .iter()
            .map(|&cell_idx| {
                let cell = crate::ids::CellId::from_usize(cell_idx);
                // offsets uniform inside the cell box (from center)
                let (w, h) = builder.cell_size(cell);
                let dx = if w > 0.0 {
                    rng.gen_range(-0.5..0.5) * w
                } else {
                    0.0
                };
                let dy = if h > 0.0 {
                    rng.gen_range(-0.5..0.5) * h
                } else {
                    0.0
                };
                (cell, dx, dy)
            })
            .collect();
        builder.add_net(format!("n{n}"), pins);
    }

    let netlist = builder.build();
    let mut design = Design::with_uniform_rows(
        spec.name.clone(),
        netlist,
        die,
        1.0,
        1.0,
        spec.target_density,
    )?;

    // --- fence regions ----------------------------------------------------------
    if spec.regions > 0 {
        let mut region_ids = Vec::with_capacity(spec.regions);
        for (r, &rect) in fence_rects.iter().enumerate() {
            let id = design.add_region(format!("fence{r}"), rect)?;
            region_ids.push(id);
        }
        // assign ~10% of movable standard cells round-robin, capped well
        // below each fence's capacity
        let mut budget: Vec<f64> = fence_rects
            .iter()
            .map(|f| 0.55 * f.area() * spec.target_density)
            .collect();
        let mut assigned = 0usize;
        let target = n_std / 10;
        let mut r = 0usize;
        #[allow(clippy::explicit_counter_loop)] // `assigned` is a budget, not an index
        for i in (0..n_std).step_by(10) {
            if assigned >= target {
                break;
            }
            let cell = crate::ids::CellId::from_usize(i);
            let area = design.netlist.cell_area(cell);
            if budget[r] < area {
                break; // fences full
            }
            budget[r] -= area;
            design.assign_region(cell, Some(region_ids[r]));
            // start region cells inside their fence so even iteration 0 is
            // feasible
            let fence = design.regions[r].rect;
            placement.x[i] = fence.center().x + rng.gen_range(-1.0..1.0);
            placement.y[i] = fence.center().y + rng.gen_range(-1.0..1.0);
            assigned += 1;
            r = (r + 1) % spec.regions;
        }
    }

    Ok(BookshelfCircuit { design, placement })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::total_hpwl;

    #[test]
    fn smoke_counts_match_spec() {
        let spec = smoke_spec();
        let c = generate(&spec);
        let nl = &c.design.netlist;
        assert_eq!(nl.num_movable(), spec.movable);
        assert_eq!(nl.num_fixed(), spec.fixed);
        assert_eq!(nl.num_nets(), spec.nets);
        // pins within 15% of target
        let ratio = nl.num_pins() as f64 / spec.pins as f64;
        assert!((0.85..1.15).contains(&ratio), "pin ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = smoke_spec();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.placement, b.placement);
        assert_eq!(
            total_hpwl(&a.design.netlist, &a.placement),
            total_hpwl(&b.design.netlist, &b.placement)
        );
    }

    #[test]
    fn fixed_cells_inside_die() {
        let c = generate(&smoke_spec());
        let nl = &c.design.netlist;
        for cell in nl.fixed_cells() {
            let r = c.placement.cell_rect(nl, cell);
            assert!(
                c.design.die.contains_rect(&r) || r.area() == 0.0,
                "fixed cell outside die: {r}"
            );
        }
    }

    #[test]
    fn nets_have_degree_at_least_two() {
        let c = generate(&smoke_spec());
        let nl = &c.design.netlist;
        for net in nl.nets() {
            assert!(nl.net_degree(net) >= 2);
        }
    }

    #[test]
    fn net_pins_reference_distinct_cells() {
        let c = generate(&smoke_spec());
        let nl = &c.design.netlist;
        for net in nl.nets() {
            let mut cells: Vec<_> = nl.net_pins(net).map(|p| nl.pin_cell(p)).collect();
            cells.sort();
            cells.dedup();
            assert_eq!(cells.len(), nl.net_degree(net));
        }
    }

    #[test]
    fn utilization_close_to_spec() {
        let spec = smoke_spec();
        let c = generate(&spec);
        let util = c.design.utilization();
        assert!(
            (util - spec.utilization).abs() < 0.15,
            "utilization {util} vs spec {}",
            spec.utilization
        );
    }

    #[test]
    fn suites_have_table1_rows() {
        assert_eq!(ispd2006_suite().len(), 8);
        assert_eq!(ispd2019_suite().len(), 10);
        assert!(spec_by_name("newblue1").is_some());
        assert!(spec_by_name("ispd19_test10").is_some());
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    fn every_builtin_resolves_by_its_unique_name() {
        let all = builtins();
        assert_eq!(all.len(), 8 + 10 + 3 + peko::peko_suite().len());
        let mut names: Vec<&str> = all.iter().map(Builtin::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate names");
        for name in names {
            assert_eq!(
                builtin(name).map(|b| b.name().to_string()),
                Some(name.into())
            );
        }
        assert!(matches!(builtin("smoke_regions"), Some(Builtin::Demo(s)) if s.regions == 2));
        assert!(matches!(builtin("peko_600"), Some(Builtin::Peko(p)) if p.movable == 600));
        assert!(builtin("nope").is_none());
        let groups: Vec<&str> = all.iter().map(Builtin::group).collect();
        for (group, count) in [("ISPD2006", 8), ("ISPD2019", 10), ("demo", 3)] {
            assert_eq!(
                groups.iter().filter(|&&g| g == group).count(),
                count,
                "{group}"
            );
        }
        assert_eq!(
            groups.iter().filter(|&&g| g == "PEKO").count(),
            peko::peko_suite().len()
        );
    }

    #[test]
    fn newblue1_has_movable_macros() {
        let spec = spec_by_name("newblue1").unwrap();
        assert!(spec.movable_macros > 0);
        let c = generate(&spec);
        let nl = &c.design.netlist;
        let macros = nl
            .movable_cells()
            .filter(|&c| nl.cell_height(c) > 1.0)
            .count();
        assert_eq!(macros, spec.movable_macros);
    }

    #[test]
    fn clustered_mode_is_deterministic_and_matches_counts() {
        let spec = smoke_clustered_spec();
        assert!(spec.clusters > 1);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.placement, b.placement);
        let nl = &a.design.netlist;
        assert_eq!(nl.num_movable(), spec.movable);
        assert_eq!(nl.num_nets(), spec.nets);
        for net in nl.nets() {
            assert!(nl.net_degree(net) >= 2);
        }
    }

    #[test]
    fn clustered_mode_changes_topology_and_supports_two_level_coarsening() {
        // same counts as the flat smoke circuit, different net structure
        // (the hierarchical branch must actually fire), and the resulting
        // workload must coarsen well twice in a row — the property the
        // multilevel driver depends on
        let flat = generate(&smoke_spec());
        let clustered = generate(&smoke_clustered_spec());
        let fp: Vec<_> = flat
            .design
            .netlist
            .pins()
            .map(|p| flat.design.netlist.pin_cell(p))
            .collect();
        let cp: Vec<_> = clustered
            .design
            .netlist
            .pins()
            .map(|p| clustered.design.netlist.pin_cell(p))
            .collect();
        assert_ne!(fp, cp, "clustered mode produced the flat topology");
        let l1 = crate::cluster::coarsen(&clustered.design, &clustered.placement).unwrap();
        let l2 = crate::cluster::coarsen(&l1.design, &l1.placement).unwrap();
        let fine = clustered.design.netlist.num_movable() as f64;
        assert!(
            (l2.stats.coarse_movable as f64) < 0.45 * fine,
            "two coarsening levels only reached {} of {} movable",
            l2.stats.coarse_movable,
            fine
        );
    }

    #[test]
    fn scaled_clustered_spec_scales() {
        let spec = scaled_clustered_spec(10_000, 7);
        assert_eq!(spec.movable, 10_000);
        assert!(spec.clusters >= 8);
        let c = generate(&spec);
        assert_eq!(c.design.netlist.num_movable(), 10_000);
    }

    #[test]
    fn degree_mean_tracks_pin_ratio() {
        let spec = spec_by_name("ispd19_test5").unwrap();
        let c = generate(&spec);
        let nl = &c.design.netlist;
        let mean = nl.num_pins() as f64 / nl.num_nets() as f64;
        let want = spec.pins as f64 / spec.nets as f64;
        assert!((mean - want).abs() / want < 0.15, "mean {mean} want {want}");
    }
}
