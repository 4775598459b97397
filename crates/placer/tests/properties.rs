//! Property-based tests for legalization and detailed placement on
//! randomized small designs: the output is always legal, and refinement
//! never increases HPWL.

use mep_netlist::{CellId, Design, NetlistBuilder, Placement, Rect, Row};
use mep_placer::detail::{refine, DetailConfig};
use mep_placer::legalize::{audit_legality, check_legal, legalize};
use proptest::prelude::*;

/// A random placement problem: cells with random widths scattered over a
/// die (possibly overlapping — exactly what GP hands the legalizer), with
/// some simple nets for the detailed placer to chew on.
#[derive(Debug, Clone)]
struct Scenario {
    widths: Vec<u8>,
    positions: Vec<(f64, f64)>,
    nets: Vec<Vec<usize>>,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (4usize..40).prop_flat_map(|n| {
        let widths = prop::collection::vec(1u8..4, n);
        let positions = prop::collection::vec((0.0f64..28.0, 0.0f64..14.0), n);
        let nets = prop::collection::vec(prop::collection::btree_set(0..n, 2..n.min(5)), 1..10);
        (widths, positions, nets).prop_map(|(widths, positions, nets)| Scenario {
            widths,
            positions,
            nets: nets.into_iter().map(|s| s.into_iter().collect()).collect(),
        })
    })
}

fn build(s: &Scenario) -> (Design, Placement) {
    let mut b = NetlistBuilder::new();
    for (i, &w) in s.widths.iter().enumerate() {
        b.add_cell(format!("c{i}"), w as f64, 1.0, true)
            .expect("unique");
    }
    for (k, net) in s.nets.iter().enumerate() {
        b.add_net(
            format!("n{k}"),
            net.iter()
                .map(|&i| (mep_netlist::CellId::from_usize(i), 0.0, 0.0)),
        );
    }
    let nl = b.build();
    // die with generous slack so legalization always succeeds
    let design =
        Design::with_uniform_rows("prop", nl, Rect::new(0.0, 0.0, 32.0, 16.0), 1.0, 1.0, 1.0)
            .expect("valid design");
    let mut pl = Placement::zeros(design.netlist.num_cells());
    for (i, &(x, y)) in s.positions.iter().enumerate() {
        pl.x[i] = x;
        pl.y[i] = y;
    }
    (design, pl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Legalization always produces a legal placement from arbitrary
    /// (overlapping) input.
    #[test]
    fn legalize_always_legal(s in scenarios()) {
        let (design, gp) = build(&s);
        let (legal, report) = legalize(&design, &gp).expect("legalize");
        let violations = check_legal(&design, &legal);
        prop_assert!(
            violations.is_empty(),
            "violations: {:?} (report {report:?})",
            &violations[..violations.len().min(4)]
        );
    }

    /// Legalization is idempotent in quality: legalizing a legal placement
    /// moves nothing (every cell already sits on a feasible spot).
    #[test]
    fn legalize_is_idempotent(s in scenarios()) {
        let (design, gp) = build(&s);
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        let (again, report) = legalize(&design, &legal).expect("legalize");
        prop_assert!(check_legal(&design, &again).is_empty());
        // the second pass must not move cells materially
        prop_assert!(
            report.avg_displacement < 1e-6,
            "re-legalization moved cells by {}",
            report.avg_displacement
        );
        let _ = again;
    }

    /// High-utilization stress: random unit-width cells filling 80–100%
    /// of a small die, scattered arbitrarily (heavy pile-ups fill whole
    /// rows and run out of room). Every *successful* legalization must be
    /// pairwise overlap-free, in-die, and row/site aligned — measured with
    /// the same audit helper the PEKO harness uses; an over-capacity input
    /// must surface as a typed error, never a panic or an illegal
    /// "success".
    #[test]
    fn high_utilization_legalize_is_audit_clean(
        n in 40usize..81,
        positions in prop::collection::vec((0.0f64..10.0, 0.0f64..8.0), 80),
        seed in 0u64..1024,
    ) {
        // die of 8 rows x 10 sites = 80 unit sites; n cells => 50-100%
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            b.add_cell(format!("c{i}"), 1.0, 1.0, true).expect("unique");
        }
        // a few nets so the workload is not degenerate
        for k in 0..4usize {
            let a = (seed as usize + k) % n;
            let c = (seed as usize + 3 * k + 1) % n;
            if a != c {
                b.add_net(
                    format!("n{k}"),
                    [
                        (mep_netlist::CellId::from_usize(a), 0.0, 0.0),
                        (mep_netlist::CellId::from_usize(c), 0.0, 0.0),
                    ],
                );
            }
        }
        let nl = b.build();
        let design = Design::with_uniform_rows(
            "dense", nl, Rect::new(0.0, 0.0, 10.0, 8.0), 1.0, 1.0, 1.0,
        ).expect("valid design");
        let mut gp = Placement::zeros(n);
        for (i, &(px, py)) in positions.iter().enumerate().take(n) {
            gp.x[i] = px;
            gp.y[i] = py;
        }
        match legalize(&design, &gp) {
            Ok((legal, report)) => {
                let audit = audit_legality(&design, &legal);
                prop_assert!(
                    audit.is_clean(),
                    "audit {audit} at utilization {:.2} (report {report:?})",
                    n as f64 / 80.0
                );
            }
            Err(e) => {
                // capacity can genuinely run out at 100% utilization;
                // the contract is a typed error, not a panic
                prop_assert!(
                    matches!(e, mep_placer::PlacerError::Legalize { .. }),
                    "unexpected error kind: {e}"
                );
            }
        }
    }

    /// Off the integer lattice: rows whose origin is half a site, 1- and
    /// 2-unit sites, fixed obstacles with quarter-unit edges and one fence
    /// with quarter-unit sides and half-row ends, over cells of half-unit
    /// widths, one in five fenced. Every `Ok` is legal, `OffSite` and
    /// `OutsideRegion` included; running out of whole sites is a typed
    /// `Legalize` error.
    #[test]
    fn off_lattice_legalize_is_legal_or_a_typed_error(
        site in 1u8..3,
        obstacles in prop::collection::vec((0u8..120, 1u8..16, 0u8..15, 1u8..5), 0..8),
        fence in (0u8..64, 32u8..57, 0u8..8, 4u8..10),
        cells in prop::collection::vec(
            (1u8..7, 0.0f64..32.0, 0.0f64..8.0, prop::bool::weighted(0.2)),
            10..60,
        ),
    ) {
        let sw = f64::from(site);
        let mut b = NetlistBuilder::new();
        let quarter = |q: u8| f64::from(q) / 4.0;
        let half = |h: u8| f64::from(h) / 2.0;
        for (i, &(_, w, _, h)) in obstacles.iter().enumerate() {
            b.add_cell(format!("o{i}"), quarter(w), half(h), false).expect("unique");
        }
        let movable: Vec<CellId> = cells
            .iter()
            .enumerate()
            .map(|(i, &(w, ..))| {
                b.add_cell(format!("c{i}"), half(w), 1.0, true).expect("unique")
            })
            .collect();
        let die = Rect::new(0.0, 0.0, 32.0, 8.0);
        let sites = ((die.xh - 0.5 * sw) / sw).floor();
        let rows = (0..8)
            .map(|r| Row {
                y: f64::from(r),
                height: 1.0,
                xl: 0.5 * sw,
                xh: 0.5 * sw + sites * sw,
                site_width: sw,
            })
            .collect();
        let mut design =
            Design::new("off_lattice", b.build(), die, rows, 1.0).expect("valid design");
        let (fx, fw, fy, fh) = fence;
        let (fxl, fyl) = (quarter(fx), half(fy));
        let fence = Rect::new(fxl, fyl, fxl + quarter(fw), (fyl + half(fh)).min(die.yh));
        let region = design.add_region("fence", fence).expect("inside the die");
        let mut gp = Placement::zeros(design.netlist.num_cells());
        for (i, &(x, _, y, _)) in obstacles.iter().enumerate() {
            (gp.x[i], gp.y[i]) = (quarter(x), half(y));
        }
        for (&cell, &(_, x, y, fenced)) in movable.iter().zip(&cells) {
            (gp.x[cell.index()], gp.y[cell.index()]) = (x, y);
            if fenced {
                design.assign_region(cell, Some(region));
            }
        }
        match legalize(&design, &gp) {
            Ok((legal, report)) => {
                let violations = check_legal(&design, &legal);
                prop_assert!(
                    violations.is_empty(),
                    "violations: {:?} (report {report:?})",
                    &violations[..violations.len().min(4)]
                );
            }
            Err(e) => prop_assert!(
                matches!(e, mep_placer::PlacerError::Legalize { .. }),
                "unexpected error kind: {e}"
            ),
        }
    }

    /// Detailed placement never increases HPWL and preserves legality.
    #[test]
    fn refine_monotone_and_legal(s in scenarios()) {
        let (design, gp) = build(&s);
        let (legal, _) = legalize(&design, &gp).expect("legalize");
        let before = mep_netlist::total_hpwl(&design.netlist, &legal);
        let mut refined = legal;
        let report = refine(&design, &mut refined, &DetailConfig::default());
        let after = mep_netlist::total_hpwl(&design.netlist, &refined);
        prop_assert!(after <= before + 1e-9, "{before} → {after} ({report:?})");
        prop_assert!(check_legal(&design, &refined).is_empty());
    }
}
