//! Quadratic (Bound2Bound) wirelength-driven placement — the *other*
//! category of analytical placers the paper's introduction surveys
//! (Kraftwerk2 \[7\], SimPL-style flows \[3\]).
//!
//! The B2B net model \[7, 14\] replaces each net, per axis, with two-pin
//! connections between the boundary pins `b` (max) and `b'` (min) and
//! every other pin, weighted `w = 1/((p−1)·|Δ|)` at the linearization
//! point, so the quadratic form equals exact HPWL there. Minimizing the
//! resulting strictly convex quadratic (fixed pins anchor the system)
//! and re-linearizing a few times is the classic quadratic placement
//! iteration.
//!
//! Used here as (a) the paper-adjacent baseline, (b) the **lower-bound
//! engine** of the LB/UB multilevel flow ([`crate::flow`]): the quadratic
//! solve ignores density and therefore lower-bounds the achievable
//! wirelength, while the guarded Moreau/density loop provides the
//! spread-out upper bound. [`place_b2b_anchored`] adds Coloquinte-style
//! pseudo-net anchors that pull each movable cell toward the last
//! upper-bound solution with a growing force factor, and (c) the home of a
//! small matrix-free Jacobi-preconditioned conjugate-gradient solver for
//! the SPD Laplacian systems.
//!
//! All entry points return typed [`PlacerError`]s on degenerate inputs
//! (fully-fixed designs, netlists whose multi-pin nets touch no movable
//! cell) instead of silently returning the input placement unchanged.

use crate::error::PlacerError;
use mep_netlist::bookshelf::BookshelfCircuit;
use mep_netlist::{Netlist, Placement};

/// Sparse SPD system `A x = b` in CSR-ish adjacency form:
/// `A = diag + Σ_edges w (e_i − e_j)(e_i − e_j)ᵀ` over movable indices.
#[derive(Debug, Clone, Default)]
struct LaplacianSystem {
    /// Diagonal (degree + anchor weights).
    diag: Vec<f64>,
    /// Off-diagonal entries per row: `(col, −w)` pairs, built as triplets.
    offdiag: Vec<Vec<(u32, f64)>>,
    /// Right-hand side.
    rhs: Vec<f64>,
}

impl LaplacianSystem {
    fn new(n: usize) -> Self {
        Self {
            diag: vec![0.0; n],
            offdiag: vec![Vec::new(); n],
            rhs: vec![0.0; n],
        }
    }

    /// Adds `w(x_i − x_j + d)²` between two movable rows.
    fn add_edge(&mut self, i: usize, j: usize, w: f64, d: f64) {
        self.diag[i] += w;
        self.diag[j] += w;
        self.offdiag[i].push((j as u32, w));
        self.offdiag[j].push((i as u32, w));
        self.rhs[i] -= w * d;
        self.rhs[j] += w * d;
    }

    /// Adds `w(x_i − c)²` anchoring a movable row to a constant.
    fn add_anchor(&mut self, i: usize, w: f64, c: f64) {
        self.diag[i] += w;
        self.rhs[i] += w * c;
    }

    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..x.len() {
            let mut acc = self.diag[i] * x[i];
            for &(j, w) in &self.offdiag[i] {
                acc -= w * x[j as usize];
            }
            y[i] = acc;
        }
    }

    /// Solves `A x = rhs` by Jacobi-preconditioned CG from `x0`.
    fn solve_cg(&self, x: &mut [f64], max_iters: usize, tol: f64) -> usize {
        let n = x.len();
        if n == 0 {
            return 0;
        }
        let mut r = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut ap = vec![0.0; n];
        self.apply(x, &mut r);
        for i in 0..n {
            r[i] = self.rhs[i] - r[i];
        }
        let precond = |r: &[f64], z: &mut [f64], diag: &[f64]| {
            for i in 0..r.len() {
                z[i] = r[i] / diag[i].max(1e-30);
            }
        };
        precond(&r, &mut z, &self.diag);
        p.copy_from_slice(&z);
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let rhs_norm: f64 = self
            .rhs
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(1e-30);
        for it in 0..max_iters {
            let rn: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if rn <= tol * rhs_norm {
                return it;
            }
            self.apply(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap <= 0.0 {
                return it; // numerically singular; bail with best iterate
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            precond(&r, &mut z, &self.diag);
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz.max(1e-300);
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        max_iters
    }
}

/// Configuration for the B2B quadratic placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct B2bConfig {
    /// Re-linearization (reweighting) rounds.
    pub rounds: usize,
    /// CG iteration cap per solve.
    pub cg_iters: usize,
    /// CG relative-residual tolerance.
    pub cg_tol: f64,
}

impl Default for B2bConfig {
    fn default() -> Self {
        Self {
            rounds: 8,
            cg_iters: 300,
            cg_tol: 1e-8,
        }
    }
}

/// Exact B2B net-model value of one axis at the linearization point —
/// equals the net span (used by tests and as a sanity invariant).
pub fn b2b_axis_value(coords: &[f64], min_gap: f64) -> f64 {
    let p = coords.len();
    if p < 2 {
        return 0.0;
    }
    let (bi, lo) = coords
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    let (ti, hi) = coords
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    let w = |a: f64, b: f64| {
        let gap = (a - b).abs().max(min_gap);
        1.0 / ((p - 1) as f64 * gap)
    };
    let mut total = w(*hi, *lo) * (hi - lo) * (hi - lo);
    for (i, &x) in coords.iter().enumerate() {
        if i == bi || i == ti {
            continue;
        }
        total += w(*hi, x) * (hi - x) * (hi - x);
        total += w(x, *lo) * (x - lo) * (x - lo);
    }
    total
}

/// Minimum |Δ| used in B2B weights (avoids 1/0 on coincident pins).
const MIN_GAP: f64 = 1e-3;

/// One axis of the B2B system build: adds every net's bound-to-bound
/// connections to the Laplacian. `coord_of(cell)` reads the *pin-relevant*
/// coordinate (center + offset handled by the caller through offsets).
fn build_axis(
    netlist: &Netlist,
    positions: &[f64], // pin coordinate per pin
    movable_index: &[Option<u32>],
    pin_offset: impl Fn(mep_netlist::PinId) -> f64,
    system: &mut LaplacianSystem,
) {
    for net in netlist.nets() {
        let range = netlist.net_pin_range(net);
        let p = range.len();
        if p < 2 {
            continue;
        }
        let weight_scale = netlist.net_weight(net);
        // boundary pins at the current linearization point
        let (mut bi, mut ti) = (range.start, range.start);
        for k in range.clone() {
            if positions[k] < positions[bi] {
                bi = k;
            }
            if positions[k] > positions[ti] {
                ti = k;
            }
        }
        let connect = |a: usize, b: usize, system: &mut LaplacianSystem| {
            if a == b {
                return;
            }
            let gap = (positions[a] - positions[b]).abs().max(MIN_GAP);
            let w = weight_scale / ((p - 1) as f64 * gap);
            let pa = mep_netlist::PinId::from_usize(a);
            let pb = mep_netlist::PinId::from_usize(b);
            let ca = netlist.pin_cell(pa);
            let cb = netlist.pin_cell(pb);
            let (oa, ob) = (pin_offset(pa), pin_offset(pb));
            match (movable_index[ca.index()], movable_index[cb.index()]) {
                (Some(i), Some(j)) => {
                    if i != j {
                        system.add_edge(i as usize, j as usize, w, oa - ob);
                    }
                }
                (Some(i), None) => {
                    // x_i + oa ≈ positions[b] ⇒ anchor at positions[b] − oa
                    system.add_anchor(i as usize, w, positions[b] - oa);
                }
                (None, Some(j)) => {
                    system.add_anchor(j as usize, w, positions[a] - ob);
                }
                (None, None) => {}
            }
        };
        connect(ti, bi, system);
        for k in range {
            if k != bi && k != ti {
                connect(ti, k, system);
                connect(k, bi, system);
            }
        }
    }
}

/// Report of a quadratic placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct B2bReport {
    /// HPWL after the final round.
    pub hpwl: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// Total CG iterations spent (both axes).
    pub cg_iterations: usize,
}

/// Pseudo-net anchors pulling every movable cell toward a target
/// placement — the mechanism that couples the quadratic lower bound to
/// the density-aware upper bound in the LB/UB alternation (SimPL \[3\],
/// Coloquinte). Each movable cell `i` gets an anchor of weight
/// `force_factor · area_i / mean_movable_area` on both axes, so bigger
/// cells are pulled proportionally harder and the factor is dimensionless
/// across designs. The driver grows `force_factor` geometrically per
/// round to converge the two bounds.
#[derive(Debug, Clone, Copy)]
pub struct AnchorSet<'a> {
    /// Placement to pull toward (lower-left coordinates, same indexing as
    /// the circuit's netlist).
    pub target: &'a Placement,
    /// Dimensionless anchor strength; `0.0` disables the pull.
    pub force_factor: f64,
}

/// Runs iterative B2B quadratic placement (wirelength only, no density —
/// the classic lower-bound placement that overlaps freely). Returns the
/// placement and a report.
///
/// # Errors
/// [`PlacerError::DegenerateInput`] when the design has no movable cells
/// or when no net can constrain a movable cell (e.g. only single-pin
/// nets), instead of silently returning the input unchanged.
pub fn place_b2b(
    circuit: &BookshelfCircuit,
    config: &B2bConfig,
) -> Result<(Placement, B2bReport), PlacerError> {
    place_b2b_anchored(circuit, config, None)
}

/// [`place_b2b`] with optional pseudo-net anchors toward a target
/// placement (the LB half of the LB/UB alternation). With
/// `anchors: None` this is exactly the plain B2B solve.
///
/// # Errors
/// Same degenerate-input contract as [`place_b2b`]; additionally rejects
/// an anchor target whose length does not match the netlist.
pub fn place_b2b_anchored(
    circuit: &BookshelfCircuit,
    config: &B2bConfig,
    anchors: Option<AnchorSet<'_>>,
) -> Result<(Placement, B2bReport), PlacerError> {
    let netlist = &circuit.design.netlist;
    let mut placement = circuit.placement.clone();
    let movable: Vec<mep_netlist::CellId> = netlist.movable_cells().collect();
    let mut movable_index = vec![None; netlist.num_cells()];
    for (i, &c) in movable.iter().enumerate() {
        movable_index[c.index()] = Some(i as u32);
    }
    let m = movable.len();
    if m == 0 {
        return Err(PlacerError::DegenerateInput {
            reason: "quadratic placement on a fully fixed design: no movable cells".to_string(),
        });
    }
    // At least one net must be able to exert force on a movable cell:
    // ≥2 pins (single-pin nets contribute no B2B edges), positive weight,
    // and at least one pin on a movable cell. Otherwise the system is all
    // zero rows and the "solution" would just echo the input placement.
    let constrains_movable = netlist.nets().any(|net| {
        netlist.net_degree(net) >= 2
            && netlist.net_weight(net) > 0.0
            && netlist
                .net_pins(net)
                .any(|p| netlist.is_movable(netlist.pin_cell(p)))
    });
    if !constrains_movable {
        return Err(PlacerError::DegenerateInput {
            reason: "no net constrains a movable cell (only single-pin, zero-weight, or \
                     fixed-only nets): quadratic system has no wirelength term"
                .to_string(),
        });
    }
    if let Some(a) = anchors {
        if a.target.len() != netlist.num_cells() {
            return Err(PlacerError::DegenerateInput {
                reason: format!(
                    "anchor target has {} cells but netlist has {}",
                    a.target.len(),
                    netlist.num_cells()
                ),
            });
        }
    }
    // Per-cell anchor weights: force_factor scaled by relative area so the
    // pull is uniform in *displacement force density* across cell sizes.
    let anchor_weights: Vec<f64> = match anchors {
        Some(a) if a.force_factor > 0.0 => {
            let mean_area = movable.iter().map(|&c| netlist.cell_area(c)).sum::<f64>() / m as f64;
            movable
                .iter()
                .map(|&c| {
                    if mean_area > 0.0 {
                        a.force_factor * netlist.cell_area(c) / mean_area
                    } else {
                        a.force_factor
                    }
                })
                .collect()
        }
        _ => Vec::new(),
    };
    let die = circuit.design.die;
    let has_fixed_pins = netlist
        .fixed_cells()
        .any(|c| !netlist.cell_pins(c).is_empty());

    let mut cg_total = 0;
    let mut rounds = 0;
    for _round in 0..config.rounds {
        rounds += 1;
        for axis in 0..2 {
            // pin coordinates at the current placement
            let positions: Vec<f64> = netlist
                .pins()
                .map(|p| {
                    let pos = placement.pin_position(netlist, p);
                    if axis == 0 {
                        pos.x
                    } else {
                        pos.y
                    }
                })
                .collect();
            let mut system = LaplacianSystem::new(m);
            {
                let offset = |p: mep_netlist::PinId| {
                    let cell = netlist.pin_cell(p);
                    if axis == 0 {
                        0.5 * netlist.cell_width(cell) + netlist.pin_offset_x(p)
                    } else {
                        0.5 * netlist.cell_height(cell) + netlist.pin_offset_y(p)
                    }
                };
                build_axis(netlist, &positions, &movable_index, offset, &mut system);
            }
            if !has_fixed_pins && anchor_weights.is_empty() {
                // degenerate free-floating system: weak anchor to the die
                // center keeps it SPD (ispd19_test1 has zero fixed cells)
                const CENTER_ANCHOR: f64 = 1e-6;
                let center = if axis == 0 {
                    die.center().x
                } else {
                    die.center().y
                };
                for i in 0..m {
                    system.add_anchor(i, CENTER_ANCHOR, center);
                }
            }
            if let Some(a) = anchors {
                if !anchor_weights.is_empty() {
                    // pseudo-net pull toward the target placement
                    // (lower-left coordinates, matching the unknowns)
                    for (i, &c) in movable.iter().enumerate() {
                        let tc = if axis == 0 {
                            a.target.x[c.index()]
                        } else {
                            a.target.y[c.index()]
                        };
                        system.add_anchor(i, anchor_weights[i], tc);
                    }
                }
            }
            // unknowns are lower-left coordinates of movable cells
            let mut x: Vec<f64> = movable
                .iter()
                .map(|&c| {
                    if axis == 0 {
                        placement.x[c.index()]
                    } else {
                        placement.y[c.index()]
                    }
                })
                .collect();
            cg_total += system.solve_cg(&mut x, config.cg_iters, config.cg_tol);
            for (i, &c) in movable.iter().enumerate() {
                if axis == 0 {
                    placement.x[c.index()] = x[i].clamp(die.xl, die.xh - netlist.cell_width(c));
                } else {
                    placement.y[c.index()] = x[i].clamp(die.yl, die.yh - netlist.cell_height(c));
                }
            }
        }
    }
    let hpwl = mep_netlist::total_hpwl(netlist, &placement);
    Ok((
        placement,
        B2bReport {
            hpwl,
            rounds,
            cg_iterations: cg_total,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::{synth, NetlistBuilder, Rect};

    #[test]
    fn b2b_value_equals_hpwl_at_linearization_point() {
        // the defining property of the B2B model (Kraftwerk2)
        for coords in [
            vec![0.0, 10.0],
            vec![0.0, 3.0, 10.0],
            vec![1.0, 2.0, 5.0, 9.0, 9.5],
            vec![-4.0, 0.0, 4.0, 8.0, 12.0, 16.0],
        ] {
            let span = coords.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - coords.iter().cloned().fold(f64::INFINITY, f64::min);
            let v = b2b_axis_value(&coords, 1e-9);
            assert!((v - span).abs() < 1e-9, "{coords:?}: {v} vs {span}");
        }
    }

    #[test]
    fn cg_solves_small_spd_system() {
        // 3 unknowns in a chain anchored at both ends:
        // minimize (x0-0)² + (x0-x1)² + (x1-x2)² + (x2-4)²
        let mut sys = LaplacianSystem::new(3);
        sys.add_anchor(0, 1.0, 0.0);
        sys.add_edge(0, 1, 1.0, 0.0);
        sys.add_edge(1, 2, 1.0, 0.0);
        sys.add_anchor(2, 1.0, 4.0);
        let mut x = vec![0.0; 3];
        let iters = sys.solve_cg(&mut x, 100, 1e-12);
        assert!(iters <= 10);
        assert!((x[0] - 1.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-8);
        assert!((x[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn edge_offsets_shift_solution() {
        // single movable connected to an anchor with constant offset d:
        // minimize (x - 5)² with pin offset folded into rhs
        let mut sys = LaplacianSystem::new(2);
        sys.add_anchor(0, 1.0, 5.0);
        sys.add_edge(0, 1, 2.0, 1.5); // (x0 - x1 + 1.5)²
        let mut x = vec![0.0; 2];
        sys.solve_cg(&mut x, 200, 1e-12);
        // optimality: x0 = 5 - ... solve analytically: d/dx0: (x0-5) + 2(x0-x1+1.5)=0;
        // d/dx1: -2(x0-x1+1.5)=0 ⇒ x1 = x0+1.5, then x0 = 5
        assert!((x[0] - 5.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 6.5).abs() < 1e-8);
    }

    #[test]
    fn chain_between_fixed_anchors_spreads_monotonically() {
        let mut b = NetlistBuilder::new();
        let left = b.add_cell("l", 0.0, 0.0, false).unwrap();
        let right = b.add_cell("r", 0.0, 0.0, false).unwrap();
        let mids: Vec<_> = (0..5)
            .map(|i| b.add_cell(format!("m{i}"), 0.0, 1.0, true).unwrap())
            .collect();
        let mut chain = vec![left];
        chain.extend(&mids);
        chain.push(right);
        for w in chain.windows(2) {
            b.add_net(
                format!("e{}", w[0].index()),
                vec![(w[0], 0.0, 0.0), (w[1], 0.0, 0.0)],
            );
        }
        let nl = b.build();
        let design = mep_netlist::Design::with_uniform_rows(
            "chain",
            nl,
            Rect::new(0.0, 0.0, 24.0, 4.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        let mut pl = Placement::zeros(design.netlist.num_cells());
        pl.x[left.index()] = 0.0;
        pl.x[right.index()] = 24.0;
        for &mcell in &mids {
            pl.x[mcell.index()] = 12.0; // all piled mid-die
            pl.y[mcell.index()] = 1.0;
        }
        let circuit = BookshelfCircuit {
            design,
            placement: pl,
        };
        let (solved, report) = place_b2b(&circuit, &B2bConfig::default()).expect("valid chain");
        // monotone spread between anchors
        let xs: Vec<f64> = mids.iter().map(|&c| solved.x[c.index()]).collect();
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "not monotone: {xs:?}");
        }
        assert!(xs[0] > 0.0 && *xs.last().unwrap() < 24.0);
        assert!(report.hpwl <= 25.0, "chain HPWL {}", report.hpwl);
    }

    #[test]
    fn b2b_reduces_hpwl_on_synthetic_circuit() {
        let c = synth::generate(&synth::smoke_spec());
        // scatter cells randomly (deterministically) so there is slack
        let mut scattered = c.clone();
        for (i, v) in scattered.placement.x.iter_mut().enumerate() {
            if c.design
                .netlist
                .is_movable(mep_netlist::CellId::from_usize(i))
            {
                *v = (i as f64 * 0.61).fract() * c.design.die.width();
            }
        }
        let before = mep_netlist::total_hpwl(&c.design.netlist, &scattered.placement);
        let (solved, report) = place_b2b(&scattered, &B2bConfig::default()).expect("valid synth");
        let after = mep_netlist::total_hpwl(&c.design.netlist, &solved);
        assert!(
            after < 0.7 * before,
            "B2B barely helped: {before} → {after}"
        );
        assert!(report.cg_iterations > 0);
    }

    #[test]
    fn quadratic_init_is_a_usable_gp_start() {
        // run GP from the B2B solution and confirm the flow still works
        use crate::global::{place, GlobalConfig};
        let c = synth::generate(&synth::smoke_spec());
        let (qp, _) = place_b2b(&c, &B2bConfig::default()).expect("valid synth");
        let warm = BookshelfCircuit {
            design: c.design.clone(),
            placement: qp,
        };
        let cfg = GlobalConfig {
            max_iters: 200,
            ..GlobalConfig::default()
        };
        let r = place(&warm, &cfg).expect("placement flow");
        assert!(r.overflow < 0.6);
        assert!(r.hpwl.is_finite());
    }

    /// Builds a tiny circuit from a closure over the builder; fixed die.
    fn tiny_circuit(build: impl FnOnce(&mut NetlistBuilder)) -> BookshelfCircuit {
        let mut b = NetlistBuilder::new();
        build(&mut b);
        let nl = b.build();
        let n = nl.num_cells();
        let design = mep_netlist::Design::with_uniform_rows(
            "tiny",
            nl,
            Rect::new(0.0, 0.0, 16.0, 4.0),
            1.0,
            1.0,
            1.0,
        )
        .unwrap();
        BookshelfCircuit {
            design,
            placement: Placement::zeros(n),
        }
    }

    #[test]
    fn fully_fixed_design_is_a_typed_error() {
        let c = tiny_circuit(|b| {
            let a = b.add_cell("a", 0.0, 0.0, false).unwrap();
            let z = b.add_cell("z", 4.0, 0.0, false).unwrap();
            b.add_net("n0", vec![(a, 0.0, 0.0), (z, 0.0, 0.0)]);
        });
        let err = place_b2b(&c, &B2bConfig::default()).unwrap_err();
        match err {
            PlacerError::DegenerateInput { reason } => {
                assert!(reason.contains("no movable cells"), "{reason}")
            }
            other => panic!("expected DegenerateInput, got {other}"),
        }
    }

    #[test]
    fn single_pin_nets_only_is_a_typed_error() {
        // movable cells exist, but every net has one pin: the quadratic
        // system has no wirelength term and must not silently return the
        // input placement unchanged.
        let c = tiny_circuit(|b| {
            let a = b.add_cell("a", 0.0, 1.0, true).unwrap();
            let z = b.add_cell("z", 4.0, 1.0, true).unwrap();
            b.add_net("n0", vec![(a, 0.0, 0.0)]);
            b.add_net("n1", vec![(z, 0.0, 0.0)]);
        });
        let err = place_b2b(&c, &B2bConfig::default()).unwrap_err();
        match err {
            PlacerError::DegenerateInput { reason } => {
                assert!(
                    reason.contains("no net constrains a movable cell"),
                    "{reason}"
                )
            }
            other => panic!("expected DegenerateInput, got {other}"),
        }
    }

    #[test]
    fn anchor_target_length_mismatch_is_a_typed_error() {
        let c = synth::generate(&synth::smoke_spec());
        let bad = Placement::zeros(3);
        let err = place_b2b_anchored(
            &c,
            &B2bConfig::default(),
            Some(AnchorSet {
                target: &bad,
                force_factor: 0.1,
            }),
        )
        .unwrap_err();
        assert!(matches!(err, PlacerError::DegenerateInput { .. }), "{err}");
    }

    #[test]
    fn strong_anchors_pull_solution_toward_target() {
        // one movable cell on a net to a fixed pin at x=0; the wirelength
        // optimum is x=0, but a strong anchor at x=10 must win, and a
        // stronger anchor must land closer to the target than a weak one.
        let c = tiny_circuit(|b| {
            let f = b.add_cell("f", 0.0, 0.0, false).unwrap();
            let m = b.add_cell("m", 1.0, 1.0, true).unwrap();
            b.add_net("n0", vec![(f, 0.0, 0.0), (m, 0.0, 0.0)]);
        });
        let mut target = Placement::zeros(c.design.netlist.num_cells());
        target.x[1] = 10.0;
        target.y[1] = 2.0;
        let solve = |force: f64| {
            let (pl, _) = place_b2b_anchored(
                &c,
                &B2bConfig::default(),
                Some(AnchorSet {
                    target: &target,
                    force_factor: force,
                }),
            )
            .expect("valid anchored solve");
            pl.x[1]
        };
        let free = place_b2b(&c, &B2bConfig::default()).expect("valid").0.x[1];
        let weak = solve(0.5);
        let strong = solve(50.0);
        assert!(free < 0.5, "free optimum should hug the fixed pin: {free}");
        assert!(weak > free + 1.0, "anchor must pull toward target: {weak}");
        assert!(
            strong > weak && strong > 9.0,
            "stronger anchor must dominate: weak={weak} strong={strong}"
        );
    }

    #[test]
    fn zero_force_anchored_equals_plain_b2b() {
        let c = synth::generate(&synth::smoke_spec());
        let target = Placement::zeros(c.design.netlist.num_cells());
        let (plain, _) = place_b2b(&c, &B2bConfig::default()).expect("valid");
        let (anchored, _) = place_b2b_anchored(
            &c,
            &B2bConfig::default(),
            Some(AnchorSet {
                target: &target,
                force_factor: 0.0,
            }),
        )
        .expect("valid");
        assert_eq!(plain.x, anchored.x, "zero force must be bit-identical");
        assert_eq!(plain.y, anchored.y);
    }
}
