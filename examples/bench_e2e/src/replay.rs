//! Layer replay: times each layer's public functions, one at a time, on
//! placements of a traced run — for a flow the start, the half-way point
//! and the output of its GP trajectory, because the cost of a call depends
//! on how spread the cells are. The numbers explain the end-to-end wall;
//! they are never the claim.

use crate::metrics::{median, Values};
use moreau_placer::density::{BinGrid, DensityMap, Electrostatics, PoissonSolver};
use moreau_placer::netlist::{total_hpwl, Design, Placement};
use moreau_placer::optim::Problem;
use moreau_placer::placer::objective::PlacementProblem;
use moreau_placer::wirelength::engine::EvalEngine;
use moreau_placer::wirelength::{
    EplaceGammaSchedule, ModelKind, NetlistEvaluator, SmoothingSchedule, TangentTSchedule,
    WirelengthGrad,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls per layer function; the reported time is their median.
pub const CALLS: usize = 50;

fn median_ms(mut f: impl FnMut()) -> f64 {
    f(); // first call fills caches and lazily built workspaces
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Replays every layer at each of `points` (a placement and the density
/// overflow the flow had there, which sets the smoothing) with an engine of
/// `threads` workers, and writes each per-layer metric, averaged over the
/// points, into `out`. `out` must already hold the traced run's call counts
/// and stage clocks: the last metric compares the replay against them.
pub fn replay(design: &Design, points: &[(&Placement, f64)], threads: usize, out: &mut Values) {
    let mut sum = Values::new();
    for &(placement, overflow) in points {
        for (name, value) in replay_at(design, placement, overflow, threads) {
            *sum.entry(name).or_insert(0.0) += value / points.len() as f64;
        }
    }
    // does the replay still add up to what the flow's own clocks saw?
    let replayed = sum["wirelength.netgrad.evaluate_ms"] * out["wirelength.engine.wl_grad_calls"]
        + (sum["density.electro.update_ms"] + sum["density.electro.gather_ms"])
            * out["density.engine.density_calls"];
    let clocked = 1e3 * (out["wirelength.engine.wl_grad_s"] + out["density.engine.density_s"]);
    out.insert("replay.agreement_pct", 100.0 * replayed / clocked.max(1e-9));
    out.extend(sum);
}

fn replay_at(design: &Design, placement: &Placement, overflow: f64, threads: usize) -> Values {
    let mut out = Values::new();
    let netlist = &design.netlist;
    let engine = Arc::new(EvalEngine::new(threads));
    let grid = BinGrid::auto(design);
    let (bw, bh) = (grid.bin_w(), grid.bin_h());

    out.insert("netlist.cells", netlist.num_cells() as f64);
    out.insert("netlist.nets", netlist.num_nets() as f64);
    out.insert("netlist.pins", netlist.num_pins() as f64);
    out.insert(
        "netlist.total_hpwl_ms",
        median_ms(|| {
            black_box(total_hpwl(netlist, black_box(placement)));
        }),
    );

    // wirelength: the smoothing the flow's own schedule has at this overflow
    let mut grad = WirelengthGrad::zeros(netlist.num_cells());
    let t = TangentTSchedule::new(bw, bh).value(overflow);
    let mut moreau = NetlistEvaluator::new(ModelKind::Moreau.instantiate(t), Arc::clone(&engine));
    let evaluate_ms = median_ms(|| moreau.evaluate(netlist, black_box(placement), &mut grad));
    out.insert("wirelength.netgrad.evaluate_ms", evaluate_ms);
    out.insert(
        "wirelength.netgrad.ns_per_pin",
        evaluate_ms * 1e6 / netlist.num_pins().max(1) as f64,
    );
    let gamma = EplaceGammaSchedule::new(0.5, bw, bh).value(overflow);
    let mut wa = NetlistEvaluator::new(ModelKind::Wa.instantiate(gamma), Arc::clone(&engine));
    out.insert(
        "wirelength.netgrad.evaluate_wa_ms",
        median_ms(|| wa.evaluate(netlist, black_box(placement), &mut grad)),
    );

    // density, bottom up
    out.insert("density.grid.bins", grid.len() as f64);
    let mut map = DensityMap::new(grid.clone(), netlist, placement);
    out.insert(
        "density.grid.raster_ms",
        median_ms(|| map.update_movable(netlist, black_box(placement))),
    );
    let mut rho = vec![0.0; grid.len()];
    out.insert(
        "density.grid.total_into_ms",
        median_ms(|| map.total_into(black_box(&mut rho))),
    );
    let movable_area = netlist.total_movable_area();
    out.insert(
        "density.grid.overflow_ms",
        median_ms(|| {
            black_box(map.overflow(design.target_density, movable_area));
        }),
    );
    let mut solver = PoissonSolver::new(
        grid.nx(),
        grid.ny(),
        design.die.width(),
        design.die.height(),
    );
    let (mut psi, mut ex, mut ey) = (rho.clone(), rho.clone(), rho.clone());
    out.insert(
        "density.poisson.solve_ms",
        median_ms(|| {
            black_box(solver.solve(black_box(&rho), &mut psi, &mut ex, &mut ey));
        }),
    );
    // the electrostatic system and the objective as the flow wires them:
    // PlacementProblem installs the engine as the density executor
    let mut problem = PlacementProblem::new(
        design,
        placement,
        ModelKind::Moreau.instantiate(t),
        Arc::clone(&engine),
    );
    problem.lambda = 1.0;
    let mut x = problem.pack_params(placement);
    let mut g = vec![0.0; x.len()];
    out.insert(
        "placer.objective.eval_ms",
        median_ms(|| {
            black_box(problem.eval(black_box(&x), &mut g));
        }),
    );
    out.insert(
        "placer.objective.project_ms",
        median_ms(|| problem.project(black_box(&mut x))),
    );
    let mut es = Electrostatics::new(design, placement);
    out.insert(
        "density.electro.update_ms",
        median_ms(|| {
            black_box(es.update(netlist, black_box(placement)));
        }),
    );
    let (mut gx, mut gy) = (
        vec![0.0; netlist.num_cells()],
        vec![0.0; netlist.num_cells()],
    );
    out.insert(
        "density.electro.gather_ms",
        median_ms(|| es.accumulate_gradient(netlist, black_box(placement), &mut gx, &mut gy)),
    );
    out
}
