//! Whole-netlist wirelength evaluation: sums an [`AnyModel`] over every net
//! with a movable pin (both axes) and accumulates pin gradients onto the
//! movable cells.
//!
//! This is the `Σ_e W_e(x, y)` term of the global placement objective
//! (Eq. (1)) as a function of the placement variables: a net whose pins all
//! sit on fixed cells is a constant of them and is left out of the value,
//! and the gradient entries of fixed cells are `0.0` by contract. The
//! movable cells' gradients are exactly those of the sum over all nets;
//! nothing in the placer decides on the absolute value (DESIGN.md §7).
//!
//! Evaluation is one loop on the calling thread: the nets are grouped
//! once per netlist instance into **degree classes**, and one `workspace`
//! — gather tables, one value slot per net, one gradient slot per pin and
//! axis, gather scratch — lives across iterations.
//!
//! # Kernels
//!
//! The paper's model evaluates the nets of 2..=16 pins (99.7% of the nets
//! and 98.7% of the pins of a Table II circuit) with the branch-free class
//! kernel of [`crate::moreau`], four nets per step: straight-line code per
//! degree through 8 pins, one body at a per-block trip count for 9..=16.
//! The model is matched once per evaluation, not per net. Nets of more
//! pins, and every net under the other models, go one at a time through
//! [`AnyModel::eval_axis`], the per-net function of the model's kind (for
//! Moreau the same `eval_net` core that pins its class lanes). Both paths
//! write the same slots, so the choice never shows in the result.
//!
//! # Scatter
//!
//! The pin gradients are summed onto the movable cells in groups of equal
//! pin count (`workspace`, *Scatter order*), so that the inner loop of the
//! assembly pass runs at a known trip count too.
//!
//! # Determinism
//!
//! The same inputs give the same bits:
//!
//! * each net's value and per-pin gradients depend only on that net's
//!   coordinates, never on which kernel or kernel lane computed them;
//! * net values are summed in net order from the per-net slots;
//! * per-pin gradients are scattered onto cells by walking each cell's
//!   pin list in CSR order from `0.0`, independent of the slot order the
//!   kernels write in and of the order the cells are visited in.

mod workspace;

use crate::engine::{EvalEngine, Stage};
use crate::model::{AnyModel, ModelKind};
use crate::moreau::{eval_class_nets, MAX_CLASS_DEGREE, MAX_UNROLLED_DEGREE};
use mep_netlist::{CellId, NetId, Netlist, Placement};
use std::sync::Arc;
use workspace::{ClassBlock, Scratch, Workspace, LANES};

/// Result of one whole-netlist wirelength evaluation.
#[derive(Debug, Clone, Default)]
pub struct WirelengthGrad {
    /// Model wirelength summed over the nets with a movable pin and both
    /// axes.
    pub value: f64,
    /// `∂/∂x_c` per cell (lower-left = center derivative; offsets are
    /// constant); `0.0` for a fixed cell.
    pub grad_x: Vec<f64>,
    /// `∂/∂y_c` per cell.
    pub grad_y: Vec<f64>,
}

impl WirelengthGrad {
    /// Zero-initialized buffers for `num_cells`.
    pub fn zeros(num_cells: usize) -> Self {
        Self {
            value: 0.0,
            // lint:allow(no-alloc-hot): the caller's result buffers, built once per run; `evaluate` reuses them
            grad_x: vec![0.0; num_cells],
            // lint:allow(no-alloc-hot): the caller's result buffers, built once per run; `evaluate` reuses them
            grad_y: vec![0.0; num_cells],
        }
    }
}

impl Workspace {
    /// Evaluates every active net: weighted net values and weighted pin
    /// gradients into the workspace outputs. The model is matched once:
    /// Moreau sends the class blocks through the class kernel, every other
    /// model (and every net of more than 16 pins) takes the per-net path.
    fn eval_nets(&mut self, netlist: &Netlist, placement: &Placement, model: &mut AnyModel) {
        let blocks = self.layout.blocks;
        if model.kind() == ModelKind::Moreau {
            let t = model.smoothing();
            self.class_block::<2>(2, &blocks[0], t, placement);
            self.class_block::<3>(3, &blocks[1], t, placement);
            self.class_block::<4>(4, &blocks[2], t, placement);
            self.class_block::<5>(5, &blocks[3], t, placement);
            self.class_block::<6>(6, &blocks[4], t, placement);
            self.class_block::<7>(7, &blocks[5], t, placement);
            self.class_block::<8>(8, &blocks[6], t, placement);
            for (class, block) in blocks.iter().enumerate().skip(MAX_UNROLLED_DEGREE - 1) {
                self.wide_block(class + 2, block, t, placement);
            }
        } else {
            for (class, block) in blocks.iter().enumerate() {
                for j in 0..block.nets {
                    let net =
                        NetId::from_usize(self.layout.class_net[block.entry_base + j] as usize);
                    let pins = (block.slot_base + j, block.stride, class + 2);
                    self.net(netlist, placement, model, net, pins);
                }
            }
        }
        for k in 0..self.layout.big.len() {
            let big = self.layout.big[k];
            let net = NetId::from_usize(big.net as usize);
            let pins = (big.slot as usize, 1, netlist.net_degree(net));
            self.net(netlist, placement, model, net, pins);
        }
    }

    /// Net values summed in net order, whatever kernel step computed each.
    fn total_value(&self) -> f64 {
        let (nets, _pad_lanes) = self.net_value.split_at(self.net_value.len() - 1);
        let mut total = 0.0;
        for v in nets {
            total += v;
        }
        total
    }

    /// Pin gradients summed onto the movable cells, each cell's pins from
    /// `0.0` in the netlist's `cell_pins` order. Overwrites every cell: a
    /// fixed or pin-less one with `0.0`.
    fn scatter(&self, netlist: &Netlist, out: &mut WirelengthGrad) {
        out.grad_x.fill(0.0);
        out.grad_y.fill(0.0);
        let lay = &self.layout;
        // cursors over the scatter order: each group takes its cells and
        // their slots off the front
        let (mut cells, mut slots) = (&lay.cell_order[..], &lay.cell_slot[..]);
        let count = &lay.group_cells;
        self.scatter_group::<1>(count[0], &mut cells, &mut slots, out);
        self.scatter_group::<2>(count[1], &mut cells, &mut slots, out);
        self.scatter_group::<3>(count[2], &mut cells, &mut slots, out);
        self.scatter_group::<4>(count[3], &mut cells, &mut slots, out);
        self.scatter_group::<5>(count[4], &mut cells, &mut slots, out);
        self.scatter_group::<6>(count[5], &mut cells, &mut slots, out);
        self.scatter_group::<7>(count[6], &mut cells, &mut slots, out);
        self.scatter_group::<8>(count[7], &mut cells, &mut slots, out);
        for &cell in cells {
            let pins = netlist.cell_pins(CellId::from_usize(cell as usize)).len();
            let (own, rest) = slots.split_at(pins);
            slots = rest;
            self.scatter_cell(cell, own, out);
        }
    }

    /// The next `count` cells of the scatter order, `K` pins each.
    fn scatter_group<const K: usize>(
        &self,
        count: usize,
        cells: &mut &[u32],
        slots: &mut &[u32],
        out: &mut WirelengthGrad,
    ) {
        let (group, rest) = cells.split_at(count);
        *cells = rest;
        let (pins, rest) = slots.split_at(count * K);
        *slots = rest;
        for (&cell, own) in group.iter().zip(pins.as_chunks::<K>().0) {
            self.scatter_cell(cell, own, out);
        }
    }

    #[inline(always)]
    fn scatter_cell(&self, cell: u32, slots: &[u32], out: &mut WirelengthGrad) {
        let (mut ax, mut ay) = (0.0, 0.0);
        for &slot in slots {
            ax += self.pin_gx[slot as usize];
            ay += self.pin_gy[slot as usize];
        }
        out.grad_x[cell as usize] = ax;
        out.grad_y[cell as usize] = ay;
    }

    /// All nets of one block of `n`-pin nets through the class kernel of
    /// capacity `C`, [`LANES`] nets per step. With a constant `n` this is
    /// the straight-line kernel of that degree.
    #[inline(always)]
    fn class_block<const C: usize>(
        &mut self,
        n: usize,
        block: &ClassBlock,
        t: f64,
        placement: &Placement,
    ) {
        for j in (0..block.nets).step_by(LANES) {
            self.class_step::<C>(n, block, j, t, placement);
        }
    }

    /// [`Self::class_block`] for the degrees above
    /// [`MAX_UNROLLED_DEGREE`]: one body, never inlined, so that `n` stays
    /// a run-time value in it.
    #[inline(never)]
    fn wide_block(&mut self, n: usize, block: &ClassBlock, t: f64, placement: &Placement) {
        self.class_block::<MAX_CLASS_DEGREE>(n, block, t, placement);
    }

    /// One step of the class kernel: nets `j..j + LANES` of `block` (the
    /// block's pad lanes past its last net included), both axes, gathered
    /// from and stored to `n` contiguous slot runs.
    #[inline(always)]
    fn class_step<const C: usize>(
        &mut self,
        n: usize,
        block: &ClassBlock,
        j: usize,
        t: f64,
        placement: &Placement,
    ) {
        const L: usize = LANES;
        let lay = &self.layout;
        let run = |i: usize| {
            let at = block.slot_base + i * block.stride + j;
            at..at + L
        };
        let mut x = [[0.0; L]; C];
        let mut y = [[0.0; L]; C];
        for i in 0..n {
            let cells = &lay.slot_cell[run(i)];
            let bias_x = &lay.slot_bias_x[run(i)];
            let bias_y = &lay.slot_bias_y[run(i)];
            for l in 0..L {
                let cell = cells[l] as usize;
                x[i][l] = placement.x[cell] + bias_x[l];
                y[i][l] = placement.y[cell] + bias_y[l];
            }
        }
        // the nets behind the lanes; a pad lane weighs zero and its value
        // goes to the spare slot past the last net
        let entries = block.entry_base + j..block.entry_base + j + L;
        let mut w = [0.0; L];
        w.copy_from_slice(&lay.class_weight[entries.clone()]);
        let mut gx = [[0.0; L]; C];
        let mut gy = [[0.0; L]; C];
        let value = eval_class_nets::<C, L>(n, &x, &y, t, &w, &mut gx, &mut gy);
        for (&net, v) in lay.class_net[entries].iter().zip(value) {
            self.net_value[net as usize] = v;
        }
        for i in 0..n {
            self.pin_gx[run(i)].copy_from_slice(&gx[i]);
            self.pin_gy[run(i)].copy_from_slice(&gy[i]);
        }
    }

    /// One net through the per-net [`AnyModel::eval_axis`] path: pin `i` sits at slot
    /// `first + i·stride`.
    fn net(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        model: &mut AnyModel,
        net: NetId,
        (first, stride, degree): (usize, usize, usize),
    ) {
        let lay = &self.layout;
        let Scratch { xs, ys, gx, gy } = &mut self.scratch;
        let (xs, ys) = (&mut xs[..degree], &mut ys[..degree]);
        let slots = (first..).step_by(stride).take(degree);
        for ((xo, yo), slot) in xs.iter_mut().zip(ys.iter_mut()).zip(slots.clone()) {
            let cell = lay.slot_cell[slot] as usize;
            *xo = placement.x[cell] + lay.slot_bias_x[slot];
            *yo = placement.y[cell] + lay.slot_bias_y[slot];
        }
        let w = netlist.net_weight(net);
        let (gx, gy) = (&mut gx[..degree], &mut gy[..degree]);
        let vx = model.eval_axis(xs, gx);
        let vy = model.eval_axis(ys, gy);
        self.net_value[net.index()] = w * (vx + vy);
        for ((&g, &h), slot) in gx.iter().zip(gy.iter()).zip(slots) {
            self.pin_gx[slot] = w * g;
            self.pin_gy[slot] = w * h;
        }
    }
}

/// Reusable whole-netlist evaluator for one wirelength model, reporting
/// its clocks and counters to an [`EvalEngine`].
#[derive(Debug)]
pub struct NetlistEvaluator {
    model: AnyModel,
    engine: Arc<EvalEngine>,
    ws: Option<Workspace>,
}

impl NetlistEvaluator {
    /// Creates an evaluator reporting to `engine`.
    pub fn new(model: AnyModel, engine: Arc<EvalEngine>) -> Self {
        Self {
            model,
            engine,
            ws: None,
        }
    }

    /// Evaluator with an engine of its own; handy for tests and small
    /// tools.
    pub fn serial(model: AnyModel) -> Self {
        Self::new(model, Arc::default())
    }

    /// The engine this evaluator reports to.
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// The wrapped model (e.g. to change its smoothing parameter).
    pub fn model_mut(&mut self) -> &mut AnyModel {
        &mut self.model
    }

    /// The wrapped model.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// The workspace of this netlist instance and the model to evaluate
    /// it with, (re)building the workspace when the instance changed.
    fn prepare(&mut self, netlist: &Netlist) -> (&mut Workspace, &mut AnyModel) {
        if self
            .ws
            .as_ref()
            .is_some_and(|ws| ws.layout.netlist_instance != netlist.instance_id())
        {
            self.ws = None;
        }
        let ws = self.ws.get_or_insert_with(|| {
            self.engine.note_workspace_alloc();
            Workspace::new(netlist)
        });
        (ws, &mut self.model)
    }

    /// Evaluates value + cell gradients into `out` (buffers are reused).
    pub fn evaluate(&mut self, netlist: &Netlist, placement: &Placement, out: &mut WirelengthGrad) {
        out.grad_x.resize(netlist.num_cells(), 0.0);
        out.grad_y.resize(netlist.num_cells(), 0.0);
        if netlist.num_nets() == 0 {
            out.value = 0.0;
            out.grad_x.fill(0.0);
            out.grad_y.fill(0.0);
            return;
        }
        let engine = Arc::clone(&self.engine);
        engine.time_stage(Stage::WlGrad, || {
            let class_kernel = self.model.kind() == ModelKind::Moreau;
            let (ws, model) = self.prepare(netlist);
            ws.eval_nets(netlist, placement, model);
            engine.time_stage(Stage::WlScatter, || {
                out.value = ws.total_value();
                ws.scatter(netlist, out);
            });
            let layout = &ws.layout;
            let class = if class_kernel {
                layout.blocks.iter().map(|block| block.nets as u64).sum()
            } else {
                0
            };
            engine.note_wl_nets(class, layout.active_nets - class, layout.inactive_nets);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mep_netlist::synth;
    use mep_netlist::total_hpwl;

    #[test]
    fn matches_exact_hpwl_with_hpwl_model() {
        // the value covers the nets with a movable pin: all of them once
        // every cell is movable; with two cells in three frozen, the
        // whole-netlist HPWL minus that of the nets left without one
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let exact = total_hpwl(nl, &c.placement);
        let mut eval = NetlistEvaluator::serial(ModelKind::Hpwl.instantiate(0.0));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(&all_movable(nl), &c.placement, &mut out);
        assert!((out.value - exact).abs() < 1e-6 * exact.max(1.0));

        let mask: Vec<bool> = nl.cells().map(|c| c.index() % 3 == 0).collect();
        let frozen = nl.with_movability(&mask).expect("one entry per cell");
        let constant: f64 = nl
            .nets()
            .filter(|&n| !has_movable_pin(&frozen, n))
            .map(|n| mep_netlist::net_hpwl(nl, &c.placement, n))
            .sum();
        assert!(
            constant > 0.0,
            "the mask leaves some net without a movable pin"
        );
        eval.evaluate(&frozen, &c.placement, &mut out);
        assert!((out.value - (exact - constant)).abs() < 1e-6 * exact.max(1.0));
    }

    fn all_movable(nl: &Netlist) -> Netlist {
        nl.with_movability(&vec![true; nl.num_cells()])
            .expect("mask has one entry per cell")
    }

    fn has_movable_pin(nl: &Netlist, net: NetId) -> bool {
        nl.net_pins(net).any(|pin| nl.is_movable(nl.pin_cell(pin)))
    }

    fn assert_same_bits(got: &WirelengthGrad, want: &WirelengthGrad, what: &str) {
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{what}: value");
        assert_eq!(got.grad_x.len(), want.grad_x.len(), "{what}: cells");
        for i in 0..want.grad_x.len() {
            assert_eq!(
                got.grad_x[i].to_bits(),
                want.grad_x[i].to_bits(),
                "{what}: gx[{i}]"
            );
            assert_eq!(
                got.grad_y[i].to_bits(),
                want.grad_y[i].to_bits(),
                "{what}: gy[{i}]"
            );
        }
    }

    /// The evaluation written the plain way: one net at a time in net
    /// order over the netlist's own CSR, skipping the nets no pin of which
    /// can move, Moreau through the scalar oracle of
    /// [`crate::moreau::reference`] and any other model through its
    /// per-net `eval_axis`, values summed in net order, pin gradients
    /// summed per movable cell in `cell_pins` order, fixed cells left at
    /// `0.0`.
    fn per_net_loop(nl: &Netlist, pl: &Placement, model: &AnyModel) -> WirelengthGrad {
        let mut model = model.clone();
        let mut scratch = Vec::new();
        let mut pin_gx = vec![0.0; nl.num_pins()];
        let mut pin_gy = vec![0.0; nl.num_pins()];
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        for net in nl.nets() {
            let range = nl.net_pin_range(net);
            if range.len() < 2 || !has_movable_pin(nl, net) {
                continue;
            }
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for pin in nl.net_pins(net) {
                let cell = nl.pin_cell(pin);
                xs.push(pl.x[cell.index()] + (0.5 * nl.cell_width(cell) + nl.pin_offset_x(pin)));
                ys.push(pl.y[cell.index()] + (0.5 * nl.cell_height(cell) + nl.pin_offset_y(pin)));
            }
            let mut gx = vec![0.0; xs.len()];
            let mut gy = vec![0.0; ys.len()];
            let (vx, vy) = if model.kind() == ModelKind::Moreau {
                let t = model.smoothing();
                let ex = crate::moreau::reference::eval(&xs, t, Some(&mut gx), None, &mut scratch);
                let ey = crate::moreau::reference::eval(&ys, t, Some(&mut gy), None, &mut scratch);
                (ex.envelope + t, ey.envelope + t)
            } else {
                (model.eval_axis(&xs, &mut gx), model.eval_axis(&ys, &mut gy))
            };
            let w = nl.net_weight(net);
            out.value += w * (vx + vy);
            for (i, pin) in range.enumerate() {
                pin_gx[pin] = w * gx[i];
                pin_gy[pin] = w * gy[i];
            }
        }
        for cell in nl.movable_cells() {
            for &pin in nl.cell_pins(cell) {
                out.grad_x[cell.index()] += pin_gx[pin.index()];
                out.grad_y[cell.index()] += pin_gy[pin.index()];
            }
        }
        out
    }

    /// The `newblue6` stand-in as an ECO window sees it: the movable cells
    /// scattered over the die, and only those under one interior tile of a
    /// 4×4 tiling (~6 %) left movable.
    fn eco_masked(c: &mep_netlist::bookshelf::BookshelfCircuit) -> (Netlist, Placement) {
        let (nl, die) = (&c.design.netlist, c.design.die);
        let mut placement = c.placement.clone();
        for cell in nl.movable_cells() {
            let i = cell.index() as f64;
            placement.x[cell.index()] = die.xl + (i * 0.618_033_988_749_895).fract() * die.width();
            placement.y[cell.index()] = die.yl + (i * 0.754_877_666_246_693).fract() * die.height();
        }
        let tile = mep_netlist::Rect::new(
            die.xl + 0.25 * die.width(),
            die.yl + 0.25 * die.height(),
            die.xl + 0.5 * die.width(),
            die.yl + 0.5 * die.height(),
        );
        let mask: Vec<bool> = nl
            .cells()
            .map(|c| nl.is_movable(c) && placement.cell_rect(nl, c).intersects(&tile))
            .collect();
        let share = mask.iter().filter(|&&m| m).count() as f64 / nl.num_movable() as f64;
        assert!((0.04..0.09).contains(&share), "window share {share}");
        let masked = nl.with_movability(&mask).expect("one entry per cell");
        (masked, placement)
    }

    /// Class blocks, lane steps and their single-net tails, the per-net
    /// path and the never-evaluated tail, all against the plain loop:
    /// smoke and the `newblue6` stand-in as generated and under an
    /// ECO-style movability mask, the paper's model and WA, early (loose)
    /// and late (tight) smoothing.
    #[test]
    fn whole_netlist_bitwise_matches_the_per_net_loop() {
        let smoke = synth::generate(&synth::smoke_spec());
        let newblue6 = synth::generate(&synth::spec_by_name("newblue6").expect("catalogue"));
        // stretch the generator's clumped start, so that the loose
        // smoothing collapses some nets and the tight one none
        let stretched = |c: &mep_netlist::bookshelf::BookshelfCircuit| {
            let mut placement = c.placement.clone();
            for (i, x) in placement.x.iter_mut().enumerate() {
                *x += (i % 97) as f64 * 0.37;
            }
            (c.design.netlist.clone(), placement)
        };
        let cases = [
            ("smoke", stretched(&smoke)),
            ("newblue6", stretched(&newblue6)),
            ("newblue6 eco", eco_masked(&newblue6)),
        ];
        for (name, (nl, placement)) in &cases {
            let multi_pin = |n: &NetId| nl.net_degree(*n) >= 2;
            let inactive = nl
                .nets()
                .filter(multi_pin)
                .filter(|&n| !has_movable_pin(nl, n))
                .count() as u64;
            assert_eq!(inactive > 0, name.ends_with("eco"), "{name}: {inactive}");
            for kind in [ModelKind::Moreau, ModelKind::Wa] {
                for smoothing in [8.0, 0.3] {
                    let model = kind.instantiate(smoothing);
                    let want = per_net_loop(nl, placement, &model);
                    let what = format!("{name} {kind} s={smoothing}");
                    let mut eval = NetlistEvaluator::serial(model);
                    let mut got = WirelengthGrad::zeros(nl.num_cells());
                    eval.evaluate(nl, placement, &mut got);
                    assert_same_bits(&got, &want, &what);
                    let stats = eval.engine().stats();
                    let small = nl.nets().filter(|n| !multi_pin(n)).count() as u64;
                    assert_eq!(stats.wl_inactive_nets, inactive, "{what}");
                    assert_eq!(
                        stats.wl_class_nets + stats.wl_generic_nets + inactive + small,
                        nl.num_nets() as u64,
                        "{what}: every net is served by one path or skipped"
                    );
                    assert_eq!(stats.wl_class_nets > 0, kind == ModelKind::Moreau, "{what}");
                }
            }
        }
    }

    /// The scatter groups against the per-cell loop: movable cells of 0, 1,
    /// 8, 9 and 20 pins (no group, the first, the last, the first two of
    /// the tail) in an id order that interleaves them with fixed cells, and
    /// result buffers that come in dirty.
    #[test]
    fn scatter_groups_bitwise_match_the_per_cell_loop() {
        let cells = [
            (true, 0),
            (false, 3),
            (true, 20),
            (true, 1),
            (false, 0),
            (true, 8),
            (true, 9),
            (false, 5),
            (true, 2),
        ];
        let mut b = mep_netlist::NetlistBuilder::new();
        let ids: Vec<CellId> = (0..cells.len())
            .map(|i| b.add_cell(format!("c{i}"), 1.0 + i as f64, 2.0, cells[i].0))
            .collect::<Result<_, _>>()
            .unwrap();
        // the other ends of the nets (the middle one fixed, so that a net
        // of a fixed cell can be inactive)
        let ends: Vec<CellId> = (0..3)
            .map(|i| b.add_cell(format!("e{i}"), 1.0, 1.0, i != 1))
            .collect::<Result<_, _>>()
            .unwrap();
        let mut k = 0;
        for (&cell, &(_, pins)) in ids.iter().zip(&cells) {
            for _ in 0..pins {
                let mut net = vec![
                    (cell, 0.1 * k as f64, -0.05 * k as f64),
                    (ends[k % 3], 0.0, 0.2),
                ];
                if k % 4 == 0 {
                    net.push((ends[(k + 1) % 3], 0.3, 0.0));
                }
                b.add_net(format!("n{k}"), net);
                k += 1;
            }
        }
        let nl = b.build();
        for (&cell, &(_, pins)) in ids.iter().zip(&cells) {
            assert_eq!(nl.cell_pins(cell).len(), pins);
        }
        let mut placement = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            placement.x[i] = ((i * 37) % 11) as f64 * 1.7;
            placement.y[i] = ((i * 53) % 7) as f64 * 2.3;
        }
        for kind in [ModelKind::Moreau, ModelKind::Wa] {
            let model = kind.instantiate(0.9);
            let want = per_net_loop(&nl, &placement, &model);
            let mut got = WirelengthGrad::zeros(nl.num_cells());
            got.grad_x.fill(f64::NAN);
            got.grad_y.fill(7.0);
            NetlistEvaluator::serial(model).evaluate(&nl, &placement, &mut got);
            assert_same_bits(&got, &want, &format!("{kind}"));
        }
    }

    #[test]
    fn whole_netlist_gradient_finite_difference() {
        // spot-check dO/dx of a few cells through the full accumulation
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.5));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut out);
        let h = 1e-5;
        let mut shifted = WirelengthGrad::zeros(nl.num_cells());
        let mut value_at = |placement: &Placement| {
            eval.evaluate(nl, placement, &mut shifted);
            shifted.value
        };
        for cell in [0usize, 7, 42, 137] {
            let mut plus = c.placement.clone();
            plus.x[cell] += h;
            let mut minus = c.placement.clone();
            minus.x[cell] -= h;
            let fd = (value_at(&plus) - value_at(&minus)) / (2.0 * h);
            assert!(
                (fd - out.grad_x[cell]).abs() < 1e-4 * fd.abs().max(1.0),
                "cell {cell}: fd {fd} vs {}",
                out.grad_x[cell]
            );
        }
    }

    #[test]
    fn gradients_sum_to_zero_over_cells() {
        // Corollaries 2–3 aggregate: total gradient over all pins is zero
        // (over all pins: with every cell movable, no entry is zeroed)
        let c = synth::generate(&synth::smoke_spec());
        let nl = &all_movable(&c.design.netlist);
        for kind in ModelKind::contestants() {
            let mut eval = NetlistEvaluator::serial(kind.instantiate(1.0));
            let mut out = WirelengthGrad::zeros(nl.num_cells());
            eval.evaluate(nl, &c.placement, &mut out);
            let sx: f64 = out.grad_x.iter().sum();
            let sy: f64 = out.grad_y.iter().sum();
            assert!(sx.abs() < 1e-6, "{kind}: Σgx = {sx}");
            assert!(sy.abs() < 1e-6, "{kind}: Σgy = {sy}");
        }
    }

    #[test]
    fn net_weights_scale_value_and_gradient() {
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 0.0, 0.0, true).unwrap();
        let c = b.add_cell("b", 0.0, 0.0, true).unwrap();
        let net = b.add_net("n", vec![(a, 0.0, 0.0), (c, 0.0, 0.0)]);
        b.set_net_weight(net, 4.0);
        let nl = b.build();
        let mut pl = Placement::zeros(2);
        pl.x[1] = 10.0;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(0.5));
        let mut out = WirelengthGrad::zeros(2);
        eval.evaluate(&nl, &pl, &mut out);
        // unweighted value would be (envelope + t) ≈ 10 for x plus ~t for y
        let unweighted = {
            let mut b = mep_netlist::NetlistBuilder::new();
            let a = b.add_cell("a", 0.0, 0.0, true).unwrap();
            let c = b.add_cell("b", 0.0, 0.0, true).unwrap();
            b.add_net("n", vec![(a, 0.0, 0.0), (c, 0.0, 0.0)]);
            let nl1 = b.build();
            let mut o = WirelengthGrad::zeros(2);
            eval.evaluate(&nl1, &pl, &mut o);
            (o.value, o.grad_x[0])
        };
        assert!((out.value - 4.0 * unweighted.0).abs() < 1e-9);
        assert!((out.grad_x[0] - 4.0 * unweighted.1).abs() < 1e-9);
    }

    #[test]
    fn workspace_rebuilds_only_on_topology_change() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.0));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        for _ in 0..5 {
            eval.evaluate(nl, &c.placement, &mut out);
        }
        assert_eq!(
            eval.engine().stats().workspace_allocs,
            1,
            "workspace must be built exactly once for a fixed netlist"
        );
    }

    #[test]
    fn smoothing_changes_reach_the_next_evaluation() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(4.0));
        let mut warm = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut warm);
        eval.model_mut().set_smoothing(0.25);
        let mut tightened = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut tightened);
        // a fresh evaluator at the new smoothing must agree exactly
        let mut fresh = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(0.25));
        let mut expect = WirelengthGrad::zeros(nl.num_cells());
        fresh.evaluate(nl, &c.placement, &mut expect);
        assert_eq!(tightened.value.to_bits(), expect.value.to_bits());
    }

    #[test]
    fn empty_netlist() {
        let nl = mep_netlist::NetlistBuilder::new().build();
        let pl = Placement::zeros(0);
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.0));
        let mut out = WirelengthGrad::zeros(0);
        eval.evaluate(&nl, &pl, &mut out);
        assert_eq!(out.value, 0.0);
    }
}
