//! Everything the whole-netlist evaluator builds once per netlist
//! instance: the topology-derived [`Layout`] (degree-class blocks in
//! structure-of-arrays slot order, cell scatter list in pin-count order)
//! and the [`Workspace`] of output and scratch buffers around it. Nothing
//! in this file runs per evaluation.
//!
//! # Slots
//!
//! Every pin owns one *slot*: the index of its gather data (`slot_cell`,
//! `slot_bias_*`) and of its gradient outputs. Slots are ordered as
//!
//! 1. one block per degree `N ∈ 2..=16`: the `M` nets of that degree in
//!    ascending net order, **pin-major** with the stride `S` = `M` rounded
//!    up to [`LANES`] — pin `i` of the block's `j`-th net sits at
//!    `slot_base + i·S + j`, so a kernel step over [`LANES`] consecutive
//!    nets reads and writes `N` contiguous runs, and the block's last step
//!    is a whole one: its `S − M` *pad* lanes gather cell 0 at bias zero
//!    and their outputs are read by nobody (no pin owns a pad slot);
//! 2. the nets of more than 16 pins, each net's pins contiguous;
//! 3. the pins of the nets that are never evaluated — single-pin nets, and
//!    *inactive* nets, whose every pin sits on a fixed cell — which no
//!    evaluation ever writes (their gradient stays the zero the buffers are
//!    created with).
//!
//! The layout does not depend on the wirelength model: a model without a
//! class kernel walks the same blocks one net at a time with stride `S`.
//!
//! # Scatter order
//!
//! The scatter sums each movable cell's pin gradients. Walking the cells
//! in id order makes the inner trip count — the cell's pin count — a
//! coin the branch predictor loses once per cell, so the cells are listed
//! stably by pin count instead: one group per count `1..=8`
//! ([`MAX_GROUP_PINS`]), summed at a trip count the compiler knows, then
//! the cells of more pins, whose count the netlist gives. A cell's own
//! pins keep their `cell_pins` order, so every sum keeps its bits.
//!
//! # Active nets
//!
//! A net without a movable pin is a constant of the placement variables
//! and its gradient would land on fixed cells only, so it costs nothing
//! per evaluation. The active set is read off [`Netlist::is_movable`]; a
//! different mask is a different netlist instance
//! ([`Netlist::with_movability`]) and therefore a new layout.

use crate::moreau::MAX_CLASS_DEGREE;
use mep_netlist::{CellId, NetId, Netlist};

/// Nets evaluated per step of the class kernel (one AVX2 register of
/// `f64`); a block is padded to a whole number of steps.
pub(super) const LANES: usize = 4;

/// Largest pin count with a scatter group of its own.
pub(super) const MAX_GROUP_PINS: usize = 8;

/// Degrees `2..=MAX_CLASS_DEGREE`, at index `degree − 2`.
pub(super) const CLASSES: usize = MAX_CLASS_DEGREE - 1;

/// The nets of one degree (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ClassBlock {
    /// Number of nets `M` in the block.
    pub nets: usize,
    /// Slots between consecutive pins of one net: `M` rounded up to
    /// [`LANES`].
    pub stride: usize,
    /// Slot of pin 0 of the block's first net.
    pub slot_base: usize,
    /// Index of the block's first net in `class_net` / `class_weight`
    /// (`stride` entries per block).
    pub entry_base: usize,
}

/// A net of more than [`MAX_CLASS_DEGREE`] pins: its id and its first
/// slot.
#[derive(Debug, Clone, Copy)]
pub(super) struct BigNet {
    pub net: u32,
    pub slot: u32,
}

#[derive(Debug)]
pub(super) struct Layout {
    pub netlist_instance: u64,
    /// Class blocks by degree.
    pub blocks: [ClassBlock; CLASSES],
    /// Per class entry (block-major, ascending net order within a block,
    /// each block padded to its `stride`): the net and its weight.
    pub class_net: Vec<u32>,
    pub class_weight: Vec<f64>,
    pub big: Vec<BigNet>,
    /// Per slot: owning cell, and the offset from the cell's lower-left
    /// corner to the pin (half-extent + pin offset), so a gather is one
    /// add per axis.
    pub slot_cell: Vec<u32>,
    pub slot_bias_x: Vec<f64>,
    pub slot_bias_y: Vec<f64>,
    /// The movable cells that have a pin, stably by
    /// `min(pin count, MAX_GROUP_PINS + 1)`, i.e. ascending id within a
    /// scatter group.
    pub cell_order: Vec<u32>,
    /// How many cells of `cell_order` have exactly `k + 1` pins.
    pub group_cells: [usize; MAX_GROUP_PINS],
    /// Slots of each cell's pins, cells as in `cell_order` and pins in the
    /// netlist's `cell_pins` order: the scatter walks it front to back.
    pub cell_slot: Vec<u32>,
    /// Nets of at least two pins with a movable pin: the evaluated ones.
    pub active_nets: u64,
    /// Nets of at least two pins without a movable pin (never evaluated).
    pub inactive_nets: u64,
    /// Largest evaluated net degree (sizes the per-net gather scratch).
    pub max_degree: usize,
}

/// Gather and gradient buffers of the per-net path, sized to the largest
/// net.
#[derive(Debug)]
pub(super) struct Scratch {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub gx: Vec<f64>,
    pub gy: Vec<f64>,
}

/// The layout plus the evaluation outputs, cached per netlist instance.
#[derive(Debug)]
pub(super) struct Workspace {
    pub layout: Layout,
    /// Weighted value per net, by net id (nets that are never evaluated
    /// keep the zero they are created with), then one spare slot that the
    /// pad lanes of the class blocks write and nobody reads.
    pub net_value: Vec<f64>,
    /// Weighted per-pin gradients, by slot.
    pub pin_gx: Vec<f64>,
    pub pin_gy: Vec<f64>,
    pub scratch: Scratch,
}

impl Workspace {
    pub(super) fn new(netlist: &Netlist) -> Self {
        let layout = Layout::build(netlist);
        Self {
            net_value: vec![0.0; netlist.num_nets() + 1],
            pin_gx: vec![0.0; layout.slot_cell.len()],
            pin_gy: vec![0.0; layout.slot_cell.len()],
            scratch: Scratch {
                xs: vec![0.0; layout.max_degree],
                ys: vec![0.0; layout.max_degree],
                gx: vec![0.0; layout.max_degree],
                gy: vec![0.0; layout.max_degree],
            },
            layout,
        }
    }
}

impl Layout {
    fn build(netlist: &Netlist) -> Self {
        let pins = netlist.num_pins();
        // the degree a net is evaluated at: 0 when no pin of it can move
        let degree = |net: NetId| {
            let movable = |pin| netlist.is_movable(netlist.pin_cell(pin));
            if netlist.net_pins(net).any(movable) {
                netlist.net_degree(net)
            } else {
                0
            }
        };
        // first pass: sizes, which fix where every block starts
        let mut blocks = [ClassBlock::default(); CLASSES];
        let (mut big_pins, mut max_degree) = (0, 0);
        let (mut active_nets, mut inactive_nets) = (0u64, 0u64);
        for net in netlist.nets() {
            let d = degree(net);
            max_degree = max_degree.max(d);
            match d {
                0 | 1 => {
                    inactive_nets += u64::from(netlist.net_degree(net) >= 2);
                    continue;
                }
                2..=MAX_CLASS_DEGREE => blocks[d - 2].nets += 1,
                _ => big_pins += d,
            }
            active_nets += 1;
        }
        let (mut slot, mut entries) = (0, 0);
        for (class, block) in blocks.iter_mut().enumerate() {
            block.stride = block.nets.next_multiple_of(LANES);
            block.slot_base = slot;
            block.entry_base = entries;
            slot += (class + 2) * block.stride;
            entries += block.stride;
        }
        // second pass, in ascending net order: every pin gets its slot
        let mut pin_slot = vec![0u32; pins];
        // a pad lane's net is the spare slot of `net_value`, its weight zero
        let mut class_net = vec![netlist.num_nets() as u32; entries];
        let mut class_weight = vec![0.0; entries];
        let mut big = Vec::new();
        let mut placed = [0usize; CLASSES];
        let (mut big_slot, mut single_slot) = (slot, slot + big_pins);
        for net in netlist.nets() {
            let pins = netlist.net_pin_range(net);
            match degree(net) {
                0 | 1 => {
                    for pin in pins {
                        pin_slot[pin] = single_slot as u32;
                        single_slot += 1;
                    }
                }
                d @ 2..=MAX_CLASS_DEGREE => {
                    let block = &blocks[d - 2];
                    let j = placed[d - 2];
                    placed[d - 2] += 1;
                    for (i, pin) in pins.enumerate() {
                        pin_slot[pin] = (block.slot_base + i * block.stride + j) as u32;
                    }
                    class_net[block.entry_base + j] = net.index() as u32;
                    class_weight[block.entry_base + j] = netlist.net_weight(net);
                }
                _ => {
                    big.push(BigNet {
                        net: net.index() as u32,
                        slot: big_slot as u32,
                    });
                    for pin in pins {
                        pin_slot[pin] = big_slot as u32;
                        big_slot += 1;
                    }
                }
            }
        }
        // pins and pads; a pad slot keeps cell 0 and bias zero
        let slots = single_slot;
        let mut slot_cell = vec![0u32; slots];
        let mut slot_bias_x = vec![0.0; slots];
        let mut slot_bias_y = vec![0.0; slots];
        for pin in netlist.pins() {
            let cell = netlist.pin_cell(pin);
            let slot = pin_slot[pin.index()] as usize;
            slot_cell[slot] = cell.index() as u32;
            slot_bias_x[slot] = 0.5 * netlist.cell_width(cell) + netlist.pin_offset_x(pin);
            slot_bias_y[slot] = 0.5 * netlist.cell_height(cell) + netlist.pin_offset_y(pin);
        }
        let group = |cell: &CellId| netlist.cell_pins(*cell).len().min(MAX_GROUP_PINS + 1);
        let mut cell_order: Vec<CellId> = netlist
            .movable_cells()
            .filter(|cell| group(cell) > 0)
            .collect();
        cell_order.sort_by_key(group); // stable
        let mut group_cells = [0; MAX_GROUP_PINS];
        for cell in &cell_order {
            // the cells of more pins have no group of their own
            if let Some(count) = group_cells.get_mut(group(cell) - 1) {
                *count += 1;
            }
        }
        let cell_slot = cell_order
            .iter()
            .flat_map(|&cell| netlist.cell_pins(cell))
            .map(|pin| pin_slot[pin.index()])
            .collect();
        let cell_order = cell_order.iter().map(|cell| cell.index() as u32).collect();

        Self {
            netlist_instance: netlist.instance_id(),
            blocks,
            class_net,
            class_weight,
            big,
            slot_cell,
            slot_bias_x,
            slot_bias_y,
            cell_order,
            group_cells,
            cell_slot,
            active_nets,
            inactive_nets,
            max_degree,
        }
    }
}
