//! The flat, index-based netlist data model.
//!
//! A [`Netlist`] is an immutable hypergraph: cells (nodes) connected by nets
//! (hyperedges) through pins. Storage is structure-of-arrays with CSR
//! adjacency in both directions (net → pins and cell → pins), which is the
//! layout analytical placers need for cache-friendly gradient sweeps.
//!
//! Construct one with [`NetlistBuilder`]:
//!
//! ```
//! use mep_netlist::netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), mep_netlist::error::NetlistError> {
//! let mut b = NetlistBuilder::new();
//! let a = b.add_cell("a", 1.0, 1.0, true)?;
//! let c = b.add_cell("b", 2.0, 1.0, true)?;
//! b.add_net("n0", vec![(a, 0.0, 0.0), (c, 0.5, 0.0)]);
//! let netlist = b.build();
//! assert_eq!(netlist.num_cells(), 2);
//! assert_eq!(netlist.num_pins(), 2);
//! # Ok(())
//! # }
//! ```

use crate::error::NetlistError;
use crate::ids::{CellId, NetId, PinId};
use crate::FixedState;
// lint:allow(determinism): cell-name index is lookup-only (cell_by_name); never iterated
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable placement hypergraph.
///
/// Pin offsets are measured **from the cell center**, following the
/// Bookshelf `.nets` convention; the pin position of pin `p` on cell `i` is
/// `center(i) + offset(p)`.
///
/// Copies ([`Clone`], [`Netlist::with_movability`]) share the name tables
/// and copy only the numeric arrays.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    // cell and net names, shared by every copy
    names: Arc<Names>,
    // cells
    cell_width: Vec<f64>,
    cell_height: Vec<f64>,
    cell_movable: Vec<bool>,
    // nets -> pins (CSR)
    net_weights: Vec<f64>,
    net_pin_start: Vec<u32>,
    // pins
    pin_cell: Vec<CellId>,
    pin_net: Vec<NetId>,
    pin_offset_x: Vec<f64>,
    pin_offset_y: Vec<f64>,
    // cells -> pins (CSR)
    cell_pin_start: Vec<u32>,
    cell_pin_ids: Vec<PinId>,
    // process-unique topology token (see `instance_id`)
    instance_id: u64,
}

/// The immutable name tables of a [`Netlist`]. Each cell name is one
/// allocation, shared by `cells` and the `index` key.
#[derive(Debug, Default)]
struct Names {
    cells: Vec<Arc<str>>,
    nets: Vec<String>,
    // lint:allow(determinism): lookup-only via cell_by_name; never iterated
    index: HashMap<Arc<str>, CellId, FixedState>,
}

impl Netlist {
    /// Number of cells (movable + fixed).
    pub fn num_cells(&self) -> usize {
        self.cell_width.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pin_cell.len()
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.cell_movable.iter().filter(|&&m| m).count()
    }

    /// Number of fixed cells (macros/terminals).
    pub fn num_fixed(&self) -> usize {
        self.num_cells() - self.num_movable()
    }

    /// Name of a cell.
    pub fn cell_name(&self, cell: CellId) -> &str {
        &self.names.cells[cell.index()]
    }

    /// Width of a cell.
    #[inline]
    pub fn cell_width(&self, cell: CellId) -> f64 {
        self.cell_width[cell.index()]
    }

    /// Height of a cell.
    #[inline]
    pub fn cell_height(&self, cell: CellId) -> f64 {
        self.cell_height[cell.index()]
    }

    /// Area of a cell.
    #[inline]
    pub fn cell_area(&self, cell: CellId) -> f64 {
        self.cell_width(cell) * self.cell_height(cell)
    }

    /// Whether the cell may be moved by the placer.
    #[inline]
    pub fn is_movable(&self, cell: CellId) -> bool {
        self.cell_movable[cell.index()]
    }

    /// Looks a cell up by name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.names.index.get(name).copied()
    }

    /// Name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.names.nets[net.index()]
    }

    /// Weight of a net (1.0 unless set; Bookshelf `.wts`).
    #[inline]
    pub fn net_weight(&self, net: NetId) -> f64 {
        self.net_weights[net.index()]
    }

    /// Looks a net up by name (linear scan; intended for tests and tools,
    /// not hot paths).
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.names
            .nets
            .iter()
            .position(|n| n == name)
            .map(NetId::from_usize)
    }

    /// Number of pins on a net.
    #[inline]
    pub fn net_degree(&self, net: NetId) -> usize {
        let i = net.index();
        (self.net_pin_start[i + 1] - self.net_pin_start[i]) as usize
    }

    /// The contiguous pin-index range of a net.
    #[inline]
    pub fn net_pin_range(&self, net: NetId) -> std::ops::Range<usize> {
        let i = net.index();
        self.net_pin_start[i] as usize..self.net_pin_start[i + 1] as usize
    }

    /// Iterates over the pins of a net.
    pub fn net_pins(&self, net: NetId) -> impl Iterator<Item = PinId> + '_ {
        self.net_pin_range(net).map(PinId::from_usize)
    }

    /// The pins attached to a cell.
    pub fn cell_pins(&self, cell: CellId) -> &[PinId] {
        let i = cell.index();
        let range = self.cell_pin_start[i] as usize..self.cell_pin_start[i + 1] as usize;
        &self.cell_pin_ids[range]
    }

    /// The cell a pin sits on.
    #[inline]
    pub fn pin_cell(&self, pin: PinId) -> CellId {
        self.pin_cell[pin.index()]
    }

    /// The net a pin belongs to.
    #[inline]
    pub fn pin_net(&self, pin: PinId) -> NetId {
        self.pin_net[pin.index()]
    }

    /// Pin offset from the cell center, horizontal.
    #[inline]
    pub fn pin_offset_x(&self, pin: PinId) -> f64 {
        self.pin_offset_x[pin.index()]
    }

    /// Pin offset from the cell center, vertical.
    #[inline]
    pub fn pin_offset_y(&self, pin: PinId) -> f64 {
        self.pin_offset_y[pin.index()]
    }

    /// Iterates over all cell ids.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells()).map(CellId::from_usize)
    }

    /// Iterates over movable cell ids.
    pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells().filter(|&c| self.is_movable(c))
    }

    /// Iterates over fixed cell ids.
    pub fn fixed_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells().filter(|&c| !self.is_movable(c))
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.num_nets()).map(NetId::from_usize)
    }

    /// Iterates over all pin ids.
    pub fn pins(&self) -> impl Iterator<Item = PinId> {
        (0..self.num_pins()).map(PinId::from_usize)
    }

    /// Total area of movable cells.
    pub fn total_movable_area(&self) -> f64 {
        self.movable_cells().map(|c| self.cell_area(c)).sum()
    }

    /// A token identifying this netlist's topology within the process.
    ///
    /// Every [`NetlistBuilder::build`] call returns a netlist with a fresh
    /// id; clones share their source's id (cloning does not change
    /// topology). Evaluators use this to decide whether cached
    /// topology-derived state (partitions, gather indices) is still valid
    /// without comparing CSR arrays.
    #[inline]
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Net-degree histogram: entry `d` counts nets with exactly `d` pins
    /// (degrees ≥ `cap` are accumulated in the last bucket).
    pub fn degree_histogram(&self, cap: usize) -> Vec<usize> {
        let mut hist = vec![0usize; cap + 1];
        for net in self.nets() {
            let d = self.net_degree(net).min(cap);
            hist[d] += 1;
        }
        hist
    }

    /// A copy of this netlist with a different movability mask, same
    /// topology otherwise. This is the substrate for incremental (ECO)
    /// re-placement: cells outside a dirty window are frozen by marking
    /// them immovable, which the placer then treats exactly like fixed
    /// blockages — their coordinates are never written.
    ///
    /// The copy gets a **fresh** [`Netlist::instance_id`]: evaluators key
    /// topology-derived caches (movable partitions, gather indices) on the
    /// id, and the movable set *is* part of that derived state. It shares
    /// this netlist's name tables.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Geometry`] if `movable.len()` does not equal
    /// [`Netlist::num_cells`].
    pub fn with_movability(&self, movable: &[bool]) -> Result<Netlist, NetlistError> {
        if movable.len() != self.num_cells() {
            return Err(NetlistError::Geometry(format!(
                "movability mask has {} entries for {} cells",
                movable.len(),
                self.num_cells()
            )));
        }
        let mut copy = self.clone();
        copy.cell_movable = movable.to_vec();
        copy.instance_id = next_instance_id();
        Ok(copy)
    }
}

/// Mints a process-unique netlist instance id.
///
/// Id 0 is reserved for `Netlist::default()` so freshly built netlists are
/// always distinguishable from the empty default.
fn next_instance_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Incremental builder for [`Netlist`].
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    /// One allocation per name, shared with the `name_index` key.
    cell_names: Vec<Arc<str>>,
    cell_width: Vec<f64>,
    cell_height: Vec<f64>,
    cell_movable: Vec<bool>,
    net_names: Vec<String>,
    net_weights: Vec<f64>,
    net_pin_start: Vec<u32>,
    pin_cell: Vec<CellId>,
    pin_net: Vec<NetId>,
    pin_offset_x: Vec<f64>,
    pin_offset_y: Vec<f64>,
    // lint:allow(determinism): lookup-only via cell_by_name; never iterated
    name_index: HashMap<Arc<str>, CellId, FixedState>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            net_pin_start: vec![0],
            ..Self::default()
        }
    }

    /// Pre-allocates for the given element counts.
    pub fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        let mut b = Self::new();
        b.reserve(cells, nets, pins);
        b
    }

    /// Adds a cell and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateCell`] if `name` was already used
    /// and [`NetlistError::Geometry`] if `width` or `height` is negative or
    /// not finite (zero is legal: terminals are 0 × 0).
    pub fn add_cell(
        &mut self,
        name: impl Into<Arc<str>>,
        width: f64,
        height: f64,
        movable: bool,
    ) -> Result<CellId, NetlistError> {
        let name: Arc<str> = name.into();
        if self.name_index.contains_key(&*name) {
            return Err(NetlistError::DuplicateCell(name.to_string()));
        }
        if !(width.is_finite() && height.is_finite() && width >= 0.0 && height >= 0.0) {
            return Err(NetlistError::Geometry(format!(
                "cell `{name}` has size {width} x {height}"
            )));
        }
        let id = CellId::from_usize(self.cell_names.len());
        self.name_index.insert(Arc::clone(&name), id);
        self.cell_names.push(name);
        self.cell_width.push(width);
        self.cell_height.push(height);
        self.cell_movable.push(movable);
        Ok(id)
    }

    /// Adds a net with pins given as `(cell, offset_x, offset_y)` triples
    /// (offsets from cell center) and returns its id. Weight defaults to
    /// 1.0; see [`NetlistBuilder::set_net_weight`].
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        pins: impl IntoIterator<Item = (CellId, f64, f64)>,
    ) -> NetId {
        let net = NetId::from_usize(self.net_names.len());
        self.net_names.push(name.into());
        self.net_weights.push(1.0);
        self.net_pin_start.push(self.pin_cell.len() as u32);
        for (cell, dx, dy) in pins {
            self.push_pin(net, cell, dx, dy);
        }
        net
    }

    /// Appends a pin to `net`, which must be the net added last: a reader
    /// adds a net and then each pin as it parses it.
    pub(crate) fn push_pin(&mut self, net: NetId, cell: CellId, dx: f64, dy: f64) {
        debug_assert!(cell.index() < self.cell_names.len(), "pin on unknown cell");
        debug_assert_eq!(
            net.index() + 1,
            self.net_names.len(),
            "pin on an earlier net"
        );
        self.pin_cell.push(cell);
        self.pin_net.push(net);
        self.pin_offset_x.push(dx);
        self.pin_offset_y.push(dy);
        if let Some(end) = self.net_pin_start.last_mut() {
            *end = self.pin_cell.len() as u32;
        }
    }

    /// Reserves room for this many more cells (their name index
    /// included), nets and pins.
    pub(crate) fn reserve(&mut self, cells: usize, nets: usize, pins: usize) {
        self.cell_names.reserve(cells);
        self.cell_width.reserve(cells);
        self.cell_height.reserve(cells);
        self.cell_movable.reserve(cells);
        self.name_index.reserve(cells);
        self.net_names.reserve(nets);
        self.net_weights.reserve(nets);
        self.net_pin_start.reserve(nets);
        self.pin_cell.reserve(pins);
        self.pin_net.reserve(pins);
        self.pin_offset_x.reserve(pins);
        self.pin_offset_y.reserve(pins);
    }

    /// Marks a cell added earlier as fixed.
    pub(crate) fn fix_cell(&mut self, cell: CellId) {
        if let Some(movable) = self.cell_movable.get_mut(cell.index()) {
            *movable = false;
        }
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cell_width.len()
    }

    /// Number of nets added so far.
    pub(crate) fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// The names of the nets added so far, beside their weights: a reader
    /// sets weights by net name through one borrow.
    pub(crate) fn net_names_and_weights(&mut self) -> (&[String], &mut [f64]) {
        (&self.net_names, &mut self.net_weights)
    }

    /// Looks up a cell added earlier by name (useful while parsing).
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.name_index.get(name).copied()
    }

    /// `(width, height)` of a cell added earlier (useful while generating
    /// pin offsets before the netlist is finalized).
    pub fn cell_size(&self, cell: CellId) -> (f64, f64) {
        (
            self.cell_width[cell.index()],
            self.cell_height[cell.index()],
        )
    }

    /// Sets the weight of an already-added net (Bookshelf `.wts`).
    ///
    /// A weight of `0.0` is allowed and removes the net from the objective
    /// (its pins still exist, e.g. for density).
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist or the weight is negative/NaN.
    pub fn set_net_weight(&mut self, net: NetId, weight: f64) {
        assert!(
            weight >= 0.0,
            "net weight must be non-negative, got {weight}"
        );
        self.net_weights[net.index()] = weight;
    }

    /// Finalizes the netlist, computing the cell → pin adjacency.
    pub fn build(self) -> Netlist {
        let instance_id = next_instance_id();
        let num_cells = self.cell_names.len();
        let num_pins = self.pin_cell.len();
        // counting sort of pins by cell
        let mut cell_pin_start = vec![0u32; num_cells + 1];
        for &cell in &self.pin_cell {
            cell_pin_start[cell.index() + 1] += 1;
        }
        for i in 0..num_cells {
            cell_pin_start[i + 1] += cell_pin_start[i];
        }
        let mut cursor = cell_pin_start.clone();
        let mut cell_pin_ids = vec![PinId(0); num_pins];
        for (pin_idx, &cell) in self.pin_cell.iter().enumerate() {
            let slot = cursor[cell.index()];
            cell_pin_ids[slot as usize] = PinId::from_usize(pin_idx);
            cursor[cell.index()] += 1;
        }
        Netlist {
            names: Arc::new(Names {
                cells: self.cell_names,
                nets: self.net_names,
                index: self.name_index,
            }),
            cell_width: self.cell_width,
            cell_height: self.cell_height,
            cell_movable: self.cell_movable,
            net_weights: self.net_weights,
            net_pin_start: self.net_pin_start,
            pin_cell: self.pin_cell,
            pin_net: self.pin_net,
            pin_offset_x: self.pin_offset_x,
            pin_offset_y: self.pin_offset_y,
            cell_pin_start,
            cell_pin_ids,
            instance_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 2.0, true).unwrap();
        let c = b.add_cell("b", 2.0, 2.0, true).unwrap();
        let t = b.add_cell("t", 0.0, 0.0, false).unwrap();
        b.add_net("n0", vec![(a, 0.0, 0.0), (c, 0.5, -0.5)]);
        b.add_net("n1", vec![(a, 0.2, 0.0), (c, 0.0, 0.0), (t, 0.0, 0.0)]);
        b.build()
    }

    #[test]
    fn counts() {
        let nl = tiny();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 5);
        assert_eq!(nl.num_movable(), 2);
        assert_eq!(nl.num_fixed(), 1);
    }

    #[test]
    fn net_csr_adjacency() {
        let nl = tiny();
        let n0 = NetId(0);
        let n1 = NetId(1);
        assert_eq!(nl.net_degree(n0), 2);
        assert_eq!(nl.net_degree(n1), 3);
        let pins: Vec<_> = nl.net_pins(n1).collect();
        assert_eq!(pins, vec![PinId(2), PinId(3), PinId(4)]);
        for p in nl.net_pins(n0) {
            assert_eq!(nl.pin_net(p), n0);
        }
    }

    #[test]
    fn cell_csr_adjacency_is_inverse_of_pin_cell() {
        let nl = tiny();
        for cell in nl.cells() {
            for &p in nl.cell_pins(cell) {
                assert_eq!(nl.pin_cell(p), cell);
            }
        }
        let total: usize = nl.cells().map(|c| nl.cell_pins(c).len()).sum();
        assert_eq!(total, nl.num_pins());
    }

    #[test]
    fn name_lookup() {
        let nl = tiny();
        assert_eq!(nl.cell_by_name("b"), Some(CellId(1)));
        assert_eq!(nl.cell_by_name("zz"), None);
        assert_eq!(nl.cell_name(CellId(2)), "t");
        assert_eq!(nl.net_name(NetId(0)), "n0");
    }

    #[test]
    fn duplicate_cell_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, true).unwrap();
        assert!(matches!(
            b.add_cell("a", 1.0, 1.0, true),
            Err(NetlistError::DuplicateCell(_))
        ));
    }

    #[test]
    fn negative_or_non_finite_size_rejected() {
        let mut b = NetlistBuilder::new();
        for (w, h) in [
            (-3.0, 1.0),
            (1.0, -0.5),
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
        ] {
            let err = b.add_cell("c", w, h, true);
            assert!(matches!(err, Err(NetlistError::Geometry(_))), "{w} x {h}");
        }
        // a terminal is 0 × 0
        assert!(b.add_cell("t", 0.0, 0.0, false).is_ok());
    }

    #[test]
    fn areas() {
        let nl = tiny();
        assert_eq!(nl.cell_area(CellId(0)), 2.0);
        assert_eq!(nl.total_movable_area(), 2.0 + 4.0);
    }

    #[test]
    fn degree_histogram_caps() {
        let nl = tiny();
        let h = nl.degree_histogram(2);
        // one 2-pin net, one 3-pin net capped to bucket 2
        assert_eq!(h[2], 2);
    }

    #[test]
    fn pin_offsets_preserved() {
        let nl = tiny();
        assert_eq!(nl.pin_offset_x(PinId(1)), 0.5);
        assert_eq!(nl.pin_offset_y(PinId(1)), -0.5);
    }

    #[test]
    fn with_movability_swaps_mask_and_mints_fresh_id() {
        let nl = tiny();
        let masked = nl.with_movability(&[false, true, false]).unwrap();
        assert_eq!(masked.num_movable(), 1);
        assert!(!masked.is_movable(CellId(0)));
        assert!(masked.is_movable(CellId(1)));
        // topology untouched
        assert_eq!(masked.num_pins(), nl.num_pins());
        assert_eq!(masked.net_degree(NetId(1)), 3);
        // cache-invalidation token must differ (movable set is cached state)
        assert_ne!(masked.instance_id(), nl.instance_id());
        // the name tables are shared, not copied
        assert!(Arc::ptr_eq(&masked.names, &nl.names));
        assert_eq!(masked.cell_by_name("b"), Some(CellId(1)));
        assert_eq!(masked.net_name(NetId(1)), "n1");
        // wrong mask length is a typed error
        assert!(nl.with_movability(&[true]).is_err());
    }

    #[test]
    fn empty_netlist_is_fine() {
        let nl = NetlistBuilder::new().build();
        assert_eq!(nl.num_cells(), 0);
        assert_eq!(nl.num_nets(), 0);
        assert_eq!(nl.total_movable_area(), 0.0);
    }
}
