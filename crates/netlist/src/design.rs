//! A complete placement problem: netlist + floorplan geometry.

use crate::error::NetlistError;
use crate::geom::Rect;
use crate::netlist::Netlist;

/// One standard-cell row of the floorplan (Bookshelf `.scl` `CoreRow`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Bottom edge of the row.
    pub y: f64,
    /// Row height (standard-cell height).
    pub height: f64,
    /// Left edge of the usable span.
    pub xl: f64,
    /// Right edge of the usable span.
    pub xh: f64,
    /// Legal x positions are `xl + k * site_width`.
    pub site_width: f64,
}

impl Row {
    /// Usable width of the row.
    pub fn width(&self) -> f64 {
        self.xh - self.xl
    }

    /// The rectangle the row occupies.
    pub fn rect(&self) -> Rect {
        Rect::new(self.xl, self.y, self.xh, self.y + self.height)
    }
}

/// A fence region: cells assigned to it must be placed inside its
/// rectangle (ISPD2019-style region constraint; DREAMPlace 3.0
/// "multi-electrostatics" territory).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (e.g. a DEF `REGION` name).
    pub name: String,
    /// The fence rectangle (must lie inside the die).
    pub rect: Rect,
}

/// A placement problem: the netlist plus the die outline, rows, and the
/// target placement density used by the electrostatic formulation.
#[derive(Debug, Clone)]
pub struct Design {
    /// Human-readable benchmark name (e.g. `newblue1`).
    pub name: String,
    /// The circuit hypergraph.
    pub netlist: Netlist,
    /// Die (placement region) outline.
    pub die: Rect,
    /// Standard-cell rows, bottom-up.
    pub rows: Vec<Row>,
    /// Target density in `(0, 1]` (ISPD2006 contest constraint; 1.0 = no
    /// explicit constraint).
    pub target_density: f64,
    /// Fence regions (empty unless the design is region-constrained).
    pub regions: Vec<Region>,
    /// Region index per cell (`None` = unconstrained). Indexed by
    /// [`crate::CellId`]; empty means no cell is constrained.
    pub cell_region: Vec<Option<u16>>,
}

impl Design {
    /// Builds a design, validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Geometry`] if the die or a row is inverted,
    /// empty or not finite, the target density is outside `(0, 1]`, there
    /// are no rows, or any row pokes outside the die.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        die: Rect,
        rows: Vec<Row>,
        target_density: f64,
    ) -> Result<Self, NetlistError> {
        // every test below is written so that a NaN fails it
        let finite = [die.xl, die.yl, die.xh, die.yh]
            .iter()
            .all(|v| v.is_finite());
        if !(die.width() > 0.0 && die.height() > 0.0 && finite) {
            return Err(NetlistError::Geometry(format!("degenerate die {die}")));
        }
        if !(target_density > 0.0 && target_density <= 1.0) {
            return Err(NetlistError::Geometry(format!(
                "target density {target_density} outside (0, 1]"
            )));
        }
        if rows.is_empty() {
            return Err(NetlistError::Geometry("design has no rows".into()));
        }
        const EPS: f64 = 1e-6;
        for (i, row) in rows.iter().enumerate() {
            let site_ok = row.site_width > 0.0 && row.site_width.is_finite();
            if !(row.width() > 0.0 && row.height > 0.0 && site_ok) {
                return Err(NetlistError::Geometry(format!("degenerate row {i}")));
            }
            // inside the finite die, so finite too
            let r = row.rect();
            if !(r.xl >= die.xl - EPS
                && r.xh <= die.xh + EPS
                && r.yl >= die.yl - EPS
                && r.yh <= die.yh + EPS)
            {
                return Err(NetlistError::Geometry(format!(
                    "row {i} {r} outside die {die}"
                )));
            }
        }
        Ok(Self {
            name: name.into(),
            netlist,
            die,
            rows,
            target_density,
            regions: Vec::new(),
            cell_region: Vec::new(),
        })
    }

    /// Adds a fence region and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Geometry`] if the region pokes outside the
    /// die.
    pub fn add_region(&mut self, name: impl Into<String>, rect: Rect) -> Result<u16, NetlistError> {
        if !self.die.contains_rect(&rect) {
            return Err(NetlistError::Geometry(format!(
                "region {rect} outside die {}",
                self.die
            )));
        }
        let idx = u16::try_from(self.regions.len())
            .map_err(|_| NetlistError::Geometry("too many regions".into()))?;
        self.regions.push(Region {
            name: name.into(),
            rect,
        });
        Ok(idx)
    }

    /// Assigns a cell to a region (or clears with `None`).
    ///
    /// # Panics
    ///
    /// Panics if the region index is out of range.
    pub fn assign_region(&mut self, cell: crate::CellId, region: Option<u16>) {
        if let Some(r) = region {
            assert!(
                (r as usize) < self.regions.len(),
                "region index {r} out of range"
            );
        }
        if self.cell_region.is_empty() {
            self.cell_region = vec![None; self.netlist.num_cells()];
        }
        self.cell_region[cell.index()] = region;
    }

    /// The fence rectangle of a cell, if it is region-constrained.
    pub fn region_of(&self, cell: crate::CellId) -> Option<&Region> {
        self.cell_region
            .get(cell.index())
            .copied()
            .flatten()
            .map(|r| &self.regions[r as usize])
    }

    /// Whether any cell carries a region constraint.
    pub fn has_regions(&self) -> bool {
        !self.regions.is_empty() && self.cell_region.iter().any(|r| r.is_some())
    }

    /// Creates a design with uniform rows tiling the die.
    ///
    /// `row_height` must divide the die height reasonably; any remainder at
    /// the top is left row-free. A die shorter than one row has no rows and
    /// is rejected.
    ///
    /// # Errors
    ///
    /// Same as [`Design::new`].
    pub fn with_uniform_rows(
        name: impl Into<String>,
        netlist: Netlist,
        die: Rect,
        row_height: f64,
        site_width: f64,
        target_density: f64,
    ) -> Result<Self, NetlistError> {
        if row_height <= 0.0 {
            return Err(NetlistError::Geometry(format!(
                "non-positive row height {row_height}"
            )));
        }
        let n_rows = (die.height() / row_height).floor() as usize;
        let rows = (0..n_rows)
            .map(|i| Row {
                y: die.yl + i as f64 * row_height,
                height: row_height,
                xl: die.xl,
                xh: die.xh,
                site_width,
            })
            .collect();
        Self::new(name, netlist, die, rows, target_density)
    }

    /// Total row area (the placeable area).
    pub fn total_row_area(&self) -> f64 {
        self.rows.iter().map(|r| r.rect().area()).sum()
    }

    /// Design utilization: movable area / placeable area.
    pub fn utilization(&self) -> f64 {
        let area = self.total_row_area();
        if area <= 0.0 {
            return 0.0;
        }
        self.netlist.total_movable_area() / area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn nl() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, true).unwrap();
        b.build()
    }

    #[test]
    fn uniform_rows_tile_die() {
        let d =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 100.0, 50.0), 10.0, 1.0, 0.8)
                .unwrap();
        assert_eq!(d.rows.len(), 5);
        assert_eq!(d.rows[4].y, 40.0);
        assert_eq!(d.total_row_area(), 100.0 * 50.0);
    }

    #[test]
    fn partial_last_row_dropped() {
        let d =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 25.0), 10.0, 1.0, 1.0)
                .unwrap();
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn die_shorter_than_a_row_is_rejected() {
        let err =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 0.5), 1.0, 1.0, 1.0);
        assert!(matches!(err, Err(NetlistError::Geometry(_))), "{err:?}");
    }

    #[test]
    fn rejects_bad_density() {
        let err =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), 1.0, 1.0, 0.0);
        assert!(err.is_err());
        let err =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), 1.0, 1.0, 1.5);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_row_outside_die() {
        let row = Row {
            y: 0.0,
            height: 5.0,
            xl: -1.0,
            xh: 5.0,
            site_width: 1.0,
        };
        let err = Design::new("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), vec![row], 0.9);
        assert!(matches!(err, Err(NetlistError::Geometry(_))));
    }

    #[test]
    fn rejects_nan_die() {
        let die = Rect {
            xh: f64::NAN,
            ..Rect::new(0.0, 0.0, 10.0, 10.0)
        };
        let err = Design::with_uniform_rows("t", nl(), die, 1.0, 1.0, 0.9);
        assert!(matches!(err, Err(NetlistError::Geometry(_))), "{err:?}");
    }

    #[test]
    fn rejects_nan_row() {
        let row = Row {
            y: f64::NAN,
            height: 5.0,
            xl: 0.0,
            xh: 5.0,
            site_width: 1.0,
        };
        let err = Design::new("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), vec![row], 0.9);
        assert!(matches!(err, Err(NetlistError::Geometry(_))), "{err:?}");
    }

    #[test]
    fn regions_validate_and_assign() {
        let mut d =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), 1.0, 1.0, 0.9)
                .unwrap();
        assert!(!d.has_regions());
        let r = d
            .add_region("fence", Rect::new(2.0, 2.0, 6.0, 6.0))
            .unwrap();
        let cell = crate::CellId(0);
        d.assign_region(cell, Some(r));
        assert!(d.has_regions());
        assert_eq!(d.region_of(cell).unwrap().name, "fence");
        d.assign_region(cell, None);
        assert!(d.region_of(cell).is_none());
        // region outside the die is rejected
        assert!(d
            .add_region("bad", Rect::new(5.0, 5.0, 15.0, 15.0))
            .is_err());
    }

    #[test]
    fn utilization_is_area_ratio() {
        let d =
            Design::with_uniform_rows("t", nl(), Rect::new(0.0, 0.0, 10.0, 10.0), 1.0, 1.0, 0.9)
                .unwrap();
        assert!((d.utilization() - 0.01).abs() < 1e-12);
    }
}
