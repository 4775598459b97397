//! Typed indices for cells, nets, and pins.
//!
//! The netlist is stored in flat arrays (structure-of-arrays, CSR style), so
//! everything is referenced by index. Newtypes keep the three index spaces
//! from being mixed up at compile time ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Builds the id from a `usize` index.
            ///
            /// # Panics
            ///
            /// Panics if `idx` does not fit in `u32`; a silent `as u32`
            /// would alias two ids instead.
            #[inline]
            pub fn from_usize(idx: usize) -> Self {
                // lint:allow(no-panic-lib): no netlist reaches 2^32 cells, nets or pins: at 28+ bytes per entry one id space alone would need over 100 GB
                Self(u32::try_from(idx).expect("index exceeds u32::MAX"))
            }

            /// The raw index, for direct slice access.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Index of a cell (movable node, fixed macro, or terminal).
    CellId,
    "c"
);
define_id!(
    /// Index of a net (hyperedge).
    NetId,
    "n"
);
define_id!(
    /// Index of a pin (one endpoint of a net on a cell).
    PinId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let c = CellId::from_usize(42);
        assert_eq!(c.index(), 42);
        assert_eq!(usize::from(c), 42);
        assert_eq!(c.to_string(), "c42");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NetId(1) < NetId(2));
        assert_eq!(PinId(7), PinId(7));
    }

    #[test]
    #[should_panic(expected = "index exceeds u32::MAX")]
    fn oversized_index_panics() {
        let _ = CellId::from_usize(u32::MAX as usize + 1);
    }
}
