//! Cell primitives and control sets.

use core::fmt;

/// Index of a cell within its [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A control set: the (clock, reset, enable) signal combination steering a
/// sequential element. Flip-flops of *different* control sets cannot share a
/// slice FF group, which is the packing-loss mechanism of Section V-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ControlSet {
    /// Clock net id.
    pub clock: u16,
    /// Reset net id (0 = no reset).
    pub reset: u16,
    /// Clock-enable net id (0 = always enabled).
    pub enable: u16,
}

impl ControlSet {
    /// Construct a control set from its three signal ids.
    pub const fn new(clock: u16, reset: u16, enable: u16) -> Self {
        ControlSet {
            clock,
            reset,
            enable,
        }
    }

    /// The default single-clock, no-reset, no-enable control set.
    pub const fn basic() -> Self {
        ControlSet {
            clock: 0,
            reset: 0,
            enable: 0,
        }
    }
}

impl fmt::Display for ControlSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs(c{},r{},e{})", self.clock, self.reset, self.enable)
    }
}

/// The slice-level primitive a cell maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A LUT used as combinational logic.
    Lut {
        /// Used input count (1..=6).
        inputs: u8,
    },
    /// A flip-flop with its control set.
    Ff {
        /// Steering control set.
        cs: ControlSet,
    },
    /// One carry bit. A chain of n bits occupies ⌈n/4⌉ vertically adjacent
    /// slices and constrains the PBlock height (Section V-C).
    Carry {
        /// Chain identifier shared by all bits of one chain.
        chain: u32,
        /// Bit position within the chain.
        position: u32,
    },
    /// A LUT used as distributed RAM (requires an M-type slice).
    LutRam {
        /// Steering control set.
        cs: ControlSet,
    },
    /// A LUT used as a shift register (requires an M-type slice).
    Srl {
        /// Steering control set.
        cs: ControlSet,
    },
    /// A RAMB36 block RAM.
    Bram,
    /// A DSP48 slice.
    Dsp,
}

impl CellKind {
    /// Whether the cell is combinational (participates in logic depth).
    #[inline]
    pub fn is_combinational(&self) -> bool {
        matches!(self, CellKind::Lut { .. } | CellKind::Carry { .. })
    }

    /// Whether the cell is steered by a control set.
    #[inline]
    pub fn control_set(&self) -> Option<ControlSet> {
        match self {
            CellKind::Ff { cs } | CellKind::LutRam { cs } | CellKind::Srl { cs } => Some(*cs),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_set_extraction() {
        let cs = ControlSet::new(0, 2, 3);
        assert_eq!(CellKind::Ff { cs }.control_set(), Some(cs));
        assert_eq!(CellKind::LutRam { cs }.control_set(), Some(cs));
        assert_eq!(CellKind::Srl { cs }.control_set(), Some(cs));
        assert_eq!(CellKind::Lut { inputs: 4 }.control_set(), None);
        assert_eq!(CellKind::Bram.control_set(), None);
    }

    #[test]
    fn combinational_classification() {
        assert!(CellKind::Lut { inputs: 6 }.is_combinational());
        assert!(CellKind::Carry {
            chain: 0,
            position: 0
        }
        .is_combinational());
        assert!(!CellKind::Ff {
            cs: ControlSet::basic()
        }
        .is_combinational());
        assert!(!CellKind::Dsp.is_combinational());
    }

    #[test]
    fn control_sets_order_and_display() {
        let a = ControlSet::new(0, 0, 0);
        let b = ControlSet::new(0, 1, 0);
        assert!(a < b);
        assert_eq!(format!("{b}"), "cs(c0,r1,e0)");
    }
}
