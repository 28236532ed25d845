//! Column kinds of the 7-series fabric model.

use core::fmt;

/// The resource type of one fabric column.
///
/// A 7-series device is, to first order, a horizontal sequence of columns
/// where every column carries a single site type. This is the property that
/// makes pre-implemented macros relocatable: a placed-and-routed module can
/// move to any x-offset where the sequence of column kinds under its
/// bounding box is identical (see `Device::matching_anchors`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ColumnKind {
    /// CLB column of L-type slices (logic only: 4 LUT6 + 8 FF + CARRY4).
    ClbL,
    /// CLB column of M-type slices (logic plus LUTRAM / SRL capability).
    ClbM,
    /// Block RAM column (RAMB36 sites, each spanning several rows).
    Bram,
    /// DSP column (DSP48 sites, each spanning several rows).
    Dsp,
    /// Clock distribution column. Carries no user logic; PBlocks spanning
    /// one suffer a timing penalty (Section IV of the paper).
    Clock,
}

impl ColumnKind {
    /// Whether user logic slices live in this column.
    #[inline]
    pub fn is_clb(self) -> bool {
        matches!(self, ColumnKind::ClbL | ColumnKind::ClbM)
    }

    /// Short mnemonic used in signatures and debug dumps.
    pub fn mnemonic(self) -> char {
        match self {
            ColumnKind::ClbL => 'L',
            ColumnKind::ClbM => 'M',
            ColumnKind::Bram => 'B',
            ColumnKind::Dsp => 'D',
            ColumnKind::Clock => 'K',
        }
    }

    /// Parse the mnemonic produced by [`ColumnKind::mnemonic`].
    pub fn from_mnemonic(c: char) -> Option<Self> {
        Some(match c {
            'L' => ColumnKind::ClbL,
            'M' => ColumnKind::ClbM,
            'B' => ColumnKind::Bram,
            'D' => ColumnKind::Dsp,
            'K' => ColumnKind::Clock,
            _ => return None,
        })
    }
}

impl fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for k in [
            ColumnKind::ClbL,
            ColumnKind::ClbM,
            ColumnKind::Bram,
            ColumnKind::Dsp,
            ColumnKind::Clock,
        ] {
            assert_eq!(ColumnKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(ColumnKind::from_mnemonic('x'), None);
    }

    #[test]
    fn clb_classification() {
        assert!(ColumnKind::ClbL.is_clb());
        assert!(ColumnKind::ClbM.is_clb());
        assert!(!ColumnKind::Bram.is_clb());
        assert!(!ColumnKind::Dsp.is_clb());
        assert!(!ColumnKind::Clock.is_clb());
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(format!("{}", ColumnKind::ClbM), "M");
    }
}
