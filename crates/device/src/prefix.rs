//! O(1) window-capacity queries: per-column prefix sums over the fabric.
//!
//! [`Device::capacity_in`] scans every column under the rectangle — fine for
//! a one-off query, but the correction-factor search evaluates thousands of
//! candidate rectangles per module. A [`CapacityPrefix`] is built once per
//! device and answers the same query with five prefix-sum lookups.
//!
//! The equivalence with the column scan is exact, not approximate: within
//! one rectangle every column of a kind contributes the same count (plain
//! rows for CLB columns, `aligned_sites` for BRAM/DSP, one per clock
//! column), so summing per column equals multiplying the per-column count by
//! the number of columns of that kind — which is what the prefix difference
//! yields. A property test in `proptests` pins the two implementations
//! against each other on every modelled device.

use crate::capacity::{SliceCapacity, DSP48_ROWS, RAMB36_ROWS};
use crate::device::{aligned_sites, Device};
use crate::geom::Rect;
use crate::kinds::ColumnKind;

/// Per-column cumulative kind counts for a fixed device, answering
/// [`Device::capacity_in`]-equivalent queries in O(1).
#[derive(Debug, Clone)]
pub struct CapacityPrefix {
    width: u32,
    rows: u32,
    l: Vec<u32>,
    m: Vec<u32>,
    bram_cols: Vec<u32>,
    dsp_cols: Vec<u32>,
    clock_cols: Vec<u32>,
}

impl CapacityPrefix {
    /// Build the prefix tables for `device` (one O(width) pass).
    pub fn build(device: &Device) -> CapacityPrefix {
        let w = device.width() as usize;
        let mut l = vec![0u32; w + 1];
        let mut m = vec![0u32; w + 1];
        let mut bram_cols = vec![0u32; w + 1];
        let mut dsp_cols = vec![0u32; w + 1];
        let mut clock_cols = vec![0u32; w + 1];
        for (i, col) in device.columns().iter().enumerate() {
            l[i + 1] = l[i] + u32::from(col.kind == ColumnKind::ClbL);
            m[i + 1] = m[i] + u32::from(col.kind == ColumnKind::ClbM);
            bram_cols[i + 1] = bram_cols[i] + u32::from(col.kind == ColumnKind::Bram);
            dsp_cols[i + 1] = dsp_cols[i] + u32::from(col.kind == ColumnKind::Dsp);
            clock_cols[i + 1] = clock_cols[i] + u32::from(col.kind == ColumnKind::Clock);
        }
        CapacityPrefix {
            width: device.width(),
            rows: device.rows(),
            l,
            m,
            bram_cols,
            dsp_cols,
            clock_cols,
        }
    }

    /// Number of columns on the device the tables were built for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of slice rows on the device the tables were built for.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The full-device bounding rectangle (same as [`Device::bounds`]).
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.rows)
    }

    /// Aggregate capacity inside `rect`, clipped to the device — an O(1)
    /// drop-in for [`Device::capacity_in`] with identical results for every
    /// rectangle, including ones partially or fully off the fabric.
    pub fn capacity_in(&self, rect: &Rect) -> SliceCapacity {
        let x_end = rect.right().min(self.width);
        let y0 = rect.y.min(self.rows);
        let y1 = rect.top().min(self.rows);
        let rows = y1.saturating_sub(y0);
        if rows == 0 {
            return SliceCapacity::default();
        }
        // When rect.x is past the clipped right edge, the column range is
        // empty; clamp so the prefix difference cannot underflow.
        let a = rect.x.min(x_end) as usize;
        let b = x_end as usize;
        SliceCapacity {
            l_slices: (self.l[b] - self.l[a]) * rows,
            m_slices: (self.m[b] - self.m[a]) * rows,
            bram36: (self.bram_cols[b] - self.bram_cols[a]) * aligned_sites(y0, y1, RAMB36_ROWS),
            dsp48: (self.dsp_cols[b] - self.dsp_cols[a]) * aligned_sites(y0, y1, DSP48_ROWS),
            clock_columns: self.clock_cols[b] - self.clock_cols[a],
        }
    }

    /// The cumulative column-count tables `(clb_l, clb_m, bram, dsp)`,
    /// each of length `width + 1`; entry `x` counts the columns of that
    /// kind in `[0, x)`. Exposed so window sweeps can test per-kind counts
    /// directly instead of materialising a [`SliceCapacity`] per candidate.
    pub fn kind_prefix_tables(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (&self.l, &self.m, &self.bram_cols, &self.dsp_cols)
    }

    /// BRAM36 sites each BRAM column contributes to a window spanning rows
    /// `[0, h)` (clipped to the device) — the per-column factor of
    /// [`Self::capacity_in`] for such windows.
    pub fn bram36_sites_in_height(&self, h: u32) -> u32 {
        aligned_sites(0, h.min(self.rows), RAMB36_ROWS)
    }

    /// DSP48 sites each DSP column contributes to a window spanning rows
    /// `[0, h)` (clipped to the device).
    pub fn dsp48_sites_in_height(&self, h: u32) -> u32 {
        aligned_sites(0, h.min(self.rows), DSP48_ROWS)
    }

    /// Number of CLB (L or M) columns in the column range `[x0, x_end)`,
    /// clipped to the device width.
    pub fn clb_columns_in(&self, x0: u32, x_end: u32) -> u32 {
        let b = x_end.min(self.width) as usize;
        let a = x0.min(x_end.min(self.width)) as usize;
        (self.l[b] - self.l[a]) + (self.m[b] - self.m[a])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_scan_on_edge_rects() {
        for dev in [
            Device::test_fabric(),
            Device::xc7z020(),
            Device::xc7z045(),
            Device::ultrascale_like(),
        ] {
            let p = CapacityPrefix::build(&dev);
            assert_eq!(p.bounds(), dev.bounds());
            let w = dev.width();
            let r = dev.rows();
            let cases = [
                Rect::new(0, 0, w, r),           // full device
                Rect::new(0, 0, w + 10, r + 10), // over both edges
                Rect::new(w - 1, 0, 5, 5),       // clipped right
                Rect::new(w + 3, 0, 2, 2),       // fully right of fabric
                Rect::new(0, r, 4, 4),           // fully above fabric
                Rect::new(3, r - 1, 4, 9),       // clipped top
                Rect::new(0, 0, 1, 1),           // unit
                Rect::new(5, 7, 0, 3),           // zero width
                Rect::new(5, 7, 3, 0),           // zero height
            ];
            for rect in cases {
                assert_eq!(
                    p.capacity_in(&rect),
                    dev.capacity_in(&rect),
                    "{} rect {rect:?}",
                    dev.name()
                );
            }
        }
    }

    #[test]
    fn clb_columns_match_a_column_scan() {
        let dev = Device::xc7z020();
        let p = CapacityPrefix::build(&dev);
        for (x0, x_end) in [(0u32, 10u32), (5, 5), (20, 60), (80, 200), (0, dev.width())] {
            let scan = (x0..x_end.min(dev.width()))
                .filter(|&x| dev.column(x).kind.is_clb())
                .count() as u32;
            assert_eq!(p.clb_columns_in(x0, x_end), scan, "[{x0}, {x_end})");
        }
    }
}
