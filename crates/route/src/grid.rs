//! The channel grid: per-cell horizontal/vertical track bookkeeping.

/// Usage counters of one routing cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelUsage {
    /// Horizontal tracks in use.
    pub h: u32,
    /// Vertical tracks in use.
    pub v: u32,
    /// Accumulated history cost (PathFinder negotiation).
    pub history: f64,
}

/// A `width × height` grid of routing cells with uniform capacities.
#[derive(Debug, Clone)]
pub struct ChannelGrid {
    width: u32,
    height: u32,
    h_cap: u32,
    v_cap: u32,
    cells: Vec<ChannelUsage>,
    /// Cells over capacity in either direction, kept current by
    /// [`ChannelGrid::occupy`] and [`ChannelGrid::release`].
    overused_cells: usize,
}

impl ChannelGrid {
    /// An empty grid.
    pub fn new(width: u32, height: u32, h_cap: u32, v_cap: u32) -> Self {
        ChannelGrid {
            width,
            height,
            h_cap,
            v_cap,
            cells: vec![ChannelUsage::default(); (width * height) as usize],
            overused_cells: 0,
        }
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) as usize
    }

    /// Usage of one cell.
    pub fn usage(&self, x: u32, y: u32) -> ChannelUsage {
        self.cells[self.idx(x, y)]
    }

    /// Negotiated cost of crossing cell `(x, y)` in the given direction:
    /// base 1, plus history, plus a quadratic penalty once the channel is
    /// at or beyond capacity.
    pub fn cost(&self, x: u32, y: u32, horizontal: bool, pressure: f64) -> f64 {
        let u = self.cells[self.idx(x, y)];
        let (used, cap) = if horizontal {
            (u.h, self.h_cap)
        } else {
            (u.v, self.v_cap)
        };
        let over = (used + 1).saturating_sub(cap) as f64;
        1.0 + u.history + pressure * over * over
    }

    #[inline]
    fn over(&self, u: ChannelUsage) -> bool {
        u.h > self.h_cap || u.v > self.v_cap
    }

    /// Occupy `tracks` tracks through the cell.
    pub fn occupy(&mut self, x: u32, y: u32, horizontal: bool, tracks: u32) {
        let i = self.idx(x, y);
        let was = self.over(self.cells[i]);
        let c = &mut self.cells[i];
        if horizontal {
            c.h += tracks;
        } else {
            c.v += tracks;
        }
        self.overused_cells += usize::from(!was && self.over(self.cells[i]));
    }

    /// Release `tracks` tracks through the cell, saturating at zero.
    pub fn release(&mut self, x: u32, y: u32, horizontal: bool, tracks: u32) {
        let i = self.idx(x, y);
        let was = self.over(self.cells[i]);
        let c = &mut self.cells[i];
        if horizontal {
            c.h = c.h.saturating_sub(tracks);
        } else {
            c.v = c.v.saturating_sub(tracks);
        }
        self.overused_cells -= usize::from(was && !self.over(self.cells[i]));
    }

    /// Whether the cell is overused in either direction.
    pub fn overused(&self, x: u32, y: u32) -> bool {
        self.over(self.cells[self.idx(x, y)])
    }

    /// Number of overused cells.
    pub fn overused_cells(&self) -> usize {
        self.overused_cells
    }

    /// Add history cost to every currently-overused cell (end of a
    /// negotiation iteration).
    pub fn accumulate_history(&mut self, increment: f64) -> usize {
        let mut over = 0;
        let (h_cap, v_cap) = (self.h_cap, self.v_cap);
        for c in &mut self.cells {
            if c.h > h_cap || c.v > v_cap {
                c.history += increment;
                over += 1;
            }
        }
        over
    }

    /// Coordinates and usage of overused cells (up to `limit`).
    pub fn overflow_hotspots(&self, limit: usize) -> Vec<(u32, u32, u32, u32)> {
        let mut out = Vec::new();
        'outer: for y in 0..self.height {
            for x in 0..self.width {
                let u = self.cells[self.idx(x, y)];
                if u.h > self.h_cap || u.v > self.v_cap {
                    out.push((x, y, u.h, u.v));
                    if out.len() >= limit {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    /// Number of overused cells, counted by a full scan: the oracle for
    /// [`ChannelGrid::overused_cells`].
    #[cfg(test)]
    pub(crate) fn overflow_count(&self) -> usize {
        self.cells.iter().filter(|&&c| self.over(c)).count()
    }

    /// Peak utilisation over all cells: `max(used / cap)` per direction.
    ///
    /// Division by a positive capacity is monotonic, so the busiest
    /// cell's quotient is the quotient of the largest usage.
    pub fn peak_utilization(&self) -> f64 {
        let (h, v) = self
            .cells
            .iter()
            .fold((0, 0), |(h, v), c| (c.h.max(h), c.v.max(v)));
        let h = f64::from(h) / f64::from(self.h_cap.max(1));
        let v = f64::from(v) / f64::from(self.v_cap.max(1));
        h.max(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every multi-track occupy or release, on random cells in
        /// both directions, over- and under-releasing included, the kept
        /// overused-cell count equals a full scan.
        #[test]
        fn kept_overflow_count_matches_a_scan(
            w in 1u32..8,
            h in 1u32..8,
            caps in (0u32..5, 0u32..5),
            ops in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 0u32..64, 0u32..6), 1..120),
        ) {
            let mut g = ChannelGrid::new(w, h, caps.0, caps.1);
            for (occupy, horizontal, cell, tracks) in ops {
                let (x, y) = (cell % w, (cell / w) % h);
                if occupy {
                    g.occupy(x, y, horizontal, tracks);
                } else {
                    g.release(x, y, horizontal, tracks);
                }
                prop_assert_eq!(g.overused_cells(), g.overflow_count());
            }
        }
    }

    #[test]
    fn occupy_release_roundtrip() {
        let mut g = ChannelGrid::new(4, 4, 2, 2);
        g.occupy(1, 2, true, 2);
        g.occupy(1, 2, false, 1);
        assert_eq!(g.usage(1, 2).h, 2);
        assert_eq!(g.usage(1, 2).v, 1);
        assert!(!g.overused(1, 2));
        g.occupy(1, 2, true, 1);
        assert!(g.overused(1, 2));
        assert_eq!(g.overused_cells(), 1);
        g.release(1, 2, true, 1);
        assert!(!g.overused(1, 2));
        assert_eq!(g.overused_cells(), 0);
        // Releasing an empty cell saturates at zero.
        g.release(0, 0, false, 3);
        assert_eq!(g.usage(0, 0).v, 0);
    }

    #[test]
    fn cost_grows_with_congestion_and_history() {
        let mut g = ChannelGrid::new(2, 2, 1, 1);
        let base = g.cost(0, 0, true, 5.0);
        assert_eq!(base, 1.0);
        g.occupy(0, 0, true, 1); // at capacity: next track overflows
        assert!(g.cost(0, 0, true, 5.0) > base);
        let over = g.accumulate_history(0.5);
        assert_eq!(over, 0, "at capacity is not over capacity");
        g.occupy(0, 0, true, 1);
        assert_eq!(g.accumulate_history(0.5), 1);
        assert!(g.cost(0, 0, true, 5.0) > 6.0);
    }

    #[test]
    fn peak_utilization_tracks_worst_cell() {
        let mut g = ChannelGrid::new(3, 3, 4, 4);
        assert_eq!(g.peak_utilization(), 0.0);
        g.occupy(2, 2, false, 2);
        assert!((g.peak_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(g.overused_cells(), 0);
    }
}
