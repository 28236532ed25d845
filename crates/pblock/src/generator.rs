//! The Figure-1 PBlock generator.

use tms_device::{
    CapacityPrefix, ColumnSignature, Device, Rect, SliceCapacity, DSP48_ROWS, RAMB36_ROWS,
};
use tms_place::ShapeReport;

/// A concrete rectangular area constraint for one module's implementation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PBlock {
    /// Location and extent on the pre-implementation device (anchored at
    /// row 0; the stitcher relocates it later).
    pub rect: Rect,
    /// Column-kind sequence under the rectangle — the relocation signature.
    pub signature: ColumnSignature,
    /// Resource capacity inside the rectangle.
    pub capacity: SliceCapacity,
    /// The correction factor this PBlock was generated for.
    pub cf: f64,
    /// The slice target `⌈estimate · cf⌉` the generator satisfied.
    pub target_slices: u32,
}

/// A hint carried between [`PBlockGenerator::plan_target_resumed`] calls
/// of one module's CF search: the previous (no-larger) target, the initial
/// height its growth sequence started from, and the rectangle it settled
/// on (or `None` when the device was exhausted).
pub(crate) struct PlanResume {
    pub(crate) target: u32,
    pub(crate) h_init: u32,
    pub(crate) result: Option<Rect>,
    /// `⌈target / result.h⌉` — the CLB-column threshold of the settled
    /// window sweep (0 when `result` is `None`). When the next target
    /// rounds to the same threshold at that height, the sweep would make
    /// identical decisions, so its result can be reused outright.
    pub(crate) need_clb: u32,
}

/// Generates PBlocks on a fixed device per Figure 1.
pub struct PBlockGenerator<'d> {
    device: &'d Device,
    prefix: CapacityPrefix,
    /// Whether the carry-chain shape report constrains the height.
    /// Disabling this reproduces the Section V-C failure mode.
    pub use_shape_report: bool,
}

impl<'d> PBlockGenerator<'d> {
    /// Create a generator for `device`.
    pub fn new(device: &'d Device, use_shape_report: bool) -> Self {
        PBlockGenerator {
            device,
            prefix: CapacityPrefix::build(device),
            use_shape_report,
        }
    }

    /// The device PBlocks are generated on.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// The per-column capacity prefix tables of the device — shared with
    /// the search engine so legality checks stay O(1).
    pub fn prefix(&self) -> &CapacityPrefix {
        &self.prefix
    }

    /// The slice target `⌈estimate · max(cf, 0)⌉` the generator aims for.
    pub fn slice_target(&self, shape: &ShapeReport, cf: f64) -> u32 {
        (f64::from(shape.est_slices) * cf.max(0.0)).ceil() as u32
    }

    /// Generate the PBlock for `shape` at correction factor `cf`.
    ///
    /// Returns `None` when no rectangle on the device can satisfy the slice
    /// target and hard demand (module too large for the part).
    pub fn generate(&self, shape: &ShapeReport, cf: f64) -> Option<PBlock> {
        let cf = cf.max(0.0);
        let target = self.slice_target(shape, cf);
        let rect = self.plan_target(shape, target)?;
        Some(self.freeze(rect, cf, target))
    }

    /// The window-search half of [`Self::generate`]: find the rectangle the
    /// PBlock would occupy at `cf`, without materialising the (signature +
    /// capacity) PBlock. The search engine uses this to screen a candidate
    /// rectangle before paying for the freeze.
    pub fn plan(&self, shape: &ShapeReport, cf: f64) -> Option<Rect> {
        self.plan_target(shape, self.slice_target(shape, cf))
    }

    /// [`Self::plan`] keyed directly by the slice target. The planned
    /// rectangle depends on `cf` only through the target, so callers that
    /// step CF can reuse the previous plan whenever the target is unchanged.
    pub(crate) fn plan_target(&self, shape: &ShapeReport, target: u32) -> Option<Rect> {
        self.plan_target_resumed(shape, target, None).0
    }

    /// [`Self::plan_target`] with an optional resumption hint from an
    /// earlier, no-larger target of the *same shape*. Also returns the
    /// initial height of the growth sequence so callers can build the next
    /// hint. The deductions are exact, so the returned rectangle is
    /// identical to a from-scratch plan:
    ///
    /// * window feasibility is antitone in the target, so a smaller
    ///   target's `None` stays `None` (the growth loop always ends at the
    ///   full device height, where that smaller target already failed);
    /// * the height-growth sequence is a pure function of its initial
    ///   height, so when that matches, every height the earlier plan
    ///   rejected before settling is rejected again — the loop can start
    ///   directly at the earlier plan's height.
    pub(crate) fn plan_target_resumed(
        &self,
        shape: &ShapeReport,
        target: u32,
        resume: Option<&PlanResume>,
    ) -> (Option<Rect>, u32) {
        let demand = shape.demand;

        if target == 0 && demand == SliceCapacity::default() {
            // Degenerate one-tile PBlock.
            return (Some(Rect::new(0, 0, 1, 1)), 0);
        }

        let rows = self.device.rows();
        let mut h = ((f64::from(target) / shape.aspect).sqrt().ceil() as u32).max(1);
        if self.use_shape_report {
            h = h.max(shape.min_height);
        }
        // BRAM/DSP sites only count in whole spans: round the height up so
        // a module with hard blocks is not starved by alignment.
        if demand.bram36 > 0 {
            h = h.max(RAMB36_ROWS);
        }
        if demand.dsp48 > 0 {
            h = h.max(DSP48_ROWS);
        }
        h = h.min(rows);
        let h_init = h;
        if let Some(prev) = resume {
            if prev.target <= target {
                match prev.result {
                    None => return (None, h_init),
                    Some(rect) if prev.h_init == h_init => {
                        // The demand thresholds depend only on the height,
                        // so when the CLB threshold also matches, the sweep
                        // at `rect.h` sees the identical threshold vector
                        // and returns the identical window.
                        if target.div_ceil(rect.h) == prev.need_clb {
                            return (Some(rect), h_init);
                        }
                        h = rect.h;
                    }
                    _ => {}
                }
            }
        }

        loop {
            if let Some((x0, w)) = self.best_window(target, &demand, h) {
                return (Some(Rect::new(x0, 0, w, h)), h_init);
            }
            if h >= rows {
                return (None, h_init);
            }
            // Full width was insufficient at this height: grow the height.
            h = (h + (h / 4).max(1)).min(rows);
        }
    }

    /// Minimal-width window at height `h` covering target and demand;
    /// ties broken towards the leftmost x. Monotonicity of coverage in `w`
    /// admits a two-pointer sweep.
    ///
    /// A window of height `h ≤ rows` anchored at row 0 provides
    /// `columns-of-kind × per-column-sites`, so each capacity test reduces
    /// to a per-kind column-count threshold — the sweep compares four
    /// prefix differences per candidate instead of materialising a
    /// [`SliceCapacity`]. The thresholds are exact (`cols · per ≥ need ⟺
    /// cols ≥ ⌈need / per⌉` for integer `per > 0`), so the chosen window
    /// is identical to the capacity-based sweep; a unit test pins the two
    /// against each other.
    fn best_window(&self, target: u32, demand: &SliceCapacity, h: u32) -> Option<(u32, u32)> {
        let width = self.device.width();
        let need_clb = target.div_ceil(h);
        let need_m = demand.m_slices.div_ceil(h);
        let bram_per_col = self.prefix.bram36_sites_in_height(h);
        let need_bram = if demand.bram36 == 0 {
            0
        } else if bram_per_col == 0 {
            return None; // no window at this height holds a whole BRAM span
        } else {
            demand.bram36.div_ceil(bram_per_col)
        };
        let dsp_per_col = self.prefix.dsp48_sites_in_height(h);
        let need_dsp = if demand.dsp48 == 0 {
            0
        } else if dsp_per_col == 0 {
            return None;
        } else {
            demand.dsp48.div_ceil(dsp_per_col)
        };
        let (l, m, bram, dsp) = self.prefix.kind_prefix_tables();
        let ok = |x0: u32, w: u32| {
            let (a, b) = (x0 as usize, (x0 + w) as usize);
            let m_cols = m[b] - m[a];
            (l[b] - l[a]) + m_cols >= need_clb
                && m_cols >= need_m
                && bram[b] - bram[a] >= need_bram
                && dsp[b] - dsp[a] >= need_dsp
        };
        // The full-width window dominates every other: if it fails, this
        // height is infeasible and the sweep can be skipped outright.
        if !ok(0, width) {
            return None;
        }
        let mut best: Option<(u32, u32)> = None;
        let mut w = 1u32;
        for x0 in 0..width {
            if x0 + w > width {
                break;
            }
            // Grow until this window works, then try shrinking from the left
            // at the next x0 (classic minimal-window sweep).
            while x0 + w <= width && !ok(x0, w) {
                w += 1;
            }
            if x0 + w > width {
                break;
            }
            match best {
                Some((_, bw)) if bw <= w => {}
                _ => best = Some((x0, w)),
            }
            // Try a narrower window at subsequent positions.
            if w > 1 {
                w -= 1;
            }
        }
        best
    }

    /// Materialise the PBlock for a planned rectangle: capacity via the
    /// O(1) prefix tables, signature from the device columns.
    pub(crate) fn freeze(&self, rect: Rect, cf: f64, target: u32) -> PBlock {
        let capacity = self.prefix.capacity_in(&rect);
        let signature = self.device.signature(rect.x, rect.w);
        PBlock {
            rect,
            signature,
            capacity,
            cf,
            target_slices: target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_device::Device;
    use tms_netlist::{ControlSet, NetlistBuilder};
    use tms_place::quick_place;
    use tms_synth::pack;

    fn shape(build: impl FnOnce(&mut NetlistBuilder)) -> ShapeReport {
        let mut b = NetlistBuilder::new("g");
        build(&mut b);
        let stats = b.finish().stats();
        let packing = pack(&stats);
        quick_place(&stats, &packing)
    }

    #[test]
    fn pblock_covers_target_and_demand() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|b| {
            for _ in 0..400 {
                b.lut(6);
            }
            for _ in 0..30 {
                b.lutram(ControlSet::basic());
            }
            b.bram();
        });
        let p = gen.generate(&s, 1.2).expect("feasible pblock");
        assert!(p.capacity.slices() >= p.target_slices);
        assert!(p.capacity.m_slices >= s.demand.m_slices);
        assert!(p.capacity.bram36 >= 1);
        assert_eq!(p.signature.width(), p.rect.w);
    }

    #[test]
    fn higher_cf_never_shrinks_the_pblock() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|b| {
            for _ in 0..800 {
                b.lut(5);
            }
        });
        let mut last_area = 0;
        for cf10 in [8u32, 10, 12, 15, 20] {
            let cf = f64::from(cf10) / 10.0;
            let p = gen.generate(&s, cf).unwrap();
            assert!(
                p.capacity.slices() + 60 >= last_area,
                "slices dropped sharply at cf {cf}: {} < {last_area}",
                p.capacity.slices()
            );
            last_area = last_area.max(p.capacity.slices());
        }
    }

    #[test]
    fn shape_report_enforces_chain_height() {
        let dev = Device::xc7z020();
        let with = PBlockGenerator::new(&dev, true);
        let without = PBlockGenerator::new(&dev, false);
        let s = shape(|b| {
            b.carry_chain(120); // 30 slices tall
        });
        let p_with = with.generate(&s, 1.0).unwrap();
        assert!(p_with.rect.h >= 30);
        let p_without = without.generate(&s, 1.0).unwrap();
        // Ignoring the report yields a square-ish block too short for the
        // chain — the Section V-C wrong-shape failure.
        assert!(p_without.rect.h < 30);
    }

    #[test]
    fn impossible_demand_returns_none() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|b| {
            for _ in 0..200 {
                b.bram(); // more BRAM than the device has columns for
            }
        });
        assert!(gen.generate(&s, 1.0).is_none());
    }

    #[test]
    fn degenerate_module_gets_unit_pblock() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|_| {});
        let p = gen.generate(&s, 1.0).unwrap();
        assert_eq!(p.rect.area(), 1);
    }

    #[test]
    fn prefix_window_matches_device_capacity() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        for (x0, w, h) in [(0u32, 5u32, 10u32), (10, 8, 25), (30, 20, 50), (0, 89, 150)] {
            let fast = gen.prefix().capacity_in(&Rect::new(x0, 0, w, h));
            let slow = dev.capacity_in(&Rect::new(x0, 0, w, h));
            assert_eq!(fast, slow, "window ({x0},{w},{h})");
        }
    }

    #[test]
    fn plan_and_freeze_compose_to_generate() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|b| {
            for _ in 0..500 {
                b.lut(6);
            }
            b.bram();
            b.carry_chain(40);
        });
        for cf10 in [0u32, 5, 9, 12, 20, 30] {
            let cf = f64::from(cf10) / 10.0;
            let planned = gen.plan(&s, cf);
            let generated = gen.generate(&s, cf);
            match (planned, generated) {
                (Some(rect), Some(p)) => {
                    assert_eq!(rect, p.rect, "cf {cf}");
                    assert_eq!(p.target_slices, gen.slice_target(&s, cf));
                }
                (None, None) => {}
                (a, b) => panic!("plan {a:?} vs generate {b:?} at cf {cf}"),
            }
        }
    }

    /// The threshold-based window sweep must choose the same window as a
    /// sweep that materialises the full capacity per candidate (the
    /// original formulation).
    #[test]
    fn threshold_sweep_matches_capacity_sweep() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let width = dev.width();
        let shapes = [
            shape(|b| {
                for _ in 0..400 {
                    b.lut(6);
                }
                for _ in 0..30 {
                    b.lutram(ControlSet::basic());
                }
                b.bram();
            }),
            shape(|b| {
                for _ in 0..12 {
                    b.bram();
                }
                b.dsp();
                for _ in 0..20 {
                    b.lut(4);
                }
            }),
            shape(|b| {
                b.carry_chain(120);
            }),
        ];
        for s in &shapes {
            for target in [0u32, 1, 7, 50, 200, 800, 3000] {
                for h in [1u32, 3, 9, 10, 20, 50, 150] {
                    let demand = s.demand;
                    let ok = |x0: u32, w: u32| {
                        let cap = dev.capacity_in(&Rect::new(x0, 0, w, h));
                        cap.slices() >= target
                            && cap.m_slices >= demand.m_slices
                            && cap.bram36 >= demand.bram36
                            && cap.dsp48 >= demand.dsp48
                    };
                    let mut slow: Option<(u32, u32)> = None;
                    let mut w = 1u32;
                    for x0 in 0..width {
                        if x0 + w > width {
                            break;
                        }
                        while x0 + w <= width && !ok(x0, w) {
                            w += 1;
                        }
                        if x0 + w > width {
                            break;
                        }
                        match slow {
                            Some((_, bw)) if bw <= w => {}
                            _ => slow = Some((x0, w)),
                        }
                        if w > 1 {
                            w -= 1;
                        }
                    }
                    assert_eq!(
                        gen.best_window(target, &demand, h),
                        slow,
                        "target {target} h {h}"
                    );
                }
            }
        }
    }

    /// Chained resumed planning over a nondecreasing target sequence must
    /// settle on the same rectangles as planning each target from scratch.
    #[test]
    fn resumed_planning_matches_from_scratch() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let shapes = [
            shape(|b| {
                for _ in 0..500 {
                    b.lut(6);
                }
                b.bram();
                b.carry_chain(40);
            }),
            shape(|b| {
                for _ in 0..60 {
                    b.lutram(ControlSet::basic());
                }
                b.dsp();
            }),
            shape(|_| {}),
        ];
        for s in &shapes {
            let mut resume: Option<PlanResume> = None;
            for target in (0..3000).step_by(37) {
                let fresh = gen.plan_target(s, target);
                let (resumed, h_init) = gen.plan_target_resumed(s, target, resume.as_ref());
                assert_eq!(resumed, fresh, "target {target}");
                resume = Some(PlanResume {
                    target,
                    h_init,
                    result: resumed,
                    need_clb: resumed.map_or(0, |r| target.div_ceil(r.h)),
                });
            }
        }
    }

    #[test]
    fn bram_module_pblock_contains_excess_slices() {
        // The Figure-4 CF<0.7 mechanism: BRAM-driven PBlocks carry far more
        // slices than the logic needs, so tiny CFs stay feasible.
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let s = shape(|b| {
            for _ in 0..12 {
                b.bram();
            }
            for _ in 0..20 {
                b.lut(4);
            }
        });
        let p = gen.generate(&s, 0.5).unwrap();
        assert!(p.capacity.slices() > 4 * p.target_slices);
    }
}
