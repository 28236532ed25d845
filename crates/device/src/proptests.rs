//! Property tests: geometric invariants of the fabric model.

#![cfg(test)]

use crate::capacity::SliceCapacity;
use crate::device::Device;
use crate::geom::Rect;
use crate::prefix::CapacityPrefix;
use proptest::prelude::*;

fn arb_device() -> impl Strategy<Value = Device> {
    prop_oneof![
        Just(Device::xc7z010()),
        Just(Device::xc7z020()),
        Just(Device::xc7z030()),
        Just(Device::xc7z045()),
        Just(Device::ultrascale_like()),
        Just(Device::test_fabric()),
    ]
}

fn arb_rect(max_w: u32, max_h: u32) -> impl Strategy<Value = Rect> {
    (0..max_w, 0..max_h, 1..=max_w, 1..=max_h).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capacity is additive under horizontal splits of a rectangle.
    #[test]
    fn capacity_is_column_additive(dev in arb_device(), r in arb_rect(60, 80), split in 1u32..59) {
        prop_assume!(split < r.w);
        let left = Rect::new(r.x, r.y, split, r.h);
        let right = Rect::new(r.x + split, r.y, r.w - split, r.h);
        let whole = dev.capacity_in(&r);
        let sum = dev.capacity_in(&left).saturating_add(&dev.capacity_in(&right));
        prop_assert_eq!(whole, sum);
    }

    /// Capacity is monotone under containment.
    #[test]
    fn capacity_is_monotone(dev in arb_device(), r in arb_rect(50, 70), grow in 1u32..20) {
        let bigger = Rect::new(r.x.saturating_sub(grow.min(r.x)), r.y, r.w + grow, r.h + grow);
        let inner = dev.capacity_in(&r);
        let outer = dev.capacity_in(&bigger);
        prop_assert!(outer.slices() >= inner.slices());
        prop_assert!(outer.m_slices >= inner.m_slices);
        prop_assert!(outer.bram36 >= inner.bram36);
        prop_assert!(outer.dsp48 >= inner.dsp48);
    }

    /// Every anchor returned for a signature reproduces that signature, and
    /// the signature's own origin is always among its anchors.
    #[test]
    fn anchors_are_sound_and_complete(dev in arb_device(), x0 in 0u32..80, w in 1u32..12) {
        prop_assume!(x0 + w <= dev.width());
        let sig = dev.signature(x0, w);
        let anchors = dev.matching_anchors(&sig);
        prop_assert!(anchors.contains(&x0), "own origin must anchor");
        for &a in &anchors {
            prop_assert_eq!(&dev.signature(a, w), &sig);
        }
        // Completeness: any x not in the list must mismatch.
        for x in 0..=dev.width().saturating_sub(w) {
            if !anchors.contains(&x) {
                prop_assert_ne!(&dev.signature(x, w), &sig);
            }
        }
    }

    /// A rectangle covering the whole device equals the device capacity,
    /// and degenerate rectangles are empty.
    #[test]
    fn full_and_empty_capacity(dev in arb_device(), y in 0u32..200) {
        prop_assert_eq!(dev.capacity_in(&dev.bounds()), dev.full_capacity());
        let off = Rect::new(0, dev.rows() + y, 5, 5);
        prop_assert_eq!(dev.capacity_in(&off), SliceCapacity::default());
    }

    /// The O(1) prefix-sum capacity equals the scan-based `capacity_in`
    /// for arbitrary rectangles — including off-fabric and clipped ones —
    /// on the test fabric, both paper evaluation parts, and the
    /// UltraScale-like column mix.
    #[test]
    fn prefix_capacity_matches_scan(
        which in 0usize..4,
        r in arb_rect(200, 400),
    ) {
        let dev = [
            Device::test_fabric(),
            Device::xc7z020(),
            Device::xc7z045(),
            Device::ultrascale_like(),
        ][which].clone();
        let prefix = CapacityPrefix::build(&dev);
        prop_assert_eq!(prefix.capacity_in(&r), dev.capacity_in(&r));
    }

    /// Clock-region arithmetic is consistent with the region height.
    #[test]
    fn regions_spanned_is_consistent(dev in arb_device(), y in 0u32..300, h in 1u32..200) {
        prop_assume!(y + h <= dev.rows());
        let spanned = dev.regions_spanned(y, h);
        prop_assert!(spanned >= 1);
        prop_assert!(spanned <= h.div_ceil(crate::capacity::CLOCK_REGION_ROWS) + 1);
        prop_assert_eq!(
            spanned,
            dev.clock_region_of(y + h - 1) - dev.clock_region_of(y) + 1
        );
    }
}
