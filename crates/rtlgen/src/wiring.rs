//! Shared wiring helpers for the generators.

use rand::rngs::StdRng;
use rand::Rng;
use tms_netlist::{CellId, NetlistBuilder};

/// Wire `cells` as a layered feed-forward network of `depth` layers. Each
/// cell in layer *i+1* is driven by a randomly chosen cell of layer *i*;
/// every driver's sinks become one net, so the fanout distribution follows
/// from the layer sizes. Returns the last layer.
///
/// Nets are emitted in ascending driver order, each listing its sinks in
/// the order they were drawn: a stable counting sort groups the draws of a
/// layer in three buffers that every layer reuses.
pub fn wire_layered(
    b: &mut NetlistBuilder,
    cells: &[CellId],
    depth: usize,
    rng: &mut StdRng,
) -> Vec<CellId> {
    if cells.is_empty() || depth == 0 {
        return cells.to_vec();
    }
    let depth = depth.min(cells.len());
    let layer_len = cells.len().div_ceil(depth);
    let layers: Vec<&[CellId]> = cells.chunks(layer_len).collect();
    let mut drawn: Vec<u32> = Vec::with_capacity(layer_len);
    let mut ends: Vec<u32> = Vec::with_capacity(layer_len + 1);
    let mut grouped: Vec<CellId> = Vec::with_capacity(layer_len);
    for w in layers.windows(2) {
        let (from, to) = (w[0], w[1]);
        // Assign each sink a driver, in sink order.
        drawn.clear();
        drawn.extend(to.iter().map(|_| rng.gen_range(0..from.len()) as u32));
        // `ends[d]` starts as the first slot of driver `d`'s group and
        // advances past each sink placed there, ending as its end.
        ends.clear();
        ends.resize(from.len() + 1, 0);
        for &d in &drawn {
            ends[d as usize + 1] += 1;
        }
        for d in 0..from.len() {
            ends[d + 1] += ends[d];
        }
        grouped.clear();
        grouped.resize(to.len(), CellId(0));
        for (&sink, &d) in to.iter().zip(&drawn) {
            let slot = &mut ends[d as usize];
            grouped[*slot as usize] = sink;
            *slot += 1;
        }
        // One net per driver that drew any sink.
        let mut start = 0;
        for (&driver, &end) in from.iter().zip(&ends) {
            let end = end as usize;
            if end > start {
                b.connect(driver, &grouped[start..end]);
            }
            start = end;
        }
    }
    layers.last().map(|l| l.to_vec()).unwrap_or_default()
}

/// Broadcast one driver to every sink — the shape of enable/reset fanout
/// nets, the main source of high-fanout signals in the data set.
pub fn broadcast(b: &mut NetlistBuilder, driver: CellId, sinks: &[CellId]) {
    if !sinks.is_empty() {
        b.connect(driver, sinks);
    }
}

/// Split `total` into `parts` chunk sizes differing by at most one.
pub fn split_even(total: u32, parts: u32) -> Vec<u32> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + u32::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The `Vec<Vec<CellId>>` grouping the counting sort replaced, kept as
    /// the oracle [`wire_layered`] is tested against.
    fn wire_layered_reference(
        b: &mut NetlistBuilder,
        cells: &[CellId],
        depth: usize,
        rng: &mut StdRng,
    ) -> Vec<CellId> {
        if cells.is_empty() || depth == 0 {
            return cells.to_vec();
        }
        let depth = depth.min(cells.len());
        let layer_len = cells.len().div_ceil(depth);
        let layers: Vec<&[CellId]> = cells.chunks(layer_len).collect();
        for w in layers.windows(2) {
            let (from, to) = (w[0], w[1]);
            let mut sinks_of: Vec<Vec<CellId>> = vec![Vec::new(); from.len()];
            for &sink in to {
                let d = rng.gen_range(0..from.len());
                sinks_of[d].push(sink);
            }
            for (d, sinks) in sinks_of.into_iter().enumerate() {
                if !sinks.is_empty() {
                    b.connect(from[d], &sinks);
                }
            }
        }
        layers.last().map(|l| l.to_vec()).unwrap_or_default()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting sort emits the reference's nets in the reference's
        /// order, returns the same last layer and leaves the generator
        /// where the reference leaves it. Cells carry a prefix of unwired
        /// cells so sink ids are not layer positions.
        #[test]
        fn counting_sort_matches_the_reference(
            prefix in 0usize..4,
            len in 0usize..400,
            depth in 0usize..24,
            seed in any::<u64>(),
        ) {
            let wire = |flat: bool| {
                let mut b = NetlistBuilder::new("w");
                for _ in 0..prefix {
                    b.ff(tms_netlist::ControlSet::basic());
                }
                let cells: Vec<CellId> = (0..len).map(|_| b.lut(3)).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let last = if flat {
                    wire_layered(&mut b, &cells, depth, &mut rng)
                } else {
                    wire_layered_reference(&mut b, &cells, depth, &mut rng)
                };
                let after: u64 = rng.gen();
                (b.finish(), last, after)
            };
            let (flat, flat_last, flat_after) = wire(true);
            let (reference, reference_last, reference_after) = wire(false);
            prop_assert!(flat.nets().eq(reference.nets()));
            prop_assert_eq!(flat_last, reference_last);
            prop_assert_eq!(flat_after, reference_after);
        }
    }

    #[test]
    fn split_even_sums_to_total() {
        for total in [0u32, 1, 7, 64, 100] {
            for parts in [1u32, 2, 3, 7] {
                let v = split_even(total, parts);
                assert_eq!(v.len(), parts as usize);
                assert_eq!(v.iter().sum::<u32>(), total);
                let min = v.iter().min().unwrap();
                let max = v.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
        assert!(split_even(5, 0).is_empty());
    }

    #[test]
    fn layered_wiring_covers_all_sinks() {
        let mut b = NetlistBuilder::new("w");
        let cells: Vec<CellId> = (0..30).map(|_| b.lut(4)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let last = wire_layered(&mut b, &cells, 3, &mut rng);
        assert!(!last.is_empty());
        let nl = b.finish();
        // Layers of 10: every cell of layers 2 and 3 must appear as a sink.
        let mut sinks: Vec<CellId> = nl.nets().flat_map(|n| n.sinks.iter().copied()).collect();
        sinks.sort_unstable();
        sinks.dedup();
        assert_eq!(sinks.len(), 20);
    }

    #[test]
    fn layered_wiring_is_deterministic() {
        let build = || {
            let mut b = NetlistBuilder::new("w");
            let cells: Vec<CellId> = (0..50).map(|_| b.lut(4)).collect();
            let mut rng = StdRng::seed_from_u64(99);
            wire_layered(&mut b, &cells, 5, &mut rng);
            b.finish()
        };
        let a = build();
        let b = build();
        assert_eq!(a.nets().collect::<Vec<_>>(), b.nets().collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_inputs() {
        let mut b = NetlistBuilder::new("w");
        let mut rng = StdRng::seed_from_u64(1);
        assert!(wire_layered(&mut b, &[], 3, &mut rng).is_empty());
        let one = vec![b.lut(1)];
        let last = wire_layered(&mut b, &one, 10, &mut rng);
        assert_eq!(last, one);
    }
}
