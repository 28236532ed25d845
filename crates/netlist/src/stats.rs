//! Derived netlist statistics: the raw material of the CF estimator.

use crate::cell::{CellKind, ControlSet};
use crate::netlist::Netlist;

/// Post-synthesis resource demand of a module, in primitive units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceCounts {
    /// LUTs used as combinational logic.
    pub luts: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// Carry bits (4 per CARRY4/slice).
    pub carry_bits: u32,
    /// LUTs used as distributed RAM.
    pub lutram_luts: u32,
    /// LUTs used as shift registers.
    pub srls: u32,
    /// RAMB36 block RAMs.
    pub bram36: u32,
    /// DSP48 slices.
    pub dsp48: u32,
}

impl ResourceCounts {
    /// All LUT-site demand: logic LUTs + LUTRAM + SRL.
    #[inline]
    pub fn lut_sites(&self) -> u32 {
        self.luts + self.lutram_luts + self.srls
    }

    /// LUT-site demand that must land in M-type slices.
    #[inline]
    pub fn m_lut_sites(&self) -> u32 {
        self.lutram_luts + self.srls
    }

    /// True when the module uses no resources at all.
    pub fn is_empty(&self) -> bool {
        *self == ResourceCounts::default()
    }

    /// Component-wise sum.
    pub fn add(&self, o: &ResourceCounts) -> ResourceCounts {
        ResourceCounts {
            luts: self.luts + o.luts,
            ffs: self.ffs + o.ffs,
            carry_bits: self.carry_bits + o.carry_bits,
            lutram_luts: self.lutram_luts + o.lutram_luts,
            srls: self.srls + o.srls,
            bram36: self.bram36 + o.bram36,
            dsp48: self.dsp48 + o.dsp48,
        }
    }
}

/// Everything the flow derives from a netlist in one pass.
///
/// Serializable so the statistics can travel as a service payload: the
/// `tms-serve` `estimate` endpoint predicts a CF from a `NetlistStats`
/// value alone, without shipping the netlist itself.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetlistStats {
    /// Primitive resource demand.
    pub counts: ResourceCounts,
    /// Number of distinct control sets among sequential cells.
    pub control_sets: u32,
    /// Maximum net fanout (0 for a netlist without nets).
    pub max_fanout: u32,
    /// Mean net fanout.
    pub avg_fanout: f64,
    /// Histogram of fanouts in power-of-two buckets: index i counts nets
    /// with fanout in `[2^i, 2^(i+1))`.
    pub fanout_histogram: Vec<u32>,
    /// Longest combinational path in LUT/carry levels.
    pub logic_depth: u32,
    /// Length (in carry bits) of every carry chain, unordered.
    pub carry_chains: Vec<u32>,
    /// Flip-flop count per distinct control set, sorted descending. The
    /// packer uses this to model the per-slice control-set limit.
    pub ff_per_control_set: Vec<u32>,
    /// Total cell count.
    pub cell_count: u32,
}

impl NetlistStats {
    /// Compute all statistics for `nl`.
    pub fn compute(nl: &Netlist) -> NetlistStats {
        let mut counts = ResourceCounts::default();
        // Runs of cells under one control set, with the FFs of each run: a
        // generator places each set's cells together, so there are far
        // fewer runs than cells.
        let mut runs: Vec<(ControlSet, u32)> = Vec::new();
        // Carry bits per chain id; the builder numbers chains densely.
        let mut chains: Vec<u32> = Vec::new();
        for cell in nl.cells() {
            match *cell {
                CellKind::Lut { .. } => counts.luts += 1,
                CellKind::Ff { .. } => counts.ffs += 1,
                CellKind::Carry { chain, .. } => {
                    counts.carry_bits += 1;
                    let chain = chain as usize;
                    if chains.len() <= chain {
                        chains.resize(chain + 1, 0);
                    }
                    chains[chain] += 1;
                }
                CellKind::LutRam { .. } => counts.lutram_luts += 1,
                CellKind::Srl { .. } => counts.srls += 1,
                CellKind::Bram => counts.bram36 += 1,
                CellKind::Dsp => counts.dsp48 += 1,
            }
            if let Some(cs) = cell.control_set() {
                let ff = u32::from(matches!(cell, CellKind::Ff { .. }));
                match runs.last_mut() {
                    Some(run) if run.0 == cs => run.1 += ff,
                    _ => runs.push((cs, ff)),
                }
            }
        }
        // Merge the runs of each set: every set counts once, and a set
        // with flip-flops contributes its FF total.
        runs.sort_unstable_by_key(|&(cs, _)| cs);
        let mut control_sets = 0u32;
        let mut ff_per_control_set: Vec<u32> = Vec::new();
        for set in runs.chunk_by(|a, b| a.0 == b.0) {
            control_sets += 1;
            let ffs: u32 = set.iter().map(|&(_, ffs)| ffs).sum();
            if ffs > 0 {
                ff_per_control_set.push(ffs);
            }
        }
        ff_per_control_set.sort_unstable_by(|a, b| b.cmp(a));

        let mut max_fanout = 0u32;
        let mut fanout_sum = 0u64;
        let mut fanout_histogram = vec![0u32; 16];
        for net in nl.nets() {
            let f = net.fanout();
            max_fanout = max_fanout.max(f);
            fanout_sum += u64::from(f);
            if f > 0 {
                let bucket = (32 - (f.leading_zeros() + 1)).min(15) as usize;
                fanout_histogram[bucket] += 1;
            }
        }
        let avg_fanout = if nl.net_count() == 0 {
            0.0
        } else {
            fanout_sum as f64 / nl.net_count() as f64
        };

        NetlistStats {
            counts,
            control_sets,
            max_fanout,
            avg_fanout,
            fanout_histogram,
            logic_depth: nl.logic_depth(),
            // A chain created with no bits has no cells and no entry.
            carry_chains: chains.into_iter().filter(|&bits| bits > 0).collect(),
            ff_per_control_set,
            cell_count: nl.cell_count() as u32,
        }
    }

    /// Length of the longest carry chain, in bits.
    pub fn longest_carry_chain(&self) -> u32 {
        self.carry_chains.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::ControlSet;
    use proptest::prelude::*;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        let cs_a = ControlSet::new(0, 1, 0);
        let cs_b = ControlSet::new(0, 2, 0);
        let l1 = b.lut(6);
        let l2 = b.lut(3);
        let f1 = b.ff(cs_a);
        let f2 = b.ff(cs_b);
        let f3 = b.ff(cs_a);
        let r1 = b.lutram(cs_a);
        let s1 = b.srl(cs_b);
        b.bram();
        b.dsp();
        b.carry_chain(9);
        b.connect(l1, &[l2, f1, f2, f3, r1, s1]);
        b.finish()
    }

    #[test]
    fn counts_every_primitive() {
        let s = sample().stats();
        assert_eq!(s.counts.luts, 2);
        assert_eq!(s.counts.ffs, 3);
        assert_eq!(s.counts.carry_bits, 9);
        assert_eq!(s.counts.lutram_luts, 1);
        assert_eq!(s.counts.srls, 1);
        assert_eq!(s.counts.bram36, 1);
        assert_eq!(s.counts.dsp48, 1);
        assert_eq!(s.counts.lut_sites(), 4);
        assert_eq!(s.counts.m_lut_sites(), 2);
        assert_eq!(s.cell_count, 18);
    }

    #[test]
    fn distinct_control_sets_across_ff_lutram_srl() {
        let s = sample().stats();
        assert_eq!(s.control_sets, 2);
    }

    #[test]
    fn ff_per_control_set_sorted_descending() {
        let s = sample().stats();
        // FFs: 2 under cs_a, 1 under cs_b (LUTRAM/SRL don't count here).
        assert_eq!(s.ff_per_control_set, vec![2, 1]);
    }

    #[test]
    fn fanout_statistics() {
        let s = sample().stats();
        assert_eq!(s.max_fanout, 6);
        // Nets: 8 internal carry nets of fanout 1, one net of fanout 6.
        assert_eq!(s.fanout_histogram[0], 8); // [1,2)
        assert_eq!(s.fanout_histogram[2], 1); // [4,8)
        assert!((s.avg_fanout - (8.0 + 6.0) / 9.0).abs() < 1e-12);
    }

    #[test]
    fn carry_chain_lengths() {
        let s = sample().stats();
        assert_eq!(s.carry_chains, vec![9]);
        assert_eq!(s.longest_carry_chain(), 9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = NetlistBuilder::new("none").finish().stats();
        assert!(s.counts.is_empty());
        assert_eq!(s.control_sets, 0);
        assert_eq!(s.max_fanout, 0);
        assert_eq!(s.avg_fanout, 0.0);
        assert_eq!(s.longest_carry_chain(), 0);
    }

    #[test]
    fn resource_counts_add() {
        let a = sample().stats().counts;
        let sum = a.add(&a);
        assert_eq!(sum.luts, 2 * a.luts);
        assert_eq!(sum.bram36, 2 * a.bram36);
    }

    /// The control-set and carry-chain tallies over ordered maps that the
    /// run tally replaced: (control sets, FFs per set sorted descending,
    /// chain lengths by chain id).
    fn tallies_reference(nl: &Netlist) -> (u32, Vec<u32>, Vec<u32>) {
        use std::collections::{BTreeMap, BTreeSet};
        let mut control_sets: BTreeSet<ControlSet> = BTreeSet::new();
        let mut ff_by_cs: BTreeMap<ControlSet, u32> = BTreeMap::new();
        let mut chains: BTreeMap<u32, u32> = BTreeMap::new();
        for cell in nl.cells() {
            if let Some(cs) = cell.control_set() {
                control_sets.insert(cs);
            }
            match *cell {
                CellKind::Ff { cs } => *ff_by_cs.entry(cs).or_insert(0) += 1,
                CellKind::Carry { chain, .. } => *chains.entry(chain).or_insert(0) += 1,
                _ => {}
            }
        }
        let mut ffs: Vec<u32> = ff_by_cs.into_values().collect();
        ffs.sort_unstable_by(|a, b| b.cmp(a));
        (
            control_sets.len() as u32,
            ffs,
            chains.into_values().collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Cells of every kind in random order, control sets drawn from a
        /// small pool so runs break and resume, and carry chains of 0–3
        /// bits (a 0-bit chain takes an id but has no cells).
        #[test]
        fn run_tallies_match_the_ordered_maps(
            ops in proptest::collection::vec((0u8..8, 0u16..4), 0..200),
        ) {
            let mut b = NetlistBuilder::new("random");
            for (kind, set) in ops {
                let cs = ControlSet::new(0, set, set % 2);
                match kind {
                    0 => {
                        b.lut(3);
                    }
                    1 | 2 => {
                        b.ff(cs);
                    }
                    3 => {
                        b.lutram(cs);
                    }
                    4 => {
                        b.srl(cs);
                    }
                    5 => {
                        b.carry_chain(u32::from(set));
                    }
                    6 => {
                        b.bram();
                    }
                    _ => {
                        b.dsp();
                    }
                }
            }
            let nl = b.finish();
            let s = NetlistStats::compute(&nl);
            let (control_sets, ffs, chains) = tallies_reference(&nl);
            prop_assert_eq!(s.control_sets, control_sets);
            prop_assert_eq!(s.ff_per_control_set, ffs);
            prop_assert_eq!(s.carry_chains, chains);
        }
    }

    #[test]
    fn huge_fanout_lands_in_last_bucket() {
        let mut b = NetlistBuilder::new("huge");
        let d = b.lut(1);
        let sinks: Vec<_> = (0..70_000).map(|_| b.lut(1)).collect();
        b.connect(d, &sinks);
        let s = b.finish().stats();
        assert_eq!(s.max_fanout, 70_000);
        assert_eq!(s.fanout_histogram[15], 1);
    }
}
