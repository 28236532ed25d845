//! The Figure-6 template: a fully parametrizable all-resource generator.

use crate::sweep::GeneratorKind;
use crate::wiring::{broadcast, split_even, wire_layered};
use crate::Generator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_netlist::{CellId, ControlSet, Netlist, NetlistBuilder};

/// Parameters of the mixed template generator.
///
/// The paper's remaining generators "contain all the resources mentioned
/// above and are parametrizable … its purpose is to cover as much of the
/// design space as possible". This template sprays the requested counts of
/// every primitive, wires the LUTs as a layered network of the requested
/// depth, distributes FFs over control sets, and adds one broadcast net per
/// control set so fanout is controllable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedParams {
    /// Combinational LUT count.
    pub luts: u32,
    /// Flip-flop count.
    pub ffs: u32,
    /// Distinct control sets.
    pub control_sets: u32,
    /// Carry chains: (count, bits each).
    pub carry_chains: (u32, u32),
    /// LUTRAM primitives.
    pub lutrams: u32,
    /// SRL primitives.
    pub srls: u32,
    /// RAMB36 primitives.
    pub brams: u32,
    /// DSP48 primitives.
    pub dsps: u32,
    /// Target depth of the LUT network (levels).
    pub depth: u32,
}

impl MixedParams {
    /// A tiny default instance (useful in tests and docs).
    pub fn small() -> Self {
        MixedParams {
            luts: 32,
            ffs: 48,
            control_sets: 2,
            carry_chains: (1, 8),
            lutrams: 4,
            srls: 2,
            brams: 0,
            dsps: 0,
            depth: 4,
        }
    }
}

impl Generator for MixedParams {
    fn generate(&self, seed: u64) -> Netlist {
        let name = format!(
            "mixed_l{}_f{}_cs{}_c{}x{}_r{}_s{seed}",
            self.luts,
            self.ffs,
            self.control_sets,
            self.carry_chains.0,
            self.carry_chains.1,
            self.lutrams
        );
        let mut b = NetlistBuilder::new(name);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_6978_6564_u64);

        let luts: Vec<CellId> = (0..self.luts)
            .map(|_| b.lut(rng.gen_range(2..=6)))
            .collect();
        let last_layer = wire_layered(&mut b, &luts, self.depth.max(1) as usize, &mut rng);

        // Carry chains fed from the last LUT layer.
        for _ in 0..self.carry_chains.0 {
            let chain = b.carry_chain(self.carry_chains.1.max(1));
            if let Some(&src) = last_layer.first() {
                b.connect(src, &[chain[0]]);
            }
        }

        // FFs spread over control sets, each set with a broadcast enable.
        let ncs = self.control_sets.max(1);
        for (idx, count) in split_even(self.ffs, ncs).into_iter().enumerate() {
            let cs = ControlSet::new(0, idx as u16 + 1, 0);
            let ffs: Vec<CellId> = (0..count).map(|_| b.ff(cs)).collect();
            if !ffs.is_empty() {
                let en = b.lut(1);
                broadcast(&mut b, en, &ffs);
                // Data connections from random LUTs.
                for &ff in ffs.iter().take(8) {
                    if !luts.is_empty() {
                        let d = luts[rng.gen_range(0..luts.len())];
                        b.connect(d, &[ff]);
                    }
                }
            }
        }

        let mcs = ControlSet::new(0, 0, 1);
        for _ in 0..self.lutrams {
            b.lutram(mcs);
        }
        for _ in 0..self.srls {
            b.srl(mcs);
        }
        for _ in 0..self.brams {
            b.bram();
        }
        for _ in 0..self.dsps {
            b.dsp();
        }
        b.finish()
    }

    fn family(&self) -> GeneratorKind {
        GeneratorKind::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_parameters() {
        let p = MixedParams {
            luts: 100,
            ffs: 60,
            control_sets: 3,
            carry_chains: (2, 12),
            lutrams: 8,
            srls: 4,
            brams: 2,
            dsps: 1,
            depth: 5,
        };
        let s = p.generate(0).stats();
        // Enables add one LUT per control set with FFs.
        assert!(s.counts.luts >= 100 && s.counts.luts <= 103);
        assert_eq!(s.counts.ffs, 60);
        assert_eq!(s.counts.carry_bits, 24);
        assert_eq!(s.carry_chains.len(), 2);
        assert_eq!(s.counts.lutram_luts, 8);
        assert_eq!(s.counts.srls, 4);
        assert_eq!(s.counts.bram36, 2);
        assert_eq!(s.counts.dsp48, 1);
        // FF control sets plus the shared LUTRAM/SRL set.
        assert_eq!(s.control_sets, 4);
    }

    #[test]
    fn depth_tracks_parameter() {
        let shallow = MixedParams {
            depth: 2,
            ..MixedParams::small()
        };
        let deep = MixedParams {
            depth: 8,
            luts: 256,
            ..MixedParams::small()
        };
        let sd = shallow.generate(1).stats().logic_depth;
        let dd = deep.generate(1).stats().logic_depth;
        assert!(dd > sd, "depth {dd} vs {sd}");
    }

    #[test]
    fn deterministic() {
        let p = MixedParams::small();
        let a = p.generate(42);
        let b = p.generate(42);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.net_count(), b.net_count());
    }

    #[test]
    fn different_seeds_differ_in_wiring() {
        let p = MixedParams {
            luts: 200,
            ..MixedParams::small()
        };
        let a = p.generate(1);
        let b = p.generate(2);
        assert_ne!(
            a.nets().collect::<Vec<_>>(),
            b.nets().collect::<Vec<_>>(),
            "wiring should be seed-dependent even at equal parameters"
        );
    }

    #[test]
    fn zero_everything_is_empty_module() {
        let p = MixedParams {
            luts: 0,
            ffs: 0,
            control_sets: 0,
            carry_chains: (0, 0),
            lutrams: 0,
            srls: 0,
            brams: 0,
            dsps: 0,
            depth: 0,
        };
        let s = p.generate(0).stats();
        assert!(s.counts.is_empty());
    }
}
