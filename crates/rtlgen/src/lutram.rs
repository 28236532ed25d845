//! The *no registers* corner-case generator: distributed-RAM memories.

use crate::sweep::GeneratorKind;
use crate::Generator;
use tms_netlist::{ControlSet, Netlist, NetlistBuilder};

/// Bits stored by one LUT configured as 64×1 distributed RAM.
const LUTRAM_DEPTH: u32 = 64;

/// Parameters of the LUTRAM memory generator.
///
/// Models the paper's second generator: modules with *no* flip-flops,
/// consisting mainly of LUTRAMs, with parametrizable memory width and depth.
/// A read multiplexer of ordinary LUTs joins the depth banks, and the write
/// address fans out to every RAM LUT (high fanout for deep memories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutRamParams {
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: u32,
}

impl Generator for LutRamParams {
    fn generate(&self, seed: u64) -> Netlist {
        let name = format!("lutram_w{}_d{}_s{seed}", self.width, self.depth);
        let mut b = NetlistBuilder::new(name);
        let cs = ControlSet::new(0, 0, 1); // write-enable only, no reset
        let banks = self.depth.div_ceil(LUTRAM_DEPTH).max(1);

        // Address decode: one LUT per bank (write-enable decode).
        let decoders: Vec<_> = (0..banks).map(|_| b.lut(6)).collect();
        let mut rams = Vec::new();
        for &dec in &decoders {
            let bank: Vec<_> = (0..self.width).map(|_| b.lutram(cs)).collect();
            if !bank.is_empty() {
                b.connect(dec, &bank);
            }
            rams.extend(bank);
        }
        // Read mux: a log-tree of LUTs per output bit over the banks.
        if banks > 1 {
            for bit in 0..self.width {
                let mut level: Vec<_> = (0..banks)
                    .map(|k| rams[(k * self.width + bit) as usize])
                    .collect();
                while level.len() > 1 {
                    let mut next = Vec::new();
                    for pair in level.chunks(3) {
                        let mux = b.lut(6);
                        for &src in pair {
                            b.connect(src, &[mux]);
                        }
                        next.push(mux);
                    }
                    level = next;
                }
            }
        }
        b.finish()
    }

    fn family(&self) -> GeneratorKind {
        GeneratorKind::LutRam
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_registers_at_all() {
        let s = LutRamParams {
            width: 16,
            depth: 256,
        }
        .generate(0)
        .stats();
        assert_eq!(s.counts.ffs, 0);
        assert_eq!(s.counts.lutram_luts, 16 * 4);
        assert!(s.counts.lutram_luts > s.counts.luts);
    }

    #[test]
    fn deep_memories_have_read_muxes() {
        let shallow = LutRamParams {
            width: 8,
            depth: 64,
        }
        .generate(0)
        .stats();
        let deep = LutRamParams {
            width: 8,
            depth: 512,
        }
        .generate(0)
        .stats();
        assert!(deep.counts.luts > shallow.counts.luts);
        assert!(deep.logic_depth > 0);
    }

    #[test]
    fn write_decode_fans_out_across_width() {
        let s = LutRamParams {
            width: 32,
            depth: 64,
        }
        .generate(0)
        .stats();
        assert!(s.max_fanout >= 32);
    }

    #[test]
    fn lutram_demands_are_m_type_only() {
        let s = LutRamParams {
            width: 4,
            depth: 128,
        }
        .generate(0)
        .stats();
        assert_eq!(s.counts.m_lut_sites(), s.counts.lutram_luts);
        assert_eq!(s.counts.srls, 0);
    }
}
