//! Convenience builder used by the RTL generators and tests.

use crate::cell::{CellId, CellKind, ControlSet};
use crate::netlist::{NetId, NetStore, Netlist};

/// Incrementally constructs a [`Netlist`].
///
/// The builder hands out [`CellId`]s as cells are added and lets callers wire
/// driver → sinks nets afterwards; chain helpers exist for the structures
/// whose *shape* matters to the flow (carry chains).
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<CellKind>,
    nets: NetStore,
    next_chain: u32,
}

impl NetlistBuilder {
    /// Start a new netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            cells: Vec::new(),
            nets: NetStore::default(),
            next_chain: 0,
        }
    }

    fn push(&mut self, kind: CellKind) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(kind);
        id
    }

    /// Add a combinational LUT with `inputs` used inputs (clamped to 1..=6).
    pub fn lut(&mut self, inputs: u8) -> CellId {
        self.push(CellKind::Lut {
            inputs: inputs.clamp(1, 6),
        })
    }

    /// Add a flip-flop steered by `cs`.
    pub fn ff(&mut self, cs: ControlSet) -> CellId {
        self.push(CellKind::Ff { cs })
    }

    /// Add a LUTRAM cell (one LUT of distributed RAM) steered by `cs`.
    pub fn lutram(&mut self, cs: ControlSet) -> CellId {
        self.push(CellKind::LutRam { cs })
    }

    /// Add an SRL shift-register LUT steered by `cs`.
    pub fn srl(&mut self, cs: ControlSet) -> CellId {
        self.push(CellKind::Srl { cs })
    }

    /// Add a RAMB36 block RAM.
    pub fn bram(&mut self) -> CellId {
        self.push(CellKind::Bram)
    }

    /// Add a DSP48 slice.
    pub fn dsp(&mut self) -> CellId {
        self.push(CellKind::Dsp)
    }

    /// Add a carry chain of `bits` carry elements, internally wired in
    /// sequence, and return the cells in chain order.
    pub fn carry_chain(&mut self, bits: u32) -> Vec<CellId> {
        let chain = self.next_chain;
        self.next_chain += 1;
        let cells: Vec<CellId> = (0..bits)
            .map(|position| self.push(CellKind::Carry { chain, position }))
            .collect();
        for pair in cells.windows(2) {
            self.connect(pair[0], &[pair[1]]);
        }
        cells
    }

    /// Wire a net from `driver` to `sinks`.
    pub fn connect(&mut self, driver: CellId, sinks: &[CellId]) -> NetId {
        self.nets.push(Some(driver), sinks)
    }

    /// Wire a primary-input net (no driving cell) to `sinks`.
    pub fn input_net(&mut self, sinks: &[CellId]) -> NetId {
        self.nets.push(None, sinks)
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Finalise into an immutable [`Netlist`].
    pub fn finish(self) -> Netlist {
        Netlist::from_parts(self.name, self.cells, self.nets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn lut_inputs_are_clamped() {
        let mut b = NetlistBuilder::new("clamp");
        let lo = b.lut(0);
        let hi = b.lut(9);
        let nl = b.finish();
        assert_eq!(nl.cell(lo), CellKind::Lut { inputs: 1 });
        assert_eq!(nl.cell(hi), CellKind::Lut { inputs: 6 });
    }

    #[test]
    fn carry_chains_get_distinct_ids_and_internal_nets() {
        let mut b = NetlistBuilder::new("carry");
        let c1 = b.carry_chain(4);
        let c2 = b.carry_chain(3);
        let nl = b.finish();
        assert_eq!(c1.len(), 4);
        assert_eq!(c2.len(), 3);
        // 3 internal nets for the first chain, 2 for the second.
        assert_eq!(nl.net_count(), 5);
        let chain_of = |id| match nl.cell(id) {
            CellKind::Carry { chain, .. } => chain,
            other => panic!("not a carry: {other:?}"),
        };
        assert!(c1.iter().all(|&c| chain_of(c) == chain_of(c1[0])));
        assert_ne!(chain_of(c1[0]), chain_of(c2[0]));
    }

    #[test]
    fn input_nets_have_no_driver() {
        let mut b = NetlistBuilder::new("in");
        let l = b.lut(3);
        b.input_net(&[l]);
        let nl = b.finish();
        assert_eq!(nl.net(NetId(0)).driver, None);
        assert_eq!(nl.net(NetId(0)).fanout(), 1);
    }

    #[test]
    fn builder_counts_cells() {
        let mut b = NetlistBuilder::new("count");
        assert_eq!(b.cell_count(), 0);
        b.bram();
        b.dsp();
        assert_eq!(b.cell_count(), 2);
    }
}
