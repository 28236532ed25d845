//! The netlist container: cells plus connecting nets.

use crate::cell::{CellId, CellKind};
use crate::stats::NetlistStats;
use std::sync::OnceLock;

/// Index of a net within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId(pub u32);

/// A net: one driver (or a primary input when `driver` is `None`) fanning
/// out to zero or more sink cells. A view into its netlist's net store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net<'a> {
    /// Driving cell; `None` models a primary input or external source.
    pub driver: Option<CellId>,
    /// Sink cells. The net's fanout is `sinks.len()`.
    pub sinks: &'a [CellId],
}

impl Net<'_> {
    /// Fanout of the net.
    #[inline]
    pub fn fanout(&self) -> u32 {
        self.sinks.len() as u32
    }
}

/// Every net of a netlist in compressed sparse rows: net `i` is driven by
/// `drivers[i]` and fans out to `sinks[ends[i - 1]..ends[i]]` (from 0 for
/// the first net). Three arrays hold the whole connectivity, however many
/// nets there are.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetStore {
    drivers: Vec<Option<CellId>>,
    ends: Vec<u32>,
    sinks: Vec<CellId>,
}

impl NetStore {
    /// Append a net; its id is the number of nets before it.
    pub(crate) fn push(&mut self, driver: Option<CellId>, sinks: &[CellId]) -> NetId {
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(driver);
        self.sinks.extend_from_slice(sinks);
        self.ends.push(self.sinks.len() as u32);
        id
    }

    fn len(&self) -> usize {
        self.drivers.len()
    }

    /// The sink range of net `i` within `sinks`.
    #[inline]
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[i] as usize
    }

    fn get(&self, i: usize) -> Net<'_> {
        Net {
            driver: self.drivers[i],
            sinks: &self.sinks[self.range(i)],
        }
    }
}

/// A structural netlist: the unit the flow synthesises, packs, places and
/// sizes a PBlock for. Corresponds to one *module/block* of the RapidWright
/// block design.
///
/// Immutable once built: only [`NetlistBuilder::finish`](crate::NetlistBuilder::finish)
/// creates one, and [`Netlist::with_name`] changes nothing the statistics
/// read. That is what lets the netlist keep its [`NetlistStats`] after the
/// first [`Netlist::stats`] call, and lets clones carry them along.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    cells: Vec<CellKind>,
    nets: NetStore,
    stats: OnceLock<NetlistStats>,
}

impl Netlist {
    pub(crate) fn from_parts(name: String, cells: Vec<CellKind>, nets: NetStore) -> Self {
        Netlist {
            name,
            cells,
            nets,
            stats: OnceLock::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same netlist under a new module name.
    pub fn with_name(mut self, name: impl Into<String>) -> Netlist {
        self.name = name.into();
        self
    }

    /// All cells, indexable by [`CellId`].
    pub fn cells(&self) -> &[CellKind] {
        &self.cells
    }

    /// All nets, in [`NetId`] order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = Net<'_>> + '_ {
        (0..self.nets.len()).map(|i| self.nets.get(i))
    }

    /// The net with a given id.
    pub fn net(&self, id: NetId) -> Net<'_> {
        self.nets.get(id.0 as usize)
    }

    /// The kind of a given cell.
    pub fn cell(&self, id: CellId) -> CellKind {
        self.cells[id.index()]
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The derived statistics (resource counts, control sets, fanout
    /// profile, logic depth, carry chains). The first call computes them in
    /// O(cells + nets) and stores them; later calls, on this netlist or on
    /// any clone made after it, return a copy of the stored value.
    pub fn stats(&self) -> NetlistStats {
        self.stats
            .get_or_init(|| NetlistStats::compute(self))
            .clone()
    }

    /// Longest combinational path measured in LUT/carry levels.
    ///
    /// Sequential cells (FFs, RAMs, DSPs) act as path endpoints. The graph
    /// is traversed in topological order over the combinational subgraph;
    /// any combinational cycle (which a well-formed design does not have)
    /// contributes no additional depth rather than hanging.
    pub fn logic_depth(&self) -> u32 {
        /// The end of a driver's net chain.
        const NONE: u32 = u32::MAX;
        /// The in-degree of a sequential cell, which no edge enters.
        const SEQUENTIAL: u32 = u32::MAX;
        /// One cell's walk state: its combinational fan-in not yet popped,
        /// its depth so far, and the first net it drives.
        #[derive(Clone, Copy)]
        struct Node {
            indeg: u32,
            depth: u32,
            first: u32,
        }
        // The walk reads its edges from the net store: one runs from a
        // combinational driver to each combinational sink of its nets, and
        // each such driver's nets are chained in net order (`next[i]` is
        // the net after net `i`). Paths launched from sequential cells
        // start at depth 0 on their first combinational sink.
        let nets = &self.nets;
        let mut node: Vec<Node> = self
            .cells
            .iter()
            .map(|c| Node {
                indeg: if c.is_combinational() { 0 } else { SEQUENTIAL },
                depth: u32::from(c.is_combinational()),
                first: NONE,
            })
            .collect();
        let mut next: Vec<u32> = vec![NONE; nets.len()];
        for i in (0..nets.len()).rev() {
            let Some(d) = nets.drivers[i].filter(|d| node[d.index()].indeg != SEQUENTIAL) else {
                continue;
            };
            next[i] = node[d.index()].first;
            node[d.index()].first = i as u32;
            for sink in &nets.sinks[nets.range(i)] {
                let s = &mut node[sink.index()];
                if s.indeg != SEQUENTIAL {
                    s.indeg += 1;
                }
            }
        }
        let mut queue: Vec<u32> = (0..node.len() as u32)
            .filter(|&i| node[i as usize].indeg == 0)
            .collect();
        let mut best = node.iter().map(|c| c.depth).max().unwrap_or(0);
        while let Some(u) = queue.pop() {
            let Node {
                depth: du, first, ..
            } = node[u as usize];
            best = best.max(du);
            let mut net = first;
            while net != NONE {
                for v in &nets.sinks[nets.range(net as usize)] {
                    let sink = &mut node[v.index()];
                    if sink.indeg == SEQUENTIAL {
                        continue;
                    }
                    sink.depth = sink.depth.max(du + 1);
                    sink.indeg -= 1;
                    if sink.indeg == 0 {
                        queue.push(v.0);
                    }
                }
                net = next[net as usize];
            }
        }
        best
    }

    /// A `logic_depth` over a `Vec<Vec<u32>>` adjacency copied out of the
    /// nets, kept as the oracle the net-store walk is tested against.
    #[cfg(test)]
    pub(crate) fn logic_depth_reference(&self) -> u32 {
        let n = self.cells.len();
        if n == 0 {
            return 0;
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg: Vec<u32> = vec![0; n];
        for net in self.nets() {
            let Some(driver) = net.driver else { continue };
            if !self.cells[driver.index()].is_combinational() {
                continue;
            }
            for &sink in net.sinks {
                if self.cells[sink.index()].is_combinational() {
                    adj[driver.index()].push(sink.0);
                    indeg[sink.index()] += 1;
                }
            }
        }
        let mut depth: Vec<u32> = self
            .cells
            .iter()
            .map(|c| u32::from(c.is_combinational()))
            .collect();
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| indeg[i as usize] == 0 && self.cells[i as usize].is_combinational())
            .collect();
        let mut best = depth.iter().copied().max().unwrap_or(0);
        while let Some(u) = queue.pop() {
            let du = depth[u as usize];
            best = best.max(du);
            let neighbours = std::mem::take(&mut adj[u as usize]);
            for v in neighbours {
                if depth[v as usize] < du + 1 {
                    depth[v as usize] = du + 1;
                }
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::{NetId, Netlist};
    use crate::builder::NetlistBuilder;
    use crate::cell::{CellId, ControlSet};
    use crate::stats::NetlistStats;
    use proptest::prelude::*;

    #[test]
    fn empty_netlist() {
        let nl = NetlistBuilder::new("empty").finish();
        assert_eq!(nl.cell_count(), 0);
        assert_eq!(nl.net_count(), 0);
        assert_eq!(nl.logic_depth(), 0);
        assert_eq!(nl.name(), "empty");
    }

    #[test]
    fn depth_counts_lut_levels() {
        let mut b = NetlistBuilder::new("chain");
        let cs = ControlSet::basic();
        let src = b.ff(cs);
        let l1 = b.lut(4);
        let l2 = b.lut(4);
        let l3 = b.lut(4);
        let dst = b.ff(cs);
        b.connect(src, &[l1]);
        b.connect(l1, &[l2]);
        b.connect(l2, &[l3]);
        b.connect(l3, &[dst]);
        let nl = b.finish();
        assert_eq!(nl.logic_depth(), 3);
    }

    #[test]
    fn depth_takes_longest_branch() {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.lut(2);
        let short = b.lut(2);
        let long1 = b.lut(2);
        let long2 = b.lut(2);
        let join = b.lut(2);
        b.connect(a, &[short, long1]);
        b.connect(long1, &[long2]);
        b.connect(short, &[join]);
        b.connect(long2, &[join]);
        let nl = b.finish();
        // a -> long1 -> long2 -> join = 4 LUT levels.
        assert_eq!(nl.logic_depth(), 4);
    }

    #[test]
    fn sequential_cells_cut_paths() {
        let mut b = NetlistBuilder::new("cut");
        let cs = ControlSet::basic();
        let l1 = b.lut(2);
        let ff = b.ff(cs);
        let l2 = b.lut(2);
        b.connect(l1, &[ff]);
        b.connect(ff, &[l2]);
        let nl = b.finish();
        assert_eq!(nl.logic_depth(), 1);
    }

    #[test]
    fn combinational_cycle_does_not_hang() {
        let mut b = NetlistBuilder::new("cycle");
        let l1 = b.lut(2);
        let l2 = b.lut(2);
        b.connect(l1, &[l2]);
        b.connect(l2, &[l1]);
        let nl = b.finish();
        // Both cells are in a cycle; they still count one level each at most.
        assert!(nl.logic_depth() <= 2);
    }

    #[test]
    fn fanout_reflects_sink_count() {
        let mut b = NetlistBuilder::new("fan");
        let d = b.lut(1);
        let sinks: Vec<_> = (0..7).map(|_| b.lut(1)).collect();
        b.connect(d, &sinks);
        let nl = b.finish();
        assert_eq!(nl.net(NetId(0)).fanout(), 7);
    }

    #[test]
    fn stats_are_stored_and_travel_with_clones() {
        let mut b = NetlistBuilder::new("memo");
        let cs = ControlSet::basic();
        let chain = b.carry_chain(6);
        let l = b.lut(4);
        let f = b.ff(cs);
        b.connect(chain[5], &[l]);
        b.connect(l, &[f]);
        let nl = b.finish();
        let fresh = NetlistStats::compute(&nl);
        // A clone taken before the first call computes its own copy.
        let early = nl.clone();
        assert_eq!(nl.stats(), fresh);
        assert_eq!(nl.stats(), fresh);
        assert_eq!(early.stats(), fresh);
        assert_eq!(nl.clone().stats(), fresh);
        assert_eq!(nl.with_name("renamed").stats(), fresh);
    }

    /// A random netlist over every primitive kind (LUTs weighted up so
    /// combinational paths get long), with driven and primary-input nets.
    /// Unless `dag` is set, edges run in any direction, so combinational
    /// cycles and self-loops occur; with no cells there are no nets.
    fn arb_netlist() -> impl Strategy<Value = Netlist> {
        let net = (
            any::<bool>(),
            0u32..1_000,
            proptest::collection::vec(0u32..1_000, 0..6),
        );
        (
            proptest::collection::vec(0u8..11, 0..48),
            proptest::collection::vec(net, 0..96),
            any::<bool>(),
        )
            .prop_map(|(kinds, nets, dag)| {
                let mut b = NetlistBuilder::new("random");
                let cs = ControlSet::basic();
                for kind in &kinds {
                    match kind {
                        0..=4 => b.lut(3),
                        5 => b.carry_chain(1)[0],
                        6 => b.ff(cs),
                        7 => b.lutram(cs),
                        8 => b.srl(cs),
                        9 => b.bram(),
                        _ => b.dsp(),
                    };
                }
                let n = kinds.len() as u32;
                for (driven, d, sinks) in nets.into_iter().filter(|_| n > 0) {
                    let d = d % n;
                    let sinks: Vec<CellId> = sinks
                        .iter()
                        .map(|s| s % n)
                        .filter(|&s| !dag || s > d)
                        .map(CellId)
                        .collect();
                    if driven {
                        b.connect(CellId(d), &sinks);
                    } else {
                        b.input_net(&sinks);
                    }
                }
                b.finish()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn csr_logic_depth_matches_the_reference(nl in arb_netlist()) {
            prop_assert_eq!(nl.logic_depth(), nl.logic_depth_reference());
        }
    }
}
