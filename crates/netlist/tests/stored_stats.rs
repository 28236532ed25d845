//! Stored statistics on real netlists: for every RTL generator and every
//! module of cnvW1A1 and the BNN zoo, `stats()` keeps returning exactly
//! what a fresh `NetlistStats::compute` derives, and every generated
//! netlist with its statistics is pinned by digest.

use tms_cnn::{cnvw1a1, synth_module, zoo, ModuleRole};
use tms_netlist::{CellKind, ControlSet, Netlist, NetlistStats};
use tms_rtlgen::{standard_sweep, DspPipeParams, Generator, GeneratorKind, SweepConfig};

fn assert_stored_stats_match(nl: &Netlist) {
    let fresh = NetlistStats::compute(nl);
    assert_eq!(nl.stats(), fresh, "{}: first call", nl.name());
    assert_eq!(nl.stats(), fresh, "{}: stored copy", nl.name());
}

#[test]
fn every_generator_keeps_its_stats() {
    let sweep = standard_sweep(&SweepConfig::small(), 3);
    // The standard sweep covers every generator but the DSP pipeline,
    // which is added by hand.
    for kind in [
        GeneratorKind::ShiftReg,
        GeneratorKind::LutRam,
        GeneratorKind::Carry,
        GeneratorKind::Lfsr,
        GeneratorKind::Mixed,
    ] {
        assert!(
            sweep.iter().any(|m| m.kind == kind),
            "sweep lacks {}",
            kind.label()
        );
    }
    for m in &sweep {
        assert_stored_stats_match(&m.netlist);
    }
    let dsp = DspPipeParams {
        lanes: 8,
        stages: 2,
        coeffs: 512,
    };
    assert_stored_stats_match(&dsp.generate(5));
}

#[test]
fn every_design_module_keeps_its_stats() {
    let designs = std::iter::once(("cnvW1A1".to_string(), cnvw1a1(1))).chain(zoo(1));
    for (name, design) in designs {
        assert!(!design.modules.is_empty(), "{name}");
        for m in &design.modules {
            assert_stored_stats_match(&m.netlist);
        }
    }
}

/// FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        vs.iter().for_each(|&v| self.u32(v));
    }

    fn cs(&mut self, cs: ControlSet) {
        for v in [cs.clock, cs.reset, cs.enable] {
            self.bytes(&v.to_le_bytes());
        }
    }
}

/// Fold `nl` into `h`: its name, every cell, every net (driver, then the
/// sinks in order) and every [`NetlistStats`] field. Returns the number of
/// sinks, so a row can show the net store's size.
fn digest_netlist(h: &mut Fnv, nl: &Netlist) -> usize {
    h.bytes(nl.name().as_bytes());
    h.u32(nl.cell_count() as u32);
    for cell in nl.cells() {
        match *cell {
            CellKind::Lut { inputs } => {
                h.u32(0);
                h.u32(u32::from(inputs));
            }
            CellKind::Ff { cs } => {
                h.u32(1);
                h.cs(cs);
            }
            CellKind::Carry { chain, position } => {
                h.u32(2);
                h.u32(chain);
                h.u32(position);
            }
            CellKind::LutRam { cs } => {
                h.u32(3);
                h.cs(cs);
            }
            CellKind::Srl { cs } => {
                h.u32(4);
                h.cs(cs);
            }
            CellKind::Bram => h.u32(5),
            CellKind::Dsp => h.u32(6),
        }
    }
    h.u32(nl.net_count() as u32);
    let mut sinks = 0;
    for net in nl.nets() {
        h.u32(net.driver.map_or(u32::MAX, |d| d.0));
        h.u32(net.sinks.len() as u32);
        net.sinks.iter().for_each(|s| h.u32(s.0));
        sinks += net.sinks.len();
    }
    let s = NetlistStats::compute(nl);
    let c = s.counts;
    for v in [
        c.luts,
        c.ffs,
        c.carry_bits,
        c.lutram_luts,
        c.srls,
        c.bram36,
        c.dsp48,
        s.control_sets,
        s.max_fanout,
    ] {
        h.u32(v);
    }
    h.bytes(&s.avg_fanout.to_bits().to_le_bytes());
    h.u32s(&s.fanout_histogram);
    h.u32(s.logic_depth);
    h.u32s(&s.carry_chains);
    h.u32s(&s.ff_per_control_set);
    h.u32(s.cell_count);
    sinks
}

/// One pinned row: the label, then cells, nets, sinks and the digest of
/// every netlist under the label.
type Row = (String, [u64; 4]);

fn row<'a>(label: String, netlists: impl IntoIterator<Item = &'a Netlist>) -> Row {
    let mut h = Fnv::new();
    let (mut cells, mut nets, mut sinks) = (0, 0, 0);
    for nl in netlists {
        cells += nl.cell_count();
        nets += nl.net_count();
        sinks += digest_netlist(&mut h, nl);
    }
    (label, [cells as u64, nets as u64, sinks as u64, h.0])
}

#[rustfmt::skip]
const NETLISTS: &[(&str, [u64; 4])] = &[
    ("cnvW1A1 seed 1", [42355, 17541, 38879, 0x593710042ffcc73c]),
    ("bnn-wide seed 1", [47516, 18405, 43295, 0x5fe1ca32488adcb0]),
    ("bnn-deep seed 1", [42542, 17100, 38971, 0x1a8f49869236ae76]),
    ("bnn-fc seed 1", [26280, 10829, 24510, 0xe7e3bfab48ce9152]),
    ("bnn-slim seed 1", [11675, 5245, 11036, 0x42393932493fe8d1]),
    ("cnvW1A1 seed 2024", [42521, 17482, 39048, 0x7904a11a21c3af38]),
    ("bnn-wide seed 2024", [45910, 17801, 41858, 0xa80c32223ddfbf5c]),
    ("bnn-deep seed 2024", [43385, 17509, 39521, 0xc2789edacc33723e]),
    ("bnn-fc seed 2024", [29079, 11810, 27123, 0x95e8bc3955e62460]),
    ("bnn-slim seed 2024", [10344, 4731, 9843, 0xa9e86932e9322228]),
    ("mvau module", [1076, 257, 1051, 0x14712b7abb55f92c]),
    ("swu module", [795, 166, 491, 0xca0869dbbbb9dd5d]),
    ("act module", [1033, 625, 938, 0xd8ce8e9ed18ee286]),
    ("pool module", [1554, 1506, 2156, 0xab4225a38cec90e7]),
    ("weights module", [1251, 582, 1146, 0x3eb3537b58aaab1e]),
];

/// Every netlist of cnvW1A1 and the BNN zoo at two seeds, and one module
/// per role, pinned cell for cell and net for net with its statistics. A
/// change to the netlist store, the builder or a generator that moves any
/// cell, net, sink order or statistic moves a digest. On a mismatch the
/// test prints the whole actual table in source form.
#[test]
fn generated_netlists_are_pinned() {
    let mut actual: Vec<Row> = Vec::new();
    for seed in [1, 2024] {
        let designs = std::iter::once(("cnvW1A1".to_string(), cnvw1a1(seed))).chain(zoo(seed));
        for (name, design) in designs {
            let label = format!("{name} seed {seed}");
            actual.push(row(label, design.modules.iter().map(|m| &m.netlist)));
        }
    }
    for (i, role) in ModuleRole::ALL.into_iter().enumerate() {
        let nl = synth_module(role, 90 + 40 * i as u32, role.label(), 7);
        actual.push(row(format!("{} module", role.label()), [&nl]));
    }
    let same = actual.len() == NETLISTS.len()
        && actual
            .iter()
            .zip(NETLISTS)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !same {
        let table: String = actual
            .iter()
            .map(|(name, [cells, nets, sinks, digest])| {
                format!("    (\"{name}\", [{cells}, {nets}, {sinks}, 0x{digest:016x}]),\n")
            })
            .collect();
        panic!("netlists moved; actual table:\n{table}");
    }
}
