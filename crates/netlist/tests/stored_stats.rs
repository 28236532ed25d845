//! Stored statistics on real netlists: for every RTL generator and every
//! module of cnvW1A1 and the BNN zoo, `stats()` keeps returning exactly
//! what a fresh `NetlistStats::compute` derives.

use tms_cnn::{cnvw1a1, zoo};
use tms_netlist::{Netlist, NetlistStats};
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
