//! A stitch digest table: every single-run stitch outcome over designs,
//! devices, CF policies and schedules, pinned as one FNV-1a digest per
//! row.
//!
//! Rows cross cnvW1A1 and the four zoo BNNs with the xc7z010, xc7z020 and
//! xc7z045, a minimal-CF and a constant-CF (1.5) problem, and the fast,
//! the standard, and the fast schedule without range limiting. Each
//! digest covers the positions, every counter, the initial and final cost
//! bits, the `final_temp` bits and the whole cost trace, so a change to
//! the annealer or the fabric tables that alters any decision — an anchor
//! list, an insertion scan, a legality verdict, a Metropolis draw — moves
//! at least one row. The small part leaves many blocks unplaced and the
//! large one none, so both the crowded and the roomy paths are pinned.
//!
//! Every row is also replayed through the implementation cache's stitch
//! memo: run as a cached flow with the row's schedule, twice, on one fresh
//! cache per design, device and policy. The first run anneals and stores
//! the result, the second is served from the memo without a move; both
//! must reproduce the row's digest.
//!
//! On a mismatch the test prints the whole actual table in source form.

use tms_cnn::{cnvw1a1, zoo, CnvDesign};
use tms_device::Device;
use tms_flow::{
    run_rw_flow, run_rw_flow_cached, CfPolicy, ImplementationCache, MemPackConfig, RwFlowConfig,
};
use tms_obs::AggregatingSink;
use tms_pblock::CfSearch;
use tms_place::PlacementModel;
use tms_stitch::{stitch, StitchConfig, StitchProblem, StitchResult};

const SEED: u64 = 3;

/// The flow configuration of the table: deterministic placement model,
/// `stitch` as the in-flow schedule.
fn flow_cfg(policy: CfPolicy<'_>, stitch: StitchConfig) -> RwFlowConfig<'_> {
    RwFlowConfig {
        policy,
        use_shape_report: true,
        model: PlacementModel::deterministic(),
        stitch,
        portfolio: None,
        mem_pack: MemPackConfig::off(),
        seed: SEED,
        obs: tms_obs::noop(),
    }
}

/// The flow-built stitch problem of `design` on `device` under `policy`
/// (fast in-flow stitch).
fn problem_of(design: &CnvDesign, device: &Device, policy: CfPolicy<'_>) -> StitchProblem {
    run_rw_flow(design, device, &flow_cfg(policy, StitchConfig::fast(SEED))).problem
}

/// The row's policy: minimal CF (wide search) or a constant 1.5.
fn policy(name: &str) -> CfPolicy<'static> {
    match name {
        "minimal" => CfPolicy::Minimal(CfSearch::wide()),
        _ => CfPolicy::Constant(1.5),
    }
}

/// One cached flow's stitch: its digest, and the `stitch.memo.hit` and
/// `stitch.moves` it counted.
fn cached_stitch(
    design: &CnvDesign,
    device: &Device,
    cfg: RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
) -> (u64, u64, u64) {
    let sink = AggregatingSink::new();
    let r = run_rw_flow_cached(design, device, &cfg.with_recorder(&sink), cache);
    (
        digest(&r.result.stitch),
        sink.counter("stitch.memo.hit"),
        sink.counter("stitch.moves"),
    )
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest over everything a stitch reports: the anchor of every
/// instance (`None` tagged apart), the counters, the cost and temperature
/// bits, and every `(move, cost)` sample of the trace.
fn digest(r: &StitchResult) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for p in &r.positions {
        match p {
            Some((x, y)) => words.extend([1, u64::from(*x), u64::from(*y)]),
            None => words.push(0),
        }
    }
    words.extend(r.unplaced.iter().map(|&i| u64::from(i)));
    words.extend([
        r.placed_count as u64,
        r.unplaced_count as u64,
        r.initial_cost.to_bits(),
        r.final_cost.to_bits(),
        r.illegal_moves,
        r.accepted_moves,
        r.rejected_moves,
        r.final_temp.to_bits(),
        r.late_insertions,
        r.total_moves,
        r.convergence_move,
        r.best_move,
        r.cost_trace.len() as u64,
    ]);
    for &(mv, cost) in &r.cost_trace {
        words.extend([mv, cost.to_bits()]);
    }
    fnv(words.into_iter().flat_map(u64::to_le_bytes))
}

#[rustfmt::skip]
const DIGESTS: &[(&str, u64)] = &[
    ("cnvW1A1/xc7z010 minimal fast", 0x9604193b40884349),
    ("cnvW1A1/xc7z010 minimal standard", 0xae775aadc1cb6f7a),
    ("cnvW1A1/xc7z010 minimal fast-unlimited", 0x9604193b40884349),
    ("cnvW1A1/xc7z010 cf1.5 fast", 0x3b49010477c1c83e),
    ("cnvW1A1/xc7z010 cf1.5 standard", 0xc257571c83101046),
    ("cnvW1A1/xc7z010 cf1.5 fast-unlimited", 0x3b49010477c1c83e),
    ("cnvW1A1/xc7z020 minimal fast", 0x0c4feca49d402f7c),
    ("cnvW1A1/xc7z020 minimal standard", 0x14be1fcf660769be),
    ("cnvW1A1/xc7z020 minimal fast-unlimited", 0x0c4feca49d402f7c),
    ("cnvW1A1/xc7z020 cf1.5 fast", 0x0bdf5ef66bffe79d),
    ("cnvW1A1/xc7z020 cf1.5 standard", 0xf078c36bb50af2e6),
    ("cnvW1A1/xc7z020 cf1.5 fast-unlimited", 0x0bdf5ef66bffe79d),
    ("cnvW1A1/xc7z045 minimal fast", 0x470c21408a59392a),
    ("cnvW1A1/xc7z045 minimal standard", 0x9d88b41ab2952545),
    ("cnvW1A1/xc7z045 minimal fast-unlimited", 0xf270fd23be4b4982),
    ("cnvW1A1/xc7z045 cf1.5 fast", 0x2f2d8fd99f3e798f),
    ("cnvW1A1/xc7z045 cf1.5 standard", 0x299f75a9d50fe210),
    ("cnvW1A1/xc7z045 cf1.5 fast-unlimited", 0xa7cb956eb369df65),
    ("bnn-wide/xc7z010 minimal fast", 0x82983005ae6c5f42),
    ("bnn-wide/xc7z010 minimal standard", 0xff76014f495c2775),
    ("bnn-wide/xc7z010 minimal fast-unlimited", 0x82983005ae6c5f42),
    ("bnn-wide/xc7z010 cf1.5 fast", 0xbab9f6d05c76edf9),
    ("bnn-wide/xc7z010 cf1.5 standard", 0xd4ddd8623f869d3f),
    ("bnn-wide/xc7z010 cf1.5 fast-unlimited", 0xbab9f6d05c76edf9),
    ("bnn-wide/xc7z020 minimal fast", 0xbddfa43ee622d4fd),
    ("bnn-wide/xc7z020 minimal standard", 0xd83df572be819ae3),
    ("bnn-wide/xc7z020 minimal fast-unlimited", 0xae19d6cca5f47b52),
    ("bnn-wide/xc7z020 cf1.5 fast", 0xd58f6bfafab89283),
    ("bnn-wide/xc7z020 cf1.5 standard", 0xb8ef68448dfac3f6),
    ("bnn-wide/xc7z020 cf1.5 fast-unlimited", 0x1098a318f15b5117),
    ("bnn-wide/xc7z045 minimal fast", 0x07f3d1015e65ed71),
    ("bnn-wide/xc7z045 minimal standard", 0x9b20dd21e272884a),
    ("bnn-wide/xc7z045 minimal fast-unlimited", 0x0d7b21c54629ff0b),
    ("bnn-wide/xc7z045 cf1.5 fast", 0xd2b60efc4cfd584f),
    ("bnn-wide/xc7z045 cf1.5 standard", 0x62f724bb19264a1d),
    ("bnn-wide/xc7z045 cf1.5 fast-unlimited", 0xf3213ab06354a601),
    ("bnn-deep/xc7z010 minimal fast", 0x794b6128fae25007),
    ("bnn-deep/xc7z010 minimal standard", 0x265caee44f5023e2),
    ("bnn-deep/xc7z010 minimal fast-unlimited", 0x794b6128fae25007),
    ("bnn-deep/xc7z010 cf1.5 fast", 0x32be827224c131c4),
    ("bnn-deep/xc7z010 cf1.5 standard", 0x5ac8853f86aea682),
    ("bnn-deep/xc7z010 cf1.5 fast-unlimited", 0x32be827224c131c4),
    ("bnn-deep/xc7z020 minimal fast", 0xaa5f739009fd7746),
    ("bnn-deep/xc7z020 minimal standard", 0x9cdd19c2e9ab7efb),
    ("bnn-deep/xc7z020 minimal fast-unlimited", 0xd828e4a0869262d7),
    ("bnn-deep/xc7z020 cf1.5 fast", 0x40a6637055869a01),
    ("bnn-deep/xc7z020 cf1.5 standard", 0x7d17edf50cd2fcc5),
    ("bnn-deep/xc7z020 cf1.5 fast-unlimited", 0x026d4c342647debf),
    ("bnn-deep/xc7z045 minimal fast", 0xe8fa9ffabea8ec00),
    ("bnn-deep/xc7z045 minimal standard", 0x3ffc21f63850919b),
    ("bnn-deep/xc7z045 minimal fast-unlimited", 0xf5b9503eadb06988),
    ("bnn-deep/xc7z045 cf1.5 fast", 0x3fb411dbfdcb10d1),
    ("bnn-deep/xc7z045 cf1.5 standard", 0x6d6248155319df49),
    ("bnn-deep/xc7z045 cf1.5 fast-unlimited", 0xf1b6ca51e1021c07),
    ("bnn-fc/xc7z010 minimal fast", 0x764e7762986b3d82),
    ("bnn-fc/xc7z010 minimal standard", 0x66fb2c58f706b2c8),
    ("bnn-fc/xc7z010 minimal fast-unlimited", 0x764e7762986b3d82),
    ("bnn-fc/xc7z010 cf1.5 fast", 0xd92f23be00953d8d),
    ("bnn-fc/xc7z010 cf1.5 standard", 0x900d09d1099fe39f),
    ("bnn-fc/xc7z010 cf1.5 fast-unlimited", 0xd92f23be00953d8d),
    ("bnn-fc/xc7z020 minimal fast", 0xb055feb25bc3536d),
    ("bnn-fc/xc7z020 minimal standard", 0xcc373904251b94dd),
    ("bnn-fc/xc7z020 minimal fast-unlimited", 0xb055feb25bc3536d),
    ("bnn-fc/xc7z020 cf1.5 fast", 0x50458dbaf97ef9de),
    ("bnn-fc/xc7z020 cf1.5 standard", 0xc549c4da613227dc),
    ("bnn-fc/xc7z020 cf1.5 fast-unlimited", 0x50458dbaf97ef9de),
    ("bnn-fc/xc7z045 minimal fast", 0x93d61d7c2823fc26),
    ("bnn-fc/xc7z045 minimal standard", 0x4fc2429bb158fb13),
    ("bnn-fc/xc7z045 minimal fast-unlimited", 0xab4ab1903f887186),
    ("bnn-fc/xc7z045 cf1.5 fast", 0xc45159a0ea519530),
    ("bnn-fc/xc7z045 cf1.5 standard", 0xb908c3bdd6708186),
    ("bnn-fc/xc7z045 cf1.5 fast-unlimited", 0x9fd04207d9cfec31),
    ("bnn-slim/xc7z010 minimal fast", 0x1930d6d68f1ae132),
    ("bnn-slim/xc7z010 minimal standard", 0xdb47500490fbf6d6),
    ("bnn-slim/xc7z010 minimal fast-unlimited", 0x1930d6d68f1ae132),
    ("bnn-slim/xc7z010 cf1.5 fast", 0x64b791ccf888b984),
    ("bnn-slim/xc7z010 cf1.5 standard", 0x456d8b1e2902ed2b),
    ("bnn-slim/xc7z010 cf1.5 fast-unlimited", 0x9d4c8613545ee8a0),
    ("bnn-slim/xc7z020 minimal fast", 0xc13fcfaeb5b26a7d),
    ("bnn-slim/xc7z020 minimal standard", 0xc62624d18afa1d32),
    ("bnn-slim/xc7z020 minimal fast-unlimited", 0x069114f7a6b400fe),
    ("bnn-slim/xc7z020 cf1.5 fast", 0x5ba2f9f48be1665f),
    ("bnn-slim/xc7z020 cf1.5 standard", 0x6737d0d6caf2e5c4),
    ("bnn-slim/xc7z020 cf1.5 fast-unlimited", 0xf089517857e79de3),
    ("bnn-slim/xc7z045 minimal fast", 0xf2626e63616f7a87),
    ("bnn-slim/xc7z045 minimal standard", 0x8bd72694e9f4849a),
    ("bnn-slim/xc7z045 minimal fast-unlimited", 0x609f268d9d421e08),
    ("bnn-slim/xc7z045 cf1.5 fast", 0x39c13aa3766ae589),
    ("bnn-slim/xc7z045 cf1.5 standard", 0x4857105a86e90757),
    ("bnn-slim/xc7z045 cf1.5 fast-unlimited", 0xd2c2e087d247b226),
];

#[test]
fn stitch_digests_are_pinned() {
    let designs = std::iter::once(("cnvW1A1".to_string(), cnvw1a1(SEED))).chain(zoo(SEED));
    let designs: Vec<(String, CnvDesign)> = designs.collect();
    let schedules = [
        ("fast", StitchConfig::fast(SEED)),
        ("standard", StitchConfig::standard(SEED)),
        (
            "fast-unlimited",
            StitchConfig {
                range_limited: false,
                ..StitchConfig::fast(SEED)
            },
        ),
    ];
    let mut actual: Vec<(String, u64)> = Vec::new();
    let mut replay_errors: Vec<String> = Vec::new();
    for (name, design) in &designs {
        for device in [Device::xc7z010(), Device::xc7z020(), Device::xc7z045()] {
            for policy_name in ["minimal", "cf1.5"] {
                let problem = problem_of(design, &device, policy(policy_name));
                let mut cache = ImplementationCache::new();
                for (schedule, cfg) in &schedules {
                    let r = stitch(&device, &problem, cfg);
                    let label = format!("{name}/{} {policy_name} {schedule}", device.name());
                    let direct = digest(&r);
                    let mut replay = || {
                        let cfg = flow_cfg(policy(policy_name), *cfg);
                        cached_stitch(design, &device, cfg, &mut cache)
                    };
                    let (miss, hit) = (replay(), replay());
                    if miss != (direct, 0, r.total_moves) || hit != (direct, 1, 0) {
                        replay_errors.push(format!(
                            "{label}: direct 0x{direct:016x}; (digest, memo hits, moves) \
                             miss {miss:x?}, hit {hit:x?}"
                        ));
                    }
                    actual.push((label, direct));
                }
            }
        }
    }
    let same = actual.len() == DIGESTS.len()
        && actual
            .iter()
            .zip(DIGESTS)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !same {
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
            .collect();
        panic!("stitch results moved; actual table:\n{table}");
    }
    assert!(
        replay_errors.is_empty(),
        "the memo replay differs from the direct stitch:\n{}",
        replay_errors.join("\n")
    );
}
