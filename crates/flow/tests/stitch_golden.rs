//! Golden stitch and route results: every stitcher and router outcome
//! pinned bit for bit.
//!
//! The stitch problems come from the real flow (cnvW1A1 and the four zoo
//! BNNs on the xc7z020, cnvW1A1 on the xc7z045), built under a constant CF
//! exactly as `tms stitch` builds its problem, so building stays cheap and
//! every problem is a pure function of its seed. Each problem is stitched
//! with the standard and the fast single-run schedule; the canonical
//! portfolio ([`tms_stitch::canonical_portfolio`]) runs on the xc7z045
//! problem. Each standard stitch is then routed under the default router
//! caps and under a tight cap that forces negotiation. A change to the
//! fabric model, the annealer or the router that alters any decision — a
//! legality verdict, an anchor scan order, a cost sum, a channel choice —
//! moves at least one pinned value.
//!
//! On a mismatch the test prints the whole actual table in source form.

use std::sync::OnceLock;

use tms_cnn::{cnvw1a1, zoo_design, CnvDesign};
use tms_device::Device;
use tms_flow::{run_rw_flow, CfPolicy, MemPackConfig, RwFlowConfig};
use tms_place::PlacementModel;
use tms_route::{route_stitched, RouteReport, RouterConfig};
use tms_stitch::{canonical_portfolio, stitch, StitchConfig, StitchProblem, StitchResult};

const SEED: u64 = 1;

/// The flow-built stitch problem of `design` on `device` (constant CF
/// 1.72, deterministic placement model, fast in-flow stitch).
fn problem_of(design: &CnvDesign, device: &Device) -> StitchProblem {
    let cfg = RwFlowConfig {
        policy: CfPolicy::Constant(1.72),
        use_shape_report: true,
        model: PlacementModel::deterministic(),
        stitch: StitchConfig::fast(SEED),
        portfolio: None,
        mem_pack: MemPackConfig::off(),
        seed: SEED,
        obs: tms_obs::noop(),
    };
    run_rw_flow(design, device, &cfg).problem
}

/// A flow-built problem, its device, and its standard-schedule stitch.
struct Case {
    name: &'static str,
    device: Device,
    problem: StitchProblem,
    standard: StitchResult,
}

/// The six golden problems with their standard stitches, built once and
/// shared by the stitch and route tables.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let zoo = |name| zoo_design(name, SEED).expect("zoo design");
        [
            ("cnvW1A1/xc7z020", cnvw1a1(SEED), Device::xc7z020()),
            ("bnn-wide/xc7z020", zoo("bnn-wide"), Device::xc7z020()),
            ("bnn-deep/xc7z020", zoo("bnn-deep"), Device::xc7z020()),
            ("bnn-fc/xc7z020", zoo("bnn-fc"), Device::xc7z020()),
            ("bnn-slim/xc7z020", zoo("bnn-slim"), Device::xc7z020()),
            ("cnvW1A1/xc7z045", cnvw1a1(SEED), Device::xc7z045()),
        ]
        .into_iter()
        .map(|(name, design, device)| {
            let problem = problem_of(&design, &device);
            let standard = stitch(&device, &problem, &StitchConfig::standard(SEED));
            Case {
                name,
                device,
                problem,
                standard,
            }
        })
        .collect()
    })
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the anchor of every instance (`None` tagged apart).
fn positions_digest(positions: &[Option<(u32, u32)>]) -> u64 {
    fnv(positions.iter().flat_map(|p| {
        let mut bytes = vec![u8::from(p.is_some())];
        if let Some((x, y)) = p {
            bytes.extend(x.to_le_bytes());
            bytes.extend(y.to_le_bytes());
        }
        bytes
    }))
}

/// One pinned stitch outcome: the case label, then `final_cost` bits,
/// `illegal_moves`, `accepted_moves`, `rejected_moves`, `best_move`,
/// `convergence_move`, the positions digest, `final_temp` bits,
/// `late_insertions` and `cost_trace.len()`.
type Row<'a> = (&'a str, [u64; 10]);

fn pin(r: &StitchResult) -> [u64; 10] {
    [
        r.final_cost.to_bits(),
        r.illegal_moves,
        r.accepted_moves,
        r.rejected_moves,
        r.best_move,
        r.convergence_move,
        positions_digest(&r.positions),
        r.final_temp.to_bits(),
        r.late_insertions,
        r.cost_trace.len() as u64,
    ]
}

/// One pinned route outcome: the case label, then `fully_routed`,
/// `iterations`, `total_wirelength`, `overflowed_cells`,
/// `peak_utilization` bits, `routed_connections`, `skipped_nets`, the
/// number of `overflow_hotspots` and an FNV-1a digest over all of them.
type RouteRow<'a> = (&'a str, [u64; 9]);

fn pin_route(r: &RouteReport) -> [u64; 9] {
    [
        u64::from(r.fully_routed),
        u64::from(r.iterations),
        r.total_wirelength,
        r.overflowed_cells as u64,
        r.peak_utilization.to_bits(),
        r.routed_connections as u64,
        r.skipped_nets as u64,
        r.overflow_hotspots.len() as u64,
        fnv(r
            .overflow_hotspots
            .iter()
            .flat_map(|&(x, y, h, v)| [x, y, h, v])
            .flat_map(u32::to_le_bytes)),
    ]
}

/// Compare pinned rows; on a mismatch, panic with the actual table in
/// source form (bit patterns and digests in hex, counts in decimal).
fn assert_rows<const N: usize>(
    what: &str,
    actual: &[(String, [u64; N])],
    expected: &[(&str, [u64; N])],
) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !same {
        let mut table = String::new();
        for (name, v) in actual {
            let cells: Vec<String> = v
                .iter()
                .map(|&x| {
                    if x > u64::from(u32::MAX) {
                        format!("0x{x:016x}")
                    } else {
                        x.to_string()
                    }
                })
                .collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        panic!("{what} results moved; actual table:\n{table}");
    }
}

#[rustfmt::skip]
const SINGLE_RUN: &[Row<'_>] = &[
    ("cnvW1A1/xc7z020 standard", [0x40c2080000000000, 43829, 142, 309, 103537, 103537, 0xeaef75a6517da26c, 0x3fee94dca8e2e2b9, 1, 2]),
    ("cnvW1A1/xc7z020 fast", [0x40c79a0000000000, 1482, 5, 7, 2782, 2782, 0x701fc34ea666f85d, 0x3ff0000000000000, 0, 3]),
    ("bnn-wide/xc7z020 standard", [0x40ae300000000000, 44260, 1507, 732, 118682, 118682, 0x44bc215bce6dd033, 0x40693800a1b9c5f8, 0, 6]),
    ("bnn-wide/xc7z020 fast", [0x40b7980000000000, 1466, 58, 5, 3915, 3915, 0xeca47e55c2070afa, 0x406926508dfea278, 1, 6]),
    ("bnn-deep/xc7z020 standard", [0x40ccd20000000000, 53619, 636, 1365, 113202, 109000, 0x057c95b31c5841ef, 0x405131d1e2a1929e, 0, 7]),
    ("bnn-deep/xc7z020 fast", [0x40d0b90000000000, 1728, 26, 41, 3125, 3125, 0x000a5639bf8754de, 0x40520ccccccccccd, 0, 2]),
    ("bnn-fc/xc7z020 standard", [0x40ce5f0000000000, 75561, 2559, 424, 116156, 116156, 0x9dea165c9921839a, 0x4083c2a338e036b9, 0, 8]),
    ("bnn-fc/xc7z020 fast", [0x40d0548000000000, 2560, 68, 11, 2965, 2965, 0x8d7d1b6ef786c08a, 0x40886aaaaaaaaaab, 0, 2]),
    ("bnn-slim/xc7z020 standard", [0x40d27d8000000000, 100651, 12327, 6268, 114333, 114333, 0xbf98924028dc4966, 0x407452008015215b, 0, 31]),
    ("bnn-slim/xc7z020 fast", [0x40dbdb8000000000, 3408, 421, 149, 3761, 3761, 0x012ca3f4af59d9c6, 0x4084b1253c226f2a, 0, 4]),
    ("cnvW1A1/xc7z045 standard", [0x410c3b4000000000, 109825, 7745, 2344, 110019, 110019, 0x3f33606f7cf53c68, 0x409d5ccb4ed98566, 0, 17]),
    ("cnvW1A1/xc7z045 fast", [0x411357e800000000, 3627, 321, 51, 3977, 3977, 0xde04b293087234ea, 0x40a81bda58400bea, 0, 4]),
];

#[rustfmt::skip]
const ROUTES: &[RouteRow<'_>] = &[
    ("cnvW1A1/xc7z020 default", [1, 1, 9952, 0, 0x3fe5555555555555, 59, 116, 0, 0xcbf29ce484222325]),
    ("cnvW1A1/xc7z020 tight", [0, 16, 10948, 983, 0x3ff5555555555555, 59, 116, 16, 0xfb8331f293bb9f22]),
    ("bnn-wide/xc7z020 default", [1, 1, 3632, 0, 0x3fe1c71c71c71c72, 14, 50, 0, 0xcbf29ce484222325]),
    ("bnn-wide/xc7z020 tight", [0, 16, 3940, 377, 0x3ff5555555555555, 14, 50, 16, 0x4288bceaba82027d]),
    ("bnn-deep/xc7z020 default", [1, 1, 10432, 0, 0x3fe8e38e38e38e39, 33, 62, 0, 0xcbf29ce484222325]),
    ("bnn-deep/xc7z020 tight", [0, 16, 11036, 1224, 0x4000000000000000, 33, 62, 16, 0x86de805c7e680735]),
    ("bnn-fc/xc7z020 default", [1, 1, 9712, 0, 0x3ff0000000000000, 28, 28, 0, 0xcbf29ce484222325]),
    ("bnn-fc/xc7z020 tight", [0, 16, 10316, 1076, 0x4005555555555555, 28, 28, 16, 0xd1873f79cfa1ea49]),
    ("bnn-slim/xc7z020 default", [1, 1, 17212, 0, 0x3fe8e38e38e38e39, 59, 0, 0, 0xcbf29ce484222325]),
    ("bnn-slim/xc7z020 tight", [0, 16, 18476, 1740, 0x4005555555555555, 59, 0, 16, 0x9c4529f63b286418]),
    ("cnvW1A1/xc7z045 default", [1, 2, 209464, 0, 0x3ff0000000000000, 297, 0, 0, 0xcbf29ce484222325]),
    ("cnvW1A1/xc7z045 tight", [0, 16, 215900, 21388, 0x4005555555555555, 297, 0, 16, 0x2dbee27c492a22ad]),
];

#[rustfmt::skip]
const PORTFOLIO: &[Row<'_>] = &[
    ("cnvW1A1/xc7z045 portfolio", [0x410a073000000000, 2492, 816, 1492, 7200, 7200, 0x2e277d5b94682aa3, 0x3fef50dac004acf5, 0, 4]),
];

#[test]
fn single_run_stitches_are_pinned() {
    let mut actual = Vec::new();
    for case in cases() {
        let fast = stitch(&case.device, &case.problem, &StitchConfig::fast(SEED));
        actual.push((format!("{} standard", case.name), pin(&case.standard)));
        actual.push((format!("{} fast", case.name), pin(&fast)));
    }
    assert_rows("stitch", &actual, SINGLE_RUN);
    // The portfolio's baseline: the full 120k-move schedule places every
    // instance, at HPWL 231,272 (0x410c3b4000000000 above).
    let z045 = &cases()[5].standard;
    assert_eq!((z045.total_moves, z045.placed_count), (120_000, 175));
}

#[test]
fn standard_stitches_route_as_pinned() {
    let tight = RouterConfig {
        h_cap: 6,
        v_cap: 6,
        ..RouterConfig::default()
    };
    let mut actual = Vec::new();
    for case in cases() {
        for (kind, cfg) in [("default", RouterConfig::default()), ("tight", tight)] {
            let r = route_stitched(&case.device, &case.problem, &case.standard, &cfg);
            actual.push((format!("{} {kind}", case.name), pin_route(&r)));
        }
    }
    assert_rows("route", &actual, ROUTES);
}

#[test]
fn stitch_portfolio() {
    let device = Device::xc7z045();
    let problem = problem_of(&cnvw1a1(SEED), &device);
    let (r, _) = tms_stitch::stitch_portfolio(&device, &problem, &canonical_portfolio(SEED));
    assert_rows(
        "portfolio",
        &[("cnvW1A1/xc7z045 portfolio".into(), pin(&r))],
        PORTFOLIO,
    );
    // HPWL 213,222 (0x410a073000000000), below the standard schedule's
    // 231,272, in 9,600 moves instead of 120,000, with every instance
    // placed.
    assert_eq!((r.total_moves, r.placed_count), (9_600, 175));
}

/// A late insertion is kept and counted. On this design the anneal's
/// unplaced-block retry succeeds; the best-visited snapshot used to stay
/// at the pre-insertion placement, so the final restore unplaced the
/// block again (86 placed) and `late_insertions` read 0.
#[test]
fn late_insertions_are_kept_and_counted() {
    let device = Device::xc7z020();
    let design = zoo_design("bnn-deep", 7).expect("zoo design");
    let cfg = RwFlowConfig {
        policy: CfPolicy::Minimal(tms_pblock::CfSearch::wide()),
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::fast(7),
        portfolio: None,
        mem_pack: MemPackConfig::off(),
        seed: 7,
        obs: tms_obs::noop(),
    };
    let problem = run_rw_flow(&design, &device, &cfg).problem;
    let annealed = stitch(&device, &problem, &StitchConfig::standard(11));
    let greedy = stitch(
        &device,
        &problem,
        &StitchConfig {
            max_moves: 0,
            ..StitchConfig::standard(11)
        },
    );
    assert_eq!(annealed.placed_count, 87);
    assert_eq!(annealed.late_insertions, 1);
    // The inserted block's nets gain an endpoint (51642 without it).
    assert_eq!(annealed.final_cost, 54926.0);
    // The greedy pass is the anneal's first phase; every block placed
    // after it is a counted late insertion that survives to the result.
    assert_eq!(
        annealed.placed_count,
        greedy.placed_count + annealed.late_insertions as usize
    );
}
