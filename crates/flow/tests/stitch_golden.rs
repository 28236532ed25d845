//! Golden stitch results: every stitcher outcome pinned bit for bit.
//!
//! The stitch problems come from the real flow (cnvW1A1 and the four zoo
//! BNNs on the xc7z020, cnvW1A1 on the xc7z045), built under a constant CF
//! exactly as `tms stitch` builds its problem, so building stays cheap and
//! every problem is a pure function of its seed. Each problem is stitched
//! with the standard and the fast single-run schedule; the canonical
//! portfolio ([`tms_stitch::canonical_portfolio`]) runs on the xc7z045
//! problem. A change to the fabric model or the annealer that alters any
//! decision — a legality verdict, an anchor scan order, a cost sum — moves
//! at least one pinned value.
//!
//! On a mismatch the test prints the whole actual table in source form.

use tms_cnn::{cnvw1a1, zoo_design, CnvDesign};
use tms_device::Device;
use tms_flow::{run_rw_flow, CfPolicy, MemPackConfig, RwFlowConfig};
use tms_place::PlacementModel;
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

/// FNV-1a over the anchor of every instance (`None` tagged apart).
fn positions_digest(positions: &[Option<(u32, u32)>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in positions {
        match p {
            None => eat(&[0]),
            Some((x, y)) => {
                eat(&[1]);
                eat(&x.to_le_bytes());
                eat(&y.to_le_bytes());
            }
        }
    }
    h
}

/// One pinned outcome: the case label, then `final_cost` bits,
/// `illegal_moves`, `accepted_moves`, `rejected_moves`, `best_move`,
/// `convergence_move` and the positions digest.
type Row<'a> = (&'a str, [u64; 7]);

fn pin(r: &StitchResult) -> [u64; 7] {
    [
        r.final_cost.to_bits(),
        r.illegal_moves,
        r.accepted_moves,
        r.rejected_moves,
        r.best_move,
        r.convergence_move,
        positions_digest(&r.positions),
    ]
}

fn assert_rows(actual: &[(String, [u64; 7])], expected: &[Row<'_>]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((an, av), (en, ev))| an == en && av == ev);
    if !same {
        let mut table = String::new();
        for (name, v) in actual {
            table.push_str(&format!(
                "    (\"{name}\", [0x{:016x}, {}, {}, {}, {}, {}, 0x{:016x}]),\n",
                v[0], v[1], v[2], v[3], v[4], v[5], v[6]
            ));
        }
        panic!("stitch results moved; actual table:\n{table}");
    }
}

#[rustfmt::skip]
const SINGLE_RUN: &[Row<'_>] = &[
    ("cnvW1A1/xc7z020 standard", [0x40c2080000000000, 43829, 142, 309, 103537, 103537, 0xeaef75a6517da26c]),
    ("cnvW1A1/xc7z020 fast", [0x40c79a0000000000, 1482, 5, 7, 2782, 2782, 0x701fc34ea666f85d]),
    ("bnn-wide/xc7z020 standard", [0x40ae300000000000, 44260, 1507, 732, 118682, 118682, 0x44bc215bce6dd033]),
    ("bnn-wide/xc7z020 fast", [0x40b7980000000000, 1466, 58, 5, 3915, 3915, 0xeca47e55c2070afa]),
    ("bnn-deep/xc7z020 standard", [0x40ccd20000000000, 53619, 636, 1365, 113202, 109000, 0x057c95b31c5841ef]),
    ("bnn-deep/xc7z020 fast", [0x40d0b90000000000, 1728, 26, 41, 3125, 3125, 0x000a5639bf8754de]),
    ("bnn-fc/xc7z020 standard", [0x40ce5f0000000000, 75561, 2559, 424, 116156, 116156, 0x9dea165c9921839a]),
    ("bnn-fc/xc7z020 fast", [0x40d0548000000000, 2560, 68, 11, 2965, 2965, 0x8d7d1b6ef786c08a]),
    ("bnn-slim/xc7z020 standard", [0x40d27d8000000000, 100651, 12327, 6268, 114333, 114333, 0xbf98924028dc4966]),
    ("bnn-slim/xc7z020 fast", [0x40dbdb8000000000, 3408, 421, 149, 3761, 3761, 0x012ca3f4af59d9c6]),
    ("cnvW1A1/xc7z045 standard", [0x410c3b4000000000, 109825, 7745, 2344, 110019, 110019, 0x3f33606f7cf53c68]),
    ("cnvW1A1/xc7z045 fast", [0x411357e800000000, 3627, 321, 51, 3977, 3977, 0xde04b293087234ea]),
];

#[rustfmt::skip]
const PORTFOLIO: &[Row<'_>] = &[
    ("cnvW1A1/xc7z045 portfolio", [0x410a073000000000, 2492, 816, 1492, 7200, 7200, 0x2e277d5b94682aa3]),
];

#[test]
fn single_run_stitches_are_pinned() {
    let z020 = Device::xc7z020();
    let z045 = Device::xc7z045();
    let zoo = |name| zoo_design(name, SEED).expect("zoo design");
    let cases = [
        ("cnvW1A1/xc7z020", cnvw1a1(SEED), &z020),
        ("bnn-wide/xc7z020", zoo("bnn-wide"), &z020),
        ("bnn-deep/xc7z020", zoo("bnn-deep"), &z020),
        ("bnn-fc/xc7z020", zoo("bnn-fc"), &z020),
        ("bnn-slim/xc7z020", zoo("bnn-slim"), &z020),
        ("cnvW1A1/xc7z045", cnvw1a1(SEED), &z045),
    ];
    let mut actual = Vec::new();
    let mut z045_standard = None;
    for (name, design, device) in &cases {
        let problem = problem_of(design, device);
        for (kind, cfg) in [
            ("standard", StitchConfig::standard(SEED)),
            ("fast", StitchConfig::fast(SEED)),
        ] {
            let r = stitch(device, &problem, &cfg);
            if *name == "cnvW1A1/xc7z045" && kind == "standard" {
                z045_standard = Some((r.total_moves, r.placed_count));
            }
            actual.push((format!("{name} {kind}"), pin(&r)));
        }
    }
    assert_rows(&actual, SINGLE_RUN);
    // The portfolio's baseline: the full 120k-move schedule places every
    // instance, at HPWL 231,272 (0x410c3b4000000000 above).
    assert_eq!(z045_standard, Some((120_000, 175)));
}

#[test]
fn stitch_portfolio() {
    let device = Device::xc7z045();
    let problem = problem_of(&cnvw1a1(SEED), &device);
    let (r, _) = tms_stitch::stitch_portfolio(&device, &problem, &canonical_portfolio(SEED));
    assert_rows(&[("cnvW1A1/xc7z045 portfolio".into(), pin(&r))], PORTFOLIO);
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
