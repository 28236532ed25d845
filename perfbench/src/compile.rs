//! `compile`: one closed-loop caller compiling never-seen designs cold,
//! the way `tms compile` does — estimator predictions, `run_rw_flow` with
//! the 120k-move standard stitch, then `route_stitched`. Nothing can be
//! reused, so the CF search, module stage, stitch and route do all the
//! work; a memo or cache must show no change here.

use crate::common::{ms, qor_extras, sequence_len, timed, OpRecord, Pass, Qor, Rng, PASSES};
use crate::layers::{per_layer, Tally};
use crate::pipeline::{flow_config, traced_flow, traced_predict, Outcome};
use crate::trace::{Ctx, Tracer};
use crate::{Args, RunResult};
use std::collections::HashMap;
use std::time::Duration;
use tms_core::cnn::{cnvw1a1, zoo_design, zoo_names, CnvDesign};
use tms_core::device::Device;
use tms_core::flow::{run_rw_flow, CfPolicy, MemPackConfig, RwFlowConfig, RwFlowResult};
use tms_core::pblock::CfSearch;
use tms_core::route::{route_stitched, RouteReport, RouterConfig};
use tms_core::stitch::StitchConfig;
use tms_core::verify::Auditor;
use tms_core::{MacroSizingFlow, TrainedEstimator};

/// Ops per second of `--seconds` on a 2-core host; sizes the fixed
/// sequence so the timed window lasts about that long.
const RATE: f64 = 42.0;
const WARMUP: u64 = 6;
/// One cycle of the op mix.
const CYCLE: usize = 40;
/// `tms compile`'s training-set size.
const DATASET: usize = 600;

struct Op {
    design: usize,
    device: usize,
    guided: bool,
    design_seed: u64,
}

/// Op `i` of the sequence drawn from `seed`. The mix is the same for every
/// seed and repeats every [`CYCLE`] ops: the two CF policies alternate;
/// three blocks of ten run the five designs on xc7z020, the fourth runs
/// cnvW1A1 on xc7z045. p50 falls among xc7z020 ops and p90 inside the
/// slower, uniform xc7z045 block.
fn op(seed: u64, i: u64) -> Op {
    let device = usize::from((i / 10) % 4 == 3);
    Op {
        design: if device == 1 { 0 } else { (i % 5) as usize },
        device,
        guided: i.is_multiple_of(2),
        design_seed: Rng::new(seed.wrapping_add(i.wrapping_mul(0x2545_f491))).next() >> 16,
    }
}

fn design(op: &Op) -> CnvDesign {
    match op.design {
        0 => cnvw1a1(op.design_seed),
        k => zoo_design(zoo_names()[k - 1], op.design_seed).expect("zoo member exists"),
    }
}

fn class(op: &Op) -> &'static str {
    ["xc7z020", "xc7z045"][op.device]
}

/// Set-up: one random-forest estimator per device, as `tms compile` trains.
fn setup(devices: &[Device], seed: u64) -> (Vec<TrainedEstimator>, Vec<Duration>) {
    devices
        .iter()
        .map(|d| {
            timed(|| {
                MacroSizingFlow::new(d.clone())
                    .with_dataset_size(DATASET)
                    .with_seed(seed)
                    .train()
            })
        })
        .unzip()
}

fn config<'a>(op: &Op, policy: CfPolicy<'a>) -> RwFlowConfig<'a> {
    flow_config(
        policy,
        op.design_seed,
        StitchConfig::standard(op.design_seed),
        MemPackConfig::off(),
    )
}

/// The timed op: predictions (guided ops), the flow, and routing.
fn compile(
    op: &Op,
    design: &CnvDesign,
    device: &Device,
    est: &TrainedEstimator,
) -> (RwFlowResult, RouteReport) {
    let result = if op.guided {
        let predictions: HashMap<String, f64> = design
            .modules
            .iter()
            .map(|m| (m.name.clone(), est.predict(&m.netlist)))
            .collect();
        let predict = move |name: &str| predictions.get(name).copied().unwrap_or(1.0);
        let policy = CfPolicy::Guided {
            predict: &predict,
            max_cf: 3.0,
        };
        run_rw_flow(design, device, &config(op, policy))
    } else {
        run_rw_flow(
            design,
            device,
            &config(op, CfPolicy::Minimal(CfSearch::wide())),
        )
    };
    let route = route_stitched(
        device,
        &result.problem,
        &result.stitch,
        &RouterConfig::default(),
    );
    (result, route)
}

/// The same op through the rebuilt, traced pipeline.
fn compile_traced(
    tr: &Tracer,
    id: u32,
    op: &Op,
    design: &CnvDesign,
    device: &Device,
    est: &TrainedEstimator,
) -> (RwFlowResult, RouteReport) {
    tr.span(Ctx { op: id, parent: 0 }, "op", |at| {
        let result = if op.guided {
            let predictions: HashMap<String, f64> = design
                .modules
                .iter()
                .map(|m| (m.name.clone(), traced_predict(tr, at, est, &m.netlist)))
                .collect();
            let predict = move |name: &str| predictions.get(name).copied().unwrap_or(1.0);
            let policy = CfPolicy::Guided {
                predict: &predict,
                max_cf: 3.0,
            };
            traced_flow(tr, at, design, device, &config(op, policy))
        } else {
            let policy = CfPolicy::Minimal(CfSearch::wide());
            traced_flow(tr, at, design, device, &config(op, policy))
        };
        let route = tr.span(at, "route.route", |_| {
            route_stitched(
                device,
                &result.problem,
                &result.stitch,
                &RouterConfig::default(),
            )
        });
        (result, route)
    })
}

/// `bram36_used` is left at 0: without packing it is fixed by the design.
fn qor(r: &RwFlowResult) -> Qor {
    Qor {
        instances: r.problem.instances.len() as u64,
        placed: r.stitch.placed_count as u64,
        hpwl: r.stitch.final_cost,
        tool_runs: u64::from(r.total_tool_runs),
        macro_area: r.problem.total_area(),
        bram36: 0,
    }
}

fn check(auditor: &Auditor<'_>, design: &CnvDesign, r: &RwFlowResult) -> Result<(), String> {
    for m in &r.implemented {
        let netlist = &design
            .find_module(&m.name)
            .ok_or_else(|| format!("{} is not a module of the design", m.name))?
            .netlist;
        crate::check::module(auditor, m, Some(netlist))?;
    }
    crate::check::stitched(auditor, r)
}

fn route_key(r: &RouteReport) -> (bool, u32, u64, usize, usize) {
    (
        r.fully_routed,
        r.iterations,
        r.total_wirelength,
        r.routed_connections,
        r.overflowed_cells,
    )
}

pub fn run(args: &Args) -> RunResult {
    let devices = [Device::xc7z020(), Device::xc7z045()];
    let auditors: Vec<Auditor<'_>> = devices.iter().map(Auditor::new).collect();
    // One pass's sequence; an untraced run makes PASSES passes.
    let n = sequence_len(RATE / PASSES as f64, args.seconds, CYCLE);
    let warm_seed = args.seed ^ 0x7761_726d;
    let mut out = RunResult::default();

    // One op, untimed parts included: generate, compile (timed), check.
    let run_one = |seed: u64, i: u64, ests: &[TrainedEstimator]| {
        let op = op(seed, i);
        let design = design(&op);
        let ((r, route), d) =
            timed(|| compile(&op, &design, &devices[op.device], &ests[op.device]));
        let failure = check(&auditors[op.device], &design, &r).err();
        let record = OpRecord {
            class: class(&op),
            ms: ms(d),
            qor: qor(&r),
            failure,
        };
        (op, design, r, route, record)
    };

    if !args.trace {
        let passes: Vec<Pass> = (0..PASSES)
            .map(|_| {
                let ((ests, _), d) = timed(|| setup(&devices, args.seed));
                for i in 0..WARMUP {
                    run_one(warm_seed, i, &ests);
                }
                Pass {
                    setup_s: d.as_secs_f64(),
                    ops: (0..n).map(|i| run_one(args.seed, i, &ests).4).collect(),
                    hpwl: None,
                }
            })
            .collect();
        out.finish(&passes);
        return out;
    }

    // Traced run: each op runs untraced, then through the rebuilt pipeline
    // with spans; the two must agree bit for bit.
    let (ests, train) = setup(&devices, args.seed);
    for i in 0..WARMUP {
        run_one(warm_seed, i, &ests);
    }
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    for i in 0..n {
        let (op, design, r, route, record) = run_one(args.seed, i, &ests);
        let ((tr_r, tr_route), d) = timed(|| {
            compile_traced(
                &tracer,
                i as u32,
                &op,
                &design,
                &devices[op.device],
                &ests[op.device],
            )
        });
        untraced_ms += record.ms;
        traced_ms += ms(d);
        if Outcome::of(&r) != Outcome::of(&tr_r) || route_key(&route) != route_key(&tr_route) {
            out.problems.push(format!(
                "traced op {i} does not reproduce the untraced result"
            ));
        }
        tally.add(
            &tr_r,
            tr_r.implemented.len() as u64,
            u64::from(tr_r.total_tool_runs),
        );
        ops.push(record);
    }
    out.book(&ops);
    let spans = tracer.spans();
    out.write_trace(args, &spans);
    let mut v = tally.metrics(&spans);
    v.insert(
        "estimator.train_s",
        train.iter().map(Duration::as_secs_f64).sum::<f64>() / train.len() as f64,
    );
    v.insert("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    qor_extras(&ops, &mut v);
    out.metrics = per_layer(&v);
    out
}
