//! `recompile`: RapidWright's reuse promise. Set-up fills an
//! `ImplementationCache` with every pool entry — each (design, device,
//! pack policy) — and each op edits one non-weight module of an entry so
//! its fingerprint is new, then reruns `run_rw_flow_cached` with the fast
//! stitch `tms-serve` uses. Fingerprinting, verified lookups, the packing
//! phase and a short stitch dominate; the CF search implements a single
//! module per op.

use crate::common::{ms, qor_extras, sequence_len, timed, OpRecord, Pass, Qor, Rng, PASSES};
use crate::layers::{per_layer, Tally};
use crate::pipeline::{flow_config, traced_cached, Outcome};
use crate::trace::{Ctx, Tracer};
use crate::{Args, RunResult};
use std::collections::{HashMap, HashSet};
use tms_core::cnn::{cnvw1a1, synth_module, zoo_design, zoo_names, CnvDesign, ModuleRole};
use tms_core::device::Device;
use tms_core::flow::{
    run_rw_flow_cached, CachedFlowResult, CfPolicy, ImplementationCache, MemPackConfig,
    MemPackPolicy, ModuleFingerprint, RwFlowConfig,
};
use tms_core::pblock::CfSearch;
use tms_core::stitch::StitchConfig;
use tms_core::verify::Auditor;

/// Ops per second of `--seconds` on a 2-core host.
const RATE: f64 = 250.0;
const WARMUP: u64 = 8;
/// One cycle of the op mix (see [`entry_of`]).
const CYCLE: usize = 20;
const DESIGNS: usize = 5;

/// One pool entry and what set-up made of it.
struct Entry {
    device: usize,
    packed: bool,
    design_seed: u64,
    design: CnvDesign,
    /// Module name → (CF bits, PBlock) as set-up implemented it.
    implemented: HashMap<String, (u64, [u32; 4])>,
    /// BRAM36 sites of the unpacked design, instance-weighted.
    bram36: u64,
}

fn pblock(m: &tms_core::flow::ImplementedModule) -> (u64, [u32; 4]) {
    let r = &m.pblock.rect;
    (m.cf.to_bits(), [r.x, r.y, r.w, r.h])
}

fn config(e: &Entry) -> RwFlowConfig<'static> {
    let mem_pack = if e.packed {
        MemPackConfig::new(MemPackPolicy::Packed, e.design_seed)
    } else {
        MemPackConfig::off()
    };
    flow_config(
        CfPolicy::Minimal(CfSearch::wide()),
        e.design_seed,
        StitchConfig::fast(e.design_seed),
        mem_pack,
    )
}

/// Pool entry index of op `i`: one op in four runs packed, and designs
/// and devices rotate, so every seed gets the same mix.
fn entry_of(i: u64) -> usize {
    let packed = usize::from(i % 4 == 3);
    let design = (i % DESIGNS as u64) as usize;
    let device = ((i / DESIGNS as u64) % 2) as usize;
    (design * 2 + device) * 2 + packed
}

/// Seed of the pool's designs. The pool is the same for every run; the
/// run's seed draws the edits, so QoR means do not swing with which
/// twenty designs a seed happened to draw.
const POOL_SEED: u64 = 0x706f_6f6c;

/// Set-up: generate the pool and compile every entry into a fresh cache.
fn setup(devices: &[Device]) -> Result<(Vec<Entry>, ImplementationCache), String> {
    let mut cache = ImplementationCache::new();
    let mut pool = Vec::new();
    for design in 0..DESIGNS {
        for (device, dev) in devices.iter().enumerate() {
            for packed in [false, true] {
                let design_seed = Rng::new(POOL_SEED ^ (pool.len() as u64) << 32).next() >> 16;
                let d = match design {
                    0 => cnvw1a1(design_seed),
                    k => zoo_design(zoo_names()[k - 1], design_seed).expect("zoo member"),
                };
                let bram36 = d
                    .modules
                    .iter()
                    .map(|m| u64::from(m.netlist.stats().counts.bram36) * u64::from(m.instances))
                    .sum();
                let mut e = Entry {
                    device,
                    packed,
                    design_seed,
                    design: d,
                    implemented: HashMap::new(),
                    bram36,
                };
                let r = run_rw_flow_cached(&e.design, dev, &config(&e), &mut cache);
                let auditor = Auditor::new(dev);
                crate::check::stitched(&auditor, &r.result)
                    .map_err(|why| format!("set-up entry {}: {why}", pool.len()))?;
                for m in &r.result.implemented {
                    crate::check::module(&auditor, m, None)?;
                    e.implemented.insert(m.name.clone(), pblock(m));
                }
                pool.push(e);
            }
        }
    }
    Ok((pool, cache))
}

/// LUTs a role's generator produces per target slice, to size an edit
/// near the module it replaces.
fn luts_per_slice() -> HashMap<ModuleRole, f64> {
    ModuleRole::ALL
        .iter()
        .map(|&r| {
            let luts = synth_module(r, 100, "probe", 1).stats().counts.luts;
            (r, f64::from(luts.max(1)) / 100.0)
        })
        .collect()
}

/// The edits of a run so far. Each op resizes one non-weight module of its
/// entry; the j-th edit of a module moves its size by the j-th offset of
/// +1, −1, +2, −2, … slices, so sizes never repeat and stay near the
/// original, and every edit's fingerprint is checked to be one the cache
/// has never seen.
struct Edits {
    count: HashMap<(usize, usize), i64>,
    seen: HashSet<ModuleFingerprint>,
}

impl Edits {
    /// Start from every non-weight fingerprint set-up put in the cache.
    fn new(pool: &[Entry], devices: &[Device]) -> Edits {
        let seen = pool
            .iter()
            .flat_map(|e| {
                e.design
                    .modules
                    .iter()
                    .filter(|m| m.role != ModuleRole::Weights)
                    .map(|m| ModuleFingerprint::of(&m.netlist, &devices[e.device]))
            })
            .collect();
        Edits {
            count: HashMap::new(),
            seen,
        }
    }

    /// The design of op `i` on pool entry `entry`, and the edited module.
    fn edit(
        &mut self,
        seed: u64,
        i: u64,
        (entry, e): (usize, &Entry),
        device: &Device,
        ratio: &HashMap<ModuleRole, f64>,
    ) -> (CnvDesign, String) {
        let mut rng = Rng::new(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9)));
        let candidates: Vec<usize> = (0..e.design.modules.len())
            .filter(|&k| e.design.modules[k].role != ModuleRole::Weights)
            .collect();
        loop {
            let k = candidates[rng.below(candidates.len() as u64) as usize];
            let m = &e.design.modules[k];
            let j = self.count.entry((entry, k)).or_default();
            *j += 1;
            let offset = if *j % 2 == 1 { (*j + 1) / 2 } else { -*j / 2 };
            let size = (f64::from(m.netlist.stats().counts.luts) / ratio[&m.role]).round();
            let target = size as i64 + offset;
            if target < 2 {
                continue;
            }
            let netlist = synth_module(m.role, target as u32, &m.name, rng.next() >> 16);
            if self.seen.insert(ModuleFingerprint::of(&netlist, device)) {
                let mut design = e.design.clone();
                design.modules[k].netlist = netlist;
                return (design, m.name.clone());
            }
        }
    }
}

fn qor(e: &Entry, r: &CachedFlowResult) -> Qor {
    let res = &r.result;
    Qor {
        instances: res.problem.instances.len() as u64,
        placed: res.stitch.placed_count as u64,
        hpwl: res.stitch.final_cost,
        tool_runs: u64::from(r.tool_runs_spent),
        macro_area: res.problem.total_area(),
        bram36: res.pack.as_ref().map_or(e.bram36, |p| p.bram36_total),
    }
}

/// Exactly the edited module is fresh, every other one is a hit equal to
/// its set-up implementation, and the fresh module and stitch are legal.
fn check(
    auditor: &Auditor<'_>,
    e: &Entry,
    design: &CnvDesign,
    edited: &str,
    r: &CachedFlowResult,
) -> Result<(), String> {
    if r.fresh != 1 || r.reused + 1 != design.modules.len() {
        return Err(format!(
            "expected 1 fresh module, got {} fresh / {} reused",
            r.fresh, r.reused
        ));
    }
    for m in &r.result.implemented {
        if m.name == edited {
            let netlist = &design.find_module(edited).expect("edited module").netlist;
            crate::check::module(auditor, m, Some(netlist))?;
        } else if e.implemented.get(&m.name) != Some(&pblock(m)) {
            return Err(format!(
                "hit {} differs from its set-up implementation",
                m.name
            ));
        }
    }
    crate::check::stitched(auditor, &r.result)
}

pub fn run(args: &Args) -> RunResult {
    let devices = [Device::xc7z020(), Device::xc7z045()];
    let auditors: Vec<Auditor<'_>> = devices.iter().map(Auditor::new).collect();
    // One pass's sequence; an untraced run makes PASSES passes.
    let n = sequence_len(RATE / PASSES as f64, args.seconds, CYCLE);
    let ratio = luts_per_slice();
    let mut out = RunResult::default();
    // Untimed warm-up edits, drawn from their own seed; returns the edit
    // state the timed ops continue from.
    let warm_up = |pool: &[Entry], cache: &mut ImplementationCache| {
        let mut edits = Edits::new(pool, &devices);
        for i in 0..WARMUP {
            let e = &pool[entry_of(i)];
            let device = &devices[e.device];
            let (design, _) =
                edits.edit(args.seed ^ 0x7761_726d, i, (entry_of(i), e), device, &ratio);
            run_rw_flow_cached(&design, device, &config(e), cache);
        }
        edits
    };
    let setup_or_fail = |out: &mut RunResult| match setup(&devices) {
        Ok(s) => Some(s),
        Err(why) => {
            out.problems.push(why);
            None
        }
    };

    // One op on `cache`: edit (untimed), recompile (timed), check.
    let run_one = |i: u64, pool: &[Entry], cache: &mut ImplementationCache, edits: &mut Edits| {
        let e = &pool[entry_of(i)];
        let device = &devices[e.device];
        let (design, edited) = edits.edit(args.seed, i, (entry_of(i), e), device, &ratio);
        let (r, d) = timed(|| run_rw_flow_cached(&design, device, &config(e), cache));
        let record = OpRecord {
            class: if e.packed { "packed" } else { "unpacked" },
            ms: ms(d),
            qor: qor(e, &r),
            failure: check(&auditors[e.device], e, &design, &edited, &r).err(),
        };
        (design, r, record)
    };

    if !args.trace {
        let mut passes = Vec::new();
        for _ in 0..PASSES {
            let (s, d) = timed(|| setup_or_fail(&mut out));
            let Some((pool, mut cache)) = s else {
                return out;
            };
            let mut edits = warm_up(&pool, &mut cache);
            passes.push(Pass {
                setup_s: d.as_secs_f64(),
                ops: (0..n)
                    .map(|i| run_one(i, &pool, &mut cache, &mut edits).2)
                    .collect(),
                hpwl: None,
            });
        }
        out.finish(&passes);
        return out;
    }

    // Traced run: two caches filled by identical set-ups; each op runs
    // untraced on one and through the rebuilt pipeline on the other.
    let (Some((pool, mut cache)), Some((_, mut traced_cache))) =
        (setup_or_fail(&mut out), setup_or_fail(&mut out))
    else {
        return out;
    };
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut edits = warm_up(&pool, &mut cache);
    warm_up(&pool, &mut traced_cache);
    for i in 0..n {
        let (design, r, record) = run_one(i, &pool, &mut cache, &mut edits);
        let e = &pool[entry_of(i)];
        let cfg = config(e);
        let (t, d) = timed(|| {
            tracer.span(
                Ctx {
                    op: i as u32,
                    parent: 0,
                },
                "op",
                |at| {
                    traced_cached(
                        &tracer,
                        at,
                        &design,
                        &devices[e.device],
                        &cfg,
                        &mut traced_cache,
                    )
                },
            )
        });
        untraced_ms += record.ms;
        traced_ms += ms(d);
        if Outcome::of(&r.result) != Outcome::of(&t.result)
            || (r.reused, r.fresh, r.tool_runs_spent) != (t.reused, t.fresh, t.tool_runs_spent)
        {
            out.problems.push(format!(
                "traced op {i} does not reproduce the untraced result"
            ));
        }
        tally.add(&t.result, t.fresh as u64, u64::from(t.tool_runs_spent));
        tally.lookups += design.modules.len() as u64;
        tally.hits += t.reused as u64;
        tally.quarantined += t.quarantined;
        ops.push(record);
    }
    out.book(&ops);
    let spans = tracer.spans();
    out.write_trace(args, &spans);
    let mut v = tally.metrics(&spans);
    v.insert("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    v.insert("verify.failures", cache.verify_failures() as f64);
    v.insert("verify.quarantined", cache.quarantined() as f64);
    qor_extras(&ops, &mut v);
    out.metrics = per_layer(&v);
    out
}
