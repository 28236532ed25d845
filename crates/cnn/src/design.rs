//! Assembly of the cnvW1A1 block design: 175 instances, 74 unique modules.

use crate::mem::WeightSpec;
use crate::role::{synth_module, ModuleRole};
use rayon::prelude::*;
use tms_netlist::Netlist;

/// One unique module of the block design.
#[derive(Debug, Clone)]
pub struct CnvModule {
    /// Module name (`mvau_18`, `weights_14`, …).
    pub name: String,
    /// Functional role.
    pub role: ModuleRole,
    /// The layer the module belongs to (1..=9; pools carry the layer they
    /// follow).
    pub layer: u32,
    /// The synthesised netlist.
    pub netlist: Netlist,
    /// How many instances the design replicates.
    pub instances: u32,
    /// Weight-store geometry, for `Weights` modules. Metadata only: the
    /// seed netlist is unchanged by it, but `tms-pack` reads it to decide
    /// BRAM36 / BRAM18-half / LUTRAM bin assignments.
    pub mem: Option<WeightSpec>,
}

/// The full block design.
#[derive(Debug, Clone)]
pub struct CnvDesign {
    /// Unique modules.
    pub modules: Vec<CnvModule>,
    /// Instance table: `(module index, instance name)`.
    pub instances: Vec<(usize, String)>,
    /// Inter-block nets of the diagram: `(instance ids, bus weight)`.
    pub nets: Vec<(Vec<u32>, f64)>,
}

impl CnvDesign {
    /// Number of block instances (the paper's 175).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of unique modules (the paper's 74).
    pub fn unique_count(&self) -> usize {
        self.modules.len()
    }

    /// Look up a unique module by name.
    pub fn find_module(&self, name: &str) -> Option<&CnvModule> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Instance count of a named module.
    pub fn instances_of(&self, name: &str) -> u32 {
        self.find_module(name).map_or(0, |m| m.instances)
    }
}

/// Deterministic size jitter in `[1 - amp, 1 + amp]`.
pub(crate) fn jitter(k: u64, amp: f64) -> f64 {
    let mut z = k
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x51_7c_c1);
    z ^= z >> 31;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 29;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * (2.0 * unit - 1.0)
}

/// A module the builder has laid out but not yet synthesised: everything
/// [`CnvModule`] holds except the netlist, plus the synthesis inputs.
struct PendingModule {
    name: String,
    role: ModuleRole,
    layer: u32,
    target: u32,
    seed: u64,
    instances: u32,
    mem: Option<WeightSpec>,
}

impl PendingModule {
    fn synthesise(self) -> CnvModule {
        CnvModule {
            netlist: synth_module(self.role, self.target, &self.name, self.seed),
            name: self.name,
            role: self.role,
            layer: self.layer,
            instances: self.instances,
            mem: self.mem,
        }
    }
}

/// Lays out a block design, then synthesises its modules.
///
/// Assembly reads only names, instance ids and nets, never a netlist, so
/// [`Builder::module`] merely records each module's synthesis inputs and
/// [`Builder::finish`] synthesises them all in parallel. Each netlist
/// depends on its own inputs alone, so the design is identical however
/// the work is split.
pub(crate) struct Builder {
    modules: Vec<PendingModule>,
    instances: Vec<(usize, String)>,
    nets: Vec<(Vec<u32>, f64)>,
    seed: u64,
}

impl Builder {
    pub(crate) fn new(seed: u64) -> Builder {
        Builder {
            modules: Vec::new(),
            instances: Vec::new(),
            nets: Vec::new(),
            seed,
        }
    }

    /// Create a unique module with `count` instances; returns instance ids.
    pub(crate) fn module(
        &mut self,
        name: &str,
        role: ModuleRole,
        layer: u32,
        target: u32,
        count: u32,
    ) -> Vec<u32> {
        let idx = self.modules.len();
        self.modules.push(PendingModule {
            name: name.to_string(),
            role,
            layer,
            target,
            seed: self.seed ^ (idx as u64) << 8,
            instances: count,
            mem: None,
        });
        (0..count)
            .map(|i| {
                let id = self.instances.len() as u32;
                self.instances.push((idx, format!("{name}[{i}]")));
                id
            })
            .collect()
    }

    /// Attach a weight-store geometry to the most recently created module.
    pub(crate) fn set_mem(&mut self, spec: WeightSpec) {
        self.modules
            .last_mut()
            .expect("set_mem called before any module")
            .mem = Some(spec);
    }

    pub(crate) fn net(&mut self, endpoints: &[u32], weight: f64) {
        if endpoints.len() >= 2 {
            self.nets.push((endpoints.to_vec(), weight));
        }
    }

    /// Synthesise every module, in parallel, and assemble the design.
    pub(crate) fn finish(self) -> CnvDesign {
        CnvDesign {
            modules: self
                .modules
                .into_par_iter()
                .map(PendingModule::synthesise)
                .collect(),
            instances: self.instances,
            nets: self.nets,
        }
    }

    /// [`Builder::finish`] one module at a time: the oracle the parallel
    /// build is checked against.
    #[cfg(test)]
    pub(crate) fn finish_sequential(self) -> CnvDesign {
        CnvDesign {
            modules: self
                .modules
                .into_iter()
                .map(PendingModule::synthesise)
                .collect(),
            instances: self.instances,
            nets: self.nets,
        }
    }
}

/// Assert two designs equal cell for cell and net for net, plus
/// everything else a module and the diagram carry.
#[cfg(test)]
pub(crate) fn assert_same_design(a: &CnvDesign, b: &CnvDesign) {
    assert_eq!(a.modules.len(), b.modules.len());
    for (ma, mb) in a.modules.iter().zip(&b.modules) {
        assert_eq!(ma.name, mb.name);
        assert_eq!(ma.role, mb.role);
        assert_eq!(ma.layer, mb.layer);
        assert_eq!(ma.instances, mb.instances);
        assert_eq!(ma.mem, mb.mem);
        assert_eq!(ma.netlist.name(), mb.netlist.name());
        assert_eq!(ma.netlist.cells(), mb.netlist.cells(), "{}", ma.name);
        assert_eq!(
            ma.netlist.nets().collect::<Vec<_>>(),
            mb.netlist.nets().collect::<Vec<_>>(),
            "{}",
            ma.name
        );
    }
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.nets.len(), b.nets.len());
    for ((ea, wa), (eb, wb)) in a.nets.iter().zip(&b.nets) {
        assert_eq!(ea, eb);
        assert_eq!(wa.to_bits(), wb.to_bits());
    }
}

/// PE/SIMD folding for a weight store on layer `l` of a FINN-style BNN:
/// conv layers (≤ 6) fold wider (SIMD 32), fully-connected layers narrower.
pub(crate) fn weight_fold(layer: u32) -> (u32, u32) {
    if layer <= 6 {
        (2, 32)
    } else {
        (2, 16)
    }
}

/// Build the cnvW1A1 block design.
///
/// The composition reproduces the paper's Section III statistics exactly:
/// 175 instances, 74 unique modules, 48 identical MVAUs shared by layers
/// 1–2, 20 shared by layers 3–4, four instances of `mvau_18`, and the large
/// `weights_14` weight store. Per-module sizes are deterministic in `seed`.
pub fn cnvw1a1(seed: u64) -> CnvDesign {
    cnvw1a1_layout(seed).finish()
}

/// The cnvW1A1 block diagram with its modules' synthesis inputs, before
/// any netlist is synthesised.
fn cnvw1a1_layout(seed: u64) -> Builder {
    let mut b = Builder::new(seed);

    // ---- MVAUs ------------------------------------------------------
    // Layers 1-2 share one configuration (48 instances), 3-4 another (20).
    let mvau_l12 = b.module("mvau_l12", ModuleRole::Mvau, 1, 30, 48);
    let mvau_l34 = b.module("mvau_l34", ModuleRole::Mvau, 3, 55, 20);
    let mvau_18 = b.module("mvau_18", ModuleRole::Mvau, 5, 29, 4);
    let mut mvau_by_layer: Vec<Vec<u32>> = vec![Vec::new(); 10];
    mvau_by_layer[1] = mvau_l12[..24].to_vec();
    mvau_by_layer[2] = mvau_l12[24..].to_vec();
    mvau_by_layer[3] = mvau_l34[..10].to_vec();
    mvau_by_layer[4] = mvau_l34[10..].to_vec();
    mvau_by_layer[5] = mvau_18;
    // Deeper layers: distinct configurations with pairwise reuse.
    for (layer, names, target, per) in [
        (
            6u32,
            ["mvau_l6_a", "mvau_l6_b", "mvau_l6_c", "mvau_l6_d"].as_slice(),
            60u32,
            2u32,
        ),
        (7, ["mvau_l7_a", "mvau_l7_b", "mvau_l7_c"].as_slice(), 70, 2),
        (8, ["mvau_l8_a", "mvau_l8_b"].as_slice(), 60, 2),
        (9, ["mvau_l9_a", "mvau_l9_b"].as_slice(), 50, 1),
    ] {
        for (i, n) in names.iter().enumerate() {
            let t = (f64::from(target) * jitter(seed ^ (layer as u64 * 31 + i as u64), 0.1)) as u32;
            let ids = b.module(n, ModuleRole::Mvau, layer, t.max(10), per);
            mvau_by_layer[layer as usize].extend(ids);
        }
    }

    // ---- Sliding windows, pools, activations ------------------------
    let swu_targets = [40u32, 70, 90, 110, 130, 140];
    let mut swu: Vec<Vec<u32>> = vec![Vec::new(); 7];
    for l in 1..=6u32 {
        swu[l as usize] = b.module(
            &format!("swu_l{l}"),
            ModuleRole::SlidingWindow,
            l,
            swu_targets[l as usize - 1],
            1,
        );
    }
    let pool_1 = b.module("pool_1", ModuleRole::MaxPool, 2, 40, 1);
    let pool_2 = b.module("pool_2", ModuleRole::MaxPool, 4, 40, 1);
    let mut act: Vec<Vec<u32>> = vec![Vec::new(); 10];
    for l in 1..=9u32 {
        act[l as usize] = b.module(&format!("act_l{l}"), ModuleRole::Activation, l, 20, 1);
    }

    // ---- Weight stores -----------------------------------------------
    // Per-layer unique counts and how many of them are instantiated twice
    // (mirrored PE groups). Totals: 43 unique, 66 instances; together with
    // the blocks above: 74 unique, 175 instances.
    let uniques_per_layer = [2u32, 4, 4, 5, 5, 6, 6, 6, 5];
    let doubles_per_layer = [2u32, 4, 4, 3, 3, 3, 2, 1, 1];
    let base_size = [55u32, 65, 75, 85, 95, 105, 120, 140, 110];
    let mut weights_by_layer: Vec<Vec<u32>> = vec![Vec::new(); 10];
    let mut k = 0u32;
    for l in 1..=9usize {
        for j in 0..uniques_per_layer[l - 1] {
            let name = format!("weights_{k}");
            let count = if j < doubles_per_layer[l - 1] { 2 } else { 1 };
            let target = if k == 14 {
                1_300 // the design's dominant block (paper: 1,529 slices at CF 1.5)
            } else {
                ((f64::from(base_size[l - 1]) * jitter(seed ^ (u64::from(k) * 97), 0.25)) as u32)
                    .max(15)
            };
            let ids = b.module(&name, ModuleRole::Weights, l as u32, target, count);
            // Weight-store geometry for the packing phase: the LUT-ROM
            // recipe stores 256 bits per target slice (4 LUT-ROMs × 64
            // bits), folded by the layer's PE/SIMD configuration.
            let (pe, simd) = weight_fold(l as u32);
            b.set_mem(WeightSpec::folded(u64::from(target) * 256, pe, simd, 1));
            weights_by_layer[l].extend(ids);
            k += 1;
        }
    }
    debug_assert_eq!(k, 43);

    // ---- Block-diagram nets -------------------------------------------
    // Dataflow: [swu ->] mvaus -> act -> (pool ->) next layer; weights feed
    // their layer's MVAUs round-robin.
    let mut prev_out: Option<u32> = None;
    for l in 1..=9usize {
        let layer_in: u32 = if l <= 6 {
            let s = swu[l][0];
            if let Some(p) = prev_out {
                b.net(&[p, s], 8.0);
            }
            s
        } else {
            // FC layers: previous output broadcasts straight to the MVAUs.
            prev_out.expect("fc layers always have a predecessor")
        };
        // Input distribution to every MVAU of the layer.
        let mvaus = mvau_by_layer[l].clone();
        let mut fanout = vec![layer_in];
        fanout.extend(&mvaus);
        if l > 6 {
            // Drop the duplicate prev_out -> mvau edge built below via act.
            fanout[0] = layer_in;
        }
        b.net(&fanout, 8.0);
        // Weights to MVAUs, round-robin from both sides so neither surplus
        // weight stores nor surplus MVAUs end up unconnected.
        let w = weights_by_layer[l].clone();
        if !w.is_empty() && !mvaus.is_empty() {
            for i in 0..w.len().max(mvaus.len()) {
                b.net(&[w[i % w.len()], mvaus[i % mvaus.len()]], 16.0);
            }
        }
        // MVAUs into the activation.
        let a = act[l][0];
        let mut collect = mvaus.clone();
        collect.push(a);
        b.net(&collect, 4.0);
        // Pools after layers 2 and 4.
        prev_out = Some(match l {
            2 => {
                b.net(&[a, pool_1[0]], 8.0);
                pool_1[0]
            }
            4 => {
                b.net(&[a, pool_2[0]], 8.0);
                pool_2[0]
            }
            _ => a,
        });
    }

    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_synth::pack;

    #[test]
    fn parallel_synthesis_matches_the_sequential_builder() {
        for seed in [1, 7, 306] {
            assert_same_design(
                &cnvw1a1_layout(seed).finish(),
                &cnvw1a1_layout(seed).finish_sequential(),
            );
        }
    }

    #[test]
    fn paper_statistics_match() {
        let d = cnvw1a1(1);
        assert_eq!(d.instance_count(), 175);
        assert_eq!(d.unique_count(), 74);
        assert_eq!(d.instances_of("mvau_l12"), 48);
        assert_eq!(d.instances_of("mvau_l34"), 20);
        assert_eq!(d.instances_of("mvau_18"), 4);
        assert_eq!(d.instances_of("weights_14"), 1);
    }

    #[test]
    fn weights_14_is_the_dominant_block() {
        let d = cnvw1a1(1);
        let w14 = d.find_module("weights_14").unwrap();
        let w14_slices = pack(&w14.netlist.stats()).required_slices;
        for m in &d.modules {
            if m.name != "weights_14" {
                let s = pack(&m.netlist.stats()).required_slices;
                assert!(
                    s < w14_slices,
                    "{} ({s}) >= weights_14 ({w14_slices})",
                    m.name
                );
            }
        }
        // Scale comparable to the paper's 1,371-1,529 slices.
        assert!((1_000..1_800).contains(&w14_slices), "w14 = {w14_slices}");
    }

    #[test]
    fn total_demand_nearly_fills_the_xc7z020() {
        let d = cnvw1a1(1);
        let total: u32 = d
            .modules
            .iter()
            .map(|m| pack(&m.netlist.stats()).required_slices * m.instances)
            .sum();
        // The vendor flow places this at 99.98% of ~13.3k slices; our packed
        // demand (before flat-flow overhead) must sit just below that.
        assert!(
            (11_000..13_300).contains(&total),
            "total packed demand = {total}"
        );
    }

    #[test]
    fn every_instance_is_connected() {
        let d = cnvw1a1(1);
        let mut seen = vec![false; d.instance_count()];
        for (ends, _) in &d.nets {
            for &e in ends {
                seen[e as usize] = true;
            }
        }
        let orphans: Vec<usize> = seen
            .iter()
            .enumerate()
            .filter(|(_, s)| !**s)
            .map(|(i, _)| i)
            .collect();
        assert!(orphans.is_empty(), "unconnected instances: {orphans:?}");
    }

    #[test]
    fn roles_have_expected_counts() {
        let d = cnvw1a1(1);
        let count = |r: ModuleRole| d.modules.iter().filter(|m| m.role == r).count();
        assert_eq!(count(ModuleRole::SlidingWindow), 6);
        assert_eq!(count(ModuleRole::MaxPool), 2);
        assert_eq!(count(ModuleRole::Activation), 9);
        assert_eq!(count(ModuleRole::Weights), 43);
        assert_eq!(count(ModuleRole::Mvau), 14);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = cnvw1a1(9);
        let b = cnvw1a1(9);
        for (ma, mb) in a.modules.iter().zip(&b.modules) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(ma.netlist.stats(), mb.netlist.stats());
        }
        let c = cnvw1a1(10);
        let size = |d: &CnvDesign| -> u32 {
            d.modules
                .iter()
                .map(|m| pack(&m.netlist.stats()).required_slices)
                .sum()
        };
        assert_ne!(size(&a), size(&c), "different seeds should vary sizes");
    }

    #[test]
    fn weights_modules_carry_memory_specs() {
        let d = cnvw1a1(1);
        for m in &d.modules {
            if m.role == ModuleRole::Weights {
                let spec = m.mem.expect("weights module without a WeightSpec");
                assert_eq!(spec.banks(), 2, "{}", m.name);
                assert!(spec.bank_depth() >= 1);
                // The spec covers the LUT-ROM capacity the recipe implies.
                assert!(spec.total_bits() > 0);
            } else {
                assert!(m.mem.is_none(), "{} should carry no mem spec", m.name);
            }
        }
        // weights_14 is deep enough that LUTRAM (depth ≤ 1024) is illegal.
        let w14 = d.find_module("weights_14").unwrap().mem.unwrap();
        assert!(w14.bank_depth() > 1024, "w14 depth = {}", w14.bank_depth());
    }
}
