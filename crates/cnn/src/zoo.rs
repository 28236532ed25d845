//! A workload zoo: a family of FINN-style BNN block designs beyond the one
//! calibrated cnvW1A1 point.
//!
//! The Toolflows survey (Venieris et al.) motivates exercising mapping
//! flows on a *family* of dataflow designs rather than a single netlist:
//! conclusions drawn from one composition (one layer mix, one weight-store
//! distribution) rarely transfer. [`zoo`] generates four BNN variants with
//! the same module vocabulary as [`crate::cnvw1a1`] — sliding windows,
//! MVAUs, activations, weight stores — but different depth, width and
//! weight-store scaling, each deterministic in the seed:
//!
//! | name       | shape                | character                          |
//! |------------|----------------------|------------------------------------|
//! | `bnn-wide` | 6 conv + 3 fc, ×1.6  | fat weight stores, PE=4 conv banks |
//! | `bnn-deep` | 9 conv + 3 fc, ×0.9  | many layers, mid-size stores       |
//! | `bnn-fc`   | 2 conv + 6 fc, ×1.2  | fc-heavy, narrow SIMD folds        |
//! | `bnn-slim` | 4 conv + 2 fc, ×0.6  | small stores, mostly LUTRAM-able   |
//!
//! Every weight-store module carries a [`WeightSpec`] so the `tms-pack`
//! phase can decide BRAM36 / BRAM18-half / LUTRAM bin assignments for it.

use crate::design::{jitter, weight_fold, Builder, CnvDesign};
use crate::mem::WeightSpec;
use crate::role::ModuleRole;

/// Shape of one zoo member.
#[derive(Debug, Clone, Copy)]
struct ZooShape {
    name: &'static str,
    conv_layers: u32,
    fc_layers: u32,
    /// Multiplies every size target (and weight-store capacity).
    width_scale: f64,
    /// PE fold of convolutional weight stores (banks per store).
    conv_pe: u32,
}

const SHAPES: [ZooShape; 4] = [
    ZooShape {
        name: "bnn-wide",
        conv_layers: 6,
        fc_layers: 3,
        width_scale: 1.6,
        conv_pe: 4,
    },
    ZooShape {
        name: "bnn-deep",
        conv_layers: 9,
        fc_layers: 3,
        width_scale: 0.9,
        conv_pe: 2,
    },
    ZooShape {
        name: "bnn-fc",
        conv_layers: 2,
        fc_layers: 6,
        width_scale: 1.2,
        conv_pe: 2,
    },
    ZooShape {
        name: "bnn-slim",
        conv_layers: 4,
        fc_layers: 2,
        width_scale: 0.6,
        conv_pe: 2,
    },
];

/// Names of the zoo members, in generation order.
pub fn zoo_names() -> Vec<&'static str> {
    SHAPES.iter().map(|s| s.name).collect()
}

/// Generate the whole zoo for `seed`: `(name, design)` pairs,
/// deterministic in the seed.
pub fn zoo(seed: u64) -> Vec<(String, CnvDesign)> {
    SHAPES
        .iter()
        .map(|s| (s.name.to_string(), bnn_layout(*s, seed).finish()))
        .collect()
}

/// Generate one zoo member by name (`bnn-wide`, `bnn-deep`, `bnn-fc`,
/// `bnn-slim`). Returns `None` for unknown names.
pub fn zoo_design(name: &str, seed: u64) -> Option<CnvDesign> {
    SHAPES
        .iter()
        .find(|s| s.name == name)
        .map(|s| bnn_layout(*s, seed).finish())
}

/// One zoo member's block diagram with its modules' synthesis inputs,
/// before any netlist is synthesised.
fn bnn_layout(shape: ZooShape, seed: u64) -> Builder {
    // Decorrelate members sharing a seed without losing determinism.
    let mix = shape
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let seed = seed ^ mix;
    let mut b = Builder::new(seed);
    let layers = shape.conv_layers + shape.fc_layers;
    let scale = |t: u32, key: u64| -> u32 {
        ((f64::from(t) * shape.width_scale * jitter(seed ^ key, 0.2)) as u32).max(12)
    };

    let mut prev_out: Option<u32> = None;
    let mut k = 0u32;
    for l in 1..=layers {
        let is_conv = l <= shape.conv_layers;
        // --- layer input ------------------------------------------------
        let layer_in = if is_conv {
            let swu = b.module(
                &format!("swu_l{l}"),
                ModuleRole::SlidingWindow,
                l,
                scale(35 + 15 * l, u64::from(l) * 7 + 1),
                1,
            );
            if let Some(p) = prev_out {
                b.net(&[p, swu[0]], 8.0);
            }
            swu[0]
        } else {
            prev_out.unwrap_or_else(|| {
                // An fc-first design still needs an input distributor.
                b.module("input_dist", ModuleRole::Activation, l, 20, 1)[0]
            })
        };

        // --- MVAUs --------------------------------------------------------
        let inst = if is_conv { 3 } else { 2 };
        let mvaus = b.module(
            &format!("mvau_l{l}"),
            ModuleRole::Mvau,
            l,
            scale(28 + 9 * l, u64::from(l) * 13 + 2),
            inst,
        );
        let mut fanout = vec![layer_in];
        fanout.extend(&mvaus);
        b.net(&fanout, 8.0);

        // --- weight stores ------------------------------------------------
        let uniques = if is_conv { 2 + l / 3 } else { 3 };
        let (pe, simd) = if is_conv {
            (shape.conv_pe, weight_fold(1).1)
        } else {
            weight_fold(u32::MAX)
        };
        let mut w_ids: Vec<u32> = Vec::new();
        for j in 0..uniques {
            let name = format!("weights_{k}");
            let count = if j == 0 { 2 } else { 1 };
            // The first store of the first fc layer dominates the design
            // (the zoo's analogue of cnvW1A1's weights_14).
            let target = if !is_conv && l == shape.conv_layers + 1 && j == 0 {
                scale(900, u64::from(k) * 97 + 3)
            } else {
                scale(40 + 11 * l, u64::from(k) * 97 + 3)
            };
            let ids = b.module(&name, ModuleRole::Weights, l, target, count);
            b.set_mem(WeightSpec::folded(u64::from(target) * 256, pe, simd, 1));
            w_ids.extend(ids);
            k += 1;
        }
        for i in 0..w_ids.len().max(mvaus.len()) {
            b.net(&[w_ids[i % w_ids.len()], mvaus[i % mvaus.len()]], 16.0);
        }

        // --- activation + pools after every second conv layer -------------
        let act = b.module(
            &format!("act_l{l}"),
            ModuleRole::Activation,
            l,
            scale(18, u64::from(l) * 29 + 4),
            1,
        );
        let mut collect = mvaus.clone();
        collect.push(act[0]);
        b.net(&collect, 4.0);
        prev_out = Some(if is_conv && l % 2 == 0 {
            let pool = b.module(&format!("pool_{}", l / 2), ModuleRole::MaxPool, l, 40, 1);
            b.net(&[act[0], pool[0]], 8.0);
            pool[0]
        } else {
            act[0]
        });
    }

    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::assert_same_design;
    use tms_synth::pack;

    #[test]
    fn parallel_synthesis_matches_the_sequential_builder() {
        for shape in SHAPES {
            for seed in [1, 9] {
                assert_same_design(
                    &bnn_layout(shape, seed).finish(),
                    &bnn_layout(shape, seed).finish_sequential(),
                );
            }
        }
    }

    #[test]
    fn zoo_has_four_distinct_members() {
        let z = zoo(1);
        assert_eq!(z.len(), 4);
        let names: Vec<&str> = z.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, zoo_names());
        // Members differ in composition, not just in name.
        let sizes: Vec<usize> = z.iter().map(|(_, d)| d.instance_count()).collect();
        for i in 0..sizes.len() {
            for j in i + 1..sizes.len() {
                assert_ne!(
                    (sizes[i], z[i].1.unique_count()),
                    (sizes[j], z[j].1.unique_count()),
                    "{} vs {}",
                    names[i],
                    names[j]
                );
            }
        }
    }

    #[test]
    fn zoo_members_are_deterministic_and_seed_sensitive() {
        for (name, d) in zoo(9) {
            let again = zoo_design(&name, 9).unwrap();
            assert_eq!(d.instance_count(), again.instance_count());
            for (ma, mb) in d.modules.iter().zip(&again.modules) {
                assert_eq!(ma.name, mb.name);
                assert_eq!(ma.netlist.stats(), mb.netlist.stats());
                assert_eq!(ma.mem, mb.mem);
            }
            let other = zoo_design(&name, 10).unwrap();
            let size = |d: &CnvDesign| -> u32 {
                d.modules
                    .iter()
                    .map(|m| pack(&m.netlist.stats()).required_slices)
                    .sum()
            };
            assert_ne!(size(&d), size(&other), "{name} should vary with seed");
        }
        assert!(zoo_design("bnn-nonexistent", 1).is_none());
    }

    #[test]
    fn zoo_weights_carry_specs_and_everything_is_connected() {
        for (name, d) in zoo(3) {
            let mut seen = vec![false; d.instance_count()];
            for (ends, _) in &d.nets {
                for &e in ends {
                    seen[e as usize] = true;
                }
            }
            assert!(
                seen.iter().all(|s| *s),
                "{name}: unconnected instances present"
            );
            let mut weights = 0;
            for m in &d.modules {
                if m.role == ModuleRole::Weights {
                    weights += 1;
                    assert!(m.mem.is_some(), "{name}/{}", m.name);
                } else {
                    assert!(m.mem.is_none(), "{name}/{}", m.name);
                }
            }
            assert!(weights >= 6, "{name} has only {weights} weight stores");
        }
    }

    #[test]
    fn wide_member_folds_conv_weights_into_four_banks() {
        let d = zoo_design("bnn-wide", 1).unwrap();
        let conv_store = d
            .modules
            .iter()
            .find(|m| m.role == ModuleRole::Weights && m.layer == 1)
            .unwrap();
        assert_eq!(conv_store.mem.unwrap().banks(), 4);
    }
}
