//! The stitching problem: macros, instances, inter-block nets, and the
//! key of a whole stitch input.

use crate::sa::StitchConfig;
use tms_device::{ColumnSignature, Device};

/// One unique pre-implemented module, ready for replication.
#[derive(Debug, Clone)]
pub struct MacroBlock {
    /// Module name.
    pub name: String,
    /// Column-kind sequence of its PBlock (relocation signature).
    pub signature: ColumnSignature,
    /// Footprint width in columns.
    pub width: u32,
    /// Footprint height in rows.
    pub height: u32,
    /// Slices actually occupied inside the footprint.
    pub used_slices: u32,
    /// Dead-area fraction of the footprint (Figure 3 irregularity).
    pub irregularity: f64,
}

impl MacroBlock {
    /// Footprint area in grid cells.
    pub fn area(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }
}

/// An inter-block net of the block design.
#[derive(Debug, Clone)]
pub struct InterNet {
    /// Instance indices it connects.
    pub endpoints: Vec<u32>,
    /// Net weight (bus width).
    pub weight: f64,
}

/// A full stitching problem: unique blocks, their instances, and the nets
/// of the block diagram.
#[derive(Debug, Clone, Default)]
pub struct StitchProblem {
    /// Unique modules.
    pub modules: Vec<MacroBlock>,
    /// Instance table: each entry is an index into `modules`.
    pub instances: Vec<usize>,
    /// Inter-block nets over instance indices.
    pub nets: Vec<InterNet>,
}

impl StitchProblem {
    /// Start a problem from its unique modules.
    pub fn new(modules: Vec<MacroBlock>) -> Self {
        StitchProblem {
            modules,
            instances: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Add an instance of module `module_idx`; returns its instance index.
    pub fn add_instance(&mut self, module_idx: usize) -> u32 {
        assert!(module_idx < self.modules.len(), "unknown module index");
        let id = self.instances.len() as u32;
        self.instances.push(module_idx);
        id
    }

    /// Add an inter-block net over `endpoints` with `weight`.
    pub fn add_net(&mut self, endpoints: &[u32], weight: f64) {
        debug_assert!(endpoints
            .iter()
            .all(|&e| (e as usize) < self.instances.len()));
        self.nets.push(InterNet {
            endpoints: endpoints.to_vec(),
            weight,
        });
    }

    /// The macro of instance `id`.
    pub fn block_of(&self, id: u32) -> &MacroBlock {
        &self.modules[self.instances[id as usize]]
    }

    /// Total footprint area of all instances (the quantity that, compared
    /// to the device area, predicts how many blocks will fit).
    pub fn total_area(&self) -> u64 {
        self.instances.iter().map(|&m| self.modules[m].area()).sum()
    }
}

/// A 64-bit digest of a single-run stitch's whole input: the device, by
/// name; every [`StitchConfig`] field; and every field of the
/// [`StitchProblem`] — each macro's name, signature, size, used slices
/// and irregularity, the instance table, and every net's endpoints and
/// weight. [`stitch`](crate::stitch) is a pure function of that input, so
/// two stitches with equal keys return the same result, bit for bit, up
/// to a collision of the digest. A caller that stores results by this key
/// trusts 64 bits the way a content digest is trusted.
///
/// The config, macros and nets are destructured, so a field added later
/// does not compile until it is keyed. Floats are keyed by their bits.
/// Each 64-bit word is mixed in one step: xor, a multiply by an odd
/// constant, and a fold of the high half into the low half. The fold
/// matters: with xor-multiply alone a word's high bits reach only the
/// digest's high bits, so two floats that differ in their exponent only
/// (net weights 8.0 and 16.0, swapped between two nets) could cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StitchKey(u64);

impl StitchKey {
    /// The key of `stitch(device, problem, config)`.
    pub fn of(device: &Device, problem: &StitchProblem, config: &StitchConfig) -> StitchKey {
        let StitchConfig {
            seed,
            max_moves,
            moves_per_temp,
            cooling,
            retry_unplaced_every,
            sample_every,
            range_limited,
        } = *config;
        let StitchProblem {
            modules,
            instances,
            nets,
        } = problem;
        let mut h = Mix::new();
        h.words([
            device.name() as u64,
            seed,
            max_moves,
            u64::from(moves_per_temp),
            cooling.to_bits(),
            retry_unplaced_every,
            sample_every,
            u64::from(range_limited),
            modules.len() as u64,
        ]);
        for MacroBlock {
            name,
            signature,
            width,
            height,
            used_slices,
            irregularity,
        } in modules
        {
            h.bytes(name.bytes());
            h.bytes(signature.0.iter().map(|&kind| kind as u8));
            h.words([
                u64::from(*width),
                u64::from(*height),
                u64::from(*used_slices),
                irregularity.to_bits(),
            ]);
        }
        h.word(instances.len() as u64);
        h.words(instances.iter().map(|&m| m as u64));
        h.word(nets.len() as u64);
        for InterNet { endpoints, weight } in nets {
            h.word(endpoints.len() as u64);
            h.words(endpoints.iter().map(|&e| u64::from(e)));
            h.word(weight.to_bits());
        }
        StitchKey(h.0)
    }
}

/// The word-by-word mixer behind [`StitchKey`].
struct Mix(u64);

impl Mix {
    fn new() -> Mix {
        Mix(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.word(v);
        }
    }

    /// A byte string: its length, then its bytes eight to a word.
    fn bytes(&mut self, bytes: impl ExactSizeIterator<Item = u8>) {
        self.word(bytes.len() as u64);
        let (mut word, mut filled) = (0u64, 0);
        for b in bytes {
            word |= u64::from(b) << (8 * filled);
            filled += 1;
            if filled == 8 {
                self.word(word);
                (word, filled) = (0, 0);
            }
        }
        if filled > 0 {
            self.word(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_device::ColumnKind;

    fn block(w: u32, h: u32) -> MacroBlock {
        MacroBlock {
            name: format!("b{w}x{h}"),
            signature: ColumnSignature(vec![ColumnKind::ClbL; w as usize]),
            width: w,
            height: h,
            used_slices: w * h / 2,
            irregularity: 0.1,
        }
    }

    #[test]
    fn instances_and_nets() {
        let mut p = StitchProblem::new(vec![block(2, 4), block(3, 5)]);
        let a = p.add_instance(0);
        let b = p.add_instance(1);
        let c = p.add_instance(1);
        p.add_net(&[a, b], 8.0);
        p.add_net(&[b, c], 16.0);
        assert_eq!(p.instances.len(), 3);
        assert_eq!(p.block_of(c).width, 3);
        assert_eq!(p.total_area(), 8 + 15 + 15);
    }

    #[test]
    #[should_panic(expected = "unknown module index")]
    fn bad_module_index_panics() {
        let mut p = StitchProblem::new(vec![block(1, 1)]);
        p.add_instance(3);
    }

    #[test]
    fn area_formula() {
        assert_eq!(block(4, 7).area(), 28);
    }

    /// A named one-field change to an input.
    type Edit<T> = (&'static str, fn(&mut T));

    #[test]
    fn stitch_key_changes_with_every_input() {
        let dev = Device::xc7z020();
        let mut base = StitchProblem::new(vec![block(2, 4), block(3, 5)]);
        let a = base.add_instance(0);
        let b = base.add_instance(1);
        let c = base.add_instance(1);
        base.add_net(&[a, b], 8.0);
        base.add_net(&[b, c], 16.0);
        let cfg = StitchConfig::fast(1);
        let key = StitchKey::of(&dev, &base, &cfg);
        assert_eq!(
            key,
            StitchKey::of(&dev, &base.clone(), &cfg),
            "equal inputs"
        );

        let config_edits: [Edit<StitchConfig>; 7] = [
            ("seed", |c| c.seed += 1),
            ("max_moves", |c| c.max_moves += 1),
            ("moves_per_temp", |c| c.moves_per_temp += 1),
            ("cooling", |c| {
                c.cooling = f64::from_bits(c.cooling.to_bits() + 1)
            }),
            ("retry_unplaced_every", |c| c.retry_unplaced_every += 1),
            ("sample_every", |c| c.sample_every += 1),
            ("range_limited", |c| c.range_limited = !c.range_limited),
        ];
        let problem_edits: [Edit<StitchProblem>; 10] = [
            ("macro name", |p| p.modules[1].name.push('x')),
            ("macro signature", |p| {
                p.modules[1].signature.0[2] = ColumnKind::ClbM;
            }),
            ("macro width", |p| p.modules[1].width += 1),
            ("macro height", |p| p.modules[1].height += 1),
            ("macro used slices", |p| p.modules[1].used_slices += 1),
            ("macro irregularity", |p| p.modules[1].irregularity = 0.2),
            ("instance module", |p| p.instances[2] = 0),
            ("net endpoint", |p| p.nets[1].endpoints[1] = 0),
            ("net weight", |p| p.nets[0].weight = 8.5),
            // Weights that differ in their exponent bits only, swapped.
            ("swapped net weights", |p| {
                (p.nets[0].weight, p.nets[1].weight) = (16.0, 8.0);
            }),
        ];
        let mut keys = vec![("base", key)];
        keys.push(("device", StitchKey::of(&Device::xc7z045(), &base, &cfg)));
        for (what, edit) in config_edits {
            let mut edited = cfg;
            edit(&mut edited);
            assert_ne!(edited, cfg, "{what}");
            keys.push((what, StitchKey::of(&dev, &base, &edited)));
        }
        for (what, edit) in problem_edits {
            let mut edited = base.clone();
            edit(&mut edited);
            keys.push((what, StitchKey::of(&dev, &edited, &cfg)));
        }
        for (i, (what, k)) in keys.iter().enumerate() {
            for (other, earlier) in &keys[..i] {
                assert_ne!(k, earlier, "{what} keys like {other}");
            }
        }
    }
}
