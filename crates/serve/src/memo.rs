//! Request memos: what the server remembers about a request it has
//! answered, so that a repeat skips regenerating its input.
//!
//! * The **design memo** maps a `flow` request's design — design seed ×
//!   device, packing off — to its module keys and block diagram
//!   ([`DesignKeys`]). A repeat whose modules are all cached is answered
//!   from the keys alone: no design generation, no netlist statistics.
//! * The **spec memo** maps a `preimpl` request's module spec × device to
//!   its key, so a hit needs no synthesis.
//!
//! Both are safe because their inputs are deterministic: `cnvw1a1(seed)`
//! and `synth_module(spec)` rebuild the same netlists, hence the same
//! fingerprints, every time. Neither holds a netlist: a whole cnvW1A1
//! design costs ≈ 2 MiB of memory, its [`DesignKeys`] ≈ 10 KiB. Both are a
//! [`tms_flow::Memo`], the type of the cache's own packing and stitch
//! memos.

use rayon::prelude::*;
use tms_cnn::CnvDesign;
use tms_device::Device;
use tms_flow::{BlockDiagram, ModuleFingerprint};

/// Entry bound of each request memo. Reaching it clears the memo
/// wholesale, as the cache's packing and stitch memos do: a long-lived
/// server seeing ever-new designs re-derives keys rather than growing.
pub const MEMO_CAPACITY: usize = 256;

/// A design as the cached flow sees it, without a netlist: the key of
/// every unique module and the block diagram the stitch reads.
pub(crate) struct DesignKeys {
    /// One key per unique module, in design order.
    keys: Vec<ModuleFingerprint>,
    /// The unique-module index of every instance.
    instances: Vec<u32>,
    /// Inter-block nets: instance ids and bus weight.
    nets: Vec<(Vec<u32>, f64)>,
}

impl DesignKeys {
    /// Fingerprint every module of `design` for `device`, in parallel —
    /// which computes and stores each netlist's statistics on the way —
    /// and keep the keys with the diagram.
    pub(crate) fn of(design: &CnvDesign, device: &Device) -> DesignKeys {
        DesignKeys {
            keys: design
                .modules
                .par_iter()
                .map(|m| ModuleFingerprint::of(&m.netlist, device))
                .collect(),
            instances: design.instances.iter().map(|&(m, _)| m as u32).collect(),
            nets: design.nets.clone(),
        }
    }

    /// The module keys, in design order.
    pub(crate) fn keys(&self) -> &[ModuleFingerprint] {
        &self.keys
    }

    /// Bytes this entry holds, counted from its contents (allocator
    /// overhead excluded).
    #[cfg(test)]
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let keys: usize = self
            .keys
            .iter()
            .map(|k| size_of::<ModuleFingerprint>() + k.module_name().len())
            .sum();
        let nets: usize = self
            .nets
            .iter()
            .map(|(ends, _)| size_of::<(Vec<u32>, f64)>() + ends.len() * size_of::<u32>())
            .sum();
        size_of::<DesignKeys>() + keys + self.instances.len() * size_of::<u32>() + nets
    }
}

impl BlockDiagram for DesignKeys {
    fn module_count(&self) -> usize {
        self.keys.len()
    }

    fn module_name(&self, idx: usize) -> &str {
        self.keys[idx].module_name()
    }

    fn instance_modules(&self) -> impl Iterator<Item = usize> + '_ {
        self.instances.iter().map(|&m| m as usize)
    }

    fn nets(&self) -> &[(Vec<u32>, f64)] {
        &self.nets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::cnvw1a1;

    fn keys_of(design: &CnvDesign, device: &Device) -> Vec<ModuleFingerprint> {
        design
            .modules
            .iter()
            .map(|m| ModuleFingerprint::of(&m.netlist, device))
            .collect()
    }

    #[test]
    fn design_keys_hold_the_diagram_in_about_ten_kib() {
        let design = cnvw1a1(3);
        let dev = Device::xc7z020();
        let entry = DesignKeys::of(&design, &dev);
        assert_eq!(entry.module_count(), 74);
        assert_eq!(entry.instance_modules().count(), 175);
        assert_eq!(entry.nets().len(), design.nets.len());
        assert!(entry
            .instance_modules()
            .eq(design.instances.iter().map(|&(m, _)| m)));
        for idx in 0..design.modules.len() {
            assert_eq!(entry.module_name(idx), design.modules[idx].name);
        }
        let bytes = entry.bytes();
        assert!(
            (4 * 1024..=16 * 1024).contains(&bytes),
            "{bytes} bytes per entry"
        );
    }

    #[test]
    fn memoised_keys_equal_a_regenerated_designs_fingerprints() {
        for dev in [Device::xc7z020(), Device::xc7z045()] {
            for seed in [1, 7, 306] {
                let entry = DesignKeys::of(&cnvw1a1(seed), &dev);
                assert_eq!(entry.keys(), keys_of(&cnvw1a1(seed), &dev).as_slice());
            }
        }
    }
}
