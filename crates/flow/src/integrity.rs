//! Integrity glue between the flow and the [`tms_verify`] auditor: content
//! digests for cached implementations, the sealed record the persistent
//! macro library stores, and the audit closures the store scrubber and the
//! serving layer run.
//!
//! Threat model, and which layer catches what:
//!
//! * **Torn tail** (crash mid-append) — caught by the WAL's per-record
//!   CRC32; recovery truncates to the committed prefix. Benign.
//! * **On-disk bit flip** (media rot, firmware bugs) — caught by the same
//!   CRC32; the resynchronizing recovery cuts the damaged record out,
//!   quarantines its bytes and keeps every later record.
//! * **Post-decode corruption** (in-memory flip, decode bug, version skew
//!   that happens to parse) — caught by the [`module_digest`] stored in
//!   the [`SealedModule`]: the digest is recomputed from the decoded
//!   module on every verified read and must match the sealed one.
//! * **Semantically illegal entry** (forged or miscomputed artifact whose
//!   encoding is pristine) — caught by the [`tms_verify::Auditor`], which
//!   re-derives placement legality from first principles.
//!
//! None of these layers repairs anything in place. A failed check
//! quarantines the artifact and the flow recomputes it — self-healing by
//! eviction, never by trusting a damaged record.

use crate::cache::ModuleFingerprint;
use crate::rwflow::ImplementedModule;
use std::collections::HashMap;
use tms_device::{Device, DeviceName};
use tms_verify::{Auditor, Violation};

/// Content digest of an implemented module: FNV-1a over its canonical
/// JSON encoding. The workspace's JSON writer formats floats with the
/// shortest round-trip representation, so the encoding — and therefore
/// the digest — is bit-stable across serialize/deserialize cycles.
pub fn module_digest(module: &ImplementedModule) -> u64 {
    let bytes = serde_json::to_vec(module).expect("modules always encode");
    fnv1a(&bytes)
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An implemented module sealed with its content digest — the record the
/// persistent macro library actually stores. The digest travels with the
/// module through every serialize/deserialize hop, so a verified read can
/// prove the module it decoded is the module that was sealed at insert.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SealedModule {
    /// [`module_digest`] of `module` at seal time.
    pub digest: u64,
    /// The implementation artifact itself.
    pub module: ImplementedModule,
}

impl SealedModule {
    /// Seal a freshly computed module.
    pub fn seal(module: ImplementedModule) -> SealedModule {
        SealedModule {
            digest: module_digest(&module),
            module,
        }
    }

    /// Whether the sealed digest still matches the module's content.
    pub fn is_intact(&self) -> bool {
        module_digest(&self.module) == self.digest
    }
}

/// Audit one implemented module against the device: digest-independent
/// legality only (the [`SealedModule`] digest check is separate). Returns
/// every violated invariant.
pub fn audit_module(auditor: &Auditor<'_>, module: &ImplementedModule) -> Vec<Violation> {
    auditor.audit_macro(&module.name, module.cf, &module.pblock, &module.placement)
}

/// Full verification of a sealed record: digest first (cheap, catches
/// any content drift), then the legality audit (catches forged-but-
/// well-formed entries). `Ok` means the module may be served.
pub fn verify_sealed(auditor: &Auditor<'_>, sealed: &SealedModule) -> Result<(), String> {
    let actual = module_digest(&sealed.module);
    if actual != sealed.digest {
        return Err(format!(
            "digest mismatch on {}: sealed {:#018x}, content {:#018x}",
            sealed.module.name, sealed.digest, actual
        ));
    }
    let violations = audit_module(auditor, &sealed.module);
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "audit failed on {} ({} violations): {first}",
            sealed.module.name,
            violations.len()
        )),
    }
}

/// A device-caching auditor for a whole macro store, as a scrub pass or
/// [`tms_store::verify()`] walks it: the store only hands back
/// `(fingerprint, sealed record)` pairs, so the auditor's device is
/// re-derived from the fingerprint's device name and cached across
/// entries.
#[derive(Default)]
pub struct StoreAuditor {
    devices: HashMap<DeviceName, Device>,
}

impl StoreAuditor {
    /// A fresh auditor with an empty device cache.
    pub fn new() -> StoreAuditor {
        StoreAuditor::default()
    }

    /// Audit one stored record with [`verify_sealed`]: `Ok` = clean, else
    /// why not.
    pub fn audit(&mut self, key: &ModuleFingerprint, sealed: &SealedModule) -> Result<(), String> {
        let device = self
            .devices
            .entry(key.device())
            .or_insert_with(|| Device::from_name(key.device()));
        verify_sealed(&Auditor::new(device), sealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{run_rw_flow_cached, ImplementationCache, MacroStore, VerifiedLookup};
    use crate::rwflow::{CfPolicy, RwFlowConfig};
    use std::sync::Arc;
    use tms_cnn::cnvw1a1;
    use tms_fault::{FaultInjector, FaultPlan, FaultPoint};
    use tms_pblock::CfSearch;
    use tms_place::PlacementModel;
    use tms_stitch::StitchConfig;
    use tms_store::{Store, StoreConfig};

    fn cfg(seed: u64) -> RwFlowConfig<'static> {
        RwFlowConfig {
            policy: CfPolicy::Minimal(CfSearch::wide()),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: tms_pack::MemPackConfig::off(),
            obs: tms_obs::noop(),
            seed,
        }
    }

    fn one_module() -> (Device, ImplementedModule) {
        let design = cnvw1a1(3);
        let device = Device::xc7z045();
        let m = &design.modules[0];
        let module = crate::rwflow::implement_module(&m.name, &m.netlist, &device, &cfg(3))
            .expect("implementable");
        (device, module)
    }

    #[test]
    fn digest_is_stable_across_json_round_trips() {
        let (_, module) = one_module();
        let d0 = module_digest(&module);
        let json = serde_json::to_string(&module).unwrap();
        let back: ImplementedModule = serde_json::from_str(&json).unwrap();
        assert_eq!(module_digest(&back), d0, "digest survives persistence");
        assert_eq!(d0, module_digest(&module), "digest is deterministic");
    }

    #[test]
    fn sealed_module_detects_any_field_drift() {
        let (device, module) = one_module();
        let sealed = SealedModule::seal(module);
        assert!(sealed.is_intact());
        let auditor = Auditor::new(&device);
        assert_eq!(verify_sealed(&auditor, &sealed), Ok(()));

        // Drift a field the legality audit does NOT model (timing): only
        // the digest layer can catch this.
        let mut drifted = sealed.clone();
        drifted.module.timing.fmax_mhz += 1.0;
        assert!(!drifted.is_intact());
        let err = verify_sealed(&auditor, &drifted).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        // Drift a legality field *and* re-seal (a forged-but-consistent
        // record): the digest passes, the audit catches it.
        let mut forged = sealed.clone();
        forged.module.placement.utilization *= 0.5;
        forged.digest = module_digest(&forged.module);
        assert!(forged.is_intact());
        let err = verify_sealed(&auditor, &forged).unwrap_err();
        assert!(err.contains("audit failed"), "{err}");
    }

    /// The zero-false-positive sweep: every genuine implementation across
    /// the whole BNN zoo must pass read verification — a verifier that
    /// cries wolf on clean artifacts would silently forfeit the cache's
    /// entire reuse economics.
    #[test]
    fn clean_zoo_sweep_has_zero_false_positives() {
        let device = Device::xc7z045();
        for (name, design) in tms_cnn::zoo(11) {
            let cfg = cfg(11);
            let mut cache = ImplementationCache::new();
            run_rw_flow_cached(&design, &device, &cfg, &mut cache);
            let warm = run_rw_flow_cached(&design, &device, &cfg, &mut cache);
            assert_eq!(warm.fresh, 0, "{name}: clean warm run recomputed");
            assert_eq!(cache.verify_failures(), 0, "{name}: false positive");
            assert_eq!(cache.quarantined(), 0, "{name}: false quarantine");
            assert_eq!(
                cache.insert_rejected(),
                0,
                "{name}: genuine insert rejected"
            );
        }
    }

    #[test]
    fn store_auditor_caches_devices_and_verifies() {
        let design = cnvw1a1(3);
        let device = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &device, &cfg(3), &mut cache);
        let mut auditor = StoreAuditor::new();
        let mut audited = 0;
        for m in &design.modules {
            let key = ModuleFingerprint::of(&m.netlist, &device);
            let VerifiedLookup::Hit(module) = cache.get_verified(&key, &Auditor::new(&device))
            else {
                panic!("warm cache misses {}", m.name);
            };
            assert_eq!(
                auditor.audit(&key, &SealedModule::seal(module)),
                Ok(()),
                "genuine module must audit clean"
            );
            audited += 1;
        }
        assert!(audited > 0);
        assert_eq!(auditor.devices.len(), 1, "device re-derived once");
    }

    /// The read-verification gates, exact for a seed. Clean reads raise no
    /// false positive. The full digest + audit check runs 0 times on warm
    /// in-memory flows (the per-digest memo serves them), once per module
    /// on the first flow after a store warm start and 0 times more on the
    /// second. Every injected corruption is detected, and healed by exactly
    /// one recompute.
    #[test]
    fn read_verification_counts_are_exact() {
        let design = cnvw1a1(1);
        let device = Device::xc7z045();
        let cfg = cfg(1);
        let modules = design.modules.len() as u64;
        assert_eq!(modules, 74);

        // In memory: every record was sealed by this process's pre-insert
        // audit, so no warm read repeats the full check.
        let mut cache = ImplementationCache::new();
        let cold = run_rw_flow_cached(&design, &device, &cfg, &mut cache);
        assert_eq!(cold.fresh as u64, modules);
        for _ in 0..3 {
            let warm = run_rw_flow_cached(&design, &device, &cfg, &mut cache);
            assert_eq!((warm.reused as u64, warm.fresh), (modules, 0));
        }
        assert_eq!(cache.full_verifications(), 0, "warm reads re-verified");
        assert_eq!(cache.verify_failures(), 0, "false positive");
        assert_eq!(cache.quarantined(), 0, "false quarantine");

        // Store warm start: a record that crossed the persistence boundary
        // is fully checked on its first read, and only then.
        let dir =
            std::env::temp_dir().join(format!("tms_read_verification_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let open = || -> Arc<MacroStore> {
            Arc::new(Store::open(StoreConfig::at(&dir)).expect("open store"))
        };
        {
            let mut first_process = ImplementationCache::with_store(open());
            run_rw_flow_cached(&design, &device, &cfg, &mut first_process);
            first_process.flush().expect("flush");
        }
        let mut restarted = ImplementationCache::with_store(open());
        let first = run_rw_flow_cached(&design, &device, &cfg, &mut restarted);
        assert_eq!((first.reused as u64, first.fresh), (modules, 0));
        assert_eq!(restarted.full_verifications(), modules, "one per module");
        run_rw_flow_cached(&design, &device, &cfg, &mut restarted);
        assert_eq!(restarted.full_verifications(), modules, "none on a re-read");
        assert_eq!(restarted.verify_failures(), 0, "false positive");
        drop(restarted);
        std::fs::remove_dir_all(&dir).ok();

        // Detection: an armed cache bit-flips 16 scheduled reads.
        let plan = Arc::new(FaultPlan::seeded(1));
        let mut armed =
            ImplementationCache::new().with_fault(Arc::clone(&plan) as Arc<dyn FaultInjector>);
        run_rw_flow_cached(&design, &device, &cfg, &mut armed);
        plan.fail_next(FaultPoint::CacheCorruptMacro, 16);
        let healed = run_rw_flow_cached(&design, &device, &cfg, &mut armed);
        let injected = plan.injected(FaultPoint::CacheCorruptMacro);
        assert_eq!(injected, 16, "corruption really fired");
        assert_eq!(armed.quarantined(), injected, "detected == injected");
        assert_eq!(armed.verify_failures(), injected, "false positive");
        assert_eq!(healed.fresh as u64, injected, "recomputed == detected");
        assert_eq!(healed.reused as u64, modules - injected);
        // An armed cache bypasses the memo: each clean read is checked.
        let before = armed.full_verifications();
        let clean = run_rw_flow_cached(&design, &device, &cfg, &mut armed);
        assert_eq!(clean.fresh, 0);
        assert_eq!(armed.full_verifications() - before, modules);
        assert_eq!(armed.verify_failures(), injected, "false positive");
    }
}
