//! The pre-implemented module cache: RapidWright's central promise.
//!
//! "With RW, if only a single module needs to be modified, re-implementing
//! the others is not required, thus speeding up the compilation." This
//! module provides that reuse as a first-class API: an
//! [`ImplementationCache`] keyed by a structural fingerprint of each
//! module's netlist, and [`run_rw_flow_cached`] which pre-implements only
//! cache misses and stitches only an input the cache has not stitched
//! before.

use crate::integrity::{audit_module, verify_sealed, SealedModule};
use crate::memo::Memo;
use crate::rwflow::{
    implement_with, stitch_diagram, BlockDiagram, CfPolicy, ImplementedModule, RwFlowConfig,
    RwFlowResult,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use tms_cnn::CnvDesign;
use tms_device::{Device, DeviceName};
use tms_fault::{FaultInjector, FaultPoint, NoopInjector, Retry};
use tms_netlist::{Netlist, NetlistStats};
use tms_obs::{span, Phase, Recorder};
use tms_pack::{observe_pack_reuse, pack_memories, MemPackConfig, PackKey, PackedMemories};
use tms_pblock::PBlockGenerator;
use tms_stitch::{
    observe_stitch_reuse, stitch_observed, StitchConfig, StitchKey, StitchProblem, StitchResult,
};
use tms_store::{Store, StoreSnapshot};
use tms_timing::TimingModel;
use tms_verify::Auditor;

/// The persistent macro library: a crash-safe [`tms_store::Store`] keyed
/// by module fingerprints, holding digest-sealed implementations (see
/// [`SealedModule`]). See [`ImplementationCache::with_store`].
pub type MacroStore = Store<ModuleFingerprint, SealedModule>;

/// A structural fingerprint of a module: device, name, and the statistics
/// the implementation depends on. Two netlists with equal fingerprints get
/// identical PBlocks and placements under a fixed seed and CF policy, so
/// the cached implementation is safe to reuse.
///
/// **One CF policy per cache.** The fingerprint carries no CF policy: an
/// implementation cached under `Minimal` is served to a `Constant(1.5)`
/// flow of the same module, and vice versa. A cache, and the store behind
/// it, must therefore only ever see one policy, or its replies depend on
/// which policy filled it first (see [`run_rw_flow_cached`]). The flow seed
/// is not part of the key either, and needs not be: it changes no
/// module's implementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ModuleFingerprint {
    device: DeviceName,
    name: String,
    stats_digest: u64,
}

impl ModuleFingerprint {
    /// Fingerprint a module netlist for `device`.
    pub fn of(netlist: &Netlist, device: &Device) -> ModuleFingerprint {
        ModuleFingerprint {
            device: device.name(),
            name: netlist.name().to_string(),
            stats_digest: digest(&netlist.stats()),
        }
    }

    /// The device this fingerprint is keyed to. [`Device::from_name`]
    /// reconstructs the full fabric from it, which is how auditors
    /// re-derive legality from a stored record alone.
    pub fn device(&self) -> DeviceName {
        self.device
    }

    /// The module name this fingerprint is keyed to.
    pub fn module_name(&self) -> &str {
        &self.name
    }
}

/// FNV-style digest over the statistics that drive the implementation.
fn digest(stats: &NetlistStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    let c = &stats.counts;
    for v in [
        u64::from(c.luts),
        u64::from(c.ffs),
        u64::from(c.carry_bits),
        u64::from(c.lutram_luts),
        u64::from(c.srls),
        u64::from(c.bram36),
        u64::from(c.dsp48),
        u64::from(stats.control_sets),
        u64::from(stats.max_fanout),
        u64::from(stats.logic_depth),
        u64::from(stats.cell_count),
    ] {
        mix(v);
    }
    for &chain in &stats.carry_chains {
        mix(u64::from(chain));
    }
    for &n in &stats.ff_per_control_set {
        mix(u64::from(n));
    }
    h
}

/// A cached implementation plus its last-recently-used stamp.
struct CacheSlot {
    /// Content digest sealed at insert (see [`SealedModule`]); verified
    /// reads recompute and compare.
    digest: u64,
    module: ImplementedModule,
    /// Logical timestamp of the last lookup (drives LRU eviction).
    last_used: AtomicU64,
}

/// Default entry bound: far above any single design's unique-module count
/// (cnvW1A1 has 74), so eviction only engages on long-lived services
/// accumulating many designs/devices.
pub const DEFAULT_CACHE_CAPACITY: usize = 4_096;

/// Bound on stored weight-packing results. One entry serves every compile
/// of a (design shape, device, packing config) triple, so a few dozen
/// cover any working set; past the bound the memo is dropped wholesale,
/// as every [`Memo`] is.
const PACK_MEMO_CAPACITY: usize = 64;

/// Bound on remembered verified digests: a long-lived service accumulating
/// many libraries drops them wholesale and re-verifies, rather than growing
/// without limit.
const VERIFIED_MEMO_CAPACITY: usize = 65_536;

/// Bound on stored stitch results, the bound of `tms-serve`'s request
/// memos: one entry per (design, device, CF policy, schedule) a service
/// keeps answering. A cnvW1A1 result holds about 2.5 KB.
const STITCH_MEMO_CAPACITY: usize = 256;

/// Stored single-run stitch results by the key of their whole input.
pub(crate) type StitchMemo = Memo<StitchKey, StitchResult>;

/// Cache of pre-implemented modules, across compiles of evolving designs.
///
/// One read path, [`get_verified`](ImplementationCache::get_verified), and
/// one write path, [`try_insert`](ImplementationCache::try_insert). Reads
/// take `&self`: hit/miss counters and recency stamps are atomic, so the
/// cache can sit behind a reader-writer lock and serve concurrent verified
/// reads from server workers (inserts still need `&mut self` / the write
/// side). The entry count is bounded; inserting past capacity evicts the
/// least-recently-used implementation.
///
/// The cache is the one place a read is counted: [`hits`], [`misses`] and
/// [`verify_failures`] (a failed read is quarantined, so it is also the
/// quarantine count). A [`MacroStore`] behind it counts only what it
/// writes, and [`lookup`] books each flow's own reads as fields of its
/// `lookup` span, not as recorder counters.
///
/// [`hits`]: ImplementationCache::hits
/// [`misses`]: ImplementationCache::misses
/// [`verify_failures`]: ImplementationCache::verify_failures
/// [`lookup`]: ImplementationCache::lookup
///
/// A warm [`run_rw_flow_cached`] pays only for the modules that changed
/// and, when its stitch input is new, the stitch. Besides the
/// implementations, the cache therefore keeps two memos, each a [`Memo`]
/// like its set of verified digests: bounded, cleared wholesale when full,
/// living and dying with this cache, and never persisted.
///
/// * The **weight-packing memo** (64 entries) holds the packed weights
///   modules and report for each [`PackKey`] seen. The key is exactly what
///   the packing phase reads, so a hit is the result the solver would
///   return, bit for bit.
/// * The **stitch memo** (256 entries) holds each single-run stitch result
///   by the [`StitchKey`] of its whole input: device, schedule and problem.
///   The anneal is a pure function of that input, so a hit is the result a
///   new anneal would return, up to a collision of the 64-bit key, which
///   the cache trusts as it trusts fingerprint and [`SealedModule`]
///   digests. A flow stitched with the portfolio is not memoised.
///
/// The other input a warm flow used to re-derive, the statistics behind
/// each fingerprint, needs no entry here: every [`Netlist`] keeps its own
/// after the first [`stats`](Netlist::stats) call, and the memo's packed
/// netlists carry theirs.
///
/// Persistence has one path: [`ImplementationCache::with_store`] backs the
/// cache with a [`MacroStore`], where every insert is WAL-appended
/// **incrementally** and survives a crash, and a restarted process
/// warm-starts from the same directory — the durable macro library the
/// RapidWright-style reuse economics assume.
///
/// Read verification is paid once per record, and
/// [`full_verifications`](ImplementationCache::full_verifications) counts
/// it exactly: a module inserted by this process is sealed by its
/// pre-insert audit, so its reads run no full check; a record loaded from
/// a store is fully checked on its first read only.
pub struct ImplementationCache {
    entries: HashMap<ModuleFingerprint, CacheSlot>,
    /// When set, the store is the single backend: `entries` stays empty
    /// and every lookup/insert goes to the crash-safe library instead.
    store: Option<Arc<MacroStore>>,
    capacity: usize,
    /// Logical clock, bumped on every lookup.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Retry policy applied to store-mode writes and to the faults the
    /// cached flow absorbs.
    retry: Retry,
    /// Consecutive store-put failures (after retries); resets on the
    /// first success. Services watch this to decide when the store is
    /// persistently broken and the cache should degrade to memory-only.
    store_fail_streak: AtomicU32,
    /// Fault injector consulted on verified reads (the
    /// `cache.corrupt_macro` silent-corruption point) and by the cached
    /// flow (`flow.place`, `flow.route`).
    fault: Arc<dyn FaultInjector>,
    /// Reads that ran the full digest + legality check.
    full_verifications: AtomicU64,
    /// Verified reads that failed (digest mismatch, audit violation, or
    /// injected corruption that broke the encoding). Each quarantines its
    /// entry: store mode evicts it durably, memory mode treats it as a
    /// miss until the recompute overwrites it.
    verify_failures: AtomicU64,
    /// Inserts rejected by the pre-insert audit.
    insert_rejected: AtomicU64,
    /// Content digests that already passed a full verification in this
    /// process (sealed by the pre-insert audit, or fully checked on the
    /// first verified read after materializing from disk). The record
    /// behind a memoized digest lives in immutable process memory, so
    /// later hits skip the digest recompute and legality audit, which
    /// [`full_verifications`](ImplementationCache::full_verifications)
    /// then does not count. Fault-armed caches bypass the memo entirely.
    /// Bounded by [`VERIFIED_MEMO_CAPACITY`]; a warm read takes its read
    /// lock only.
    verified: Memo<u64, ()>,
    /// Weight-packing results by the exact inputs that produced them,
    /// bounded by [`PACK_MEMO_CAPACITY`]. Read and filled on the `&self`
    /// read side; its lock is never held while packing.
    pack_memo: Memo<PackKey, PackedMemories>,
    /// Single-run stitch results by the key of their whole input, bounded
    /// by [`STITCH_MEMO_CAPACITY`]. Every lookup carries an `Arc` of it to
    /// the stitch, which runs with no cache guard; its lock is never held
    /// while stitching.
    stitch_memo: Arc<StitchMemo>,
}

impl Default for ImplementationCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ImplementationCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache evicting (LRU) beyond `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ImplementationCache {
            entries: HashMap::new(),
            store: None,
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retry: Retry::default(),
            store_fail_streak: AtomicU32::new(0),
            fault: Arc::new(NoopInjector),
            full_verifications: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            insert_rejected: AtomicU64::new(0),
            verified: Memo::new(VERIFIED_MEMO_CAPACITY),
            pack_memo: Memo::new(PACK_MEMO_CAPACITY),
            stitch_memo: Arc::new(Memo::new(STITCH_MEMO_CAPACITY)),
        }
    }

    /// A cache backed by a persistent [`MacroStore`]: lookups and inserts
    /// go straight to the store (crash-safe WAL append per insert, LRU
    /// *byte*-budget eviction instead of the in-memory entry bound), so
    /// implementations accumulated by one process warm-start the next.
    pub fn with_store(store: Arc<MacroStore>) -> Self {
        ImplementationCache {
            store: Some(store),
            ..Self::with_capacity(DEFAULT_CACHE_CAPACITY)
        }
    }

    /// Replace the retry policy applied to store-mode writes and to the
    /// injected faults [`run_rw_flow_cached`] absorbs (default:
    /// [`Retry::default`] — three attempts with millisecond backoff).
    pub fn with_retry(mut self, retry: Retry) -> Self {
        self.retry = retry;
        self
    }

    /// Arm the cache's fault points. Verified reads consult
    /// `cache.corrupt_macro` and, when it fires, the served module is
    /// bit-flipped on its way out — the read-verification layer must catch
    /// it. [`run_rw_flow_cached`] consults `flow.place` per tool-run
    /// attempt and `flow.route` before the stitch, retrying under the
    /// cache's [`Retry`] policy. An unarmed cache (the default) skips every
    /// fault point and retry loop.
    pub fn with_fault(mut self, fault: Arc<dyn FaultInjector>) -> Self {
        self.fault = fault;
        self
    }

    /// The persistent store behind this cache, if it runs in store mode.
    pub fn store(&self) -> Option<&Arc<MacroStore>> {
        self.store.as_ref()
    }

    /// Statistics of the backing store, if any.
    pub fn store_stats(&self) -> Option<StoreSnapshot> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Cached implementations.
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.len(),
            None => self.entries.len(),
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up a module implementation and verify it before serving:
    /// content digest first, then the full legality audit against
    /// `auditor`. A record failing either check is **quarantined** — in
    /// store mode it is durably evicted into the store's `quarantine/`
    /// directory, in memory mode it is served as a miss until the flow's
    /// recompute overwrites it — and reported as
    /// [`VerifiedLookup::Corrupt`] so the caller recomputes transparently.
    ///
    /// The full check runs once per *materialization*: a record loaded
    /// from disk (warm start, store read) or computed fresh is fully
    /// verified the first time it is served, then its digest is memoized
    /// and later hits of the same immutable in-process record pass on a
    /// set lookup. This is the same trust model as block-storage
    /// checksumming — verify what crossed the persistence boundary, not
    /// every page-cache hit. Each full check counts once in
    /// [`full_verifications`](ImplementationCache::full_verifications).
    ///
    /// When a [`FaultInjector`](ImplementationCache::with_fault) is armed,
    /// the `cache.corrupt_macro` point bit-flips the record on its way out
    /// (before verification), which is how the chaos suite proves the
    /// detection rate is 100%.
    pub fn get_verified(&self, key: &ModuleFingerprint, auditor: &Auditor<'_>) -> VerifiedLookup {
        let sealed = match &self.store {
            Some(store) => store.get(key),
            None => {
                let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.entries.get(key).map(|slot| {
                    slot.last_used.store(now, Ordering::Relaxed);
                    SealedModule {
                        digest: slot.digest,
                        module: slot.module.clone(),
                    }
                })
            }
        };
        let Some(mut sealed) = sealed else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup::Miss;
        };
        // Injected silent corruption: flip one bit of the serialized record
        // and re-decode, exactly what a bad DIMM or decoder bug produces. A
        // flip that breaks the encoding outright counts as detected too.
        if self.fault.armed() {
            match serde_json::to_vec(&sealed) {
                Ok(mut bytes) => {
                    if self
                        .fault
                        .corrupt(FaultPoint::CacheCorruptMacro, &mut bytes)
                    {
                        match serde_json::from_slice::<SealedModule>(&bytes) {
                            Ok(reparsed) => sealed = reparsed,
                            Err(e) => {
                                return self.quarantine_read(key, format!("undecodable: {e}"))
                            }
                        }
                    }
                }
                Err(e) => return self.quarantine_read(key, format!("unencodable: {e}")),
            }
        }
        // A memoized digest refers to a record already fully verified in
        // this process; the copy we just fetched comes from immutable
        // process memory, so re-auditing it would only burn the hot path.
        // Armed caches never take this shortcut: the chaos suite must see
        // every read fully checked.
        if !self.fault.armed() && self.is_verified(sealed.digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup::Hit(sealed.module);
        }
        self.full_verifications.fetch_add(1, Ordering::Relaxed);
        match verify_sealed(auditor, &sealed) {
            Ok(()) => {
                self.mark_verified(sealed.digest);
                self.hits.fetch_add(1, Ordering::Relaxed);
                VerifiedLookup::Hit(sealed.module)
            }
            Err(reason) => self.quarantine_read(key, reason),
        }
    }

    /// Step 1 of a cached flow: look up its modules — `keys` in design
    /// order — with verified reads, under one `cache` span named `lookup`.
    /// Misses and quarantined records join the modules still to implement.
    /// The cache's own counters count every read; the span's `hits`,
    /// `misses` and `quarantined` fields are this lookup's share, so a
    /// request's trace shows its reads without a recorder call per module.
    /// Takes `&self`, so it runs under a reader lock. The lookup keeps the
    /// cache's fault plan, retry policy and stitch memo for the steps that
    /// follow.
    pub fn lookup(
        &self,
        keys: Vec<ModuleFingerprint>,
        device: &Device,
        obs: &dyn Recorder,
    ) -> CacheLookup {
        let auditor = Auditor::new(device);
        let mut hits: Vec<(usize, ImplementedModule)> = Vec::with_capacity(keys.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut quarantined = 0u64;
        let mut sp = span(obs, Phase::Cache, "lookup");
        for (idx, key) in keys.iter().enumerate() {
            match self.get_verified(key, &auditor) {
                VerifiedLookup::Hit(hit) => hits.push((idx, hit)),
                VerifiedLookup::Corrupt(_) => {
                    // Detected corruption heals by recompute: the module
                    // joins the miss set and its fresh result overwrites
                    // the quarantined record.
                    quarantined += 1;
                    missing.push(idx);
                }
                VerifiedLookup::Miss => missing.push(idx),
            }
        }
        sp.field("hits", hits.len() as f64);
        sp.field("misses", missing.len() as f64);
        sp.field("quarantined", quarantined as f64);
        CacheLookup {
            keys,
            hits,
            missing,
            fresh: Vec::new(),
            packed: None,
            fault: Arc::clone(&self.fault),
            retry: self.retry,
            stitch_memo: Some(Arc::clone(&self.stitch_memo)),
        }
    }

    /// [`lookup`](ImplementationCache::lookup) for a whole design: run the
    /// packing phase through the packing memo first, then fingerprint each
    /// module's netlist — the packed one where packing regenerated it — so
    /// a different packing policy is a miss, never an unpacked macro served
    /// to a packed request.
    pub fn lookup_design(
        &self,
        design: &CnvDesign,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
    ) -> CacheLookup {
        let packed = self.pack(design, device, &cfg.mem_pack, cfg.obs);
        let mut netlists: Vec<&Netlist> = design.modules.iter().map(|m| &m.netlist).collect();
        for (idx, m) in packed.iter().flat_map(|p| &p.modules) {
            netlists[*idx] = &m.netlist;
        }
        let keys = netlists
            .iter()
            .map(|netlist| ModuleFingerprint::of(netlist, device))
            .collect();
        let lookup = self.lookup(keys, device, cfg.obs);
        CacheLookup { packed, ..lookup }
    }

    /// Step 3 of a cached flow: insert what
    /// [`CacheLookup::implement`] produced under the keys the lookup
    /// computed. The implementations still flow into the stitch when a put
    /// fails; the return value is how many of this call's store puts failed
    /// after retrying, for the caller to book (an insert the audit rejects
    /// counts in [`insert_rejected`](ImplementationCache::insert_rejected)
    /// instead).
    pub fn fill(&mut self, lookup: &CacheLookup) -> u64 {
        // One device and one auditor per device name, not per insert.
        let mut devices: Vec<Device> = Vec::new();
        for (idx, _) in lookup.fresh.iter().filter(|(_, outcome)| outcome.is_ok()) {
            let name = lookup.keys[*idx].device();
            if devices.iter().all(|d| d.name() != name) {
                devices.push(Device::from_name(name));
            }
        }
        let auditors: Vec<Auditor<'_>> = devices.iter().map(Auditor::new).collect();
        let mut failed = 0;
        for (idx, outcome) in &lookup.fresh {
            let Ok(m) = outcome else { continue };
            let key = lookup.keys[*idx].clone();
            let auditor = auditors
                .iter()
                .find(|a| a.device().name() == key.device())
                .expect("an auditor per device name");
            let Ok(sealed) = self.seal_audited(m.clone(), auditor) else {
                continue;
            };
            if self.put_sealed(key, sealed).is_err() {
                failed += 1;
            }
        }
        failed
    }

    /// Whether `digest` already passed a full verification this process.
    fn is_verified(&self, digest: u64) -> bool {
        self.verified.get(&digest).is_some()
    }

    /// Memoize a digest whose record just passed the full check (or was
    /// sealed by the pre-insert audit).
    fn mark_verified(&self, digest: u64) {
        self.verified.insert(digest, ());
    }

    /// Bookkeeping for a verified read that failed: count it, evict the
    /// offender where `&self` allows, and report the reason.
    fn quarantine_read(&self, key: &ModuleFingerprint, reason: String) -> VerifiedLookup {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            // Durable eviction; a quarantine I/O error must not break the
            // read path (the caller recomputes either way).
            let _ = store.quarantine(key);
        }
        VerifiedLookup::Corrupt(reason)
    }

    /// Store a module implementation, evicting the least-recently-used
    /// entry if the cache is at capacity; in store mode the insert is
    /// WAL-appended instead.
    ///
    /// Every insert is audited before it is accepted: the module's
    /// placement is re-checked from first principles against a device
    /// rebuilt from the fingerprint, so an illegal artifact is rejected
    /// (`InvalidData`, counted in
    /// [`insert_rejected`](ImplementationCache::insert_rejected)) instead
    /// of poisoning the library. Accepted modules are sealed with their
    /// content digest before storage.
    ///
    /// Store puts are retried under the cache's [`Retry`] policy; a put
    /// that fails every attempt increments the consecutive-failure streak
    /// and returns the final error.
    pub fn try_insert(
        &mut self,
        key: ModuleFingerprint,
        module: ImplementedModule,
    ) -> io::Result<()> {
        let device = Device::from_name(key.device());
        let sealed = self.seal_audited(module, &Auditor::new(&device))?;
        self.put_sealed(key, sealed)
    }

    /// The first half of an insert: audit `module` against the device of
    /// `auditor` and seal it, or reject it.
    fn seal_audited(
        &self,
        module: ImplementedModule,
        auditor: &Auditor<'_>,
    ) -> io::Result<SealedModule> {
        let violations = audit_module(auditor, &module);
        if let Some(first) = violations.first() {
            self.insert_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "insert rejected: {} fails audit ({} violations): {first}",
                    module.name,
                    violations.len()
                ),
            ));
        }
        let sealed = SealedModule::seal(module);
        // The audit above just proved this exact content legal; sealing
        // memoizes it so the first verified read is already on the fast
        // path.
        self.mark_verified(sealed.digest);
        Ok(sealed)
    }

    /// The second half of an insert: put an audited, sealed module into
    /// the store under the retry policy, or into the in-memory map.
    fn put_sealed(&mut self, key: ModuleFingerprint, sealed: SealedModule) -> io::Result<()> {
        if let Some(store) = &self.store {
            let out = self.retry.run(
                |_e: &io::Error| true,
                |_| store.put(key.clone(), sealed.clone()),
            );
            return match out {
                Ok(()) => {
                    self.store_fail_streak.store(0, Ordering::Relaxed);
                    Ok(())
                }
                Err(failed) => {
                    self.store_fail_streak.fetch_add(1, Ordering::Relaxed);
                    Err(failed.last)
                }
            };
        }
        self.insert_memory(key, sealed);
        Ok(())
    }

    /// The plain in-memory insert with LRU eviction at capacity.
    fn insert_memory(&mut self, key: ModuleFingerprint, sealed: SealedModule) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(
            key,
            CacheSlot {
                digest: sealed.digest,
                module: sealed.module,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// The packing phase of a cached flow: the stored result for the
    /// inputs [`PackKey`] names, or a fresh [`pack_memories`] run that is
    /// stored for next time. `None` when the configuration packs nothing.
    fn pack(
        &self,
        design: &CnvDesign,
        device: &Device,
        cfg: &MemPackConfig,
        obs: &dyn Recorder,
    ) -> Option<Arc<PackedMemories>> {
        let key = PackKey::of(design, device, cfg)?;
        if let Some(hit) = self.pack_memo.get(&key) {
            let _sp = span(obs, Phase::MemPack, "memo");
            observe_pack_reuse(&hit.report, obs);
            return Some(hit);
        }
        let packed = pack_memories(design, device, cfg, obs)?;
        Some(self.pack_memo.insert(key, packed))
    }

    /// Reads that ran the full digest + legality check, whatever its
    /// verdict. Reads served from the per-digest memo do not count: a warm
    /// in-memory flow adds 0, and after a store warm start each record
    /// adds 1 on its first read only. Fault-armed caches count every read
    /// whose record still decodes.
    pub fn full_verifications(&self) -> u64 {
        self.full_verifications.load(Ordering::Relaxed)
    }

    /// Verified reads that failed (digest mismatch, audit violation, or
    /// injected corruption that broke the encoding).
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }

    /// Entries quarantined by verified reads: every failed verified read
    /// quarantines its entry, so this reads the one count
    /// [`verify_failures`](ImplementationCache::verify_failures) keeps.
    pub fn quarantined(&self) -> u64 {
        self.verify_failures()
    }

    /// Inserts rejected by the pre-insert audit.
    pub fn insert_rejected(&self) -> u64 {
        self.insert_rejected.load(Ordering::Relaxed)
    }

    /// Consecutive store-put failures since the last success (0 when the
    /// store is healthy or absent).
    pub fn store_fail_streak(&self) -> u32 {
        self.store_fail_streak.load(Ordering::Relaxed)
    }

    /// Demote a store-backed cache to memory-only: the store's live
    /// entries move into the in-memory map (so warm state is not lost)
    /// and the store handle is dropped — its final flush runs on drop if
    /// the disk cooperates, and no further request depends on the broken
    /// backend. Returns the number of entries carried over; a no-op
    /// (returning 0) for caches already in memory mode.
    ///
    /// This is the graceful-degradation half of the store failure story:
    /// `tms-serve` calls it once the failure streak crosses its
    /// threshold, then reports degraded mode via `stats`/`/metrics`.
    pub fn degrade_to_memory(&mut self) -> usize {
        let Some(store) = self.store.take() else {
            return 0;
        };
        let entries = store.export();
        let carried = entries.len();
        self.capacity = self.capacity.max(carried.max(1));
        for (key, sealed) in entries {
            self.insert_memory(key, sealed);
        }
        self.store_fail_streak.store(0, Ordering::Relaxed);
        carried
    }

    /// Durability barrier: in store mode, block until every insert so far
    /// is fsynced into the WAL. A no-op for purely in-memory caches.
    pub fn flush(&self) -> io::Result<()> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }
}

/// Outcome of a verified cache lookup
/// ([`ImplementationCache::get_verified`]).
#[derive(Debug)]
pub enum VerifiedLookup {
    /// The record passed the digest check and the legality audit.
    Hit(ImplementedModule),
    /// The record failed verification and was quarantined; the reason
    /// names the first failed check. Callers recompute, exactly as for a
    /// miss.
    Corrupt(String),
    /// No record under that fingerprint.
    Miss,
}

/// One cached flow between its steps: every module's key, the verified
/// hits, the modules still to implement and, once
/// [`implement`](CacheLookup::implement) ran, their fresh outcomes. Made by
/// [`ImplementationCache::lookup`] or
/// [`lookup_design`](ImplementationCache::lookup_design); filled into the
/// cache by [`ImplementationCache::fill`]. Implementing and stitching take
/// no cache guard — the stitch reads and fills the stitch memo under the
/// memo's own lock, held only for that — so a service runs them with no
/// cache lock held.
pub struct CacheLookup {
    keys: Vec<ModuleFingerprint>,
    /// Verified hits, in design order.
    hits: Vec<(usize, ImplementedModule)>,
    /// Design indices of misses and quarantined records, in order.
    missing: Vec<usize>,
    /// What `implement` produced for `missing`, in the same order.
    fresh: Vec<(usize, Result<ImplementedModule, String>)>,
    /// The packing phase's result, for a lookup made by `lookup_design`.
    packed: Option<Arc<PackedMemories>>,
    /// The cache's fault plan and retry policy.
    fault: Arc<dyn FaultInjector>,
    retry: Retry,
    /// The cache's stitch memo; `None` for the uncached flow.
    stitch_memo: Option<Arc<StitchMemo>>,
}

/// Marker prefix of errors produced by injected faults: the transient
/// class the `flow.place` retry loop absorbs.
const INJECTED: &str = "injected fault";

/// Whether an implementation error is a transient injected fault
/// (retryable) rather than a genuine flow error (permanent).
fn is_transient(e: &str) -> bool {
    e.starts_with(INJECTED)
}

impl CacheLookup {
    /// The cached flow with nothing cached, which is what
    /// [`run_rw_flow`](crate::run_rw_flow) runs: the weights packed
    /// through [`pack_memories`] and the stitch annealed, neither through a
    /// memo, every module missing, and no fault plan. It has no keys, so it
    /// is never [`fill`](ImplementationCache::fill)ed.
    pub(crate) fn uncached(
        design: &CnvDesign,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
    ) -> CacheLookup {
        CacheLookup {
            keys: Vec::new(),
            hits: Vec::new(),
            missing: (0..design.modules.len()).collect(),
            fresh: Vec::new(),
            packed: pack_memories(design, device, &cfg.mem_pack, cfg.obs).map(Arc::new),
            fault: Arc::new(NoopInjector),
            retry: Retry::none(),
            stitch_memo: None,
        }
    }

    /// Whether every module was a verified hit: nothing to implement, and
    /// nothing to fill.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// Step 2 of a cached flow: implement the misses in parallel, each
    /// under the cache's fault plan and retry policy. `module(idx)` names
    /// design module `idx` and gives its netlist; the name must be the
    /// design's, which seeds the placer. A module the packing phase
    /// regenerated is implemented from its packed netlist instead.
    pub fn implement<'m>(
        &mut self,
        module: impl Fn(usize) -> (&'m str, &'m Netlist) + Sync,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
    ) {
        let gen = PBlockGenerator::new(device, cfg.use_shape_report);
        let timing_model = TimingModel::default();
        let packed = self.packed.as_deref();
        self.fresh = self
            .missing
            .par_iter()
            .map(|&idx| {
                let (name, netlist) = module(idx);
                let netlist = packed
                    .and_then(|p| p.modules.iter().find(|(i, _)| *i == idx))
                    .map_or(netlist, |(_, m)| &m.netlist);
                let outcome = self.retry_place_faults(name, cfg, || {
                    implement_with(&gen, &timing_model, name, netlist, device, cfg)
                });
                (idx, outcome)
            })
            .collect();
    }

    /// One module's implementation under the lookup's fault plan: each
    /// tool-run attempt first consults `flow.place`; an injected fault
    /// counts as a failed (transient) attempt and is retried with backoff,
    /// while a genuine implementation error aborts at once. Exhausting the
    /// budget returns the last injected fault. Unarmed, it is the plain
    /// call.
    fn retry_place_faults(
        &self,
        name: &str,
        cfg: &RwFlowConfig<'_>,
        implement: impl Fn() -> Result<ImplementedModule, String>,
    ) -> Result<ImplementedModule, String> {
        if !self.fault.armed() {
            return implement();
        }
        let out = self.retry.run(
            |e: &String| is_transient(e),
            |attempt| {
                if attempt > 1 {
                    cfg.obs.count("flow.place.retry", 1);
                }
                if self.fault.should_fail(FaultPoint::FlowPlace) {
                    cfg.obs.count("fault.flow.place", 1);
                    return Err(format!(
                        "{INJECTED}: flow.place ({name}, attempt {attempt})"
                    ));
                }
                implement()
            },
        );
        out.map_err(|failed| failed.last)
    }

    /// Consult `flow.route` before the stitch, absorbing transient faults
    /// under the retry budget. The stitch itself is deterministic
    /// in-process work; the injection models the external routing tool
    /// failing and being re-invoked.
    fn absorb_route_faults(&self, cfg: &RwFlowConfig<'_>) {
        if !self.fault.armed() {
            return;
        }
        let mut attempt = 0u32;
        while self.fault.should_fail(FaultPoint::FlowRoute) {
            cfg.obs.count("fault.flow.route", 1);
            attempt += 1;
            if attempt >= self.retry.max_attempts.max(1) {
                cfg.obs.count("fault.flow.route.exhausted", 1);
                break;
            }
            std::thread::sleep(self.retry.backoff_for(attempt));
        }
    }

    /// Every module's outcome, in design order: the hits merged with what
    /// [`implement`](CacheLookup::implement) produced.
    pub fn into_outcomes(self) -> Vec<(usize, Result<ImplementedModule, String>)> {
        let mut outcomes: Vec<(usize, Result<ImplementedModule, String>)> = self
            .hits
            .into_iter()
            .map(|(idx, m)| (idx, Ok(m)))
            .chain(self.fresh)
            .collect();
        outcomes.sort_by_key(|&(idx, _)| idx);
        outcomes
    }

    /// Step 4 of a cached flow: absorb `flow.route` faults and stitch over
    /// `diagram`, the design or any other [`BlockDiagram`] of it. Packing
    /// leaves names, instances and nets alone, so the input design serves
    /// a packed flow too. Once the problem is built, the cache's stitch
    /// memo answers an input it has stitched before; a new one is annealed
    /// and stored.
    pub fn stitch(
        mut self,
        diagram: &impl BlockDiagram,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
    ) -> CachedFlowResult {
        let reused = self.hits.len();
        let fresh = self.fresh.iter().filter(|(_, m)| m.is_ok()).count();
        // A failed module cost one tool run.
        let tool_runs_spent = self
            .fresh
            .iter()
            .map(|(_, m)| m.as_ref().map_or(1, |m| m.attempts))
            .sum();
        self.absorb_route_faults(cfg);
        let pack = self.packed.as_ref().map(|p| p.report.clone());
        let memo = self.stitch_memo.take();
        let mut result =
            stitch_diagram(diagram, device, cfg, self.into_outcomes(), memo.as_deref());
        result.pack = pack;
        CachedFlowResult {
            result,
            reused,
            fresh,
            tool_runs_spent,
        }
    }
}

/// The single-run stitch of `problem` through `memo`: the stored result
/// for an input stitched before, under a `stitch` span named `memo` with
/// [`observe_stitch_reuse`]'s telemetry, or a new [`stitch_observed`]
/// anneal, stored for next time. The memo's lock is held only to read and
/// to insert; two concurrent misses on one input both anneal and store
/// the same result.
pub(crate) fn stitch_memoised(
    memo: &StitchMemo,
    device: &Device,
    problem: &StitchProblem,
    config: &StitchConfig,
    obs: &dyn Recorder,
) -> StitchResult {
    let key = StitchKey::of(device, problem, config);
    if let Some(hit) = memo.get(&key) {
        let _sp = span(obs, Phase::Stitch, "memo");
        observe_stitch_reuse(&hit, obs);
        return StitchResult::clone(&hit);
    }
    let result = stitch_observed(device, problem, config, obs);
    memo.insert(key, result.clone());
    result
}

/// Result of a cached flow run.
pub struct CachedFlowResult {
    /// The flow outcome (implemented modules include the cached ones).
    pub result: RwFlowResult,
    /// Unique modules served from the cache.
    pub reused: usize,
    /// Unique modules implemented fresh this run.
    pub fresh: usize,
    /// Tool runs actually spent (fresh modules only).
    pub tool_runs_spent: u32,
}

/// Run the RW-style flow, reusing cached implementations where the module
/// fingerprint matches; newly implemented modules are added to the cache.
///
/// Every cached flow is the same four steps:
/// [`lookup_design`](ImplementationCache::lookup_design),
/// [`implement`](CacheLookup::implement) the misses,
/// [`fill`](ImplementationCache::fill) the cache, and
/// [`stitch`](CacheLookup::stitch). Only the lookup reads the cached
/// implementations and only the fill writes them; the stitch reads and
/// fills only the stitch memo.
///
/// Cache hits skip pre-implementation entirely — their recorded macros are
/// spliced straight into the stitch input, so a warm cache saves the
/// place-and-route wall-clock, not just the accounting. Only the
/// `Constant` and `Minimal` CF policies are cache-coherent across runs
/// (the guided policy's predictions may change as the estimator is
/// retrained). Block positions depend on the whole design, so the stitch
/// is skipped only when the cache's stitch memo holds a result for the
/// whole stitch input — device, schedule and problem — which a repeat of
/// an unchanged design on a warm cache does; an edit that changes any
/// macro re-anneals. A flow that stitches with the portfolio always
/// re-runs it.
///
/// Use one CF policy per cache: [`ModuleFingerprint`] does not key the
/// policy. For cnvW1A1 seed 7 on the xc7z020 with the fast stitch, a
/// `Constant(1.5)` flow on a fresh cache places 82 blocks at CF 1.5; run
/// after a `Minimal` flow of the same design, it reuses all 74 minimal-CF
/// modules and places 120.
///
/// Every cache hit is read-verified (digest + legality audit; see
/// [`ImplementationCache::get_verified`]); a record failing verification
/// is quarantined and transparently recomputed — the flow result is
/// correct either way, corruption only costs the reuse.
///
/// Faults come from the cache: a cache armed with
/// [`with_fault`](ImplementationCache::with_fault) injects at `flow.place`
/// and `flow.route` and absorbs them under its
/// [`with_retry`](ImplementationCache::with_retry) policy; an unarmed one
/// runs the plain flow.
pub fn run_rw_flow_cached(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
) -> CachedFlowResult {
    debug_assert!(
        !matches!(cfg.policy, CfPolicy::Guided { .. }),
        "guided CF predictions are not stable across estimator retraining"
    );
    let mut lookup = cache.lookup_design(design, device, cfg);
    lookup.implement(modules_of(design), device, cfg);
    cache.fill(&lookup);
    lookup.stitch(design, device, cfg)
}

/// `design`'s modules as [`CacheLookup::implement`] takes them.
pub(crate) fn modules_of<'d>(
    design: &'d CnvDesign,
) -> impl Fn(usize) -> (&'d str, &'d Netlist) + Sync {
    |idx| (&design.modules[idx].name, &design.modules[idx].netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::cnvw1a1;
    use tms_pblock::CfSearch;
    use tms_place::PlacementModel;
    use tms_stitch::StitchConfig;

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

    #[test]
    fn second_compile_is_fully_cached() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let first = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(first.reused, 0);
        assert_eq!(first.fresh, 74);
        assert!(first.tool_runs_spent > 74);

        let second = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(second.reused, 74);
        assert_eq!(second.fresh, 0);
        assert_eq!(second.tool_runs_spent, 0);
        assert_eq!(cache.len(), 74);
        assert!(cache.hits() >= 74);
    }

    #[test]
    fn changed_module_invalidates_only_itself() {
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let v1 = cnvw1a1(5);
        run_rw_flow_cached(&v1, &dev, &cfg(5), &mut cache);

        // A different seed regenerates every module with different sizes —
        // simulate a single-module edit instead by rebuilding v1 and
        // patching one netlist.
        let mut v2 = cnvw1a1(5);
        let idx = v2.modules.iter().position(|m| m.name == "act_l5").unwrap();
        v2.modules[idx].netlist =
            tms_cnn::synth_module(tms_cnn::ModuleRole::Activation, 33, "act_l5", 999);

        let r = run_rw_flow_cached(&v2, &dev, &cfg(5), &mut cache);
        assert_eq!(r.fresh, 1, "only the edited module re-implements");
        assert_eq!(r.reused, 73);
        assert!(r.tool_runs_spent < r.result.total_tool_runs);
    }

    /// Module 0 of cnvW1A1 (seed 2) on the xc7z020, through the implement
    /// step of a one-module cached flow on `cache`.
    fn implement_one(cache: &ImplementationCache) -> Result<ImplementedModule, String> {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        let key = ModuleFingerprint::of(&m.netlist, &dev);
        let mut lookup = cache.lookup(vec![key], &dev, tms_obs::noop());
        lookup.implement(|_| (&m.name, &m.netlist), &dev, &cfg(3));
        let (_, outcome) = lookup.into_outcomes().pop().expect("one module");
        outcome
    }

    /// Module 0 of cnvW1A1 (seed 2) on the xc7z020, implemented directly.
    fn implement_plain() -> ImplementedModule {
        let design = cnvw1a1(2);
        let m = &design.modules[0];
        crate::rwflow::implement_module(&m.name, &m.netlist, &Device::xc7z020(), &cfg(3))
            .expect("module 0 implements")
    }

    /// A cache armed with `plan`, retrying up to `attempts` times.
    fn armed(plan: &Arc<tms_fault::FaultPlan>, attempts: u32) -> ImplementationCache {
        let retry = Retry {
            base_backoff: std::time::Duration::from_micros(50),
            ..Retry::attempts(attempts)
        };
        ImplementationCache::new()
            .with_fault(Arc::clone(plan) as Arc<dyn FaultInjector>)
            .with_retry(retry)
    }

    #[test]
    fn unarmed_cache_implements_like_the_plain_flow() {
        let plain = implement_plain();
        let cached = implement_one(&ImplementationCache::new()).unwrap();
        assert_eq!(plain.pblock.rect, cached.pblock.rect);
        assert_eq!(plain.cf, cached.cf);
        assert_eq!(plain.attempts, cached.attempts);
    }

    #[test]
    fn transient_place_faults_are_retried_to_success() {
        // Two scheduled faults, three attempts: the third succeeds.
        let plan =
            Arc::new(tms_fault::FaultPlan::seeded(5).with_fail_next(FaultPoint::FlowPlace, 2));
        let out = implement_one(&armed(&plan, 3)).expect("third attempt succeeds");
        assert_eq!(
            out.pblock.rect,
            implement_plain().pblock.rect,
            "result unaffected by retries"
        );
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2);
    }

    #[test]
    fn exhausted_budget_surfaces_the_injected_fault() {
        let plan = Arc::new(tms_fault::FaultPlan::seeded(5).with_rate(FaultPoint::FlowPlace, 1.0));
        let err = implement_one(&armed(&plan, 2)).expect_err("every attempt is injected");
        assert!(is_transient(&err), "{err}");
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2, "one per attempt");
    }

    #[test]
    fn resilient_cached_flow_recovers_from_scattered_faults() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        // 20% of place attempts fail. Which hits land on which module
        // depends on rayon's interleaving, so the test budgets enough
        // attempts (10) that a module-level failure is ~0.2^10 — never.
        let plan = Arc::new(
            tms_fault::FaultPlan::seeded(11)
                .with_rate(FaultPoint::FlowPlace, 0.2)
                .with_fail_next(FaultPoint::FlowRoute, 1),
        );
        let mut cache = armed(&plan, 10);
        let faulty = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(
            faulty.result.failed.len(),
            0,
            "retries absorbed every fault"
        );
        assert_eq!(faulty.fresh, 74);
        assert!(
            plan.injected(FaultPoint::FlowPlace) > 0,
            "faults really fired"
        );
        assert_eq!(plan.injected(FaultPoint::FlowRoute), 1);

        // Same design through a clean flow: identical stitched outcome.
        let mut clean_cache = ImplementationCache::new();
        let clean = run_rw_flow_cached(&design, &dev, &cfg(5), &mut clean_cache);
        assert_eq!(
            faulty.result.stitch.placed_count,
            clean.result.stitch.placed_count
        );
    }

    #[test]
    fn fingerprints_differ_across_devices_and_contents() {
        let design = cnvw1a1(1);
        let nl = &design.modules[0].netlist;
        let a = ModuleFingerprint::of(nl, &Device::xc7z020());
        let b = ModuleFingerprint::of(nl, &Device::xc7z045());
        assert_ne!(a, b, "device is part of the key");
        let other = &design.modules[1].netlist;
        assert_ne!(
            ModuleFingerprint::of(nl, &Device::xc7z020()),
            ModuleFingerprint::of(other, &Device::xc7z020())
        );
    }

    #[test]
    fn cache_counters_track_lookups() {
        let cache = ImplementationCache::new();
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let key = ModuleFingerprint::of(&design.modules[0].netlist, &dev);
        assert!(hit(&cache, &key, &dev).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn warm_run_skips_reimplementation_work() {
        // The point of the cache: a fully warm second run must do strictly
        // less implementation work. Per-phase span counts show exactly
        // which work ran, where a wall-clock pair would depend on the host.
        use tms_obs::{AggregatingSink, Phase};
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let cold_sink = AggregatingSink::new();
        let cold = run_rw_flow_cached(&design, &dev, &cfg(5).with_recorder(&cold_sink), &mut cache);
        let cold_reads = (cache.hits(), cache.misses());
        let warm_sink = AggregatingSink::new();
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5).with_recorder(&warm_sink), &mut cache);
        assert_eq!(warm.fresh, 0);
        assert_eq!(warm.tool_runs_spent, 0);
        // Identical final stitch either way.
        assert_eq!(
            warm.result.stitch.placed_count,
            cold.result.stitch.placed_count
        );
        assert_eq!(warm.result.implemented.len(), cold.result.implemented.len());
        // The cold run spends its time in 74 minimal-CF searches; the warm
        // run records no place/synth/pack spans at all — every module came
        // out of the cache — and its one stitch span is the stitch memo's:
        // it counts a memo hit and not one annealing move, and books the
        // cold run's cost.
        assert_eq!(cold_sink.phase_spans(Phase::Place), 74);
        assert_eq!(warm_sink.phase_spans(Phase::Place), 0);
        assert_eq!(warm_sink.phase_spans(Phase::Synth), 0);
        assert_eq!(warm_sink.phase_spans(Phase::Stitch), 1);
        assert_eq!(warm_sink.counter("stitch.memo.hit"), 1);
        assert_eq!(warm_sink.counter("stitch.moves"), 0);
        assert_eq!(cold_sink.counter("stitch.memo.hit"), 0);
        assert!(cold_sink.counter("stitch.moves") > 0);
        let cost = |sink: &AggregatingSink| {
            sink.observation("stitch.cost")
                .map(|(n, sum)| (n, sum.to_bits()))
        };
        assert_eq!(cost(&warm_sink), cost(&cold_sink));
        assert_eq!(
            cost(&warm_sink),
            Some((1, cold.result.stitch.final_cost.to_bits()))
        );
        assert_eq!(cold_reads, (0, 74));
        assert_eq!((cache.hits(), cache.misses()), (74, 74));
        let spans = |sink: &AggregatingSink| -> u64 {
            Phase::ALL.iter().map(|&p| sink.phase_spans(p)).sum()
        };
        assert!(
            spans(&warm_sink) < spans(&cold_sink),
            "warm {} spans !< cold {} spans",
            spans(&warm_sink),
            spans(&cold_sink)
        );
    }

    /// A verified read as an `Option`: the hit, or `None` for a miss or a
    /// quarantined record.
    fn hit(
        cache: &ImplementationCache,
        key: &ModuleFingerprint,
        dev: &Device,
    ) -> Option<ImplementedModule> {
        match cache.get_verified(key, &Auditor::new(dev)) {
            VerifiedLookup::Hit(m) => Some(m),
            VerifiedLookup::Corrupt(_) | VerifiedLookup::Miss => None,
        }
    }

    /// [`run_rw_flow_cached`] plus a coherence audit: every cache hit is
    /// also re-implemented from scratch and the two PBlocks and CFs must
    /// agree. It forfeits the warm-cache speedup, and runs only unpacked
    /// flows (it resumes from a lookup over the design's own netlists).
    fn run_rw_flow_cached_verified(
        design: &CnvDesign,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
        cache: &mut ImplementationCache,
    ) -> CachedFlowResult {
        let lookup = cache.lookup(keys_of(design, device), device, cfg.obs);
        for (idx, hit) in &lookup.hits {
            let m = &design.modules[*idx];
            let recomputed = crate::rwflow::implement_module(&m.name, &m.netlist, device, cfg)
                .expect("cached module must still implement");
            assert_eq!(
                hit.pblock.rect, recomputed.pblock.rect,
                "cache incoherence on {}",
                m.name
            );
            assert_eq!(hit.cf, recomputed.cf, "cache incoherence on {}", m.name);
        }
        finish(lookup, design, device, cfg, cache)
    }

    /// Steps 2–4 of a cached flow over `design`, after its lookup.
    fn finish(
        mut lookup: CacheLookup,
        design: &CnvDesign,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
        cache: &mut ImplementationCache,
    ) -> CachedFlowResult {
        lookup.implement(modules_of(design), device, cfg);
        cache.fill(&lookup);
        lookup.stitch(design, device, cfg)
    }

    #[test]
    fn verified_mode_audits_hits() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        // Re-running in verified mode recomputes every hit and asserts
        // coherence; same accounting as the plain warm run.
        let audited = run_rw_flow_cached_verified(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(audited.reused, 74);
        assert_eq!(audited.fresh, 0);
        assert_eq!(audited.tool_runs_spent, 0);
    }

    #[test]
    fn concurrent_lookups_count_every_hit_and_miss() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        let (h0, m0) = (cache.hits(), cache.misses());
        let keys: Vec<ModuleFingerprint> = design
            .modules
            .iter()
            .map(|m| ModuleFingerprint::of(&m.netlist, &dev))
            .collect();
        let miss_key = ModuleFingerprint::of(&design.modules[0].netlist, &Device::xc7z020());
        // 8 threads × (74 hits + 1 miss) through &self lookups.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in &keys {
                        assert!(hit(&cache, key, &dev).is_some());
                    }
                    assert!(hit(&cache, &miss_key, &dev).is_none());
                });
            }
        });
        assert_eq!(cache.hits() - h0, 8 * 74);
        assert_eq!(cache.misses() - m0, 8);
    }

    fn keys_of(design: &CnvDesign, dev: &Device) -> Vec<ModuleFingerprint> {
        design
            .modules
            .iter()
            .map(|m| ModuleFingerprint::of(&m.netlist, dev))
            .collect()
    }

    #[test]
    fn fill_returns_its_own_failed_puts() {
        use tms_fault::FaultPlan;
        use tms_store::{Store, StoreConfig};
        let dir = std::env::temp_dir().join(format!(
            "tms_flow_fill_failures_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let plan = Arc::new(FaultPlan::seeded(3).with_rate(FaultPoint::StoreAppend, 1.0));
        let fault = Arc::clone(&plan) as Arc<dyn FaultInjector>;
        let obs = Arc::new(tms_obs::NoopRecorder) as Arc<dyn Recorder>;
        let store = Store::open_faulty(StoreConfig::at(&dir), obs, fault).expect("open store");
        let mut cache = ImplementationCache::with_store(Arc::new(store)).with_retry(Retry::none());
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let fill = |cache: &mut ImplementationCache| {
            let cfg = cfg(5);
            let mut lookup = cache.lookup_design(&design, &dev, &cfg);
            lookup.implement(modules_of(&design), &dev, &cfg);
            let failed = cache.fill(&lookup);
            (lookup.stitch(&design, &dev, &cfg).fresh, failed)
        };
        // Every put fails: the flow still implements all 74 modules, and
        // the fill reports each of its own failures.
        assert_eq!(fill(&mut cache), (74, 74));
        assert_eq!(cache.store_fail_streak(), 74);
        assert!(cache.is_empty());
        // Healthy again: the first put ends the streak, and this fill's
        // own count is 0; an all-hit flow fills nothing.
        plan.clear();
        assert_eq!(fill(&mut cache), (74, 0));
        assert_eq!(fill(&mut cache), (0, 0));
        assert_eq!(cache.store_fail_streak(), 0);
        assert_eq!(cache.len(), 74);
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A recorder that aggregates like an [`tms_obs::AggregatingSink`] and
    /// counts every call it gets.
    #[derive(Default)]
    struct CallCounter {
        calls: AtomicU64,
        sink: tms_obs::AggregatingSink,
    }

    impl Recorder for CallCounter {
        fn record_span(&self, span: &tms_obs::SpanRecord) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.sink.record_span(span);
        }

        fn count(&self, key: &str, delta: u64) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.sink.count(key, delta);
        }

        fn observe(&self, key: &str, value: f64) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.sink.observe(key, value);
        }
    }

    #[test]
    fn a_warm_store_backed_flow_books_no_read_counter() {
        use tms_store::StoreConfig;
        let dir = std::env::temp_dir().join(format!(
            "tms_flow_warm_reads_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        // The store and the flow record through one recorder.
        let rec = Arc::new(CallCounter::default());
        let obs = Arc::clone(&rec) as Arc<dyn Recorder>;
        let store = Store::open_faulty(StoreConfig::at(&dir), obs, Arc::new(NoopInjector))
            .expect("open store");
        let mut cache = ImplementationCache::with_store(Arc::new(store));
        let design = cnvw1a1(5);
        let dev = Device::xc7z020();
        let cfg = cfg(5).with_recorder(&*rec);
        let cold = run_rw_flow_cached(&design, &dev, &cfg, &mut cache);
        let calls = rec.calls.load(Ordering::Relaxed);
        let warm = run_rw_flow_cached(&design, &dev, &cfg, &mut cache);
        assert_eq!((cold.fresh, warm.reused), (74, 74));
        // The cache counts every read once; the recorder books none of
        // them, cold or warm, and a warm flow makes fewer calls than it
        // has modules.
        assert_eq!((cache.hits(), cache.misses()), (74, 74));
        let reads: Vec<_> = rec
            .sink
            .snapshot()
            .counters
            .into_iter()
            .filter(|(key, _)| key.starts_with("cache.") || key.starts_with("store."))
            .collect();
        assert!(reads.is_empty(), "{reads:?}");
        let warm_calls = rec.calls.load(Ordering::Relaxed) - calls;
        assert!(
            warm_calls < 74,
            "a warm flow made {warm_calls} recorder calls"
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injector that is never armed and counts every consult.
    #[derive(Default)]
    struct UnarmedSpy {
        consults: AtomicU64,
    }

    impl FaultInjector for UnarmedSpy {
        fn should_fail(&self, _: FaultPoint) -> bool {
            self.consults.fetch_add(1, Ordering::Relaxed);
            false
        }

        fn corrupt(&self, _: FaultPoint, _: &mut [u8]) -> bool {
            self.consults.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    #[test]
    fn unarmed_injector_is_never_consulted() {
        use tms_store::StoreConfig;
        let dir = std::env::temp_dir().join(format!(
            "tms_flow_unarmed_spy_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let spy = Arc::new(UnarmedSpy::default());
        let fault = Arc::clone(&spy) as Arc<dyn FaultInjector>;
        let obs = Arc::new(tms_obs::NoopRecorder) as Arc<dyn Recorder>;
        let store =
            Store::open_faulty(StoreConfig::at(&dir), obs, Arc::clone(&fault)).expect("open store");
        let mut cache = ImplementationCache::with_store(Arc::new(store)).with_fault(fault);
        let design = cnvw1a1(5);
        let dev = Device::xc7z020();
        let cold = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!((cold.fresh, warm.reused), (74, 74));
        cache.flush().expect("flush");
        cache
            .store()
            .expect("store mode")
            .checkpoint()
            .expect("checkpoint");
        assert_eq!(spy.consults.load(Ordering::Relaxed), 0);
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stitching_a_complete_lookup_equals_the_warm_flow() {
        use tms_obs::{AggregatingSink, Phase};
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        let flow_sink = AggregatingSink::new();
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5).with_recorder(&flow_sink), &mut cache);
        let split_sink = AggregatingSink::new();
        let split_cfg = cfg(5).with_recorder(&split_sink);
        let lookup = cache.lookup(keys_of(&design, &dev), &dev, &split_sink);
        assert!(lookup.is_complete());
        let split = finish(lookup, &design, &dev, &split_cfg, &mut cache);
        assert_eq!(
            (split.reused, split.fresh, split.tool_runs_spent),
            (74, 0, 0)
        );
        let (a, b) = (&split.result, &warm.result);
        assert_eq!(a.stitch.positions, b.stitch.positions);
        assert_eq!(a.stitch.final_cost.to_bits(), b.stitch.final_cost.to_bits());
        assert_eq!(a.total_tool_runs, b.total_tool_runs);
        assert_eq!(a.problem.instances.len(), b.problem.instances.len());
        for phase in Phase::ALL {
            assert_eq!(
                split_sink.phase_spans(phase),
                flow_sink.phase_spans(phase),
                "{phase:?}"
            );
        }
        assert_eq!(
            split_sink.snapshot().counters,
            flow_sink.snapshot().counters
        );
    }

    #[test]
    fn resuming_a_partial_lookup_equals_the_uninterrupted_flow() {
        let dev = Device::xc7z045();
        let warm_cache = || {
            let mut cache = ImplementationCache::new();
            run_rw_flow_cached(&cnvw1a1(5), &dev, &cfg(5), &mut cache);
            cache
        };
        let design = edited_cnvw1a1(5);
        let mut reference_cache = warm_cache();
        let reference = run_rw_flow_cached(&design, &dev, &cfg(5), &mut reference_cache);
        let mut cache = warm_cache();
        let lookup = cache.lookup(keys_of(&design, &dev), &dev, tms_obs::noop());
        assert!(!lookup.is_complete());
        let (h0, m0) = (cache.hits(), cache.misses());
        let resumed = finish(lookup, &design, &dev, &cfg(5), &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (h0, m0), "no second read");
        assert_eq!((resumed.fresh, resumed.reused), (1, 73));
        assert_eq!(resumed.tool_runs_spent, reference.tool_runs_spent);
        let (a, b) = (&resumed.result, &reference.result);
        assert_eq!(a.stitch.positions, b.stitch.positions);
        assert_eq!(a.stitch.final_cost.to_bits(), b.stitch.final_cost.to_bits());
        assert_eq!(cache.len(), reference_cache.len());
        assert!(keys_of(&design, &dev)
            .iter()
            .all(|k| hit(&cache, k, &dev).is_some()));
    }

    #[test]
    fn store_backed_cache_warm_starts_across_processes() {
        use tms_store::{Store, StoreConfig};
        let dir = std::env::temp_dir().join(format!(
            "tms_flow_store_warm_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();

        // "Process one": cold flow against an empty store directory, then a
        // graceful checkpoint and drop.
        {
            let store: Arc<MacroStore> =
                Arc::new(Store::open(StoreConfig::at(&dir)).expect("open store"));
            let mut cache = ImplementationCache::with_store(Arc::clone(&store));
            let cold = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
            assert_eq!(cold.fresh, 74);
            assert_eq!(cold.reused, 0);
            assert_eq!(cache.len(), 74);
            cache.flush().expect("flush");
            store.checkpoint().expect("checkpoint");
        }

        // "Process two": reopen the same directory; every implementation is
        // already in the library, so zero tool runs are spent.
        let store: Arc<MacroStore> =
            Arc::new(Store::open(StoreConfig::at(&dir)).expect("reopen store"));
        assert_eq!(store.len(), 74, "library survived the restart");
        let mut cache = ImplementationCache::with_store(store);
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(warm.reused, 74);
        assert_eq!(warm.fresh, 0);
        assert_eq!(warm.tool_runs_spent, 0);
        assert!(cache.hits() >= 74);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_evicts_least_recently_used() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let donor = {
            let mut c = ImplementationCache::new();
            run_rw_flow_cached(&design, &dev, &cfg(5), &mut c);
            c
        };
        let mut cache = ImplementationCache::with_capacity(4);
        let mut keys = Vec::new();
        for m in design.modules.iter().take(6) {
            let key = ModuleFingerprint::of(&m.netlist, &dev);
            let implemented = hit(&donor, &key, &dev).expect("donor is warm");
            keys.push(key.clone());
            cache.try_insert(key, implemented).expect("insert");
        }
        assert_eq!(cache.len(), 4, "capacity bound holds");
        // The two oldest entries were evicted, the newest four remain.
        assert!(hit(&cache, &keys[0], &dev).is_none());
        assert!(hit(&cache, &keys[1], &dev).is_none());
        for key in &keys[2..] {
            assert!(hit(&cache, key, &dev).is_some());
        }
        // Touching the oldest survivor protects it from the next eviction.
        assert!(hit(&cache, &keys[2], &dev).is_some());
        let key6 = ModuleFingerprint::of(&design.modules[6].netlist, &dev);
        let implemented = hit(&donor, &keys[5], &dev).unwrap();
        cache.try_insert(key6, implemented).expect("insert");
        assert!(
            hit(&cache, &keys[2], &dev).is_some(),
            "recently used entry survives"
        );
        assert!(hit(&cache, &keys[3], &dev).is_none(), "LRU entry evicted");
    }

    /// cnvW1A1 with one non-weight module resynthesised at a new size.
    fn edited_cnvw1a1(seed: u64) -> CnvDesign {
        let mut design = cnvw1a1(seed);
        let idx = design
            .modules
            .iter()
            .position(|m| m.name == "act_l5")
            .unwrap();
        design.modules[idx].netlist =
            tms_cnn::synth_module(tms_cnn::ModuleRole::Activation, 33, "act_l5", 999);
        design
    }

    /// The packed flow the memo tests run, recording through `obs`.
    fn packed_cfg(obs: &dyn Recorder) -> RwFlowConfig<'_> {
        cfg(1)
            .with_mem_pack(MemPackConfig::new(tms_pack::MemPackPolicy::Packed, 1))
            .with_recorder(obs)
    }

    /// Every field of a pack report, to compare two reports whole.
    fn pack_fields(report: &tms_pack::PackReport) -> String {
        serde_json::to_string(report).unwrap()
    }

    #[test]
    fn warm_pack_memo_reproduces_the_memo_less_flow() {
        let dev = Device::xc7z020();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&cnvw1a1(1), &dev, &packed_cfg(tms_obs::noop()), &mut cache);
        // The edit leaves the weights alone: the memo serves the packing,
        // the module cache all but the edited module.
        let design = edited_cnvw1a1(1);
        let sink = tms_obs::AggregatingSink::new();
        let warm = run_rw_flow_cached(&design, &dev, &packed_cfg(&sink), &mut cache);
        assert_eq!(sink.counter("pack.memo.hit"), 1);
        assert_eq!((warm.fresh, warm.reused), (1, 73));
        let reference = crate::rwflow::run_rw_flow(&design, &dev, &packed_cfg(tms_obs::noop()));
        let (w, r) = (&warm.result, &reference);
        assert_eq!(w.stitch.positions, r.stitch.positions);
        assert_eq!(w.stitch.final_cost.to_bits(), r.stitch.final_cost.to_bits());
        assert_eq!(w.total_tool_runs, r.total_tool_runs);
        assert_eq!(w.implemented.len(), r.implemented.len());
        for (a, b) in w.implemented.iter().zip(&r.implemented) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cf.to_bits(), b.cf.to_bits(), "{}", a.name);
            assert_eq!(a.pblock.rect, b.pblock.rect, "{}", a.name);
        }
        assert_eq!(
            pack_fields(w.pack.as_ref().unwrap()),
            pack_fields(r.pack.as_ref().unwrap())
        );
    }

    #[test]
    fn pack_memo_hits_exactly_when_the_packing_inputs_match() {
        use tms_pack::MemPackPolicy::{Naive, Packed};
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let base = MemPackConfig::new(Packed, 1);
        let cache = ImplementationCache::new();
        let first = cache.pack(&design, &dev, &base, tms_obs::noop()).unwrap();
        let hits = |d: &CnvDesign, dev: &Device, pack: &MemPackConfig| {
            let sink = tms_obs::AggregatingSink::new();
            let got = cache.pack(d, dev, pack, &sink).unwrap();
            let hit = sink.counter("pack.memo.hit") == 1;
            assert_eq!(hit, Arc::ptr_eq(&got, &first));
            hit
        };
        assert!(hits(&design, &dev, &base), "identical inputs");
        assert!(hits(&edited_cnvw1a1(1), &dev, &base), "non-weight edit");
        assert!(
            !hits(&design, &dev, &MemPackConfig::new(Naive, 1)),
            "policy"
        );
        assert!(!hits(&design, &dev, &MemPackConfig::new(Packed, 2)), "seed");
        assert!(!hits(&design, &Device::xc7z045(), &base), "device");
        let w = design.modules.iter().position(|m| m.mem.is_some()).unwrap();
        let mut spec = design.clone();
        let mem = spec.modules[w].mem.as_mut().unwrap();
        mem.cols += mem.simd;
        assert!(!hits(&spec, &dev, &base), "weight spec");
        let mut instances = design.clone();
        instances.modules[w].instances += 1;
        assert!(!hits(&instances, &dev, &base), "instance count");
        // Packing off, or nothing to pack, never touches the memo.
        let memo_len = || cache.pack_memo.len();
        let entries = memo_len();
        assert!(cache
            .pack(&design, &dev, &MemPackConfig::off(), tms_obs::noop())
            .is_none());
        assert_eq!(memo_len(), entries);
    }

    #[test]
    fn pack_memo_hits_book_outcomes_but_no_search_work() {
        use tms_obs::{AggregatingSink, Phase};
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let mut cache = ImplementationCache::new();
        let cold_sink = AggregatingSink::new();
        let cold = run_rw_flow_cached(&design, &dev, &packed_cfg(&cold_sink), &mut cache);
        let warm_sink = AggregatingSink::new();
        let warm = run_rw_flow_cached(&design, &dev, &packed_cfg(&warm_sink), &mut cache);
        let report = warm.result.pack.as_ref().unwrap();
        assert_eq!(
            pack_fields(report),
            pack_fields(cold.result.pack.as_ref().unwrap())
        );
        for (sink, hit) in [(&cold_sink, 0), (&warm_sink, 1)] {
            assert_eq!(sink.counter("pack.memo.hit"), hit);
            assert_eq!(sink.phase_spans(Phase::MemPack), 1);
            assert_eq!(sink.counter("pack.runs"), 1);
            assert_eq!(sink.counter("pack.modules"), report.modules.len() as u64);
            assert_eq!(sink.counter("pack.bram36_saved"), report.bram36_saved);
            assert_eq!(sink.counter("pack.bins.bram36"), report.banks_bram36);
            assert_eq!(sink.counter("pack.bins.bram18_half"), report.banks_bram18);
            assert_eq!(sink.counter("pack.bins.lutram"), report.banks_lutram);
        }
    }

    #[test]
    fn pack_memo_is_capped_and_cleared_wholesale() {
        // The naive policy solves nothing, so distinct keys are cheap: the
        // seed is part of the key.
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let naive = |seed| MemPackConfig::new(tms_pack::MemPackPolicy::Naive, seed);
        let cache = ImplementationCache::new();
        let memo_len = || cache.pack_memo.len();
        for seed in 0..PACK_MEMO_CAPACITY as u64 {
            cache.pack(&design, &dev, &naive(seed), tms_obs::noop());
        }
        assert_eq!(memo_len(), PACK_MEMO_CAPACITY);
        cache.pack(
            &design,
            &dev,
            &naive(PACK_MEMO_CAPACITY as u64),
            tms_obs::noop(),
        );
        assert_eq!(memo_len(), 1, "a full memo is dropped wholesale");
        let sink = tms_obs::AggregatingSink::new();
        cache.pack(&design, &dev, &naive(0), &sink);
        assert_eq!(
            sink.counter("pack.memo.hit"),
            0,
            "entries before the clear are gone"
        );
    }
}
