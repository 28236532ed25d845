//! The content-addressed macro artifact store: an in-memory map with one
//! append-only log behind it, compacted by rewriting the log.
//!
//! Concurrency model — concurrent readers, single writer:
//!
//! * [`Store::get`] takes the read side of a `parking_lot::RwLock`, so any
//!   number of server workers look up concurrently; recency stamps are
//!   atomics. A read counts nothing: the cache above the store counts its
//!   own reads, and the store counts only what it writes.
//! * [`Store::put`], [`Store::remove`] and eviction take the write side
//!   and, still under it, write their own frame to the log before they
//!   change the map: log order is apply order, and a failed write leaves
//!   the map as it was. The log file sits behind its own mutex, always
//!   taken after the map lock; [`Store::flush`] takes only that mutex, so
//!   no fsync ever runs under the map's write lock.
//! * [`Store::compact`] holds the read side (no writer can append), writes
//!   every live entry to a temp file, fsyncs it and renames it over
//!   `wal.log`; appends then go to the new file.

use crate::stats::{CompactReport, ScrubReport, StoreSnapshot};
use crate::wal::{self, WalFile};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tms_fault::{check_io, FaultInjector, FaultPoint, NoopInjector};
use tms_obs::{span, NoopRecorder, Phase, Recorder};

/// File name of the log inside the store directory.
pub const WAL_FILE: &str = "wal.log";

/// Subdirectory corrupt records and audit-rejected entries are parked in.
/// Nothing in the quarantine is ever read back by the store — the files
/// exist for post-mortems, and the live state simply no longer contains
/// the damage (the next request for a quarantined artifact recomputes it).
pub const QUARANTINE_DIR: &str = "quarantine";

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the log.
    pub dir: PathBuf,
    /// LRU eviction bound on the summed payload bytes of live entries.
    pub byte_budget: u64,
    /// Auto-compact once this many log bytes hold no live entry (0 =
    /// manual compaction only).
    pub compact_wal_bytes: u64,
}

impl StoreConfig {
    /// A config rooted at `dir` with the defaults: 256 MiB byte budget,
    /// auto-compaction at 32 MiB of appends.
    pub fn at(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            byte_budget: 256 << 20,
            compact_wal_bytes: 32 << 20,
        }
    }

    fn wal_path(&self) -> PathBuf {
        wal_path(&self.dir)
    }
}

/// Path of the log inside a store directory.
pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Park `bytes` in the quarantine directory under a unique name.
fn quarantine_write(dir: &Path, tag: &str, seq: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let path = qdir.join(format!("{tag}-{}-{seq}.bin", std::process::id()));
    std::fs::write(&path, bytes)?;
    Ok(path)
}

/// Key bound: anything hashable that round-trips through the JSON data
/// model (the module fingerprints of `tms-flow` qualify).
pub trait StoreKey: Clone + Eq + Hash + Serialize + Deserialize + Send + Sync + 'static {}
impl<T: Clone + Eq + Hash + Serialize + Deserialize + Send + Sync + 'static> StoreKey for T {}

/// Value bound: cloneable and JSON round-trippable.
pub trait StoreValue: Clone + Serialize + Deserialize + Send + Sync + 'static {}
impl<T: Clone + Serialize + Deserialize + Send + Sync + 'static> StoreValue for T {}

struct Entry<V> {
    value: V,
    /// Serialized payload size — the unit of the byte budget.
    bytes: u64,
    /// Logical recency stamp (atomic so `get` works under the read lock).
    last_used: AtomicU64,
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    bytes: u64,
}

impl<K: StoreKey, V> Inner<K, V> {
    /// Insert or replace an entry, keeping the byte total.
    fn insert(&mut self, key: K, entry: Entry<V>) {
        self.bytes += entry.bytes;
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes;
        }
    }

    /// Remove an entry, keeping the byte total. Returns whether it existed.
    fn remove(&mut self, key: &K) -> bool {
        let old = self.entries.remove(key);
        if let Some(old) = &old {
            self.bytes -= old.bytes;
        }
        old.is_some()
    }
}

/// Lifetime counters of one store: what it wrote, recovered and audited.
#[derive(Default)]
struct Counters {
    /// Entries evicted by the byte budget.
    evicted: AtomicU64,
    /// Log records applied at open.
    recovered: AtomicU64,
    /// `put` records appended to the log.
    appended: AtomicU64,
    /// Log compactions performed.
    compactions: AtomicU64,
    /// Append/decode failures (undecodable-but-checksummed records at
    /// recovery, or log write and fsync errors surfaced to the caller).
    io_errors: AtomicU64,
    /// Entries (or log regions) moved to the `quarantine/` directory:
    /// checksum-failing records cut out at recovery, plus entries an
    /// audit rejected during a scrub or a verified read.
    quarantined: AtomicU64,
    /// Entries audited by [`Store::scrub_with`].
    scrubbed: AtomicU64,
}

/// A crash-safe, content-addressed, LRU-bounded artifact store.
///
/// See the [module docs](self) for the concurrency and durability model.
/// Dropping the store fsyncs the log.
pub struct Store<K: StoreKey, V: StoreValue> {
    inner: RwLock<Inner<K, V>>,
    /// The append handle of `wal.log`; always locked after `inner`.
    log: Mutex<WalFile>,
    config: StoreConfig,
    obs: Arc<dyn Recorder>,
    fault: Arc<dyn FaultInjector>,
    clock: AtomicU64,
    wal_bytes: AtomicU64,
    counters: Counters,
    /// Sequence for unique quarantine file names within this process.
    qseq: AtomicU64,
    /// The most recent scrub pass, if any ran on this handle.
    last_scrub: Mutex<Option<ScrubReport>>,
}

/// Encode a `put` record payload: `["put", key, value]`.
fn encode_put<K: Serialize, V: Serialize>(key: &K, value: &V) -> io::Result<Vec<u8>> {
    let doc = Value::Array(vec![
        Value::Str("put".to_string()),
        key.to_value(),
        value.to_value(),
    ]);
    serde_json::to_vec(&doc).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Encode a `del` record payload: `["del", key]`.
fn encode_del<K: Serialize>(key: &K) -> io::Result<Vec<u8>> {
    let doc = Value::Array(vec![Value::Str("del".to_string()), key.to_value()]);
    serde_json::to_vec(&doc).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A decoded store record.
enum Decoded<K, V> {
    Put(K, V),
    Del(K),
}

fn decode<K: Deserialize, V: Deserialize>(payload: &[u8]) -> Result<Decoded<K, V>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
    let Value::Array(items) = &doc else {
        return Err("record is not an array".to_string());
    };
    match items.first() {
        Some(Value::Str(tag)) if tag == "put" && items.len() == 3 => Ok(Decoded::Put(
            K::from_value(&items[1]).map_err(|e| e.to_string())?,
            V::from_value(&items[2]).map_err(|e| e.to_string())?,
        )),
        Some(Value::Str(tag)) if tag == "del" && items.len() == 2 => Ok(Decoded::Del(
            K::from_value(&items[1]).map_err(|e| e.to_string())?,
        )),
        _ => Err("unknown record tag".to_string()),
    }
}

/// Log records replayed in order, the last writer winning per key and a
/// `del` removing it: the live entries, each stamped with the position of
/// its `put`, so log order is LRU order. Open and [`crate::verify()`]
/// replay the log this one way.
pub(crate) struct Replay<K, V> {
    inner: Inner<K, V>,
    /// The stamp of the last `put`.
    clock: u64,
    /// Records applied.
    applied: u64,
    /// Records that passed their checksum but do not decode: written by an
    /// incompatible version, and skipped rather than lose the rest of the
    /// log.
    pub(crate) undecodable: u64,
}

impl<K: StoreKey, V: StoreValue> Replay<K, V> {
    pub(crate) fn of(records: &[Vec<u8>]) -> Replay<K, V> {
        let mut replay = Replay {
            inner: Inner {
                entries: HashMap::new(),
                bytes: 0,
            },
            clock: 0,
            applied: 0,
            undecodable: 0,
        };
        for payload in records {
            match decode::<K, V>(payload) {
                Ok(Decoded::Put(key, value)) => {
                    replay.clock += 1;
                    let entry = Entry {
                        value,
                        bytes: payload.len() as u64,
                        last_used: AtomicU64::new(replay.clock),
                    };
                    replay.inner.insert(key, entry);
                }
                Ok(Decoded::Del(key)) => {
                    replay.inner.remove(&key);
                }
                Err(_) => {
                    replay.undecodable += 1;
                    continue;
                }
            }
            replay.applied += 1;
        }
        replay
    }

    /// The live entries in log order.
    pub(crate) fn live(self) -> Vec<(K, V)> {
        let mut live: Vec<(K, Entry<V>)> = self.inner.entries.into_iter().collect();
        live.sort_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed));
        live.into_iter().map(|(k, e)| (k, e.value)).collect()
    }
}

impl<K: StoreKey, V: StoreValue> Store<K, V> {
    /// Open (or create) the store at `config.dir` with no telemetry.
    pub fn open(config: StoreConfig) -> io::Result<Store<K, V>> {
        Store::open_faulty(config, Arc::new(NoopRecorder), Arc::new(NoopInjector))
    }

    /// Open (or create) the store, recording its spans to `obs` and
    /// consulting `fault` at the store's failure sites: `store.open`
    /// here, `store.append` on every [`put`](Store::put), `store.fsync` at
    /// each [`flush`](Store::flush), and `store.fsync`/`store.rename`
    /// inside the log rewrite of [`compact`](Store::compact). Injected
    /// failures count into the `io_errors` statistic exactly like real
    /// ones.
    ///
    /// Recovery replays the log (last-writer-wins per key). A torn tail
    /// (crash mid-append) is truncated so later appends continue from the
    /// last committed record; a damaged frame in the middle of the log is
    /// cut out, parked in `quarantine/`, and every record after it still
    /// replays. Every applied record counts into the `recovered`
    /// statistic.
    pub fn open_faulty(
        config: StoreConfig,
        obs: Arc<dyn Recorder>,
        fault: Arc<dyn FaultInjector>,
    ) -> io::Result<Store<K, V>> {
        check_io(&*fault, FaultPoint::StoreOpen)?;
        std::fs::create_dir_all(&config.dir)?;
        let mut sp = span(&*obs, Phase::Store, "recover");
        let outcome = wal::recover_file(&config.wal_path())?;
        for (i, region) in outcome.corrupt_regions.iter().enumerate() {
            quarantine_write(
                &config.dir,
                &format!("wal-{}", region.offset),
                i as u64,
                &region.bytes,
            )?;
        }
        let Replay {
            inner,
            clock,
            applied,
            undecodable,
        } = Replay::<K, V>::of(&outcome.records);
        let counters = Counters {
            recovered: AtomicU64::new(applied),
            io_errors: AtomicU64::new(undecodable),
            quarantined: AtomicU64::new(outcome.corrupt_regions.len() as u64),
            ..Counters::default()
        };
        sp.field("entries", inner.entries.len() as f64);
        sp.field("wal_records", outcome.records.len() as f64);
        sp.field("torn_bytes", outcome.torn_bytes as f64);
        sp.field("corrupt_regions", outcome.corrupt_regions.len() as f64);

        // Only log bytes that hold no live entry count toward the next
        // compaction: a freshly compacted log reopens at 0. When damage
        // was cut out the file was rewritten from the surviving frames,
        // so `good_bytes` overcounts by the quarantined bytes.
        let log_len = outcome.good_bytes - outcome.corrupt_bytes();
        let live = inner.bytes + (wal::FRAME_HEADER * inner.entries.len()) as u64;
        let log = WalFile::open_append(&config.wal_path())?;

        let store = Store {
            inner: RwLock::new(inner),
            log: Mutex::new(log),
            config,
            obs: Arc::clone(&obs),
            fault,
            clock: AtomicU64::new(clock),
            wal_bytes: AtomicU64::new(log_len.saturating_sub(live)),
            counters,
            qseq: AtomicU64::new(0),
            last_scrub: Mutex::new(None),
        };
        drop(sp);

        // A shrunken byte budget takes effect immediately on reopen.
        store.enforce_budget()?;
        Ok(store)
    }

    /// Look up an entry; hits refresh its LRU stamp.
    pub fn get(&self, key: &K) -> Option<V> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let inner = self.inner.read();
        match inner.entries.get(key) {
            Some(entry) => {
                entry.last_used.store(now, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => None,
        }
    }

    /// Whether `key` is present, without touching LRU state.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.read().entries.contains_key(key)
    }

    /// Insert (or replace) an entry. The `put` frame is written to the log
    /// under the write lock before the map changes, so log order matches
    /// apply order and a failed write leaves the map untouched; entries
    /// beyond the byte budget are then evicted least-recently-used first,
    /// each eviction logging a `del` record.
    pub fn put(&self, key: K, value: V) -> io::Result<()> {
        let mut sp = span(&*self.obs, Phase::Store, "append");
        if let Err(e) = check_io(&*self.fault, FaultPoint::StoreAppend) {
            // Fail before touching the log or the map, like a refused
            // write.
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let payload = encode_put(&key, &value)?;
        let framed = wal::frame(&payload);
        let bytes = payload.len() as u64;
        sp.field("bytes", bytes as f64);
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let result = {
            let mut inner = self.inner.write();
            self.append_locked(&framed).and_then(|()| {
                let entry = Entry {
                    value,
                    bytes,
                    last_used: AtomicU64::new(now),
                };
                inner.insert(key, entry);
                self.evict_locked(&mut inner)
            })
        };
        if let Err(e) = result {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.counters.appended.fetch_add(1, Ordering::Relaxed);
        drop(sp);

        if self.config.compact_wal_bytes > 0
            && self.wal_bytes.load(Ordering::Relaxed) > self.config.compact_wal_bytes
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Remove an entry, logging a `del` record first. Returns whether it
    /// existed.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        let mut inner = self.inner.write();
        if !inner.entries.contains_key(key) {
            return Ok(false);
        }
        self.append_locked(&wal::frame(&encode_del(key)?))?;
        Ok(inner.remove(key))
    }

    /// Write one framed record to the log. The caller holds the map's
    /// write lock — this is what serializes the log against the map.
    fn append_locked(&self, framed: &[u8]) -> io::Result<()> {
        self.log.lock().append_faulty(framed, &*self.fault)?;
        self.wal_bytes
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Evict least-recently-used entries until the byte budget holds,
    /// logging a `del` per eviction before dropping the entry. Caller
    /// holds the write lock.
    fn evict_locked(&self, inner: &mut Inner<K, V>) -> io::Result<()> {
        while inner.bytes > self.config.byte_budget && inner.entries.len() > 1 {
            let Some(lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.append_locked(&wal::frame(&encode_del(&lru)?))?;
            inner.remove(&lru);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Apply the byte budget to the current contents (used after open).
    fn enforce_budget(&self) -> io::Result<()> {
        let mut inner = self.inner.write();
        self.evict_locked(&mut inner)
    }

    /// Fsync the log: on return every prior write is on stable storage.
    /// Takes only the log's own mutex, never the map lock.
    pub fn flush(&self) -> io::Result<()> {
        let result =
            check_io(&*self.fault, FaultPoint::StoreFsync).and_then(|()| self.log.lock().sync());
        if let Err(e) = result {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(())
    }

    /// Rewrite the log to hold exactly the live entries, in LRU order, so
    /// a budget-shrunk reopen evicts the same entries this process would.
    /// The new log is written to a temp file, fsync'd and renamed over
    /// `wal.log`, and later appends go to it. A failure before the rename
    /// leaves `wal.log` and the append handle as they were, so the caller
    /// can retry (or just keep appending); a failed directory fsync after
    /// it leaves the new log in place and in use.
    pub fn compact(&self) -> io::Result<CompactReport> {
        let mut sp = span(&*self.obs, Phase::Store, "compact");
        // The read lock keeps every writer out; the log mutex comes after
        // it, as everywhere.
        let inner = self.inner.read();
        let mut log = self.log.lock();
        let folded = self.wal_bytes.load(Ordering::Relaxed);

        let mut ordered: Vec<(&K, &Entry<V>)> = inner.entries.iter().collect();
        ordered.sort_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed));
        let mut rewritten = Vec::new();
        for (k, e) in &ordered {
            rewritten.extend_from_slice(&wal::frame(&encode_put(k, &e.value)?));
        }
        let path = self.config.wal_path();
        // The handle follows the rename at once; the directory fsync
        // after it makes the rename itself survive a power loss.
        let replaced = WalFile::replace(&path, &rewritten, &*self.fault)
            .map(|new_log| *log = new_log)
            .and_then(|()| wal::sync_parent(&path));
        if let Err(e) = replaced {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        let report = CompactReport {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            wal_bytes_folded: folded,
            log_bytes: rewritten.len() as u64,
        };
        sp.field("entries", report.entries as f64);
        sp.field("wal_bytes_folded", folded as f64);
        Ok(report)
    }

    /// Flush, then compact — the graceful-shutdown checkpoint.
    pub fn checkpoint(&self) -> io::Result<CompactReport> {
        self.flush()?;
        self.compact()
    }

    /// Quarantine one entry: park its serialized record under
    /// `quarantine/`, then remove it from the live map (logging a durable
    /// `del` so no replay resurrects it). Returns whether it existed.
    ///
    /// This is the *repair* half of self-healing: the store does not try
    /// to fix a bad artifact, it evicts it so the next request recomputes
    /// a fresh one.
    pub fn quarantine(&self, key: &K) -> io::Result<bool> {
        let payload = {
            let inner = self.inner.read();
            match inner.entries.get(key) {
                Some(e) => encode_put(key, &e.value)?,
                None => return Ok(false),
            }
        };
        quarantine_write(
            &self.config.dir,
            "entry",
            self.qseq.fetch_add(1, Ordering::Relaxed),
            &wal::frame(&payload),
        )?;
        let existed = self.remove(key)?;
        if existed {
            self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        Ok(existed)
    }

    /// Scrub the live entries through an audit closure, quarantining every
    /// entry the audit rejects. `audit` returns `true` for a clean entry.
    ///
    /// `bytes_per_sec` paces the pass (0 = unthrottled): after each entry
    /// the scrubber sleeps as needed so that `scanned bytes / elapsed`
    /// stays at or below the budget — a background scrub on a serving
    /// store deliberately crawls instead of monopolizing the read lock.
    /// The lock is taken per entry, never across the whole pass, so
    /// concurrent gets and puts proceed between entries.
    pub fn scrub_with<F>(&self, bytes_per_sec: u64, mut audit: F) -> io::Result<ScrubReport>
    where
        F: FnMut(&K, &V) -> bool,
    {
        let mut sp = span(&*self.obs, Phase::Verify, "scrub");
        let start = std::time::Instant::now();
        let keys: Vec<K> = self.inner.read().entries.keys().cloned().collect();
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let mut quarantined = 0u64;
        for key in keys {
            let snapshot = {
                let inner = self.inner.read();
                inner.entries.get(&key).map(|e| (e.value.clone(), e.bytes))
            };
            // Deleted (or evicted) since the key list was taken: skip.
            let Some((value, entry_bytes)) = snapshot else {
                continue;
            };
            entries += 1;
            bytes += entry_bytes;
            self.counters.scrubbed.fetch_add(1, Ordering::Relaxed);
            if !audit(&key, &value) && self.quarantine(&key)? {
                quarantined += 1;
            }
            if bytes_per_sec > 0 {
                let target =
                    std::time::Duration::from_secs_f64(bytes as f64 / bytes_per_sec as f64);
                let elapsed = start.elapsed();
                if target > elapsed {
                    std::thread::sleep(target - elapsed);
                }
            }
        }
        let report = ScrubReport {
            entries,
            bytes,
            quarantined,
            wall_micros: start.elapsed().as_micros() as u64,
            bytes_per_sec,
        };
        sp.field("entries", entries as f64);
        sp.field("quarantined", quarantined as f64);
        *self.last_scrub.lock() = Some(report.clone());
        Ok(report)
    }

    /// The most recent [`scrub_with`](Store::scrub_with) pass on this
    /// handle, if any ran.
    pub fn last_scrub(&self) -> Option<ScrubReport> {
        self.last_scrub.lock().clone()
    }

    /// Path of the quarantine directory (which may not exist yet).
    pub fn quarantine_path(&self) -> PathBuf {
        self.config.dir.join(QUARANTINE_DIR)
    }

    /// Clone out every live entry (for exports and inspection; not a hot
    /// path).
    pub fn export(&self) -> Vec<(K, V)> {
        let inner = self.inner.read();
        inner
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed payload bytes of live entries.
    pub fn bytes(&self) -> u64 {
        self.inner.read().bytes
    }

    /// Log bytes that count toward the next compaction: the bytes
    /// appended since the last one (at open, the log bytes that hold no
    /// live entry).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StoreSnapshot {
        let inner = self.inner.read();
        StoreSnapshot {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            byte_budget: self.config.byte_budget,
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
            recovered: self.counters.recovered.load(Ordering::Relaxed),
            appended: self.counters.appended.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            io_errors: self.counters.io_errors.load(Ordering::Relaxed),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            scrubbed: self.counters.scrubbed.load(Ordering::Relaxed),
        }
    }
}

impl<K: StoreKey, V: StoreValue> Drop for Store<K, V> {
    fn drop(&mut self) {
        let _ = self.log.get_mut().sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tms_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path) -> Store<String, String> {
        Store::open(StoreConfig::at(dir)).expect("open store")
    }

    #[test]
    fn entries_survive_a_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = open(&dir);
            for i in 0..20 {
                store.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            store.flush().unwrap();
        }
        let store = open(&dir);
        assert_eq!(store.len(), 20);
        for i in 0..20 {
            assert_eq!(store.get(&format!("k{i}")), Some(format!("v{i}")));
        }
        assert_eq!(store.stats().recovered, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replacing_a_key_keeps_the_newest_value_across_reopen() {
        let dir = tmp_dir("replace");
        {
            let store = open(&dir);
            store.put("k".into(), "old".into()).unwrap();
            store.put("k".into(), "new".into()).unwrap();
            assert_eq!(store.len(), 1);
        }
        let store = open(&dir);
        assert_eq!(store.get(&"k".to_string()), Some("new".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_wal_and_leaves_one_file() {
        let dir = tmp_dir("compact");
        let store = open(&dir);
        for i in 0..10 {
            store.put(format!("k{i}"), "x".repeat(50)).unwrap();
        }
        store.put("k0".into(), "y".repeat(50)).unwrap();
        assert!(store.wal_bytes() > 0);
        let r1 = store.compact().unwrap();
        assert_eq!(r1.entries, 10);
        assert_eq!(store.wal_bytes(), 0);
        // The rewritten log holds exactly the live entries.
        let log = wal::scan_file(&wal_path(&dir)).unwrap();
        assert_eq!(log.records.len(), 10, "the replaced k0 was folded away");
        assert_eq!(
            r1.log_bytes,
            std::fs::metadata(wal_path(&dir)).unwrap().len()
        );
        store.put("extra".into(), "y".into()).unwrap();
        let r2 = store.compact().unwrap();
        assert_eq!(r2.entries, 11);
        assert_eq!(store.stats().compactions, 2);
        // One file, no temp debris.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, [WAL_FILE]);
        drop(store);

        let store = open(&dir);
        assert_eq!(store.len(), 11);
        assert_eq!(store.wal_bytes(), 0, "a compacted log reopens at 0");
        assert_eq!(store.get(&"extra".to_string()), Some("y".to_string()));
        assert_eq!(store.get(&"k0".to_string()), Some("y".repeat(50)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_counts_only_log_bytes_without_a_live_entry() {
        let dir = tmp_dir("dead_bytes");
        let replaced = {
            let store = open(&dir);
            store.put("a".into(), "1".into()).unwrap();
            let first = store.wal_bytes();
            store.put("b".into(), "2".into()).unwrap();
            store.put("a".into(), "3".into()).unwrap();
            first
        };
        // Only the frame of a's first value holds no live entry.
        let store = open(&dir);
        assert_eq!(store.wal_bytes(), replaced);
        assert_eq!(store.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_snapshot_files_are_neither_read_nor_deleted() {
        let dir = tmp_dir("old_snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        // A segment of the earlier two-file layout, with one valid frame.
        let old = dir.join("snapshot.1.tms");
        let segment = wal::frame(&encode_put(&"old".to_string(), &"1".to_string()).unwrap());
        std::fs::write(&old, &segment).unwrap();
        let store = open(&dir);
        assert_eq!(store.get(&"old".to_string()), None, "a cache miss");
        store.put("new".into(), "2".into()).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(std::fs::read(&old).unwrap(), segment, "left in place");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_evicts_lru_and_reopen_agrees() {
        let dir = tmp_dir("evict");
        let mut config = StoreConfig::at(&dir);
        // Each record payload is ["put","kN","<32 chars>"] ≈ 50 bytes;
        // budget for roughly 4 of them.
        config.byte_budget = 200;
        let store: Store<String, String> = Store::open(config.clone()).unwrap();
        for i in 0..8 {
            store.put(format!("k{i}"), "v".repeat(32)).unwrap();
        }
        let survivors = store.len();
        assert!(survivors < 8, "budget must evict");
        assert!(store.bytes() <= 200);
        assert!(store.stats().evicted >= (8 - survivors) as u64);
        // Oldest entries went first.
        assert_eq!(store.get(&"k0".to_string()), None);
        assert_eq!(store.get(&"k7".to_string()), Some("v".repeat(32)));
        store.flush().unwrap();
        drop(store);

        // Evictions were logged, so a reopen does not resurrect them.
        let store: Store<String, String> = Store::open(config).unwrap();
        assert_eq!(store.len(), survivors);
        assert!(store.get(&"k0".to_string()).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touched_entries_survive_eviction() {
        let dir = tmp_dir("lru");
        let mut config = StoreConfig::at(&dir);
        config.byte_budget = 200;
        let store: Store<String, String> = Store::open(config).unwrap();
        for i in 0..4 {
            store.put(format!("k{i}"), "v".repeat(32)).unwrap();
        }
        // Refresh k0 so the next insert evicts k1 instead.
        assert!(store.get(&"k0".to_string()).is_some());
        store.put("k4".into(), "v".repeat(32)).unwrap();
        if store.len() < 5 {
            assert!(
                store.get(&"k0".to_string()).is_some(),
                "refreshed entry survives"
            );
            assert!(store.get(&"k1".to_string()).is_none(), "LRU entry evicted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_overflow_triggers_auto_compaction() {
        let dir = tmp_dir("autocompact");
        let mut config = StoreConfig::at(&dir);
        config.compact_wal_bytes = 512;
        let store: Store<String, String> = Store::open(config).unwrap();
        for i in 0..40 {
            store.put(format!("k{i}"), "v".repeat(32)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "WAL growth must compact");
        assert_eq!(store.len(), 40, "compaction loses nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_share_the_store() {
        let dir = tmp_dir("concurrent");
        let store = open(&dir);
        for i in 0..50 {
            store.put(format!("k{i}"), format!("v{i}")).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        assert_eq!(store.get(&format!("k{i}")), Some(format!("v{i}")));
                    }
                    assert!(store.get(&"absent".to_string()).is_none());
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_is_durable() {
        let dir = tmp_dir("remove");
        {
            let store = open(&dir);
            store.put("keep".into(), "1".into()).unwrap();
            store.put("drop".into(), "2".into()).unwrap();
            assert!(store.remove(&"drop".to_string()).unwrap());
            assert!(!store.remove(&"drop".to_string()).unwrap());
            store.flush().unwrap();
        }
        let store = open(&dir);
        assert_eq!(store.len(), 1);
        assert!(store.get(&"drop".to_string()).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_records_spans_and_the_statistics_count() {
        use tms_obs::AggregatingSink;
        let dir = tmp_dir("obs");
        let sink = Arc::new(AggregatingSink::new());
        let store: Store<String, String> =
            Store::open_faulty(StoreConfig::at(&dir), sink.clone(), Arc::new(NoopInjector))
                .unwrap();
        store.put("k".into(), "v".into()).unwrap();
        assert!(store.get(&"k".to_string()).is_some());
        assert!(store.get(&"missing".to_string()).is_none());
        store.compact().unwrap();
        assert_eq!(sink.phase_spans(Phase::Store), 3, "recover+append+compact");
        assert!(sink.snapshot().counters.is_empty(), "one count per event");
        let stats = store.stats();
        assert_eq!((stats.appended, stats.compactions), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_wal_corruption_quarantines_and_keeps_later_records() {
        let dir = tmp_dir("resync");
        {
            let store = open(&dir);
            for i in 0..10 {
                store.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            store.flush().unwrap();
        }
        // Flip one bit inside the SECOND record's payload — mid-stream,
        // with eight committed records after it.
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let first_frame_len = wal::read_records(&bytes).records[0].len() + wal::FRAME_HEADER;
        bytes[first_frame_len + wal::FRAME_HEADER + 4] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        let store = open(&dir);
        assert_eq!(store.len(), 9, "exactly the damaged record is lost");
        assert_eq!(store.get(&"k1".to_string()), None, "damaged entry gone");
        for i in [0usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            assert_eq!(
                store.get(&format!("k{i}")),
                Some(format!("v{i}")),
                "k{i} survives"
            );
        }
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1);
        let quarantined: Vec<_> = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .collect();
        assert_eq!(quarantined.len(), 1, "damage parked for post-mortem");

        // The rewritten log is clean: a further reopen sees no damage.
        store.put("k1".into(), "recomputed".into()).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = open(&dir);
        assert_eq!(store.len(), 10);
        assert_eq!(store.stats().quarantined, 0, "no damage left to find");
        assert_eq!(store.get(&"k1".to_string()), Some("recomputed".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_corruption_is_caught_on_reopen() {
        use tms_fault::FaultPlan;
        let dir = tmp_dir("inject_corrupt");
        let plan = Arc::new(FaultPlan::seeded(17));
        {
            let store: Store<String, String> = Store::open_faulty(
                StoreConfig::at(&dir),
                Arc::new(NoopRecorder),
                Arc::clone(&plan) as Arc<dyn FaultInjector>,
            )
            .unwrap();
            store.put("a".into(), "1".into()).unwrap();
            store.flush().unwrap();
            // Arm one silent corruption: the next record written reaches
            // disk bit-flipped while the put itself reports success.
            plan.fail_next(FaultPoint::StoreCorruptRecord, 1);
            store.put("b".into(), "2".into()).unwrap();
            store.put("c".into(), "3".into()).unwrap();
            store.flush().unwrap();
            assert_eq!(plan.injected(FaultPoint::StoreCorruptRecord), 1);
        }
        let store = open(&dir);
        assert_eq!(store.len(), 2, "the corrupted record is detected and cut");
        assert_eq!(store.get(&"b".to_string()), None);
        assert_eq!(store.get(&"a".to_string()), Some("1".to_string()));
        assert_eq!(store.get(&"c".to_string()), Some("3".to_string()));
        assert_eq!(store.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_quarantines_audit_failures_durably() {
        let dir = tmp_dir("scrub");
        {
            let store = open(&dir);
            for i in 0..6 {
                store.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            let report = store
                .scrub_with(0, |k, _v| k != "k3")
                .expect("scrub succeeds");
            assert_eq!(report.entries, 6);
            assert_eq!(report.quarantined, 1);
            assert!(report.bytes > 0);
            assert_eq!(store.last_scrub(), Some(report));
            let stats = store.stats();
            assert_eq!(stats.scrubbed, 6);
            assert_eq!(stats.quarantined, 1);
            assert_eq!(store.len(), 5);
            assert!(store.quarantine_path().exists());
            store.flush().unwrap();
        }
        // The quarantine logged a durable `del`: no replay resurrects it.
        let store = open(&dir);
        assert_eq!(store.len(), 5);
        assert_eq!(store.get(&"k3".to_string()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_scrub_quarantines_nothing() {
        let dir = tmp_dir("scrub_clean");
        let store = open(&dir);
        for i in 0..5 {
            store.put(format!("k{i}"), format!("v{i}")).unwrap();
        }
        let report = store.scrub_with(0, |_, _| true).unwrap();
        assert_eq!(report.entries, 5);
        assert_eq!(report.quarantined, 0, "zero false positives");
        assert_eq!(store.len(), 5);
        assert!(!store.quarantine_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_budget_paces_the_pass() {
        let dir = tmp_dir("scrub_pace");
        let store = open(&dir);
        for i in 0..4 {
            store.put(format!("k{i}"), "v".repeat(100)).unwrap();
        }
        let bytes = store.bytes();
        // Budget the pass to ~4x the payload per second: the full scan
        // must take at least ~250ms of wall clock.
        let report = store.scrub_with(bytes * 4, |_, _| true).unwrap();
        assert_eq!(report.entries, 4);
        assert!(
            report.wall_micros >= 200_000,
            "a {bytes}-byte scan at {}B/s finished in {}us",
            bytes * 4,
            report.wall_micros
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_then_verify_reports_clean() {
        let dir = tmp_dir("verify");
        let store = open(&dir);
        for i in 0..5 {
            store.put(format!("k{i}"), "v".into()).unwrap();
        }
        store.remove(&"k0".to_string()).unwrap();
        store.checkpoint().unwrap();
        let report = crate::verify(&dir, |_: &String, _: &String| true).unwrap();
        assert!(report.clean());
        assert_eq!(
            report.wal_records, 4,
            "the checkpoint left the 4 live entries"
        );
        assert_eq!(report.wal_torn_bytes, 0);
        assert_eq!(report.wal_corrupt_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_counts_a_damaged_middle_record_as_corruption() {
        let dir = tmp_dir("verify_flip");
        {
            let store = open(&dir);
            for i in 0..10 {
                store.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            store.flush().unwrap();
        }
        let path = wal_path(&dir);
        let clean = std::fs::read(&path).unwrap();
        // The ten frames have the same length, so the middle byte lies in
        // one whole frame with records on both sides of it.
        let frame_len = wal::read_records(&clean).records[4].len() + wal::FRAME_HEADER;
        let mid = clean.len() / 2;

        // One flipped bit in the middle of the log: not clean, and the
        // damaged frame's bytes are counted as corruption.
        let mut flipped = clean.clone();
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let report = crate::verify(&dir, |_: &String, _: &String| true).unwrap();
        assert!(!report.clean(), "{report}");
        assert_eq!(report.wal_records, 9);
        assert_eq!(report.wal_corrupt_bytes, frame_len as u64);
        assert_eq!(report.wal_torn_bytes, 0);
        assert!(report.to_string().contains("CORRUPT"), "{report}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            flipped,
            "verify is read-only"
        );

        // A trailing tear alone stays clean (recoverable).
        std::fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        let report = crate::verify(&dir, |_: &String, _: &String| true).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.wal_records, 9);
        assert_eq!(report.wal_corrupt_bytes, 0);
        assert!(report.wal_torn_bytes > 0);
        assert!(report.to_string().contains("RECOVERABLE"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_audits_the_live_entries_and_changes_nothing() {
        let dir = tmp_dir("verify_audit");
        let err = crate::verify(&dir, |_: &String, _: &String| true).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::NotFound,
            "a missing log is no library"
        );
        assert!(!dir.exists(), "verify makes no directory");
        {
            let store = open(&dir);
            for i in 0..4 {
                store.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            store.put("k1".into(), "new".into()).unwrap();
            store.remove(&"k2".to_string()).unwrap();
        }
        // A torn tail stays where it is.
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"torn tail!!");
        std::fs::write(&path, &bytes).unwrap();

        let mut seen = Vec::new();
        let report = crate::verify(&dir, |k: &String, v: &String| {
            seen.push((k.clone(), v.clone()));
            k != "k3"
        })
        .unwrap();
        let want = [("k0", "v0"), ("k3", "v3"), ("k1", "new")];
        assert_eq!(
            seen,
            want.map(|(k, v)| (k.to_string(), v.to_string())),
            "the live entries, in log order"
        );
        assert_eq!((report.audited, report.audit_failures), (3, 1));
        assert!(!report.clean(), "an audit failure is corruption");
        assert!(report.to_string().contains("CORRUPT"), "{report}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log is untouched");

        let report = crate::verify(&dir, |_: &String, _: &String| true).unwrap();
        assert!(report.clean(), "{report}");
        assert!(report.to_string().contains("RECOVERABLE"), "{report}");

        // A record that checksums but does not decode as a (String, String)
        // record is corruption the CRC cannot see.
        let odd = wal::frame(&encode_put(&"k9".to_string(), &9u64).unwrap());
        let mut with_odd = bytes[..bytes.len() - b"torn tail!!".len()].to_vec();
        with_odd.extend_from_slice(&odd);
        std::fs::write(&path, &with_odd).unwrap();
        let report = crate::verify(&dir, |_: &String, _: &String| true).unwrap();
        assert_eq!((report.decode_errors, report.audited), (1, 3));
        assert!(report.to_string().contains("CORRUPT"), "{report}");
        assert_eq!(open(&dir).len(), 3, "the live entries an open loads");
        std::fs::remove_dir_all(&dir).ok();
    }
}
