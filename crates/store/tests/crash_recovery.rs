//! Crash-recovery property tests: a WAL truncated at *any* byte — the
//! moment power failed mid-append — must reopen to exactly the committed
//! prefix, every surviving entry bit-identical, every checksum intact.
//!
//! Strategy: build a store, record the WAL bytes after each `put`'s
//! flush, then for every candidate tear point copy the directory, chop
//! the WAL there, reopen, and compare against what had been committed at
//! that point. The bit-flip cases also run on a checkpointed library,
//! whose log the compaction rewrote.

use proptest::prelude::*;
use tms_store::wal::read_records;
use tms_store::{verify, Store, StoreConfig, WAL_FILE};

type TestStore = Store<String, Vec<u8>>;

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tms_crash_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A value whose bytes exercise the full range (not just ASCII JSON).
fn value_for(i: usize) -> Vec<u8> {
    (0..64 + i * 7)
        .map(|j| ((i * 131 + j * 17) % 256) as u8)
        .collect()
}

/// Write `n` entries into a fresh store at `dir`, fsyncing each one, and
/// return the WAL length after every put (ascending commit points).
fn build_store(dir: &std::path::Path, n: usize) -> Vec<u64> {
    std::fs::remove_dir_all(dir).ok();
    let store: TestStore = Store::open(StoreConfig::at(dir)).expect("open");
    let mut commit_points = Vec::with_capacity(n);
    for i in 0..n {
        store.put(format!("module_{i}"), value_for(i)).expect("put");
        store.flush().expect("flush");
        commit_points.push(std::fs::metadata(dir.join(WAL_FILE)).expect("meta").len());
    }
    drop(store);
    commit_points
}

/// A checkpointed library of `n` entries: each module is put first with a
/// stale value and then replaced, and the checkpoint rewrites the log to
/// the `n` live entries, `module_i` in frame `i`. Returns the end offset
/// of every frame of the rewritten log.
fn build_checkpointed_store(dir: &std::path::Path, n: usize) -> Vec<u64> {
    std::fs::remove_dir_all(dir).ok();
    let store: TestStore = Store::open(StoreConfig::at(dir)).expect("open");
    for i in 0..n {
        store
            .put(format!("module_{i}"), value_for(i + 50))
            .expect("put");
        store.put(format!("module_{i}"), value_for(i)).expect("put");
    }
    store.checkpoint().expect("checkpoint");
    drop(store);
    let frame_ends = frame_ends(&std::fs::read(dir.join(WAL_FILE)).expect("read wal"));
    assert_eq!(
        frame_ends.len(),
        n,
        "the checkpoint folded the stale values"
    );
    frame_ends
}

/// The end offset of every frame in `log`, walked by the length fields
/// alone (no checksum is consulted).
fn frame_ends(log: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off < log.len() {
        let len = u32::from_le_bytes(log[off..off + 4].try_into().expect("header"));
        off += 8 + len as usize;
        ends.push(off as u64);
    }
    assert_eq!(off, log.len(), "the log is whole frames");
    ends
}

/// Truncate a copy of the WAL to `cut` bytes and reopen: the store must
/// hold exactly the entries committed at or before `cut`, bit-identical.
fn check_cut(dir: &std::path::Path, scratch: &std::path::Path, commit_points: &[u64], cut: u64) {
    std::fs::remove_dir_all(scratch).ok();
    std::fs::create_dir_all(scratch).expect("scratch dir");
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), scratch.join(entry.file_name())).expect("copy");
    }
    let wal = scratch.join(WAL_FILE);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("wal");
    file.set_len(cut).expect("truncate");
    drop(file);

    // How many puts were fully on disk at this tear point?
    let committed = commit_points.iter().filter(|&&p| p <= cut).count();

    let reopened: TestStore = Store::open(StoreConfig::at(scratch)).expect("reopen");
    assert_eq!(
        reopened.len(),
        committed,
        "cut at {cut}: committed prefix must survive"
    );
    for i in 0..committed {
        assert_eq!(
            reopened.get(&format!("module_{i}")).as_deref(),
            Some(value_for(i).as_slice()),
            "cut at {cut}: entry {i} must be bit-identical"
        );
    }
    for i in committed..commit_points.len() {
        assert!(
            reopened.get(&format!("module_{i}")).is_none(),
            "cut at {cut}: uncommitted entry {i} must not resurrect"
        );
    }
    drop(reopened);

    // Reopening truncated the torn tail; the directory is now fully clean.
    let report = verify(scratch, |_: &String, _: &Vec<u8>| true).expect("verify");
    assert!(report.clean(), "cut at {cut}: {report}");
    assert_eq!(report.wal_torn_bytes, 0, "cut at {cut}: tail was truncated");
}

/// Exhaustive sweep: tear the WAL at *every* byte offset inside the last
/// record (and at the clean boundaries around it).
#[test]
fn every_tear_point_in_the_last_record_recovers_the_committed_prefix() {
    const N: usize = 4;
    let dir = unique_dir("exhaustive");
    let scratch = unique_dir("exhaustive_cut");
    let commit_points = build_store(&dir, N);
    let full = *commit_points.last().unwrap();
    let before_last = commit_points[N - 2];
    for cut in before_last..=full {
        check_cut(&dir, &scratch, &commit_points, cut);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// The tear can also land in an *earlier* record (e.g. a sector lost by
/// the disk): recovery keeps the prefix before the tear.
#[test]
fn tears_anywhere_keep_exactly_the_prefix() {
    const N: usize = 3;
    let dir = unique_dir("anywhere");
    let scratch = unique_dir("anywhere_cut");
    let commit_points = build_store(&dir, N);
    let full = *commit_points.last().unwrap();
    // Stride through the whole log; the exhaustive last-record sweep above
    // covers the fine structure.
    for cut in (0..=full).step_by(7) {
        check_cut(&dir, &scratch, &commit_points, cut);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// A tear after a compaction must not touch the entries the compaction
/// wrote: only the appends after it are at risk.
#[test]
fn compacted_entries_survive_any_later_tear() {
    let dir = unique_dir("snapcut");
    let scratch = unique_dir("snapcut_cut");
    std::fs::remove_dir_all(&dir).ok();
    let compacted_len = {
        let store: TestStore = Store::open(StoreConfig::at(&dir)).expect("open");
        for i in 0..5 {
            store.put(format!("snap_{i}"), value_for(i)).expect("put");
        }
        store.compact().expect("compact");
        let compacted_len = std::fs::metadata(dir.join(WAL_FILE)).expect("meta").len();
        store.put("walled".to_string(), value_for(99)).expect("put");
        store.flush().expect("flush");
        compacted_len
    };
    let wal_len = std::fs::metadata(dir.join(WAL_FILE)).expect("meta").len();
    assert!(
        wal_len > compacted_len,
        "the put appended to the rewritten log"
    );
    for cut in compacted_len..=wal_len {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).expect("scratch");
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), scratch.join(entry.file_name())).expect("copy");
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join(WAL_FILE))
            .expect("wal");
        file.set_len(cut).expect("truncate");
        drop(file);
        let reopened: TestStore = Store::open(StoreConfig::at(&scratch)).expect("reopen");
        for i in 0..5 {
            assert_eq!(
                reopened.get(&format!("snap_{i}")).as_deref(),
                Some(value_for(i).as_slice()),
                "cut at {cut}: compacted entry {i} does not depend on later appends"
            );
        }
        let walled = reopened.get(&"walled".to_string());
        assert!(
            walled.is_none() || walled.as_deref() == Some(value_for(99).as_slice()),
            "cut at {cut}: the appended entry is all-or-nothing"
        );
        if cut == wal_len {
            assert_eq!(walled.as_deref(), Some(value_for(99).as_slice()));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// The recovered WAL prefix re-parses record-for-record: what `read_records`
/// sees after recovery equals the committed frame sequence.
#[test]
fn recovered_wal_is_a_checksummed_frame_prefix() {
    let dir = unique_dir("frames");
    let commit_points = build_store(&dir, 3);
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let full = read_records(&bytes);
    assert_eq!(full.records.len(), 3);
    assert_eq!(full.torn_bytes, 0);
    // Chop mid-record and rescan: one fewer record, rest identical.
    let cut = (commit_points[2] - 3) as usize;
    let torn = read_records(&bytes[..cut]);
    assert_eq!(torn.records.len(), 2);
    assert_eq!(torn.records, full.records[..2].to_vec());
    assert!(torn.corrupt_regions.is_empty(), "a tear is not corruption");
    assert_eq!(torn.torn_bytes, bytes.len() as u64 - 3 - commit_points[1]);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized variant: arbitrary store size, arbitrary tear offset.
    #[test]
    fn random_tears_recover_the_committed_prefix(n in 1usize..6, cut_frac in 0.0f64..1.0) {
        let dir = unique_dir("prop");
        let scratch = unique_dir("prop_cut");
        let commit_points = build_store(&dir, n);
        let full = *commit_points.last().unwrap();
        let cut = (full as f64 * cut_frac) as u64;
        check_cut(&dir, &scratch, &commit_points, cut);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }
}

/// Flip one bit of the WAL and reopen: the CRC must reject exactly the
/// record the flipped byte lies in, every *other* entry survives
/// bit-identical, and mid-stream damage (records exist after the flip)
/// is quarantined rather than silently truncating the rest of the log.
/// `frame_ends[i]` is where the frame of `module_i` ends.
fn check_flip(dir: &std::path::Path, scratch: &std::path::Path, frame_ends: &[u64], bit: u64) {
    std::fs::remove_dir_all(scratch).ok();
    std::fs::create_dir_all(scratch).expect("scratch dir");
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), scratch.join(entry.file_name())).expect("copy");
    }
    let wal = scratch.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    std::fs::write(&wal, &bytes).expect("write wal");

    // Which record's frame does the flipped byte lie in?
    let hit = frame_ends
        .iter()
        .position(|&end| bit / 8 < end)
        .expect("bit is inside the log");
    let n = frame_ends.len();

    let reopened: TestStore = Store::open(StoreConfig::at(scratch)).expect("reopen");
    assert_eq!(
        reopened.len(),
        n - 1,
        "bit {bit}: only record {hit} is lost"
    );
    for i in 0..n {
        if i == hit {
            assert!(
                reopened.get(&format!("module_{i}")).is_none(),
                "bit {bit}: damaged entry {i} must not be served"
            );
        } else {
            assert_eq!(
                reopened.get(&format!("module_{i}")).as_deref(),
                Some(value_for(i).as_slice()),
                "bit {bit}: entry {i} must survive bit-identical"
            );
        }
    }
    let stats = reopened.stats();
    if hit + 1 < n {
        assert_eq!(
            stats.quarantined, 1,
            "bit {bit}: mid-stream flip quarantines"
        );
    } else {
        assert_eq!(
            stats.quarantined, 0,
            "bit {bit}: a trailing flip is a torn tail"
        );
    }
    drop(reopened);

    // Recovery rewrote/truncated the log: a second open finds no damage.
    let reopened: TestStore = Store::open(StoreConfig::at(scratch)).expect("second open");
    assert_eq!(reopened.len(), n - 1);
    assert_eq!(
        reopened.stats().quarantined,
        0,
        "bit {bit}: damage was cut out"
    );
}

/// The library a bit-flip case runs on: written by appends alone, or
/// rewritten by a checkpoint. Returns the frame ends of its log.
fn build_library(dir: &std::path::Path, n: usize, checkpointed: bool) -> Vec<u64> {
    if checkpointed {
        build_checkpointed_store(dir, n)
    } else {
        build_store(dir, n)
    }
}

/// Exhaustive sweep of a small log: flip *every* bit of a record in the
/// middle of the WAL; every later record must survive each time. The
/// sweep runs on an appended and on a checkpointed library.
#[test]
fn every_bit_flip_in_a_middle_record_keeps_later_records() {
    const N: usize = 3;
    let dir = unique_dir("flip_mid");
    let scratch = unique_dir("flip_mid_cut");
    for checkpointed in [false, true] {
        let frame_ends = build_library(&dir, N, checkpointed);
        // Record 1 spans frame_ends[0]..frame_ends[1]. Stride by 3 to
        // keep the sweep fast while still hitting header, CRC and payload.
        for byte in (frame_ends[0]..frame_ends[1]).step_by(3) {
            for bit_in_byte in [0u64, 5] {
                check_flip(&dir, &scratch, &frame_ends, byte * 8 + bit_in_byte);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized variant of the bit-flip suite: arbitrary store size,
    /// arbitrary flip position anywhere in the log, on an appended and on
    /// a checkpointed library.
    #[test]
    fn random_bit_flips_lose_at_most_the_hit_record(n in 2usize..6, bit_frac in 0.0f64..1.0) {
        let dir = unique_dir("flipprop");
        let scratch = unique_dir("flipprop_cut");
        for checkpointed in [false, true] {
            let frame_ends = build_library(&dir, n, checkpointed);
            let full_bits = *frame_ends.last().unwrap() * 8;
            let bit = ((full_bits as f64 * bit_frac) as u64).min(full_bits - 1);
            check_flip(&dir, &scratch, &frame_ends, bit);
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }
}

/// Injected-failure variants of the crash suite: the compaction's
/// `fsync` and `rename` are made to fail deterministically via the
/// store's [`tms_fault::FaultInjector`] hook, and the log must stay fully
/// readable and appendable — exactly the guarantee the tear tests
/// establish for power loss.
mod injected_compaction_failures {
    use super::*;
    use std::sync::Arc;
    use tms_fault::{FaultInjector, FaultPlan, FaultPoint};
    use tms_obs::{NoopRecorder, Recorder};

    fn open_with_plan(dir: &std::path::Path, plan: &Arc<FaultPlan>) -> TestStore {
        let obs: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let fault: Arc<dyn FaultInjector> = Arc::clone(plan) as Arc<dyn FaultInjector>;
        Store::open_faulty(StoreConfig::at(dir), obs, fault).expect("open")
    }

    /// Copy every file of `dir` into a fresh `scratch` — the disk state
    /// an independent process (or a post-crash restart) would see.
    fn copy_dir(dir: &std::path::Path, scratch: &std::path::Path) {
        std::fs::remove_dir_all(scratch).ok();
        std::fs::create_dir_all(scratch).expect("scratch dir");
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), scratch.join(entry.file_name())).expect("copy");
        }
    }

    /// Reopen a copy of `dir` and check it holds `module_0..n`
    /// bit-identically.
    fn assert_copy_holds(dir: &std::path::Path, scratch: &std::path::Path, n: usize) {
        copy_dir(dir, scratch);
        let reopened: TestStore = Store::open(StoreConfig::at(scratch)).expect("reopen");
        assert_eq!(reopened.len(), n);
        for i in 0..n {
            assert_eq!(
                reopened.get(&format!("module_{i}")).as_deref(),
                Some(value_for(i).as_slice()),
                "entry {i} must survive"
            );
        }
    }

    /// Five entries — three folded by a clean checkpoint, two appended
    /// after it — then a compaction whose `point` is injected to fail.
    /// The failed compaction must leave `wal.log` byte for byte as it was
    /// and the append handle on it; a retry after the fault clears must
    /// succeed, and appends then go to the rewritten log.
    fn failed_compaction_keeps_the_log(tag: &str, point: FaultPoint) {
        let dir = unique_dir(tag);
        let scratch = unique_dir(&format!("{tag}_copy"));
        std::fs::remove_dir_all(&dir).ok();
        let plan = Arc::new(FaultPlan::seeded(17));
        let store = open_with_plan(&dir, &plan);
        for i in 0..3 {
            store.put(format!("module_{i}"), value_for(i)).expect("put");
        }
        store.checkpoint().expect("clean checkpoint");
        assert_eq!(store.stats().compactions, 1);
        for i in 3..5 {
            store.put(format!("module_{i}"), value_for(i)).expect("put");
        }
        store.flush().expect("flush");
        let log_before = std::fs::read(dir.join(WAL_FILE)).expect("read wal");

        plan.fail_next(point, 1);
        let err = store
            .compact()
            .expect_err("the injected fault fails the compaction");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(plan.injected(point), 1);
        assert_eq!(
            store.stats().compactions,
            1,
            "the failed rewrite was never published"
        );
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).expect("read wal"),
            log_before,
            "wal.log is untouched"
        );
        assert_eq!(store.len(), 5, "in-memory state untouched");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp debris: {leftovers:?}");

        // The append handle still writes to wal.log: an independent open
        // of the on-disk state recovers every entry bit-identically.
        store
            .put("module_5".to_string(), value_for(5))
            .expect("put");
        store.flush().expect("flush");
        assert_copy_holds(&dir, &scratch, 6);

        // The fault was transient: once it clears, the retry publishes,
        // and later appends land in the rewritten log.
        plan.clear();
        let report = store
            .compact()
            .expect("retry succeeds after the fault clears");
        assert_eq!(report.entries, 6);
        assert_eq!(store.stats().compactions, 2);
        store
            .put("module_6".to_string(), value_for(6))
            .expect("put");
        store.flush().expect("flush");
        assert_copy_holds(&dir, &scratch, 7);

        drop(store);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn injected_fsync_failure_during_compaction() {
        failed_compaction_keeps_the_log("compact_fsync", FaultPoint::StoreFsync);
    }

    #[test]
    fn injected_rename_failure_during_compaction() {
        failed_compaction_keeps_the_log("compact_rename", FaultPoint::StoreRename);
    }

    /// Rate-driven fsync faults at `flush`: `flush` surfaces
    /// the injected error, and once the plan clears the same store
    /// fsyncs and persists everything.
    #[test]
    fn flush_surfaces_injected_fsync_failures_then_recovers() {
        let dir = unique_dir("flush_fsync");
        std::fs::remove_dir_all(&dir).ok();
        let plan = Arc::new(FaultPlan::seeded(9));
        let store = open_with_plan(&dir, &plan);
        store
            .put("module_0".to_string(), value_for(0))
            .expect("put");
        store.flush().expect("healthy flush");

        plan.set_rate(FaultPoint::StoreFsync, 1.0);
        store
            .put("module_1".to_string(), value_for(1))
            .expect("append still works");
        let err = store.flush().expect_err("every fsync is injected to fail");
        assert!(err.to_string().contains("injected fault"), "{err}");

        plan.clear();
        store.flush().expect("fsync works again");
        drop(store);

        let reopened: TestStore = Store::open(StoreConfig::at(&dir)).expect("reopen");
        assert_eq!(reopened.len(), 2, "both entries made it to disk");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}
