//! Read-only audit of a store directory (`tms store verify`).

use crate::stats::VerifyReport;
use crate::store::{wal_path, Replay, StoreKey, StoreValue};
use crate::wal;
use std::io;
use std::path::Path;

/// Audit the library under `dir` without changing a byte of it. The log is
/// read once: every frame is checked with the resynchronising scan the
/// store opens with, every record is decoded and replayed as an open
/// replays it, and `audit` runs over every live entry in log order
/// (`true` = clean, the contract of [`crate::Store::scrub_with`]). Unlike
/// an open, nothing is truncated, cut out or quarantined, so this is safe
/// on a live directory. A missing log is an error, not an empty library.
pub fn verify<K, V, F>(dir: &Path, mut audit: F) -> io::Result<VerifyReport>
where
    K: StoreKey,
    V: StoreValue,
    F: FnMut(&K, &V) -> bool,
{
    let scan = wal::read_records(&std::fs::read(wal_path(dir))?);
    let replay = Replay::<K, V>::of(&scan.records);
    let decode_errors = replay.undecodable;
    let live = replay.live();
    let audit_failures = live.iter().filter(|(k, v)| !audit(k, v)).count();
    Ok(VerifyReport {
        wal_records: scan.records.len() as u64,
        wal_torn_bytes: scan.torn_bytes,
        wal_corrupt_bytes: scan.corrupt_bytes(),
        decode_errors,
        audited: live.len() as u64,
        audit_failures: audit_failures as u64,
    })
}
