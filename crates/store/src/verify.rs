//! Read-only integrity audit of a store directory (`tms store verify`).

use crate::stats::VerifyReport;
use crate::store::wal_path;
use crate::wal;
use serde::Value;
use std::io;
use std::path::Path;

/// Whether a checksummed payload parses as a store record (`put` or `del`
/// with the right arity). Checked without knowing the key/value
/// types, so `verify` works on any store directory.
fn well_formed(payload: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(payload) else {
        return false;
    };
    let Ok(Value::Array(items)) = serde_json::parse(text) else {
        return false;
    };
    match items.first() {
        Some(Value::Str(tag)) if tag == "put" => items.len() == 3,
        Some(Value::Str(tag)) if tag == "del" => items.len() == 2,
        _ => false,
    }
}

/// Audit the log under `dir` without modifying anything: re-verify every
/// record checksum with the same resynchronizing scan the store opens
/// with, parse every payload, and report damaged and torn bytes. Unlike
/// opening the store, nothing is truncated or cut out — this is safe to
/// run against a live directory.
pub fn verify(dir: &Path) -> io::Result<VerifyReport> {
    let scan = wal::scan_file(&wal_path(dir))?;
    Ok(VerifyReport {
        wal_records: scan.records.len() as u64,
        wal_torn_bytes: scan.torn_bytes,
        wal_corrupt_bytes: scan.corrupt_bytes(),
        decode_errors: scan.records.iter().filter(|r| !well_formed(r)).count() as u64,
    })
}
