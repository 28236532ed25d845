//! Store statistics: the serializable snapshots and reports the serve
//! layer's `stats` endpoint and Prometheus page expose.

/// A point-in-time view of a store: sizes and counters.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreSnapshot {
    /// Live entries.
    pub entries: usize,
    /// Summed payload bytes of live entries.
    pub bytes: u64,
    /// LRU eviction bound in bytes.
    pub byte_budget: u64,
    /// Log bytes that count toward the next compaction: appended since
    /// the last one (at open, the log bytes that hold no live entry).
    pub wal_bytes: u64,
    /// Entries evicted by the byte budget.
    pub evicted: u64,
    /// Log records applied when the store was opened.
    pub recovered: u64,
    /// `put` records appended to the log.
    pub appended: u64,
    /// Log compactions performed.
    pub compactions: u64,
    /// Append/decode failures.
    pub io_errors: u64,
    /// Entries or log regions quarantined (corruption cut out and parked
    /// under `quarantine/` for post-mortems).
    pub quarantined: u64,
    /// Entries audited by the scrubber.
    pub scrubbed: u64,
}

/// What one [`crate::Store::scrub_with`] pass covered.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScrubReport {
    /// Entries audited this pass.
    pub entries: u64,
    /// Summed payload bytes of those entries.
    pub bytes: u64,
    /// Entries the audit rejected and quarantined.
    pub quarantined: u64,
    /// Wall-clock duration of the pass, in microseconds.
    pub wall_micros: u64,
    /// The byte/s pacing budget the pass ran under (0 = unthrottled).
    pub bytes_per_sec: u64,
}

/// What one compaction folded.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CompactReport {
    /// Live entries the rewritten log holds.
    pub entries: usize,
    /// Summed payload bytes of those entries.
    pub bytes: u64,
    /// Log bytes appended since the previous compaction, folded away.
    pub wal_bytes_folded: u64,
    /// On-disk size of the rewritten log.
    pub log_bytes: u64,
}

/// What a read-only [`crate::verify()`] audit of a library found.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VerifyReport {
    /// CRC-verified records in the log.
    pub wal_records: u64,
    /// Torn-tail bytes at the end of the log (benign: a crash mid-append;
    /// truncated on the next open).
    pub wal_torn_bytes: u64,
    /// Bytes of damaged frames with valid records after them: in-place
    /// corruption, which the next open cuts out and quarantines.
    pub wal_corrupt_bytes: u64,
    /// Records that passed their checksum but do not decode as the
    /// store's records (version skew or corruption the CRC cannot see).
    pub decode_errors: u64,
    /// Live entries the audit ran over.
    pub audited: u64,
    /// Live entries the audit rejected.
    pub audit_failures: u64,
}

impl VerifyReport {
    /// Whether the library is fully intact: every frame checksums, every
    /// record decodes and every live entry passes the audit. A torn
    /// *tail* alone does not fail verification — that is the crash case
    /// recovery handles.
    pub fn clean(&self) -> bool {
        self.wal_corrupt_bytes == 0 && self.decode_errors == 0 && self.audit_failures == 0
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "wal:      {} records, {} corrupt bytes, {} torn-tail bytes",
            self.wal_records, self.wal_corrupt_bytes, self.wal_torn_bytes
        )?;
        writeln!(f, "decode errors: {}", self.decode_errors)?;
        writeln!(
            f,
            "audited:  {} live entries, {} failed",
            self.audited, self.audit_failures
        )?;
        write!(
            f,
            "verdict:  {}",
            if self.clean() {
                if self.wal_torn_bytes > 0 {
                    "RECOVERABLE (torn WAL tail will be truncated on open)"
                } else {
                    "CLEAN"
                }
            } else {
                "CORRUPT"
            }
        )
    }
}
