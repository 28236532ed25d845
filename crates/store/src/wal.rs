//! Record framing of the store's log.
//!
//! `wal.log` is a plain sequence of frames:
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────┐
//! │ len  (u32) │ crc32(u32) │ payload (len B) │   little-endian header
//! └────────────┴────────────┴─────────────────┘
//! ```
//!
//! `crc32` is the IEEE checksum of the payload alone, so every record is
//! independently verifiable. A crash mid-append leaves a *torn tail*: a
//! frame whose header or body is incomplete, or whose checksum does not
//! match. [`read_records`] classifies it as such and reports the byte
//! offset of the last good record, which [`recover_file`] truncates the
//! file back to — every fully committed record before the tear survives
//! bit-identically. A damaged frame with valid records after it is
//! in-place corruption, not a tear: the scan skips it and keeps reading.

use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use tms_fault::{check_io, FaultInjector, FaultPoint};

/// Bytes of the per-record header (`len` + `crc32`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one record's payload; a length field beyond this is
/// treated as corruption, not as an instruction to allocate gigabytes.
pub const MAX_RECORD: u32 = 1 << 30;

const CRC_TABLE: [u32; 256] = make_crc_table();

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes` (the checksum Ethernet, gzip and PNG use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frame one payload: length + checksum header, then the payload bytes.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The outcome of scanning a framed buffer: the good records, where they
/// end, and the mid-stream byte regions the scan had to skip to reach
/// later records.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Every payload that passed its checksum, in file order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset one past the last good record.
    pub good_bytes: u64,
    /// Trailing bytes after the last good record that never resynced —
    /// the classic torn tail (a crash mid-append; benign).
    pub torn_bytes: u64,
    /// Mid-stream regions whose frame failed its checksum but were
    /// followed by further valid records — evidence of *in-place
    /// corruption* (a bit flip, not a crash). These regions are what a
    /// recovery quarantines.
    pub corrupt_regions: Vec<CorruptRegion>,
}

/// One skipped byte region from a resynchronizing scan, raw bytes
/// included so the damage can be quarantined for post-mortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptRegion {
    /// Byte offset of the region in the original file.
    pub offset: u64,
    /// The skipped bytes, verbatim.
    pub bytes: Vec<u8>,
}

impl ReadOutcome {
    /// Total bytes inside mid-stream corrupt regions.
    pub fn corrupt_bytes(&self) -> u64 {
        self.corrupt_regions
            .iter()
            .map(|r| r.bytes.len() as u64)
            .sum()
    }
}

/// Whether a valid frame (plausible length, intact checksum) starts at
/// `off`. Cheap for random offsets: almost all are rejected on the length
/// field alone, so the CRC only runs over plausible candidates.
fn frame_at(bytes: &[u8], off: usize) -> Option<usize> {
    if bytes.len() - off < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    if len > MAX_RECORD {
        return None;
    }
    let body_start = off + FRAME_HEADER;
    let body_end = body_start.checked_add(len as usize)?;
    if body_end > bytes.len() {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
    (crc32(&bytes[body_start..body_end]) == crc).then_some(body_end)
}

/// Scan a framed buffer. At a bad frame the scan *resynchronizes*: it
/// looks forward byte by byte for the next offset where a checksum-valid
/// frame begins and continues reading from there. A single flipped bit
/// inside one record therefore costs exactly that record — every
/// subsequent committed record survives.
///
/// Corruption at the very end of the file (nothing valid after it) is
/// still classified as a torn tail, so crash-recovery semantics are
/// unchanged; only *mid-stream* damage lands in `corrupt_regions`. A
/// false resync would need a 32-bit checksum collision at a random
/// offset (probability 2⁻³² per candidate byte).
pub fn read_records(bytes: &[u8]) -> ReadOutcome {
    let mut out = ReadOutcome::default();
    let mut off = 0usize;
    while bytes.len() - off >= FRAME_HEADER {
        if let Some(body_end) = frame_at(bytes, off) {
            out.records
                .push(bytes[off + FRAME_HEADER..body_end].to_vec());
            off = body_end;
            continue;
        }
        // Bad frame at `off`: hunt for the next valid one.
        match (off + 1..bytes.len()).find(|&cand| frame_at(bytes, cand).is_some()) {
            Some(resync) => {
                out.corrupt_regions.push(CorruptRegion {
                    offset: off as u64,
                    bytes: bytes[off..resync].to_vec(),
                });
                off = resync;
            }
            None => break, // torn tail from `off` to EOF
        }
    }
    out.good_bytes = off as u64;
    out.torn_bytes = (bytes.len() - off) as u64;
    out
}

/// Read a framed file and repair it in place, so the next append
/// continues from the last committed record: mid-stream corrupt records
/// are cut out (the file is atomically rewritten from the surviving good
/// frames) and returned in `corrupt_regions` for the caller to
/// quarantine, and a plain torn tail is truncated. Missing files read as
/// empty.
pub fn recover_file(path: &Path) -> io::Result<ReadOutcome> {
    let outcome = scan_file(path)?;
    if !outcome.corrupt_regions.is_empty() {
        // Rewrite the log from the surviving records so the damage
        // cannot be re-read (or re-replayed) on the next open.
        let mut clean = Vec::with_capacity(outcome.good_bytes as usize);
        for r in &outcome.records {
            clean.extend_from_slice(&frame(r));
        }
        WalFile::replace(path, &clean, tms_fault::noop())?;
        sync_parent(path)?;
    } else if outcome.torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(outcome.good_bytes)?;
        file.sync_all()?;
    }
    Ok(outcome)
}

/// Scan a framed file without modifying it: what [`recover_file`]
/// repairs. Missing files read as empty.
pub fn scan_file(path: &Path) -> io::Result<ReadOutcome> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(read_records(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(ReadOutcome::default()),
        Err(e) => Err(e),
    }
}

/// Append-side handle of the log: every frame goes straight to the file,
/// with an explicit durability point.
pub struct WalFile {
    file: std::fs::File,
}

impl WalFile {
    /// Open (creating if needed) the log for appending; the caller must
    /// have run [`recover_file`] first so the tail is clean.
    pub fn open_append(path: &Path) -> io::Result<WalFile> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalFile { file })
    }

    /// Replace the file at `path` by `bytes` atomically and return the
    /// append handle of the new file. A sibling temp file is written and
    /// fsync'd first, then renamed over `path`, so a crash at any point
    /// leaves either the old file or the new one — never a torn mix.
    ///
    /// The injector is consulted at the temp-file fsync
    /// ([`FaultPoint::StoreFsync`]) and at the rename
    /// ([`FaultPoint::StoreRename`]). Any failure removes the temp file and
    /// leaves `path`, and every handle open on it, exactly as they were —
    /// what a real crash at that step guarantees.
    pub fn replace(path: &Path, bytes: &[u8], fault: &dyn FaultInjector) -> io::Result<WalFile> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        match publish(&tmp, path, bytes, fault) {
            Ok(file) => Ok(WalFile { file }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Append one framed record, with a silent-corruption consult: when
    /// [`FaultPoint::StoreCorruptRecord`] fires, the record reaches disk
    /// with one deterministically chosen bit flipped — exactly the damage
    /// pattern the resynchronizing recovery and the read-side checksums
    /// exist to catch. The operation itself still reports success, as
    /// real media rot would.
    pub fn append_faulty(&mut self, framed: &[u8], fault: &dyn FaultInjector) -> io::Result<()> {
        if fault.armed() {
            let mut buf = framed.to_vec();
            if fault.corrupt(FaultPoint::StoreCorruptRecord, &mut buf) {
                return self.file.write_all(&buf);
            }
        }
        self.file.write_all(framed)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Fsync the directory holding `path`, so a rename into it survives a
/// power loss.
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// The steps of [`WalFile::replace`]: write and fsync `tmp`, then rename
/// it over `path`. The returned handle stays valid across the rename.
fn publish(
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
    fault: &dyn FaultInjector,
) -> io::Result<std::fs::File> {
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(bytes)?;
    check_io(fault, FaultPoint::StoreFsync)?;
    file.sync_all()?;
    check_io(fault, FaultPoint::StoreRename)?;
    std::fs::rename(tmp, path)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for payload in [&b"alpha"[..], b"", b"gamma-delta"] {
            buf.extend_from_slice(&frame(payload));
        }
        let out = read_records(&buf);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0], b"alpha");
        assert_eq!(out.records[1], b"");
        assert_eq!(out.records[2], b"gamma-delta");
        assert_eq!(out.good_bytes, buf.len() as u64);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn every_truncation_point_keeps_committed_records() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame(b"first"));
        buf.extend_from_slice(&frame(b"second"));
        let first_len = frame(b"first").len();
        for cut in 0..buf.len() {
            let out = read_records(&buf[..cut]);
            let expect = if cut >= first_len + frame(b"second").len() {
                2
            } else if cut >= first_len {
                1
            } else {
                0
            };
            assert_eq!(out.records.len(), expect, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut buf = frame(b"healthy");
        let tail = frame(b"poisoned");
        let mark = buf.len();
        buf.extend_from_slice(&tail);
        buf[mark + FRAME_HEADER + 2] ^= 0x40; // flip one payload bit
        let out = read_records(&buf);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.good_bytes, mark as u64);
        assert_eq!(out.torn_bytes, tail.len() as u64);
    }

    #[test]
    fn absurd_length_field_is_corruption_not_allocation() {
        let mut buf = frame(b"ok");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0]);
        let out = read_records(&buf);
        assert_eq!(out.records.len(), 1);
        assert!(out.torn_bytes > 0);
    }

    /// Frame a fixed set of payloads and return `(buffer, frame spans)`.
    fn framed_fixture(payloads: &[&[u8]]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
        let mut buf = Vec::new();
        let mut spans = Vec::new();
        for p in payloads {
            let start = buf.len();
            buf.extend_from_slice(&frame(p));
            spans.push(start..buf.len());
        }
        (buf, spans)
    }

    const FIXTURE: [&[u8]; 5] = [
        b"alpha-record",
        b"beta",
        b"gamma-gamma-gamma",
        b"delta-4",
        b"epsilon-the-last",
    ];

    #[test]
    fn mid_stream_bit_flip_loses_only_that_record() {
        let (mut buf, spans) = framed_fixture(&FIXTURE);
        buf[spans[2].start + FRAME_HEADER + 3] ^= 0x10; // payload of record 2

        // The scan loses exactly the damaged record.
        let out = read_records(&buf);
        let got: Vec<&[u8]> = out.records.iter().map(|r| r.as_slice()).collect();
        assert_eq!(got, [FIXTURE[0], FIXTURE[1], FIXTURE[3], FIXTURE[4]]);
        assert_eq!(out.torn_bytes, 0);
        assert_eq!(out.corrupt_regions.len(), 1);
        assert_eq!(out.corrupt_regions[0].offset, spans[2].start as u64);
        assert_eq!(out.corrupt_bytes(), spans[2].len() as u64);
    }

    #[test]
    fn flip_in_length_field_still_resyncs() {
        let (mut buf, spans) = framed_fixture(&FIXTURE);
        buf[spans[1].start] ^= 0x04; // length field of record 1
        let out = read_records(&buf);
        let got: Vec<&[u8]> = out.records.iter().map(|r| r.as_slice()).collect();
        assert_eq!(got, [FIXTURE[0], FIXTURE[2], FIXTURE[3], FIXTURE[4]]);
        assert_eq!(out.corrupt_regions.len(), 1);
    }

    #[test]
    fn trailing_corruption_is_still_a_torn_tail() {
        let (mut buf, spans) = framed_fixture(&FIXTURE);
        let last = spans.last().unwrap().clone();
        buf[last.start + FRAME_HEADER + 1] ^= 0x01;
        let out = read_records(&buf);
        assert_eq!(out.records.len(), FIXTURE.len() - 1);
        assert!(out.corrupt_regions.is_empty(), "no mid-stream damage");
        assert_eq!(out.good_bytes, last.start as u64);
        assert_eq!(out.torn_bytes, last.len() as u64);
    }

    proptest::proptest! {
        /// Any single-bit flip anywhere in the log costs at most the one
        /// record whose frame the flipped byte lies in; every other
        /// record survives bit-identically and in order.
        #[test]
        fn any_single_bit_flip_keeps_all_other_records(bit in 0usize..1000) {
            let (mut buf, spans) = framed_fixture(&FIXTURE);
            let bit = bit % (buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            let hit = spans.iter().position(|s| s.contains(&(bit / 8))).unwrap();
            let expect: Vec<&[u8]> = FIXTURE
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != hit)
                .map(|(_, p)| *p)
                .collect();
            let out = read_records(&buf);
            let got: Vec<&[u8]> = out.records.iter().map(|r| r.as_slice()).collect();
            proptest::prop_assert_eq!(got, expect);
            // The lost frame is fully accounted for: either quarantined
            // (mid-stream) or torn (trailing).
            proptest::prop_assert_eq!(
                out.corrupt_bytes() + out.torn_bytes,
                spans[hit].len() as u64
            );
        }
    }

    #[test]
    fn recover_file_rewrites_a_clean_log() {
        let dir = std::env::temp_dir().join(format!("tms_wal_rs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let (mut buf, spans) = framed_fixture(&FIXTURE);
        buf[spans[1].start + FRAME_HEADER] ^= 0x80;
        std::fs::write(&path, &buf).unwrap();

        let out = recover_file(&path).unwrap();
        assert_eq!(out.records.len(), FIXTURE.len() - 1);
        assert_eq!(out.corrupt_regions.len(), 1);

        // The rewritten file is pristine: a rescan reads all four
        // survivors with no torn or corrupt bytes.
        let rescan = scan_file(&path).unwrap();
        assert_eq!(rescan.records, out.records);
        assert_eq!(rescan.torn_bytes, 0);
        assert!(rescan.corrupt_regions.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_faulty_writes_detectably_corrupt_records() {
        use tms_fault::FaultPlan;
        let dir = std::env::temp_dir().join(format!("tms_wal_af_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let plan = FaultPlan::seeded(42);
        {
            let mut wal = WalFile::open_append(&path).unwrap();
            wal.append_faulty(&frame(b"one"), &plan).unwrap();
            plan.fail_next(FaultPoint::StoreCorruptRecord, 1);
            wal.append_faulty(&frame(b"two"), &plan).unwrap();
            wal.append_faulty(&frame(b"three"), &plan).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(plan.injected(FaultPoint::StoreCorruptRecord), 1);
        let out = scan_file(&path).unwrap();
        let got: Vec<&[u8]> = out.records.iter().map(|r| r.as_slice()).collect();
        assert_eq!(got, [&b"one"[..], b"three"], "flip detected, rest kept");
        assert_eq!(out.corrupt_regions.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_swaps_whole_files_and_appends_to_the_new_one() {
        let dir = std::env::temp_dir().join(format!("tms_wal_aw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        let noop = tms_fault::noop();
        WalFile::replace(&path, b"generation-1", noop).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-1");
        let mut old = WalFile::open_append(&path).unwrap();
        let mut new = WalFile::replace(&path, b"generation-2", noop).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-2");
        // The returned handle appends to the file now at `path`; the
        // handle opened before the rename no longer reaches it.
        new.append_faulty(b"+new", noop).unwrap();
        old.append_faulty(b"+old", noop).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-2+new");
        std::fs::remove_dir_all(&dir).ok();
    }
}
