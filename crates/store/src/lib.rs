//! # tms-store — the crash-safe persistent macro library
//!
//! The paper's economic argument is that pre-implemented macros are
//! *reusable artifacts*: the 1.37× placement speedup of the RapidWright
//! flow only materializes if the library of implemented modules survives
//! between runs. This crate makes that library durable:
//!
//! * **One log** — the store keeps one file, `wal.log`. Every
//!   [`Store::put`], [`Store::remove`] and eviction writes its own
//!   length+CRC32-framed record ([`wal`]) to it before the in-memory map
//!   changes, so a failed write leaves the map as it was. A crash
//!   mid-append leaves a torn tail that the next open truncates, so every
//!   *committed* write survives bit-identically.
//! * **One scanner, one replay** — open and [`verify()`] read the log the
//!   same way: a damaged frame with valid records after it is skipped and
//!   the scan keeps reading, so a flipped bit costs exactly one record,
//!   and the records are decoded and replayed by one typed decoder. Open
//!   cuts the damage out, parks it under `quarantine/` and truncates a
//!   torn tail; `verify` only reports them, runs the caller's audit over
//!   the live entries, and writes nothing.
//! * **Compaction by rename** — [`Store::compact`] writes every live
//!   entry to a temp file, fsyncs it and renames it over `wal.log`; later
//!   appends go to the new file. A crash at any point leaves either the
//!   old log or the new one.
//! * **LRU byte budget** — entries past [`StoreConfig::byte_budget`] are
//!   evicted least-recently-used first; evictions are logged as `del`
//!   records so a reopen does not resurrect them.
//! * **Concurrent readers, single writer** — lookups share a read lock;
//!   writers serialize on the write lock and write their frame under it.
//!   The log file has its own mutex, so [`Store::flush`], the fsync
//!   barrier, never runs under the map's write lock;
//!   [`Store::checkpoint`] is flush + compact (what a graceful shutdown
//!   runs).
//! * **Telemetry** — opened with [`Store::open_faulty`], the store records
//!   `recover`/`append`/`compact` spans (phase `store`) and `scrub` spans
//!   (phase `verify`) to any [`tms_obs::Recorder`]. It counts only what it
//!   writes, recovers and audits, in the [`StoreSnapshot`] of
//!   [`Store::stats`]; a read counts nothing here, since the cache above
//!   the store counts its own reads.
//!
//! The store is generic over its key and value (anything that round-trips
//! through the workspace's JSON data model); `tms-flow` instantiates it
//! with module fingerprints and implemented modules as the persistent
//! backend of its `ImplementationCache`.
//!
//! ```
//! use tms_store::{Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("tms_store_doc_{}", std::process::id()));
//! let config = StoreConfig::at(&dir);
//! {
//!     let store: Store<String, String> = Store::open(config.clone()).unwrap();
//!     store.put("mvau_18".into(), "implemented".into()).unwrap();
//!     store.flush().unwrap(); // durable from here on
//! }
//! let store: Store<String, String> = Store::open(config).unwrap();
//! assert_eq!(store.get(&"mvau_18".to_string()), Some("implemented".to_string()));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod stats;
pub mod store;
pub mod verify;
pub mod wal;

pub use stats::{CompactReport, ScrubReport, StoreSnapshot, VerifyReport};
pub use store::{Store, StoreConfig, StoreKey, StoreValue, QUARANTINE_DIR, WAL_FILE};
pub use verify::verify;
pub use wal::crc32;
