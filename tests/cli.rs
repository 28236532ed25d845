//! Exit statuses of the `tms` binary for arguments it refuses, and what
//! its read-only commands leave on disk.

use std::path::{Path, PathBuf};
use std::process::Command;
use tailored_macro_sizes::cnn::cnvw1a1;
use tailored_macro_sizes::device::Device;
use tailored_macro_sizes::flow::{
    implement_module, CfPolicy, MacroStore, ModuleFingerprint, RwFlowConfig, SealedModule,
};
use tailored_macro_sizes::pblock::CfSearch;
use tailored_macro_sizes::store::wal::frame as wal_frame;
use tailored_macro_sizes::store::{Store, StoreConfig, WAL_FILE};

#[test]
fn a_misspelled_experiment_exits_2_and_lists_the_targets() {
    // `--paper` takes no value, so the name after it is still a target.
    for args in [
        ["experiments", "tabel1", "--paper"],
        ["experiments", "--paper", "tabel1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tms"))
            .args(args)
            .output()
            .expect("run tms");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        assert!(stderr.contains("'tabel1'"), "{stderr}");
        assert!(
            stderr.contains("table1") && stderr.contains("ablations"),
            "{stderr}"
        );
    }
}

/// Every entry of `dir`, sorted by name: a file with its bytes, a
/// directory with none.
fn listing(dir: &Path) -> Vec<(String, Option<Vec<u8>>)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = e.path().is_file().then(|| std::fs::read(e.path()).unwrap());
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    entries.sort();
    entries
}

/// A library in a fresh temp directory holding the first `n` cnvW1A1
/// modules, implemented on the xc7z020 and sealed; `edit` may change each
/// sealed record before it is put. Every frame checksums and decodes.
fn library(tag: &str, n: usize, mut edit: impl FnMut(usize, &mut SealedModule)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tms_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let design = cnvw1a1(1);
    let device = Device::xc7z020();
    let mut cfg = RwFlowConfig::rapidwright_default(1);
    cfg.policy = CfPolicy::Minimal(CfSearch::wide());
    let store: MacroStore = Store::open(StoreConfig::at(&dir)).expect("open store");
    for (i, m) in design.modules[..n].iter().enumerate() {
        let module = implement_module(&m.name, &m.netlist, &device, &cfg).expect("implements");
        let mut sealed = SealedModule::seal(module);
        edit(i, &mut sealed);
        let key = ModuleFingerprint::of(&m.netlist, &device);
        store.put(key, sealed).expect("put");
    }
    dir
}

/// Run `tms store verify --dir <dir>`: exit code and stdout.
fn store_verify(dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(["store", "verify", "--dir"])
        .arg(dir)
        .output()
        .expect("run tms");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn verify_dir_leaves_the_library_byte_identical() {
    // A library of two implemented modules ...
    let dir = library("verify_dir", 2, |_, _| {});
    // ... whose log ends in a torn tail, as a crash mid-append leaves it.
    let wal = dir.join(WAL_FILE);
    let mut log = std::fs::read(&wal).expect("read log");
    log.extend_from_slice(b"torn tail!!");
    std::fs::write(&wal, &log).expect("write log");
    let before = listing(&dir);

    let (code, stdout) = store_verify(&dir);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("RECOVERABLE"), "{stdout}");
    assert!(
        stdout.contains("audited:  2 live entries, 0 failed"),
        "{stdout}"
    );
    assert_eq!(listing(&dir), before, "the library is byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_forged_library_reads_corrupt_and_names_each_record() {
    let mut names = Vec::new();
    let dir = library("forged", 3, |i, sealed| {
        match i {
            // One bit of the sealed digest flipped.
            0 => sealed.digest ^= 1 << 17,
            // An edit the auditor rejects, re-sealed so the digest holds.
            1 => {
                sealed.module.placement.utilization *= 0.5;
                *sealed = SealedModule::seal(sealed.module.clone());
            }
            _ => return,
        }
        names.push(sealed.module.name.clone());
    });
    let before = listing(&dir);

    let (code, stdout) = store_verify(&dir);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("verdict:  CORRUPT"), "{stdout}");
    assert!(
        stdout.contains("wal:      3 records, 0 corrupt bytes, 0 torn-tail bytes"),
        "every frame is intact: {stdout}"
    );
    assert!(
        stdout.contains("audited:  3 live entries, 2 failed"),
        "{stdout}"
    );
    let failures: Vec<&str> = stdout.lines().filter(|l| l.contains("CORRUPT  ")).collect();
    assert_eq!(failures.len(), 2, "{stdout}");
    assert!(
        failures[0].contains(&names[0]) && failures[0].contains("digest mismatch"),
        "{stdout}"
    );
    assert!(
        failures[1].contains(&names[1]) && failures[1].contains("audit failed"),
        "{stdout}"
    );
    assert_eq!(listing(&dir), before, "the library is byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_frame_and_a_mistyped_record_read_corrupt() {
    let dir = library("damaged", 2, |_, _| {});
    let wal = dir.join(WAL_FILE);
    let clean = std::fs::read(&wal).expect("read log");

    // One inverted byte in the first record's payload: a damaged frame
    // with a valid record after it.
    let mut flipped = clean.clone();
    flipped[12] ^= 0xFF;
    std::fs::write(&wal, &flipped).expect("write log");
    let (code, stdout) = store_verify(&dir);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("verdict:  CORRUPT"), "{stdout}");
    assert!(
        stdout.contains("wal:      1 records,") && !stdout.contains(" 0 corrupt bytes"),
        "{stdout}"
    );

    // A record that checksums and has the shape of a `put`, but whose key
    // and value are not a fingerprint and a sealed module.
    let mut mistyped = clean;
    mistyped.extend_from_slice(&wal_frame(br#"["put",1,2]"#));
    std::fs::write(&wal, &mistyped).expect("write log");
    let (code, stdout) = store_verify(&dir);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("decode errors: 1"), "{stdout}");
    assert!(
        stdout.contains("audited:  2 live entries, 0 failed"),
        "{stdout}"
    );
    assert!(stdout.contains("verdict:  CORRUPT"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `tms store <sub> --dir <missing>` exits 1 naming the path, and creates
/// nothing.
fn refuses_a_missing_library(sub: &str) {
    let dir = std::env::temp_dir().join(format!("tms_cli_no_lib_{sub}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(["store", sub, "--dir"])
        .arg(&dir)
        .output()
        .expect("run tms");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{sub}: {stderr}");
    assert!(
        stderr.contains(&*dir.join(WAL_FILE).to_string_lossy()),
        "{sub}: {stderr}"
    );
    assert!(!dir.exists(), "{sub} created {}", dir.display());
}

#[test]
fn store_inspect_refuses_a_missing_library() {
    refuses_a_missing_library("inspect");
}

#[test]
fn store_compact_refuses_a_missing_library() {
    refuses_a_missing_library("compact");
}

#[test]
fn store_verify_refuses_a_missing_library() {
    refuses_a_missing_library("verify");
}

#[test]
fn store_scrub_refuses_a_missing_library() {
    refuses_a_missing_library("scrub");
}

#[test]
fn verify_refuses_a_library_dir() {
    let out = Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(["verify", "--all", "--dir", "lib"])
        .output()
        .expect("run tms");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is implemented");
    assert!(stderr.contains("tms store verify"), "{stderr}");
}
