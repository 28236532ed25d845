//! Exit statuses of the `tms` binary for arguments it refuses, and what
//! its read-only commands leave on disk.

use std::path::Path;
use std::process::Command;
use tailored_macro_sizes::cnn::cnvw1a1;
use tailored_macro_sizes::device::Device;
use tailored_macro_sizes::flow::{
    implement_module, CfPolicy, MacroStore, ModuleFingerprint, RwFlowConfig, SealedModule,
};
use tailored_macro_sizes::pblock::CfSearch;
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

#[test]
fn verify_dir_leaves_the_library_byte_identical() {
    let dir = std::env::temp_dir().join(format!("tms_cli_verify_dir_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A library of two implemented modules ...
    let design = cnvw1a1(1);
    let device = Device::xc7z020();
    let mut cfg = RwFlowConfig::rapidwright_default(1);
    cfg.policy = CfPolicy::Minimal(CfSearch::wide());
    {
        let store: MacroStore = Store::open(StoreConfig::at(&dir)).expect("open store");
        for m in &design.modules[..2] {
            let module = implement_module(&m.name, &m.netlist, &device, &cfg).expect("implements");
            let key = ModuleFingerprint::of(&m.netlist, &device);
            store.put(key, SealedModule::seal(module)).expect("put");
        }
    }
    // ... whose log ends in a torn tail, as a crash mid-append leaves it.
    let wal = dir.join(WAL_FILE);
    let mut log = std::fs::read(&wal).expect("read log");
    log.extend_from_slice(b"torn tail!!");
    std::fs::write(&wal, &log).expect("write log");
    let before = listing(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(["verify", "--all", "--dir"])
        .arg(&dir)
        .output()
        .expect("run tms");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("(read-only)"), "{stdout}");
    assert!(
        stdout.contains("verified 2 artifacts: 0 violations"),
        "{stdout}"
    );
    assert_eq!(listing(&dir), before, "the library is byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
