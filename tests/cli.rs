//! Exit statuses of the `tms` binary for arguments it refuses.

use std::process::Command;

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
