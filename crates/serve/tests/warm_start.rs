//! Warm-start end-to-end test: a store-backed server is stopped and a new
//! one opened on the same directory — the second process answers its first
//! `flow` request entirely from the persistent library, with **zero**
//! place-and-route tool runs, and its `preimpl` replies carry the exact
//! bits the first process computed.

use tms_cnn::ModuleRole;
use tms_estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tms_flow::{ModuleFingerprint, SealedModule};
use tms_ml::Dataset;
use tms_serve::{serve, Client, ModuleSpec, ServeConfig};

/// The read-only audit of the library's log, with every entry accepted:
/// these tests check what the checkpoint left, not the records.
fn verify_log(dir: &std::path::Path) -> tms_store::VerifyReport {
    tms_store::verify(dir, |_: &ModuleFingerprint, _: &SealedModule| true).expect("verify")
}

/// Same tiny deterministic estimator as `service.rs`: the store tests care
/// about persistence, not model quality.
fn tiny_estimator() -> CfEstimator {
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<Vec<f64>> = (0..200).map(|_| (0..6).map(|_| next()).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 0.9 + 0.5 * x[0] + 0.2 * x[3]).collect();
    let names = (0..6).map(|i| format!("f{i}")).collect();
    let ds = Dataset::new(names, xs, ys);
    CfEstimator::train_small(EstimatorKind::LinearRegression, &ds, 1)
}

fn store_server(dir: &std::path::Path) -> tms_serve::ServerHandle {
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }
    .with_store_dir(dir);
    serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind ephemeral port")
}

#[test]
fn restarted_server_serves_the_flow_from_the_library() {
    let dir = std::env::temp_dir().join(format!("tms_warm_start_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let spec = ModuleSpec {
        role: ModuleRole::Mvau,
        target_slices: 36,
        name: "mvau_ws".to_string(),
        seed: 11,
    };

    // ── Server one: cold store, run a full flow + one preimpl, stop. ──
    let cold_preimpl = {
        let handle = store_server(&dir);
        let mut client = Client::connect(handle.addr()).expect("connect");

        let flow = client.flow(5, "xc7z045", None).expect("cold flow");
        assert_eq!(flow.reused, 0, "empty store: nothing to reuse");
        assert_eq!(flow.fresh, 74, "cnvw1a1(5) has 74 unique modules");
        assert!(flow.tool_runs_spent > 0);

        let pre = client
            .preimpl(&spec, "xc7z020", Some(1.6))
            .expect("cold preimpl");
        assert!(!pre.cached);

        let stats = client.stats().expect("stats");
        let store = stats.store.expect("server runs in store mode");
        assert_eq!(store.entries, 75, "74 flow modules + 1 preimpl");
        assert!(store.appended >= 75);
        assert_eq!(store.compactions, 0, "nothing compacted while serving");

        // `stop` drains the workers, flushes and checkpoints the library.
        handle.stop();
        pre
    };

    // The checkpoint rewrote the log to exactly the live entries.
    let report = verify_log(&dir);
    assert!(report.clean(), "{report}");
    assert_eq!(
        report.wal_records, 75,
        "checkpoint left one record per entry"
    );
    assert_eq!(report.wal_torn_bytes, 0);

    // ── Server two: same directory, fresh process state. ──
    let handle = store_server(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let stats = client.stats().expect("stats");
    let store = stats.store.expect("store mode");
    assert_eq!(store.entries, 75, "warm start loaded the whole library");
    assert_eq!(store.recovered, 75, "all 75 came from disk, not recompute");
    assert_eq!(store.wal_bytes, 0, "a checkpointed library reopens at 0");

    // The headline: the restarted server's first flow request does ZERO
    // place-and-route work.
    let flow = client.flow(5, "xc7z045", None).expect("warm flow");
    assert_eq!(flow.reused, 74, "every module served from the library");
    assert_eq!(flow.fresh, 0);
    assert_eq!(flow.tool_runs_spent, 0, "warm start spends no tool runs");
    assert_eq!(flow.implemented, 74);
    assert_eq!(flow.failed, 0);

    // And the preimpl comes back cached, bit-identical to what server one
    // computed (same CF, same PBlock, same placement occupancy).
    let pre = client
        .preimpl(&spec, "xc7z020", Some(1.6))
        .expect("warm preimpl");
    assert!(pre.cached, "served from the persistent library");
    assert_eq!(pre.cf.to_bits(), cold_preimpl.cf.to_bits());
    assert_eq!(pre.pblock_w, cold_preimpl.pblock_w);
    assert_eq!(pre.pblock_h, cold_preimpl.pblock_h);
    assert_eq!(pre.used_slices, cold_preimpl.used_slices);

    // The store metrics surfaced on the Prometheus page too, and the page
    // declares every family once.
    let page = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&page).unwrap_or_else(|e| panic!("{e}\n{page}"));
    assert_eq!(samples["tms_store_entries"], 75.0);
    assert_eq!(samples["tms_store_recovered_total"], 75.0);

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_shutdown_checkpoints_before_the_server_exits() {
    let dir = std::env::temp_dir().join(format!("tms_warm_shutdown_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let handle = store_server(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ModuleSpec {
        role: ModuleRole::Activation,
        target_slices: 28,
        name: "act_sd".to_string(),
        seed: 11,
    };
    client
        .preimpl(&spec, "xc7z020", Some(1.6))
        .expect("preimpl");

    // Remote graceful stop: the reply itself reports the store state and
    // arrives only after the WAL fsync.
    let ack = client.shutdown().expect("shutdown");
    assert!(ack.stopping);
    let snap = ack.store.expect("store mode");
    assert_eq!(snap.entries, 1);

    // serve_forever-style wait: the handle observes the flag and finishes
    // the graceful stop (join + checkpoint) — exactly what the CLI does.
    handle.serve_forever();

    let report = verify_log(&dir);
    assert!(report.clean(), "{report}");
    assert_eq!(report.wal_records, 1, "checkpoint left exactly the entry");
    assert_eq!(report.wal_torn_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}
