//! Cross-crate integration: routing the stitched cnvW1A1 and the
//! cache-driven incremental flow.

use tailored_macro_sizes::cnn::cnvw1a1;
use tailored_macro_sizes::device::Device;
use tailored_macro_sizes::flow::{
    run_rw_flow, run_rw_flow_cached, CfPolicy, ImplementationCache, RwFlowConfig,
};
use tailored_macro_sizes::pblock::CfSearch;
use tailored_macro_sizes::place::PlacementModel;
use tailored_macro_sizes::route::{route_stitched, RouterConfig};
use tailored_macro_sizes::stitch::StitchConfig;

fn flow_cfg(seed: u64, policy: CfPolicy<'_>) -> RwFlowConfig<'_> {
    RwFlowConfig {
        policy,
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig {
            max_moves: 20_000,
            ..StitchConfig::standard(seed)
        },
        portfolio: None,
        mem_pack: tailored_macro_sizes::pack::MemPackConfig::off(),
        seed,
        obs: tailored_macro_sizes::obs::noop(),
    }
}

#[test]
fn stitched_cnv_routes_on_the_large_part() {
    let design = cnvw1a1(7);
    let dev = Device::xc7z045();
    let flow = run_rw_flow(
        &design,
        &dev,
        &flow_cfg(7, CfPolicy::Minimal(CfSearch::wide())),
    );
    assert_eq!(flow.stitch.unplaced_count, 0);

    let report = route_stitched(&dev, &flow.problem, &flow.stitch, &RouterConfig::default());
    assert!(
        report.fully_routed,
        "{} overflowed cells",
        report.overflowed_cells
    );
    assert!(report.routed_connections > 150);
    assert!(report.total_wirelength > 0);
    assert!(report.peak_utilization <= 1.0 + 1e-9);
}

#[test]
fn tighter_macros_never_route_meaningfully_worse() {
    // The routing-stage corollary of the paper's compactness argument. On
    // the roomy xc7z045 the anneal equalises inter-block distances, so the
    // honest invariant is "compact macros never route meaningfully worse"
    // (on the crowded xc7z020 the loose flow cannot even place everything).
    let design = cnvw1a1(7);
    let dev = Device::xc7z045();
    let tight = run_rw_flow(
        &design,
        &dev,
        &flow_cfg(7, CfPolicy::Minimal(CfSearch::wide())),
    );
    let loose = run_rw_flow(&design, &dev, &flow_cfg(7, CfPolicy::Constant(1.72)));
    let cfg = RouterConfig::default();
    let r_tight = route_stitched(&dev, &tight.problem, &tight.stitch, &cfg);
    let r_loose = route_stitched(&dev, &loose.problem, &loose.stitch, &cfg);
    assert!(
        (r_tight.total_wirelength as f64) < r_loose.total_wirelength as f64 * 1.05,
        "tight {} vs loose {}",
        r_tight.total_wirelength,
        r_loose.total_wirelength
    );
    assert!(r_tight.peak_utilization <= r_loose.peak_utilization * 1.05 + 1e-9);
}

#[test]
fn cached_recompile_reuses_and_restitches() {
    let design = cnvw1a1(3);
    let dev = Device::xc7z045();
    let mut cache = ImplementationCache::new();
    let first = run_rw_flow_cached(
        &design,
        &dev,
        &flow_cfg(3, CfPolicy::Minimal(CfSearch::wide())),
        &mut cache,
    );
    let second = run_rw_flow_cached(
        &design,
        &dev,
        &flow_cfg(3, CfPolicy::Minimal(CfSearch::wide())),
        &mut cache,
    );
    assert_eq!(second.fresh, 0);
    assert_eq!(second.reused, first.fresh);
    assert_eq!(second.tool_runs_spent, 0);
    // The second flow's stitch, answered by the cache's stitch memo,
    // still routes.
    let report = route_stitched(
        &dev,
        &second.result.problem,
        &second.result.stitch,
        &RouterConfig::default(),
    );
    assert!(report.fully_routed);
}
