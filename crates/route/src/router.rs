//! The negotiated router.

use crate::grid::ChannelGrid;
use tms_device::Device;
use tms_stitch::{StitchProblem, StitchResult};

/// Router knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Horizontal tracks per routing cell.
    pub h_cap: u32,
    /// Vertical tracks per routing cell.
    pub v_cap: u32,
    /// Negotiation iterations before giving up.
    pub max_iterations: u32,
    /// History cost added to overused cells per iteration.
    pub history_increment: f64,
    /// Quadratic overuse penalty weight.
    pub pressure: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            h_cap: 36,
            v_cap: 36,
            max_iterations: 16,
            history_increment: 0.8,
            pressure: 4.0,
        }
    }
}

/// Outcome of routing a stitched design.
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Whether every connection routed without channel overflow.
    pub fully_routed: bool,
    /// Negotiation iterations used.
    pub iterations: u32,
    /// Total occupied track-segments (wirelength × bus tracks).
    pub total_wirelength: u64,
    /// Overused cells remaining at the end.
    pub overflowed_cells: usize,
    /// Worst channel utilisation.
    pub peak_utilization: f64,
    /// Two-pin connections routed.
    pub routed_connections: usize,
    /// Nets skipped because fewer than two endpoints were placed.
    pub skipped_nets: usize,
    /// Coordinates and `(h, v)` usage of up to 16 overused cells, for
    /// congestion diagnostics.
    pub overflow_hotspots: Vec<(u32, u32, u32, u32)>,
}

/// One grid step of a routed path.
type Step = (u32, u32, bool); // (x, y, horizontal)

/// A two-pin connection: endpoints, bus tracks, and the vertical channel
/// of its current path (see [`channel_cells`]).
struct Connection {
    a: (u32, u32),
    b: (u32, u32),
    tracks: u32,
    xm: u32,
}

/// Pin location of a placed instance for its `k`-th incident connection.
///
/// Pins are spread along the macro's perimeter (as placed-and-routed macros
/// expose their ports), so heavily connected blocks do not funnel every
/// track through one cell.
fn pin_of(problem: &StitchProblem, placed: &StitchResult, inst: u32, k: u32) -> Option<(u32, u32)> {
    placed.positions[inst as usize].map(|(x, y)| {
        let b = problem.block_of(inst);
        let (w, h) = (b.width.max(1), b.height.max(1));
        let perimeter = 2 * (w + h);
        // Golden-ratio stride scatters consecutive pins far apart.
        let t = (u64::from(k).wrapping_mul(0x9E37_79B9) % u64::from(perimeter)) as u32;
        let (dx, dy) = if t < w {
            (t, 0) // bottom edge
        } else if t < w + h {
            (w - 1, t - w) // right edge
        } else if t < 2 * w + h {
            (2 * w + h - 1 - t, h - 1) // top edge
        } else {
            (0, perimeter - 1 - t) // left edge
        };
        (x + dx.min(w - 1), y + dy.min(h - 1))
    })
}

/// The cells of the L- or Z-path from `a` to `b` through vertical channel
/// `xm`: a horizontal run along `a`'s row, a vertical run along `xm`, a
/// horizontal run along `b`'s row, each inclusive of both ends, so a cell
/// two runs share is visited twice. The two terminal cells are dedicated
/// pin taps, not channel wiring, so every step on them is left out.
fn channel_cells(a: (u32, u32), b: (u32, u32), xm: u32) -> impl Iterator<Item = Step> + Clone {
    let run = |p: u32, q: u32| p.min(q)..=p.max(q);
    run(a.0, xm)
        .map(move |x| (x, a.1, true))
        .chain(run(a.1, b.1).map(move |y| (xm, y, false)))
        .chain(run(xm, b.0).map(move |x| (x, b.1, true)))
        .filter(move |&(x, y, _)| (x, y) != a && (x, y) != b)
}

/// Negotiated price of routing `conn` through channel `xm`: its cells'
/// costs summed in path order, times the bus tracks.
fn price(grid: &ChannelGrid, conn: &Connection, xm: u32, pressure: f64) -> f64 {
    let cost: f64 = channel_cells(conn.a, conn.b, xm)
        .map(|(x, y, h)| grid.cost(x, y, h, pressure))
        .sum();
    cost * f64::from(conn.tracks)
}

/// Route one connection: pick the cheapest of the two L-shapes and three
/// Z-shapes (plus detours) under the negotiated cost, and occupy it. The
/// strict `<` keeps the first of equal minima.
fn route_connection(grid: &mut ChannelGrid, conn: &mut Connection, pressure: f64) {
    let (a, b) = (conn.a, conn.b);
    let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
    let quarters = if hi > lo + 1 { 3 } else { 0 };
    // Detour channels next to the endpoints: vertically aligned pins
    // (stacked instances of one module) would otherwise all fight for the
    // single straight column.
    let max_x = grid.width() - 1;
    let candidates = [a.0, b.0]
        .into_iter()
        .chain((1..=quarters).map(|q| lo + q * (hi - lo) / 4))
        .chain(
            [1u32, 2, 4, 7]
                .into_iter()
                .flat_map(|d| [lo.saturating_sub(d), hi.saturating_add(d).min(max_x)]),
        );
    let mut best: Option<(f64, u32)> = None;
    for xm in candidates {
        let cost = price(grid, conn, xm, pressure);
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, xm));
        }
    }
    let (_, xm) = best.expect("at least one candidate path");
    for (x, y, h) in channel_cells(a, b, xm) {
        grid.occupy(x, y, h, conn.tracks);
    }
    conn.xm = xm;
}

/// [`route_stitched`] with telemetry: wraps the negotiation in a
/// `route`-phase span (connections, wirelength, iterations) and bumps the
/// `route.{connections,overflowed,iterations}` counters. The plain
/// [`route_stitched`] stays untouched for the many callers that record
/// nothing.
pub fn route_stitched_observed(
    device: &Device,
    problem: &StitchProblem,
    placed: &StitchResult,
    cfg: &RouterConfig,
    obs: &dyn tms_obs::Recorder,
) -> RouteReport {
    let mut sp = tms_obs::span(obs, tms_obs::Phase::Route, "global");
    let r = route_stitched(device, problem, placed, cfg);
    sp.field("routed_connections", r.routed_connections as f64);
    sp.field("wirelength", r.total_wirelength as f64);
    sp.field("iterations", f64::from(r.iterations));
    sp.field("fully_routed", f64::from(u8::from(r.fully_routed)));
    obs.count("route.connections", r.routed_connections as u64);
    obs.count("route.overflowed", r.overflowed_cells as u64);
    obs.count("route.iterations", u64::from(r.iterations));
    obs.observe("route.peak_utilization", r.peak_utilization);
    r
}

/// Route the inter-block nets of a stitched design.
pub fn route_stitched(
    device: &Device,
    problem: &StitchProblem,
    placed: &StitchResult,
    cfg: &RouterConfig,
) -> RouteReport {
    let mut grid = ChannelGrid::new(device.width(), device.rows(), cfg.h_cap, cfg.v_cap);

    // Decompose nets into chained two-pin connections over placed pins.
    let mut connections: Vec<Connection> = Vec::new();
    let mut skipped_nets = 0;
    // Per-instance incident-connection counter, to spread pins.
    let mut pin_counter: Vec<u32> = vec![0; problem.instances.len()];
    for net in &problem.nets {
        let mut pins: Vec<(u32, u32)> = net
            .endpoints
            .iter()
            .filter_map(|&e| {
                let k = pin_counter[e as usize];
                let p = pin_of(problem, placed, e, k);
                if p.is_some() {
                    pin_counter[e as usize] += 1;
                }
                p
            })
            .collect();
        if pins.len() < 2 {
            skipped_nets += 1;
            continue;
        }
        // Chain pins in scanline order for locality.
        pins.sort_unstable_by_key(|&(x, y)| (x, y));
        let tracks = (net.weight.round() as u32).clamp(1, 8);
        for pair in pins.windows(2) {
            connections.push(Connection {
                a: pair[0],
                b: pair[1],
                tracks,
                xm: 0,
            });
        }
    }

    // Initial routing pass.
    for c in &mut connections {
        route_connection(&mut grid, c, cfg.pressure);
    }

    // Negotiation: rip up and reroute connections through overused cells.
    let mut iterations = 1;
    while grid.overused_cells() > 0 && iterations < cfg.max_iterations {
        grid.accumulate_history(cfg.history_increment);
        for conn in &mut connections {
            let path = channel_cells(conn.a, conn.b, conn.xm);
            if path.clone().any(|(x, y, _)| grid.overused(x, y)) {
                for (x, y, h) in path {
                    grid.release(x, y, h, conn.tracks);
                }
                route_connection(&mut grid, conn, cfg.pressure);
            }
        }
        iterations += 1;
    }

    let total_wirelength: u64 = connections
        .iter()
        .map(|c| channel_cells(c.a, c.b, c.xm).count() as u64 * u64::from(c.tracks))
        .sum();
    let overflowed_cells = grid.overused_cells();
    let overflow_hotspots = grid.overflow_hotspots(16);
    RouteReport {
        fully_routed: overflowed_cells == 0,
        iterations,
        total_wirelength,
        overflowed_cells,
        peak_utilization: grid.peak_utilization(),
        routed_connections: connections.len(),
        skipped_nets,
        overflow_hotspots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tms_stitch::{stitch, MacroBlock, StitchConfig};

    /// Cells of an L- or Z-path from `a` to `b` through vertical channel
    /// `xm`, pin cells included: the path the router used to build for
    /// every candidate.
    fn z_path(a: (u32, u32), b: (u32, u32), xm: u32) -> Vec<Step> {
        let mut steps = Vec::new();
        let h_run = |x0: u32, x1: u32, y: u32, steps: &mut Vec<Step>| {
            let (lo, hi) = (x0.min(x1), x0.max(x1));
            for x in lo..=hi {
                steps.push((x, y, true));
            }
        };
        let v_run = |y0: u32, y1: u32, x: u32, steps: &mut Vec<Step>| {
            let (lo, hi) = (y0.min(y1), y0.max(y1));
            for y in lo..=hi {
                steps.push((x, y, false));
            }
        };
        h_run(a.0, xm, a.1, &mut steps);
        v_run(a.1, b.1, xm, &mut steps);
        h_run(xm, b.0, b.1, &mut steps);
        steps
    }

    /// Cost of a candidate path under the current grid state.
    fn path_cost(grid: &ChannelGrid, path: &[Step], pressure: f64) -> f64 {
        path.iter()
            .map(|&(x, y, h)| grid.cost(x, y, h, pressure))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place price of a candidate equals, bit for bit, the
        /// cost of its built path with the pin cells removed, times the
        /// bus tracks, on grids with random usage and history; and the
        /// in-place walk visits exactly that path.
        #[test]
        fn in_place_price_matches_the_built_path(
            w in 1u32..24,
            h in 1u32..24,
            cells in proptest::collection::vec((0u32..8, 0u32..8, 0u32..4), 1..64),
            ends in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            tracks in 1u32..9,
            pressure in 0.0f64..8.0,
        ) {
            let mut grid = ChannelGrid::new(w, h, 3, 2);
            for (i, &(hu, vu, hist)) in cells.iter().enumerate() {
                let (x, y) = ((i as u32 * 7) % w, (i as u32 * 3) % h);
                grid.occupy(x, y, true, hu);
                grid.occupy(x, y, false, vu);
                if hist > 0 {
                    grid.accumulate_history(f64::from(hist) / 3.0);
                }
            }
            let (ax, ay, bx, by, xm) = ends;
            let (a, b, xm) = ((ax % w, ay % h), (bx % w, by % h), xm % w);
            let mut path = z_path(a, b, xm);
            path.retain(|&(x, y, _)| (x, y) != a && (x, y) != b);
            prop_assert_eq!(channel_cells(a, b, xm).collect::<Vec<_>>(), path.clone());
            let conn = Connection { a, b, tracks, xm: 0 };
            let oracle = path_cost(&grid, &path, pressure) * f64::from(tracks);
            prop_assert_eq!(price(&grid, &conn, xm, pressure).to_bits(), oracle.to_bits());
        }
    }

    fn placed_chain(n: u32, weight: f64, seed: u64) -> (Device, StitchProblem, StitchResult) {
        let dev = Device::xc7z020();
        let blk = MacroBlock {
            name: "m".into(),
            signature: dev.signature(0, 3),
            width: 3,
            height: 10,
            used_slices: 24,
            irregularity: 0.2,
        };
        let mut p = StitchProblem::new(vec![blk]);
        let ids: Vec<u32> = (0..n).map(|_| p.add_instance(0)).collect();
        for pair in ids.windows(2) {
            p.add_net(pair, weight);
        }
        let r = stitch(&dev, &p, &StitchConfig::fast(seed));
        (dev, p, r)
    }

    #[test]
    fn simple_design_routes_fully() {
        let (dev, p, r) = placed_chain(20, 4.0, 1);
        let report = route_stitched(&dev, &p, &r, &RouterConfig::default());
        assert!(
            report.fully_routed,
            "overflow = {}",
            report.overflowed_cells
        );
        assert_eq!(report.routed_connections, 19);
        assert!(report.total_wirelength > 0);
        assert!(report.peak_utilization <= 1.0);
        assert_eq!(report.skipped_nets, 0);
    }

    #[test]
    fn observed_routing_matches_the_plain_call_and_records() {
        use tms_obs::{AggregatingSink, Phase};
        let (dev, p, r) = placed_chain(20, 4.0, 1);
        let sink = AggregatingSink::new();
        let observed = route_stitched_observed(&dev, &p, &r, &RouterConfig::default(), &sink);
        let plain = route_stitched(&dev, &p, &r, &RouterConfig::default());
        assert_eq!(observed.total_wirelength, plain.total_wirelength);
        assert_eq!(sink.phase_spans(Phase::Route), 1);
        assert_eq!(
            sink.counter("route.connections"),
            observed.routed_connections as u64
        );
        assert_eq!(
            sink.counter("route.iterations"),
            u64::from(observed.iterations)
        );
    }

    #[test]
    fn z_paths_connect_their_endpoints() {
        let path = z_path((2, 3), (7, 9), 5);
        assert!(path.contains(&(2, 3, true)));
        assert!(path.contains(&(7, 9, true)));
        assert!(path.contains(&(5, 6, false)));
        // Degenerate: same point.
        let p2 = z_path((4, 4), (4, 4), 4);
        assert!(!p2.is_empty());
    }

    #[test]
    fn scarce_channels_force_negotiation() {
        let (dev, p, r) = placed_chain(60, 8.0, 2);
        let scarce = RouterConfig {
            h_cap: 2,
            v_cap: 2,
            ..RouterConfig::default()
        };
        let report = route_stitched(&dev, &p, &r, &scarce);
        assert!(report.iterations > 1, "should need negotiation");
        let roomy = route_stitched(&dev, &p, &r, &RouterConfig::default());
        assert!(roomy.fully_routed);
        assert!(
            report.overflowed_cells >= roomy.overflowed_cells,
            "scarce {} vs roomy {}",
            report.overflowed_cells,
            roomy.overflowed_cells
        );
    }

    #[test]
    fn wirelength_tracks_net_weight() {
        let (dev, p, r) = placed_chain(10, 1.0, 3);
        let thin = route_stitched(&dev, &p, &r, &RouterConfig::default());
        let (dev2, p2, r2) = placed_chain(10, 6.0, 3);
        let wide = route_stitched(&dev2, &p2, &r2, &RouterConfig::default());
        assert!(wide.total_wirelength > thin.total_wirelength * 4);
    }

    #[test]
    fn unplaced_endpoints_are_skipped() {
        let dev = Device::xc7z020();
        let sig = tms_device::ColumnSignature(vec![tms_device::ColumnKind::Bram; 10]);
        let impossible = MacroBlock {
            name: "x".into(),
            signature: sig,
            width: 10,
            height: 10,
            used_slices: 0,
            irregularity: 0.0,
        };
        let ok = MacroBlock {
            name: "ok".into(),
            signature: dev.signature(0, 2),
            width: 2,
            height: 4,
            used_slices: 4,
            irregularity: 0.0,
        };
        let mut p = StitchProblem::new(vec![impossible, ok]);
        let a = p.add_instance(0);
        let b = p.add_instance(1);
        p.add_net(&[a, b], 2.0);
        let r = stitch(&dev, &p, &StitchConfig::fast(1));
        assert_eq!(r.unplaced_count, 1);
        let report = route_stitched(&dev, &p, &r, &RouterConfig::default());
        assert_eq!(report.skipped_nets, 1);
        assert_eq!(report.routed_connections, 0);
    }

    #[test]
    fn deterministic() {
        let (dev, p, r) = placed_chain(25, 3.0, 5);
        let a = route_stitched(&dev, &p, &r, &RouterConfig::default());
        let b = route_stitched(&dev, &p, &r, &RouterConfig::default());
        assert_eq!(a.total_wirelength, b.total_wirelength);
        assert_eq!(a.iterations, b.iterations);
    }
}
