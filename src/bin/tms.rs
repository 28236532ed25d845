//! `tms` — command-line front end of the tailored-macro-sizes flow.
//!
//! ```text
//! tms devices                          list the modelled Zynq-7000 family
//! tms compile [opts]                   train + compile the cnvW1A1
//! tms train [opts]                     train an estimator, print its error
//! tms experiments <targets> [opts]     regenerate paper tables/figures
//! tms serve [opts]                     start the estimation/pre-impl service
//! tms client <endpoint> [opts]         query a running service
//! tms store <inspect|compact|verify|scrub>
//!                                      manage a persistent macro library
//! tms report --trace <path>            render a JSONL trace as a phase table
//! tms stitch [opts]                    stitch the cnvW1A1 macros: single-run
//!                                      SA, or the parallel search portfolio
//! tms pack [opts]                      memory-aware weight packing: assign
//!                                      each module's weight banks to
//!                                      BRAM36 / BRAM18-half / LUTRAM bins,
//!                                      print the per-module table
//! tms chaos [opts]                     fault-injection drill: serve under a
//!                                      seeded fault plan, show recovery
//! tms loadgen [opts]                   drive a running server with the
//!                                      deterministic request mix, print
//!                                      per-endpoint latency quantiles
//! tms slowlog [opts]                   fetch a server's tail-sampled
//!                                      slowlog (slow/errored request
//!                                      traces) and summarise it
//! tms verify <module|--all> [opts]     independent integrity audit:
//!                                      implement cnvW1A1 modules fresh and
//!                                      re-derive their legality from first
//!                                      principles (tms-verify); a library
//!                                      is audited by `tms store verify`
//!
//! options:
//!   --device <xc7z010|xc7z020|xc7z030|xc7z045|xc7z100|ultrascale-like>
//!                                                        (default xc7z045)
//!   --estimator <rf|dt|nn|lin>                           (default rf)
//!   --features <classical|classical+|additional|all>     (default additional)
//!   --dataset <N>        training sweep size              (default 600)
//!   --seed <N>                                            (default 2024)
//!   --paper              experiments at full paper scale
//!   --render             print the placed-fabric map after compile
//!   --save <path>        train: write the trained model as JSON
//!   --trace <path>       compile: write a JSONL telemetry trace of the
//!                        whole run (render it with `tms report`)
//!
//! serve options:
//!   --port <N>           listen port (default 7245; 0 = ephemeral)
//!   --workers <N>        worker threads / concurrent connections (default 8)
//!   --cache <N>          implementation-cache capacity (default 4096)
//!   --model <path>       load a model saved by `tms train --save`
//!                        (skips training; pass the matching --features)
//!   --store <dir>        back the cache with a persistent macro library:
//!                        warm-start from <dir>, WAL-append every insert,
//!                        checkpoint on graceful shutdown (`tms client
//!                        shutdown`)
//!   --scrub-secs <N>     background-scrub the library every N seconds
//!                        (requires --store; quarantined records are
//!                        recomputed on the next request)
//!   --scrub-bps <N>      scrub byte/s budget (default 8 MiB/s; 0 =
//!                        unthrottled)
//!
//! store options (all subcommands take --dir <path>; each exits 1 and
//! creates nothing when <path>/wal.log does not exist):
//!   inspect              print the library statistics as JSON
//!   compact              rewrite the log to hold only the live entries
//!   verify               the read-only audit, one read of the log: every
//!                        frame's checksum, every record's decoding, and
//!                        every live record's sealed digest and placement
//!                        legality (each failing record is named); exits
//!                        1 (CORRUPT) on a damaged frame, an undecodable
//!                        record or a failing record, 0 for a torn tail
//!                        alone (RECOVERABLE) or nothing found (CLEAN)
//!   scrub                one scrub pass: open the library, audit every
//!                        record, quarantine violators into quarantine/,
//!                        print the report; exits 1 if any was quarantined
//!   --bps <N>            scrub byte/s budget (0 = unthrottled, the
//!                        default here; servers default to 8 MiB/s)
//!
//! client options (endpoint: estimate | preimpl | flow | stats | metrics
//!                 | shutdown):
//!   --addr <host:port>   server address (default 127.0.0.1:7245)
//!   --port <N>           shorthand for --addr 127.0.0.1:<N>
//!   --role <mvau|swu|act|pool|weights>   module recipe (default mvau)
//!   --target <N>         module size in slices (default 60)
//!   --name <s>           module name (default the role label)
//!   --cf <x>             constant CF; omit for minimal-CF search
//!   --timeout <secs>     reply deadline (default 120); the connect
//!                        timeout is 5 s — a dead server never hangs you
//!
//! stitch options:
//!   --portfolio          use the multi-lane search portfolio instead of
//!                        the single-run annealer
//!   --lanes <N>          total portfolio lanes: N−1 SA + 1 EA (default 3)
//!   --threads <N>        worker threads; 0 = one per core (default 0).
//!                        Affects wall-clock only — results are identical
//!                        for every thread count
//!   --deadline-ms <N>    wall-clock budget, checked at round barriers
//!                        (default: none; the round budget bounds the run)
//!   --seed <N>           portfolio seed; lane seeds derive from it
//!
//! pack options:
//!   --design <name>      cnvw1a1 (default) or a zoo member
//!                        (bnn-wide | bnn-deep | bnn-fc | bnn-slim)
//!   --mode <naive|packed>  all-BRAM36 baseline or the least-cost
//!                        assignment, solved exactly (default packed)
//!   --device <name>      as above
//!   --seed <N>           design + regenerated-netlist seed (default 2024)
//!   --modules            also print the per-module assignment table
//!   exits 1 when the report says OVER BUDGET (no assignment fits)
//!
//! chaos options (an in-process server is bombarded under a seeded
//! fault plan, then the faults are lifted to demonstrate recovery):
//!   --seed <N>           fault-plan seed — same seed, same faults
//!   --requests <N>       requests to fire under faults (default 40)
//!   --place-rate <x>     flow.place fault probability   (default 0.25)
//!   --append-rate <x>    store.append fault probability (default 0)
//!   --fsync-rate <x>     store.fsync fault probability  (default 0.1)
//!   --read-rate <x>      serve.read fault probability   (default 0.05)
//!   --attempts <N>       server retry budget            (default 6)
//!   --store <dir>        run the drill against a persistent library
//!
//! loadgen options (plus --addr/--port as for `tms client`):
//!   --clients <N>        concurrent client connections  (default 4)
//!   --requests <N>       requests per client            (default 25)
//!   --seed <N>           request-mix seed               (default 2024)
//!   --rate <hz>          open-loop aggregate arrival rate; omit for
//!                        closed-loop (back-to-back) pacing
//!   --out <path>         also write the full JSON report
//!
//! slowlog options (plus --addr/--port as for `tms client`):
//!   --limit <N>          newest entries to fetch (default 16; 0 = all)
//!   --json               print the raw JSON report instead of the table
//!
//! verify options (`--dir` exits 2: use `tms store verify`):
//!   --all                audit every unique cnvW1A1 module
//!   --cf <x>             constant CF for fresh implementation; omit for
//!                        minimal-CF search
//!   --device/--seed      as above
//! ```

use std::collections::HashMap;
use tailored_macro_sizes::cnn::{cnvw1a1, ModuleRole};
use tailored_macro_sizes::device::{Device, DeviceName};
use tailored_macro_sizes::estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tailored_macro_sizes::flow::experiments::{self, common::Scale};
use tailored_macro_sizes::flow::{coverage_line, render_cost_trace, render_stitched};
use tailored_macro_sizes::obs::{read_trace, JsonlSink, Recorder};
use tailored_macro_sizes::route::{route_stitched_observed, RouterConfig};
use tailored_macro_sizes::serve::{
    serve, Client, ClientConfig, ClientError, ModuleSpec, ServeConfig,
};
use tailored_macro_sizes::MacroSizingFlow;

/// Flags that take no value, so the word after one stays positional
/// (`tms experiments --paper fig5` runs `fig5`).
const SWITCHES: [&str; 6] = ["all", "json", "modules", "paper", "portfolio", "render"];

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") && !SWITCHES.contains(&name) => {
                    it.next().unwrap().clone()
                }
                _ => String::from("true"),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

/// The `--device` part (default xc7z045); an unknown name exits 2.
fn device_of(flags: &HashMap<String, String>) -> Device {
    let Some(name) = flags.get("device") else {
        return Device::xc7z045();
    };
    match DeviceName::parse(name) {
        Some(part) => Device::from_name(part),
        None => {
            let parts: Vec<String> = DeviceName::PARTS.iter().map(|p| p.to_string()).collect();
            eprintln!(
                "unknown device '{name}' (expected one of: {})",
                parts.join(", ")
            );
            std::process::exit(2);
        }
    }
}

fn estimator_of(flags: &HashMap<String, String>) -> EstimatorKind {
    match flags.get("estimator").map(String::as_str) {
        Some("dt") => EstimatorKind::DecisionTree,
        Some("nn") => EstimatorKind::NeuralNetwork,
        Some("lin") => EstimatorKind::LinearRegression,
        _ => EstimatorKind::RandomForest,
    }
}

fn features_of(flags: &HashMap<String, String>) -> FeatureSet {
    match flags.get("features").map(String::as_str) {
        Some("classical") => FeatureSet::Classical,
        Some("classical+") => FeatureSet::ClassicalPlus,
        Some("all") => FeatureSet::All,
        _ => FeatureSet::Additional,
    }
}

fn num(flags: &HashMap<String, String>, key: &str, default: u64) -> u64 {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cmd_devices() {
    println!(
        "{:<10} | {:>8} | {:>9} | {:>6} | {:>6} | {:>8}",
        "device", "slices", "M-slices", "BRAM", "DSP", "columns"
    );
    for d in Device::zynq_family() {
        println!(
            "{:<10} | {:>8} | {:>9} | {:>6} | {:>6} | {:>8}",
            format!("{}", d.name()),
            d.slice_count(),
            d.m_slice_count(),
            d.bram_count(),
            d.dsp_count(),
            d.width()
        );
    }
}

fn cmd_train(flags: &HashMap<String, String>) {
    let device = device_of(flags);
    let flow = MacroSizingFlow::new(device)
        .with_estimator(estimator_of(flags))
        .with_feature_set(features_of(flags))
        .with_dataset_size(num(flags, "dataset", 600) as usize)
        .with_seed(num(flags, "seed", 2024));
    println!("labelling + training ...");
    let start = std::time::Instant::now();
    let trained = flow.train();
    println!(
        "trained a {:?}-feature estimator in {:.1}s",
        trained.feature_set(),
        start.elapsed().as_secs_f64()
    );
    // Quick self-check on the cnvW1A1 modules.
    let design = cnvw1a1(num(flags, "seed", 2024));
    for name in ["mvau_18", "weights_14", "swu_l3", "pool_1"] {
        if let Some(m) = design.find_module(name) {
            println!(
                "  predicted CF for {name}: {:.2}",
                trained.predict(&m.netlist)
            );
        }
    }
    if let Some(path) = flags.get("save") {
        match trained.estimator().save(std::path::Path::new(path)) {
            Ok(()) => println!(
                "model written to {path} (features: {})",
                trained.feature_set().label()
            ),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn cmd_compile(flags: &HashMap<String, String>) {
    let device = device_of(flags);
    let seed = num(flags, "seed", 2024);
    let mut flow = MacroSizingFlow::new(device.clone())
        .with_estimator(estimator_of(flags))
        .with_feature_set(features_of(flags))
        .with_dataset_size(num(flags, "dataset", 600) as usize)
        .with_seed(seed);
    let trace: Option<(std::sync::Arc<JsonlSink>, &String)> = match flags.get("trace") {
        Some(path) => match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                let sink = std::sync::Arc::new(sink);
                flow = flow.with_recorder(sink.clone());
                Some((sink, path))
            }
            Err(e) => {
                eprintln!("could not create trace file {path}: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    println!("training estimator ...");
    let trained = flow.train();
    let design = cnvw1a1(seed);
    println!(
        "compiling cnvW1A1 ({} blocks) on {} ...",
        design.instance_count(),
        device.name()
    );
    let result = flow.compile(&design, &trained);
    println!(
        "implemented {}/{} modules in {} tool runs ({:.0}% first-try)",
        result.implemented.len(),
        design.unique_count(),
        result.total_tool_runs,
        result.first_try_rate() * 100.0
    );
    println!(
        "{}",
        coverage_line(&device, &result.problem, &result.stitch)
    );
    println!(
        "SA cost {:.0} -> {:.0}   {}",
        result.stitch.initial_cost,
        result.stitch.final_cost,
        render_cost_trace(&result.stitch.cost_trace, 48)
    );
    let route_obs: &dyn Recorder = match &trace {
        Some((sink, _)) => sink.as_ref(),
        None => tailored_macro_sizes::obs::noop(),
    };
    let route = route_stitched_observed(
        &device,
        &result.problem,
        &result.stitch,
        &RouterConfig::default(),
        route_obs,
    );
    println!(
        "routing: {} connections, wirelength {}, fully routed: {}",
        route.routed_connections, route.total_wirelength, route.fully_routed
    );
    if flags.contains_key("render") {
        println!(
            "{}",
            render_stitched(&device, &result.problem, &result.stitch, 110, 45)
        );
    }
    if let Some((sink, path)) = trace {
        if let Err(e) = sink.flush() {
            eprintln!("could not flush trace {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry trace written to {path} (render: tms report --trace {path})");
    }
}

fn cmd_report(flags: &HashMap<String, String>) {
    let Some(path) = flags.get("trace") else {
        eprintln!("usage: tms report --trace <path>");
        std::process::exit(2);
    };
    match read_trace(std::path::Path::new(path)) {
        Ok(events) => print!("{}", tailored_macro_sizes::obs::report::render(&events)),
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_experiments(targets: &[String], flags: &HashMap<String, String>) {
    let scale = if flags.contains_key("paper") {
        Scale::paper()
    } else {
        Scale::quick()
    };
    let names: Vec<&str> = targets.iter().map(String::as_str).collect();
    let targets = experiments::select(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for t in targets {
        println!("{}", (t.run)(&scale, false));
    }
}

fn cmd_serve(flags: &HashMap<String, String>) {
    let features = features_of(flags);
    let estimator = if let Some(path) = flags.get("model") {
        match CfEstimator::load(std::path::Path::new(path)) {
            Ok(est) => {
                println!("loaded {} model from {path}", est.kind().label());
                est
            }
            Err(e) => {
                eprintln!("could not load {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let flow = MacroSizingFlow::new(device_of(flags))
            .with_estimator(estimator_of(flags))
            .with_feature_set(features)
            .with_dataset_size(num(flags, "dataset", 600) as usize)
            .with_seed(num(flags, "seed", 2024));
        println!("no --model given: labelling + training ...");
        let (est, _) = flow.train().into_parts();
        est
    };
    let store_dir = flags.get("store").cloned();
    let mut config = ServeConfig {
        addr: format!("127.0.0.1:{}", num(flags, "port", 7245)),
        workers: num(flags, "workers", 8) as usize,
        cache_capacity: num(flags, "cache", 4096) as usize,
        store: store_dir
            .as_ref()
            .map(|dir| tailored_macro_sizes::store::StoreConfig::at(dir.as_str())),
        ..ServeConfig::default()
    };
    if let Some(secs) = flags.get("scrub-secs").and_then(|v| v.parse::<u64>().ok()) {
        config = config.with_scrub(
            std::time::Duration::from_secs(secs.max(1)),
            num(flags, "scrub-bps", 8 * 1024 * 1024),
        );
    }
    let workers = config.workers;
    match serve(config, estimator, features) {
        Ok(handle) => {
            println!(
                "tms-serve listening on {} ({workers} workers, features: {})",
                handle.addr(),
                features.label()
            );
            if let Some(dir) = &store_dir {
                println!("persistent macro library: {dir} (checkpointed on graceful shutdown)");
            }
            println!(
                "endpoints: estimate | preimpl | flow | stats | metrics | slowlog | shutdown  \
                 (JSON lines; see `tms client`) — plain HTTP `GET /metrics` works too"
            );
            handle.serve_forever();
            println!("tms-serve stopped");
        }
        Err(e) => {
            eprintln!("could not start server: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_store(args: &[String], flags: &HashMap<String, String>) {
    use tailored_macro_sizes::flow::{MacroStore, ModuleFingerprint, SealedModule, StoreAuditor};
    use tailored_macro_sizes::store::{verify, Store, StoreConfig, WAL_FILE};

    let sub = args.first().map(String::as_str);
    let (Some(sub @ ("inspect" | "compact" | "verify" | "scrub")), Some(dir)) =
        (sub, flags.get("dir"))
    else {
        eprintln!("usage: tms store <inspect|compact|verify|scrub> --dir <path> [--bps <N>]");
        std::process::exit(2);
    };
    // Every subcommand works on an existing library: a mistyped path must
    // neither read as an empty library nor be created as one.
    let wal = std::path::Path::new(dir).join(WAL_FILE);
    if !wal.is_file() {
        eprintln!(
            "no macro library at {dir}: {} does not exist",
            wal.display()
        );
        std::process::exit(1);
    }
    let mut auditor = StoreAuditor::new();
    if sub == "verify" {
        // One read of the log; nothing is truncated, cut out or
        // quarantined, so a torn tail reads RECOVERABLE every time.
        let audited = verify(
            dir.as_ref(),
            |key: &ModuleFingerprint, sealed: &SealedModule| match auditor.audit(key, sealed) {
                Ok(()) => true,
                Err(reason) => {
                    println!("  CORRUPT  {:<20} {reason}", sealed.module.name);
                    false
                }
            },
        );
        match audited {
            Ok(report) => {
                println!("{report}");
                if !report.clean() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("could not verify store at {dir}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Opening replays the log (truncating any torn tail and quarantining
    // damaged records), so the numbers reflect what a server would
    // actually load.
    let opened: std::io::Result<MacroStore> = Store::open(StoreConfig::at(dir));
    let store = match opened {
        Ok(store) => store,
        Err(e) => {
            eprintln!("could not open store at {dir}: {e}");
            std::process::exit(1);
        }
    };
    match sub {
        "inspect" => println!("{}", to_pretty(&store.stats())),
        "compact" => match store.compact() {
            Ok(report) => println!("{}", to_pretty(&report)),
            Err(e) => {
                eprintln!("could not compact store at {dir}: {e}");
                std::process::exit(1);
            }
        },
        _ => {
            // One scrub pass: audit every record under the byte/s budget
            // and quarantine violators into `quarantine/`; they are
            // recomputed on the next request that needs them. Exits 1 if
            // anything was quarantined so scripted health checks can
            // alarm.
            let bps = num(flags, "bps", 0);
            println!(
                "scrubbing {} records in {dir} ({}) ...",
                store.len(),
                if bps == 0 {
                    "unthrottled".to_string()
                } else {
                    format!("{bps} byte/s budget")
                }
            );
            match store.scrub_with(bps, |key, sealed| auditor.audit(key, sealed).is_ok()) {
                Ok(report) => {
                    println!("{}", to_pretty(&report));
                    if report.quarantined > 0 {
                        println!(
                            "{} record(s) quarantined into {} — they will be recomputed on demand",
                            report.quarantined,
                            store.quarantine_path().display()
                        );
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("scrub failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Independent end-to-end integrity audit of the flow's own output: the
/// named cnvW1A1 module (or all of them under `--all`) is implemented
/// fresh, its placement legality re-derived from first principles by the
/// dependency-light `tms-verify` auditor, proving the toolchain produces
/// artifacts that pass its own verifier. A persistent macro library is
/// audited by `tms store verify`; `--dir` is refused here, so a script
/// meant for the library cannot silently audit fresh modules instead.
fn cmd_verify(args: &[String], flags: &HashMap<String, String>) {
    use tailored_macro_sizes::flow::{
        audit_module, implement_module, module_digest, CfPolicy, RwFlowConfig,
    };
    use tailored_macro_sizes::verify::Auditor;

    if let Some(dir) = flags.get("dir") {
        eprintln!(
            "tms verify audits freshly implemented modules and takes no --dir; \
             audit the library with `tms store verify --dir {dir}`"
        );
        std::process::exit(2);
    }
    let all = flags.contains_key("all");
    let wanted = args.first().cloned();
    if !all && wanted.is_none() {
        eprintln!("usage: tms verify <module|--all> [options]");
        std::process::exit(2);
    }

    let device = device_of(flags);
    let seed = num(flags, "seed", 2024);
    let design = cnvw1a1(seed);
    let mut cfg = RwFlowConfig::rapidwright_default(seed);
    // Minimal-CF search is the policy the cached flows implement under, so
    // it is what fresh verification should reproduce; a constant CF is
    // opt-in and may legitimately fail to route.
    cfg.policy = match flags.get("cf").and_then(|v| v.parse::<f64>().ok()) {
        Some(cf) => CfPolicy::Constant(cf),
        None => CfPolicy::Minimal(tailored_macro_sizes::pblock::CfSearch::wide()),
    };
    println!(
        "implementing + auditing cnvW1A1 modules on {} (seed {seed}) ...",
        device.name()
    );
    let auditor = Auditor::new(&device);
    let (mut checked, mut violations) = (0u64, 0u64);
    for m in &design.modules {
        if let Some(name) = &wanted {
            if &m.name != name {
                continue;
            }
        }
        checked += 1;
        match implement_module(&m.name, &m.netlist, &device, &cfg) {
            Ok(module) => {
                let found = audit_module(&auditor, &module);
                if found.is_empty() {
                    println!(
                        "  ok       {:<20} cf {:>5.2}  digest {:#018x}",
                        module.name,
                        module.cf,
                        module_digest(&module)
                    );
                } else {
                    violations += 1;
                    println!(
                        "  ILLEGAL  {:<20} {} violations; first: {}",
                        module.name,
                        found.len(),
                        found[0]
                    );
                }
            }
            Err(e) => {
                violations += 1;
                println!("  FAILED   {:<20} {e}", m.name);
            }
        }
    }
    if checked == 0 {
        eprintln!(
            "no module named '{}' in cnvW1A1",
            wanted.unwrap_or_default()
        );
        std::process::exit(2);
    }
    println!("verified {checked} artifacts: {violations} violations");
    if violations > 0 {
        std::process::exit(1);
    }
}

fn cmd_client(args: &[String], flags: &HashMap<String, String>) {
    let default_addr = format!("127.0.0.1:{}", num(flags, "port", 7245));
    let addr = flags.get("addr").unwrap_or(&default_addr);
    let client_config = ClientConfig {
        read_timeout: Some(std::time::Duration::from_secs(num(flags, "timeout", 120))),
        ..ClientConfig::default()
    };
    let mut client = match Client::connect_with(addr.as_str(), client_config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let role = match ModuleRole::from_label(flags.get("role").map_or("mvau", String::as_str)) {
        Some(r) => r,
        None => {
            eprintln!("unknown role (expected mvau|swu|act|pool|weights)");
            std::process::exit(2);
        }
    };
    let spec = ModuleSpec {
        role,
        target_slices: num(flags, "target", 60) as u32,
        name: flags
            .get("name")
            .cloned()
            .unwrap_or_else(|| role.label().to_string()),
        seed: num(flags, "seed", 2024),
    };
    let device = device_of(flags).name().to_string();
    let cf = flags.get("cf").and_then(|v| v.parse::<f64>().ok());
    let printed = match args.first().map(String::as_str) {
        Some("estimate") => client.estimate_spec(&spec).map(|r| to_pretty(&r)),
        Some("preimpl") => client.preimpl(&spec, &device, cf).map(|r| to_pretty(&r)),
        Some("flow") => client
            .flow(num(flags, "seed", 2024), &device, cf)
            .map(|r| to_pretty(&r)),
        Some("stats") => client.stats().map(|r| to_pretty(&r)),
        Some("metrics") => client.metrics_text(),
        Some("slowlog") => client
            .slowlog(num(flags, "limit", 0))
            .map(|r| to_pretty(&r)),
        Some("shutdown") => client.shutdown().map(|r| to_pretty(&r)),
        _ => {
            eprintln!(
                "usage: tms client <estimate|preimpl|flow|stats|metrics|slowlog|shutdown> \
                 [options]"
            );
            std::process::exit(2);
        }
    };
    match printed {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("request failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A fault-injection drill against an in-process server: arm a seeded
/// [`FaultPlan`](tailored_macro_sizes::fault::FaultPlan), fire a burst of
/// requests (tolerating injected failures), print the plan's accounting
/// and the server's robustness counters, then lift every fault and show
/// the service recovering. The same seed reproduces the same faults.
fn cmd_chaos(flags: &HashMap<String, String>) {
    use std::sync::Arc;
    use tailored_macro_sizes::fault::{FaultPlan, FaultPoint, Retry};

    let rate = |key: &str, default: f64| -> f64 {
        flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
            .clamp(0.0, 1.0)
    };
    let seed = num(flags, "seed", 2024);
    let requests = num(flags, "requests", 40);
    let features = features_of(flags);
    let device = device_of(flags);
    let device_name = device.name().to_string();

    println!("training a quick estimator for the chaos run ...");
    let flow = MacroSizingFlow::new(device.clone())
        .with_estimator(estimator_of(flags))
        .with_feature_set(features)
        .with_dataset_size(num(flags, "dataset", 150) as usize)
        .with_seed(seed);
    let (estimator, _) = flow.train().into_parts();

    let plan = Arc::new(FaultPlan::seeded(seed));
    plan.set_rate(FaultPoint::FlowPlace, rate("place-rate", 0.25));
    plan.set_rate(FaultPoint::StoreAppend, rate("append-rate", 0.0));
    plan.set_rate(FaultPoint::StoreFsync, rate("fsync-rate", 0.1));
    plan.set_rate(FaultPoint::ServeRead, rate("read-rate", 0.05));

    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: num(flags, "workers", 4) as usize,
        retry: Retry::attempts(num(flags, "attempts", 6) as u32),
        ..ServeConfig::default()
    };
    if let Some(dir) = flags.get("store") {
        config = config.with_store_dir(dir.as_str());
    }
    let config = config.with_fault(Arc::clone(&plan));
    let handle = match serve(config, estimator, features) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("could not start the chaos target: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!("chaos target listening on {addr} (fault seed {seed})");

    let roles = [
        ModuleRole::Mvau,
        ModuleRole::Activation,
        ModuleRole::SlidingWindow,
        ModuleRole::MaxPool,
    ];
    let spec_for = |i: u64| {
        let role = roles[(i as usize) % roles.len()];
        ModuleSpec {
            role,
            target_slices: 24 + ((i % 5) as u32) * 8,
            name: format!("chaos_{}_{}", role.label(), i % 7),
            seed,
        }
    };

    let (mut ok, mut server_errors, mut dropped) = (0u64, 0u64, 0u64);
    let mut client = Client::connect(addr).ok();
    for i in 0..requests {
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let Some(c) = client.as_mut() else {
            dropped += 1;
            continue;
        };
        match c.preimpl(&spec_for(i), &device_name, None) {
            Ok(_) => ok += 1,
            Err(ClientError::Remote(_)) => server_errors += 1,
            Err(_) => {
                // The connection died (e.g. an injected serve.read
                // fault): reconnect on the next round.
                dropped += 1;
                client = None;
            }
        }
    }
    println!(
        "under faults: {ok} ok, {server_errors} structured errors, {dropped} dropped \
         connections (of {requests} requests — the server never crashed)"
    );
    println!("fault-plan accounting (point / consults / injected):");
    for (point, hits, injected) in plan.report() {
        if hits > 0 {
            println!("  {:<13} {hits:>8} {injected:>8}", point.label());
        }
    }

    // Lift every fault: the same server must serve cleanly again.
    plan.clear();
    let mut recovered = 0u64;
    for i in 0..8 {
        let healthy = Client::connect(addr)
            .ok()
            .and_then(|mut c| c.preimpl(&spec_for(i), &device_name, None).ok());
        if healthy.is_some() {
            recovered += 1;
        }
    }
    println!("after clearing faults: {recovered}/8 requests succeeded");
    match Client::connect(addr) {
        Ok(mut c) => {
            match c.stats() {
                Ok(stats) => {
                    println!("robustness report:\n{}", to_pretty(&stats.robustness));
                    println!("per-endpoint latency quantiles (interpolated, microseconds):");
                    println!(
                        "  {:<9} {:>8} {:>6} {:>10} {:>10} {:>10}",
                        "endpoint", "requests", "errors", "p50", "p99", "p999"
                    );
                    let endpoints = [
                        ("estimate", &stats.estimate),
                        ("preimpl", &stats.preimpl),
                        ("flow", &stats.flow),
                        ("stats", &stats.stats),
                    ];
                    for (name, snap) in endpoints {
                        if snap.requests == 0 {
                            continue;
                        }
                        println!(
                            "  {:<9} {:>8} {:>6} {:>10} {:>10} {:>10}",
                            name,
                            snap.requests,
                            snap.errors,
                            snap.p50_us,
                            snap.p99_us,
                            snap.p999_us
                        );
                    }
                }
                Err(e) => eprintln!("stats failed: {e}"),
            }
            // The tail sampler must have caught the drill's casualties:
            // every errored/degraded request keeps its full span tree.
            match c.slowlog(0) {
                Ok(log) => {
                    let mut by_outcome: std::collections::BTreeMap<&str, u64> =
                        std::collections::BTreeMap::new();
                    for entry in &log.entries {
                        *by_outcome.entry(entry.outcome.label()).or_default() += 1;
                    }
                    println!(
                        "slowlog captures: {} retained of {} considered ({} evicted by the \
                         ring bound):",
                        log.retained, log.considered, log.evicted
                    );
                    for (outcome, count) in &by_outcome {
                        println!("  {count:>4} x {outcome}");
                    }
                    for entry in log.entries.iter().take(5) {
                        println!(
                            "  trace {:>4}  {:<9} {:>8}us  {:<9} {} spans",
                            entry.trace_id,
                            entry.endpoint,
                            entry.latency_us,
                            entry.outcome.label(),
                            entry.span_count()
                        );
                    }
                }
                Err(e) => eprintln!("slowlog failed: {e}"),
            }
        }
        Err(e) => eprintln!("reconnect failed: {e}"),
    }
    handle.stop();
    println!("chaos run complete");
}

/// Drive a *running* server with the deterministic loadgen mix and print
/// the per-endpoint latency quantiles. The mix's outcome counts are
/// pinned by the serve crate's `loadgen_outcome_counts_are_exact` test.
/// Closed-loop by default; `--rate <hz>` switches to open-loop pacing
/// where latency includes queueing delay.
fn cmd_loadgen(flags: &HashMap<String, String>) {
    use tailored_macro_sizes::serve::loadgen::{run_loadgen, LoadMode, LoadgenConfig};
    let default_addr = format!("127.0.0.1:{}", num(flags, "port", 7245));
    let addr_str = flags.get("addr").unwrap_or(&default_addr);
    let addr: std::net::SocketAddr = match addr_str.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad --addr '{addr_str}': {e}");
            std::process::exit(2);
        }
    };
    let mut config = LoadgenConfig::closed(
        addr,
        num(flags, "clients", 4) as usize,
        num(flags, "requests", 25) as usize,
        num(flags, "seed", 2024),
    );
    if let Some(rate) = flags.get("rate").and_then(|v| v.parse::<f64>().ok()) {
        config.mode = LoadMode::Open { rate_hz: rate };
    }
    println!(
        "loadgen: {} mode, {} clients x {} requests against {addr} (seed {})",
        config.mode.label(),
        config.clients,
        config.requests_per_client,
        config.seed
    );
    let report = match run_loadgen(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} requests, {} errors in {:.0}ms | server: {} shed, {} deadline-expired, slowlog \
         retained {}/{}",
        report.requests_total,
        report.errors_total,
        report.wall_ms,
        report.server.shed,
        report.server.deadline_expired,
        report.server.slowlog_retained,
        report.server.slowlog_considered,
    );
    println!(
        "  {:<9} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "endpoint", "requests", "errors", "p50us", "p99us", "p999us", "meanus"
    );
    for e in &report.endpoints {
        println!(
            "  {:<9} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10}",
            e.endpoint, e.requests, e.errors, e.p50_us, e.p99_us, e.p999_us, e.mean_us
        );
    }
    if let Some(path) = flags.get("out") {
        match std::fs::write(path, format!("{}\n", to_pretty(&report))) {
            Ok(()) => println!("report written to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Fetch and summarise a running server's tail-sampled slowlog: retention
/// counters, a per-outcome breakdown, and one line per retained trace
/// (newest first) with its over-budget phases.
fn cmd_slowlog(flags: &HashMap<String, String>) {
    let default_addr = format!("127.0.0.1:{}", num(flags, "port", 7245));
    let addr = flags.get("addr").unwrap_or(&default_addr);
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let log = match client.slowlog(num(flags, "limit", 16)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("slowlog request failed: {e}");
            std::process::exit(1);
        }
    };
    if flags.contains_key("json") {
        println!("{}", to_pretty(&log));
        return;
    }
    println!(
        "slowlog: {} retained of {} considered, {} evicted (ring capacity {}, slow \
         threshold {}us)",
        log.retained, log.considered, log.evicted, log.capacity, log.threshold_us
    );
    if log.entries.is_empty() {
        println!("no retained traces — nothing has been slow or unhealthy");
        return;
    }
    println!(
        "  {:<6} {:<9} {:>10} {:<9} {:>6}  over-budget phases",
        "trace", "endpoint", "latency_us", "outcome", "spans"
    );
    for entry in &log.entries {
        let phases = if entry.over_budget_phases.is_empty() {
            "-".to_string()
        } else {
            entry
                .over_budget_phases
                .iter()
                .map(|p| p.label())
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "  {:<6} {:<9} {:>10} {:<9} {:>6}  {phases}",
            entry.trace_id,
            entry.endpoint,
            entry.latency_us,
            entry.outcome.label(),
            entry.span_count()
        );
    }
}

fn cmd_pack(flags: &HashMap<String, String>) {
    use tailored_macro_sizes::cnn::{zoo_design, zoo_names};
    use tailored_macro_sizes::obs::noop;
    use tailored_macro_sizes::pack::{pack_design, MemPackConfig, MemPackPolicy};

    let device = device_of(flags);
    let seed = num(flags, "seed", 2024);
    let design_name = flags.get("design").map_or("cnvw1a1", String::as_str);
    let design = if design_name == "cnvw1a1" {
        cnvw1a1(seed)
    } else {
        match zoo_design(design_name, seed) {
            Some(d) => d,
            None => {
                eprintln!(
                    "unknown design '{design_name}' (expected cnvw1a1 or one of: {})",
                    zoo_names().join(", ")
                );
                std::process::exit(2);
            }
        }
    };
    let policy = match flags.get("mode").map(String::as_str) {
        Some("naive") => MemPackPolicy::Naive,
        Some("packed") | None => MemPackPolicy::Packed,
        Some(other) => {
            eprintln!("unknown mode '{other}' (expected naive|packed)");
            std::process::exit(2);
        }
    };
    let cfg = MemPackConfig::new(policy, seed);
    println!(
        "packing {design_name} (seed {seed}) for {}: {} policy ...",
        device.name(),
        policy.label()
    );
    let Some((_, report)) = pack_design(&design, &device, &cfg, noop()) else {
        println!("nothing to pack: the design carries no weight memories");
        return;
    };
    println!(
        "BRAM36 demand {} -> {} of {} budgeted ({} saved), {}",
        report.naive_bram36,
        report.bram36_total,
        report.budget_bram36,
        report.bram36_saved,
        if report.feasible {
            "fits the device"
        } else {
            "OVER BUDGET"
        },
    );
    println!(
        "banks: {} on BRAM36, {} on BRAM18 halves, {} in LUTRAM ({} LUTs); model cost {:.1}",
        report.banks_bram36,
        report.banks_bram18,
        report.banks_lutram,
        report.lutram_luts,
        report.cost
    );
    if flags.contains_key("modules") {
        println!(
            "  {:<14} {:>4}  {:>6} {:>6} {:>6}  {:>7} {:>7}",
            "module", "inst", "b36", "b18h", "lutram", "sites36", "luts"
        );
        for m in &report.modules {
            println!(
                "  {:<14} {:>4}  {:>6} {:>6} {:>6}  {:>7} {:>7}",
                m.name,
                m.instances,
                m.split.full36,
                m.split.halves,
                m.split.lutram,
                m.sites36,
                m.lutram_luts
            );
        }
    }
    if !report.feasible {
        std::process::exit(1);
    }
}

/// The cnvW1A1 stitch problem: every module pre-implemented at the
/// constant CF 1.72, so all 175 instances are present and the problem is a
/// pure function of the seed.
fn stitch_problem(device: &Device, seed: u64) -> tailored_macro_sizes::stitch::StitchProblem {
    use tailored_macro_sizes::flow::{run_rw_flow, CfPolicy, MemPackConfig, RwFlowConfig};
    use tailored_macro_sizes::place::PlacementModel;
    use tailored_macro_sizes::stitch::StitchConfig;
    let cfg = RwFlowConfig {
        policy: CfPolicy::Constant(1.72),
        use_shape_report: true,
        model: PlacementModel::deterministic(),
        // The flow's own stitch is discarded; the fast schedule keeps
        // building the problem cheap.
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack: MemPackConfig::off(),
        seed,
        obs: tailored_macro_sizes::obs::noop(),
    };
    run_rw_flow(&cnvw1a1(seed), device, &cfg).problem
}

/// Stitch the cnvW1A1 macro set ([`stitch_problem`]): either with the
/// seed-era single-run annealer, or — under `--portfolio` — with the
/// multi-lane search portfolio, starting from
/// [`canonical_portfolio`](tailored_macro_sizes::stitch::canonical_portfolio).
fn cmd_stitch(flags: &HashMap<String, String>) {
    use tailored_macro_sizes::stitch::{
        canonical_portfolio, stitch, stitch_portfolio, StitchConfig,
    };

    let device = device_of(flags);
    let seed = num(flags, "seed", 2024);
    println!(
        "building the cnvW1A1 stitch problem on {} (seed {seed}) ...",
        device.name()
    );
    let problem = stitch_problem(&device, seed);
    println!(
        "{} instances, {} nets",
        problem.instances.len(),
        problem.nets.len()
    );

    if flags.contains_key("portfolio") {
        // Start from the canonical tuned parameters, then apply the
        // lane/thread/deadline overrides.
        let mut cfg = canonical_portfolio(seed);
        let lanes = num(flags, "lanes", 3).max(1) as usize;
        cfg.sa_lanes = lanes.saturating_sub(1).max(1);
        cfg.ea_lanes = usize::from(lanes >= 2);
        cfg.threads = num(flags, "threads", 0) as usize;
        if let Some(ms) = flags.get("deadline-ms").and_then(|v| v.parse().ok()) {
            cfg = cfg.with_deadline_ms(ms);
        }
        let started = std::time::Instant::now();
        let (result, report) = stitch_portfolio(&device, &problem, &cfg);
        let wall = started.elapsed().as_secs_f64() * 1e3;
        println!(
            "portfolio: {} SA + {} EA lanes, {} rounds run ({}), {} moves in {wall:.1}ms",
            cfg.sa_lanes,
            cfg.ea_lanes,
            report.rounds_run,
            if report.stalled_out {
                "stall stop"
            } else if report.deadline_hit {
                "deadline"
            } else {
                "full budget"
            },
            result.total_moves,
        );
        for lane in &report.lanes {
            println!(
                "  lane {:<3} seed {:>20}  best {:>10.0}  wins {:>2}  restarts {}",
                lane.kind.label(),
                lane.seed,
                lane.best_score.cost,
                lane.wins,
                lane.restarts
            );
        }
        println!(
            "cost {:.0} -> {:.0}, placed {}/{}",
            result.initial_cost,
            result.final_cost,
            result.placed_count,
            result.placed_count + result.unplaced_count
        );
    } else {
        let cfg = StitchConfig::standard(seed);
        let started = std::time::Instant::now();
        let result = stitch(&device, &problem, &cfg);
        let wall = started.elapsed().as_secs_f64() * 1e3;
        println!("single-run SA: {} moves in {wall:.1}ms", result.total_moves);
        println!(
            "cost {:.0} -> {:.0}, placed {}/{}   {}",
            result.initial_cost,
            result.final_cost,
            result.placed_count,
            result.placed_count + result.unplaced_count,
            render_cost_trace(&result.cost_trace, 48)
        );
    }
}

fn to_pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("unprintable reply: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flags) = parse_flags(&args);
    match positional.first().map(String::as_str) {
        Some("devices") => cmd_devices(),
        Some("train") => cmd_train(&flags),
        Some("compile") => cmd_compile(&flags),
        Some("experiments") => cmd_experiments(&positional[1..], &flags),
        Some("serve") => cmd_serve(&flags),
        Some("client") => cmd_client(&positional[1..], &flags),
        Some("store") => cmd_store(&positional[1..], &flags),
        Some("report") => cmd_report(&flags),
        Some("stitch") => cmd_stitch(&flags),
        Some("pack") => cmd_pack(&flags),
        Some("chaos") => cmd_chaos(&flags),
        Some("loadgen") => cmd_loadgen(&flags),
        Some("slowlog") => cmd_slowlog(&flags),
        Some("verify") => cmd_verify(&positional[1..], &flags),
        _ => {
            eprintln!(
                "usage: tms <devices|train|compile|experiments|serve|client|store|report|stitch\
                 |pack|chaos|loadgen|slowlog|verify> [options]"
            );
            eprintln!("see the module docs in src/bin/tms.rs for the option list");
            std::process::exit(2);
        }
    }
}
