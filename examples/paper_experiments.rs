//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release --example paper_experiments -- all quick
//! cargo run --release --example paper_experiments -- table2 paper
//! cargo run --release --example paper_experiments -- fig5 fig13 paper json
//! ```
//!
//! Targets: `table1 fig3 fig4 fig5 fig7 fig8 table2 fig9 fig10 fig11 fig12
//! fig13 resolution ablations all` (the table in
//! `tms_flow::experiments::TARGETS`); scale: `quick` (default) or `paper`;
//! add `json` to emit machine-readable results instead of the text tables.
//! An unknown target exits 2 before anything runs.

use tailored_macro_sizes::flow::experiments::{common::Scale, select};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "paper") {
        Scale::paper()
    } else {
        Scale::quick()
    };
    let as_json = args.iter().any(|a| a == "json");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !matches!(*a, "paper" | "quick" | "json"))
        .collect();
    let targets = select(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    if !as_json {
        println!(
            "# scale: {} ({} dataset modules, {} SA moves)\n",
            if scale.full_models { "paper" } else { "quick" },
            scale.dataset_modules,
            scale.sa_moves
        );
    }
    for t in targets {
        let start = std::time::Instant::now();
        println!("{}", (t.run)(&scale, as_json));
        if !as_json {
            println!("[{} took {:.1}s]\n", t.name, start.elapsed().as_secs_f64());
        }
    }
}
