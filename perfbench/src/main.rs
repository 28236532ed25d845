//! The repository benchmark: three workloads over the public flow and
//! service APIs, one per run.
//!
//! ```text
//! perfbench --workload <compile|recompile|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a fixed op sequence drawn from the seed and sized so
//! its timed window lasts about `--seconds` on a 2-core host. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! runs every op a second time through a rebuilt pipeline with in-memory
//! spans, checks the two agree bit for bit, and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod common;
mod compile;
mod layers;
mod pipeline;
mod recompile;
mod serve;
mod trace;

use common::{Metrics, OpRecord};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Span;

/// Scratch directory, relative to the directory the benchmark runs in:
/// span files and the serve workload's store live here.
pub const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let args = Args {
        workload: get("--workload")?,
        seed: num(get("--seed")?, "--seed")?,
        seconds: num(get("--seconds")?, "--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    Ok(args)
}

/// What a run reports: op counts, every problem found, and its metrics.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// Count the timed ops and record why each failing one failed.
    pub fn book(&mut self, ops: &[OpRecord]) {
        self.attempted += ops.len() as u64;
        for (i, op) in ops.iter().enumerate() {
            if let Some(why) = &op.failure {
                self.failed += 1;
                self.problems.push(format!("op {i} ({}): {why}", op.class));
            }
        }
    }

    /// Book every pass of an untraced run, run the exact-repeat check, and
    /// compute the end-to-end metrics.
    pub fn finish(&mut self, passes: &[common::Pass]) {
        for pass in passes {
            self.book(&pass.ops);
        }
        if let Err(e) = common::check_repeat(passes) {
            self.problems.push(e);
        }
        self.metrics = common::end_to_end(passes);
    }

    /// Write the traced run's spans next to the other run outputs.
    pub fn write_trace(&mut self, args: &Args, spans: &[Span]) {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &args.workload, spans) {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => self
                .problems
                .push(format!("could not write {}: {e}", path.display())),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile|recompile|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut result = match args.workload.as_str() {
        "compile" => compile::run(&args),
        "recompile" => recompile::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for (name, value, _) in &result.metrics.0 {
        if !value.is_finite() {
            result.problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &result.problems {
        println!("FAIL {p}");
    }
    let mut json = String::new();
    for (name, value, unit) in &result.metrics.0 {
        println!("{name:<26} {value:>14.4} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = result.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        result.attempted.max(1),
        result.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
