//! # tms-bench — Criterion microbenchmarks
//!
//! The bench targets time the substrate hot paths (`primitives`: packing,
//! detailed placement, PBlock generation, CF search, SA stitching, forest
//! training), the telemetry recorders against their 2 % overhead budget
//! (`obs`), the persistent store (`store`) and fault injection (`fault`):
//! `cargo bench -p tms-bench --bench primitives`.
//!
//! End-to-end timing of the compile, recompile and serve workloads lives
//! in the repository benchmark, `perfbench/`. The paper's tables and
//! figures are regenerated, with their wall-clock, by
//! `cargo run --release --example paper_experiments -- all paper`.
