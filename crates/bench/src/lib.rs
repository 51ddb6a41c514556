//! # prodsys-bench — experiment runners
//!
//! One module per experiment of DESIGN.md's index (E1–E10). Each runner
//! returns plain row structs; the `harness` binary prints them as the
//! paper-reproduction tables recorded in EXPERIMENTS.md, and the Criterion
//! benches reuse the same code for timing.

pub mod bench_json;
pub mod experiments;
pub mod obs_run;
pub mod profile;
pub mod recorder;

pub use bench_json::{
    bench_scaled_snapshot, bench_snapshot, bench_workers_snapshot, paged_smoke, scaled_fired,
    BenchRow, Snapshot, BENCH_SCHEMA, SCALED_MAX_ITEMS, SCALED_PAGED_POOL, SCALED_WORKER_SWEEP,
};
pub use experiments::*;
pub use obs_run::{explain_run, observability_run, ExplainRun, ObsRun};
pub use profile::{
    attribution_table, bench_check, check, folded_stacks, parse_history_last,
    parse_history_workloads,
};
pub use recorder::{
    parse_engine, record_run, record_run_with, replay_run, why_not_run, why_run, RecordOutcome,
    ReplayOutcome,
};

/// Format a sequence of (column, value) rows as an aligned table.
pub fn print_rows(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    print!("{}", workload::tables::format_table(header, rows));
}
