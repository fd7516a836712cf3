//! Benchmark-harness library: table/figure regenerators and timing helpers
//! shared by the `tables` binary and the Criterion benches.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cpu_baseline;
pub mod planner;
pub mod planner2;
pub mod serve_scale;
pub mod tables;

/// Repo-root path for a benchmark export (`BENCH_*.json`).
///
/// Benches and the `tables` binary can be launched from the workspace
/// root, from `crates/bench`, or from wherever CI happens to `cd` —
/// resolving against `CARGO_MANIFEST_DIR` (baked in at compile time)
/// instead of the current working directory pins every export to one
/// canonical location: the repository root.
pub fn export_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}
