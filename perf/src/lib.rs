//! The one benchmark of the Poseidon stack.
//!
//! Six workloads, end-to-end metrics with regression bounds, and a
//! per-layer time budget, all measured from outside the program: every
//! layer is timed by calling its public functions from here. See
//! `perf/README.md` for what each name means and why it is there.

pub mod adapter;
pub mod catalog;
pub mod cli;
pub mod harness;
pub mod json;
pub mod loadgen;
pub mod probes;
pub mod procfs;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workloads;
