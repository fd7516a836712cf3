//! Analytical performance model of the Poseidon accelerator.
//!
//! The paper evaluates an RTL design on a real Alveo U280; this crate
//! substitutes a deterministic analytical model with the same observable
//! quantities (see DESIGN.md for the substitution argument):
//!
//! * [`config`] — the machine description: 512 vector lanes, 300 MHz, NTT
//!   fusion degree k, 8.6 MB scratchpad, 32-channel HBM2 at 460 GB/s, and
//!   the automorphism core flavour (naive Auto vs HFAuto).
//! * [`timing`] — per-operation compute-cycle and HBM-traffic model; an
//!   operation's wall time is `max(compute, traffic/bandwidth)`, which is
//!   what makes simple streaming ops bandwidth-bound and NTT-heavy ops
//!   compute-bound (paper Table VII's observation).
//! * [`energy`] — per-element operator energies plus per-byte HBM energy;
//!   EDP for Table X / Fig. 11/12.
//! * [`resources`] — FPGA resource cost model (FF/LUT/DSP/BRAM) per core,
//!   scaling with lanes and fusion degree (Fig. 10, Tables VIII/XI/XII).
//! * [`workloads`] — operation-trace generators for the paper's four
//!   benchmarks (LR, LSTM, ResNet-20, packed bootstrapping).
//! * [`published`] — the paper's published comparison numbers (CPU, GPU,
//!   HEAX, F1+, CraterLake, BTS, ARK), clearly labelled as published data.
//! * [`report`] — executes a trace against the model and produces the
//!   tables/figures quantities (time, breakdowns, utilisation, energy).

#![forbid(unsafe_code)]

pub mod config;
pub mod energy;
pub mod program;
pub mod published;
pub mod report;
pub mod resources;
pub mod schedule;
pub mod sweeps;
pub mod timing;
pub mod workloads;

pub use config::{AcceleratorConfig, AutoMode};
pub use report::{Report, Simulator};
pub use workloads::Benchmark;
