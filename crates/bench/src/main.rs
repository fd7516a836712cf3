//! `tables` — regenerates every table and figure of the Poseidon HPCA'23
//! evaluation section from the model and the functional library.
//!
//! Usage: `tables [all|table1|...|table12|fig7|...|fig12|metrics|hoisting|faults|chaos|serve|serve_scale|plan|plan2]`
//!
//! `tables chaos` (build with `--features faults`) runs the seeded
//! network/worker chaos campaign through the resilient TCP client and
//! proves every injected failure resolves bit-identically or as a typed
//! error; without the feature it prints the unfaulted serve digest CI
//! diffs against the instrumented build.
//!
//! `tables plan` (build with `--features telemetry`) compiles every
//! shipped `.pos` program through the graph-level evaluation planner and
//! prints unplanned-vs-planned forward-NTT counts, hoist batch sizes,
//! rescale placement and wall time, exporting `BENCH_planner.json`.
//!
//! `tables plan2` (build with `--features telemetry`) submits every
//! shipped `.pos` program to the serving stack twice — once as a whole
//! planned program (`Request::Program`, opcode 12) and once as the
//! naive op-by-op dispatch a planless client would issue — and compares
//! forward-NTT counts and wall time, exporting `BENCH_planner2.json`.
//!
//! `tables serve_scale` sweeps the sharded serving stack (blocking
//! baseline vs the pipelined mux client at 1/2/4 shards and 1/4
//! tenants) and digest-checks that every schedule is bit-identical.
//!
//! `tables metrics` (build with `--features telemetry`) prints the
//! runtime per-operator telemetry for a HELR workload.
//!
//! `tables faults` (build with `--features faults`) sweeps seeded fault
//! campaigns over every injection site and reports detection/recovery.
//!
//! Each regenerator prints the same rows/series the paper reports;
//! `published` columns are the paper's own numbers, `model`/`measured`
//! columns come from this reproduction. EXPERIMENTS.md records the
//! comparison.

#![forbid(unsafe_code)]

use poseidon_bench::{chaos, planner, planner2, tables};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "run" {
        let path = std::env::args().nth(2).unwrap_or_else(|| {
            eprintln!("usage: tables run <program-file>");
            std::process::exit(2);
        });
        tables::run_program(&path);
        return;
    }
    let all = which == "all";
    let mut ran = false;
    let mut run = |name: &str, f: fn()| {
        if all || which == name {
            println!("\n================ {name} ================");
            f();
            ran = true;
        }
    };
    run("table1", tables::table1_operator_usage);
    run("table2", tables::table2_ntt_fusion);
    run("table3", tables::table3_access_pattern);
    run("table4", tables::table4_basic_ops);
    run("fig7", tables::fig7_operator_composition);
    run("table6", tables::table6_full_system);
    run("fig8", tables::fig8_time_breakdown);
    run("fig9", tables::fig9_operator_breakdown);
    run("table7", tables::table7_bandwidth);
    run("table8", tables::table8_auto_resources);
    run("table9", tables::table9_auto_ablation);
    run("fig10", tables::fig10_fusion_sweep);
    run("fig11", tables::fig11_lane_sweep);
    run("fig12", tables::fig12_energy);
    run("table10", tables::table10_edp);
    run("table11", tables::table11_core_resources);
    run("table12", tables::table12_fpga_comparison);
    run("ablations", tables::ablations);
    run("parallel", tables::parallel_scaling);
    run("pipeline", tables::pipeline);
    run("metrics", tables::metrics);
    run("hoisting", tables::hoisting);
    run("faults", tables::faults);
    run("chaos", chaos::chaos);
    run("serve", tables::serve);
    run("serve_scale", tables::serve_scale);
    run("plan", planner::plan);
    run("plan2", planner2::plan2);
    if !ran {
        eprintln!("unknown selector `{which}`");
        std::process::exit(2);
    }
}

// (The `run` subcommand lives in tables::run_program; dispatched before
// the table selectors in `main` via early return.)
