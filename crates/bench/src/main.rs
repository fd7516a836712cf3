//! `tables` — regenerates every table and figure of the Poseidon HPCA'23
//! evaluation section from the model and the functional library.
//!
//! Usage: `tables [all|table1..table12|fig7..fig12|ablations|pipeline]`
//! or `tables run <program-file>`.
//!
//! Each regenerator prints the same rows/series the paper reports;
//! `published` columns are the paper's own numbers, `model`/`measured`
//! columns come from this reproduction. EXPERIMENTS.md records the
//! comparison. Measured performance of the software stack itself is
//! `perf/`'s job, not this binary's.

#![forbid(unsafe_code)]

use poseidon_bench::tables;

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
    run("pipeline", tables::pipeline);
    if !ran {
        eprintln!("unknown selector `{which}`");
        std::process::exit(2);
    }
}

// (The `run` subcommand lives in tables::run_program; dispatched before
// the table selectors in `main` via early return.)
