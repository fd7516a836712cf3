//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Conventions: `published` columns restate the paper's numbers (from
//! `poseidon_sim::published`); `model` columns come from the analytical
//! accelerator model; `measured` columns come from timing our own software
//! library on the host CPU. EXPERIMENTS.md records the side-by-side.

use he_ntt::access::AccessPattern;
use he_ntt::{FusedNtt, FusionAnalysis, NttTable};
use poseidon_core::decompose::{BasicOp, OpParams};
use poseidon_core::Operator;
use poseidon_sim::published;
use poseidon_sim::resources;
use poseidon_sim::workloads::Benchmark;
use poseidon_sim::{AcceleratorConfig, Simulator};

fn sim() -> Simulator {
    Simulator::new(AcceleratorConfig::poseidon_u280())
}

/// Table I: operator usage per basic operation (checkmark matrix).
pub fn table1_operator_usage() {
    let p = OpParams::new(1 << 16, 44, 2);
    println!(
        "{:<12} {:>4} {:>4} {:>9} {:>13} {:>4}",
        "Operation", "MA", "MM", "NTT/INTT", "Automorphism", "SBT"
    );
    for op in BasicOp::ALL {
        let marks: Vec<String> = op
            .uses(&p)
            .iter()
            .map(|(_, used)| {
                if *used {
                    "x".to_string()
                } else {
                    "-".to_string()
                }
            })
            .collect();
        println!(
            "{:<12} {:>4} {:>4} {:>9} {:>13} {:>4}",
            op.name(),
            marks[0],
            marks[1],
            marks[2],
            marks[3],
            marks[4]
        );
    }
}

/// Table II: conventional vs fused NTT operation counts per radix.
pub fn table2_ntt_fusion() {
    println!(
        "{:<3} {:>11} {:>19} {:>16} {:>14} {:>11} {:>9}",
        "k",
        "W(unfused)",
        "W(fused,published)",
        "W(fused,model)",
        "Mult(unfused)",
        "Mult(fused)",
        "Red(u/f)"
    );
    let q = he_math::prime::ntt_prime(30, 1 << 13).unwrap();
    let table = NttTable::new(1 << 12, q);
    for k in 2..=6u32 {
        let a = FusionAnalysis::for_radix(k);
        let measured = FusedNtt::new(&table, k).distinct_twiddles_per_block();
        println!(
            "{:<3} {:>11} {:>19} {:>16.1} {:>14} {:>11} {:>6}/{}",
            k,
            a.twiddles_unfused,
            a.twiddles_fused_paper,
            measured,
            a.mult_unfused,
            a.mult_fused,
            a.reductions_unfused,
            a.reductions_fused
        );
    }
}

/// Table III: per-iteration data access offsets, conventional vs fused.
pub fn table3_access_pattern() {
    let p = AccessPattern::new(4096, 3);
    println!("N = 4096, k = 3");
    println!(
        "conventional: {} iterations, offsets {:?}",
        p.conventional_iterations(),
        (1..=p.conventional_iterations())
            .map(|i| p.conventional_offset(i))
            .collect::<Vec<_>>()
    );
    println!(
        "fused:        {} iterations, offsets {:?}",
        p.fused_iterations(),
        (1..=p.fused_iterations())
            .map(|i| p.fused_offset(i))
            .collect::<Vec<_>>()
    );
    println!(
        "diagonal BRAM banking conflict-free: {}",
        p.verify_conflict_free().is_ok()
    );
}

/// Table IV: basic-operation throughput — measured CPU (our library),
/// modelled Poseidon, published comparisons.
pub fn table4_basic_ops() {
    // Paper parameter regime for HEAX-comparable numbers: N = 2^13.
    let n = 1 << 13;
    let chain = 6;
    println!("measuring software library at N=2^13, L={chain} (this may take a minute)...");
    let measured = crate::cpu_baseline::measure_basic_ops(n, chain, 3);
    let p = OpParams::new(n, chain, 1);
    let sim = sim();
    println!(
        "{:<10} {:>16} {:>16} {:>12} {:>14} {:>14} {:>12}",
        "Operation",
        "CPU meas (op/s)",
        "Poseidon model",
        "speedup",
        "paper CPU",
        "paper Poseidon",
        "paper spd"
    );
    for (name, cpu_ops) in &measured {
        let op = match *name {
            "HAdd" => Some(BasicOp::HAdd),
            "PMult" => Some(BasicOp::PMult),
            "CMult" => Some(BasicOp::CMult),
            "Keyswitch" => Some(BasicOp::Keyswitch),
            "Rotation" => Some(BasicOp::Rotation),
            "Rescale" => Some(BasicOp::Rescale),
            _ => None,
        };
        let model_ops = match (*name, op) {
            // NTT throughput: one transform of all chain components.
            ("NTT", _) => {
                let t = sim.time_single(BasicOp::Modup, &p);
                1.0 / t.seconds // stand-in: transform-dominated op
            }
            (_, Some(op)) => sim.ops_per_second(op, &p),
            _ => 0.0,
        };
        let pub_row = published::TABLE4.iter().find(|r| r.op == *name);
        let (pc, pp, ps) = match pub_row {
            Some(r) => (
                format!("{:.2}", r.cpu_ops),
                format!("{:.0}", r.poseidon_ops()),
                format!("{:.0}x", r.poseidon_speedup),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<10} {:>16.2} {:>16.0} {:>11.0}x {:>14} {:>14} {:>12}",
            name,
            cpu_ops,
            model_ops,
            model_ops / cpu_ops,
            pc,
            pp,
            ps
        );
    }
}

/// Fig. 7: operator composition of each basic operation (cycle shares).
pub fn fig7_operator_composition() {
    let p = OpParams::new(1 << 16, 44, 2);
    let cfg = AcceleratorConfig::poseidon_u280();
    println!("N = 2^16, L = 44 (paper Fig. 7 setting); % of operator cycles");
    println!(
        "{:<12} {:>7} {:>7} {:>9} {:>13}",
        "Operation", "MA%", "MM%", "NTT%", "Automorphism%"
    );
    for op in [
        BasicOp::HAdd,
        BasicOp::PMult,
        BasicOp::CMult,
        BasicOp::Rescale,
        BasicOp::Keyswitch,
        BasicOp::Rotation,
    ] {
        let cycles = poseidon_sim::timing::cycles_by_operator(&op.operator_counts(&p), &p, &cfg);
        let total = (cycles.ma + cycles.mm + cycles.ntt + cycles.auto) as f64;
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>8.1}% {:>12.1}%",
            op.name(),
            100.0 * cycles.ma as f64 / total,
            100.0 * cycles.mm as f64 / total,
            100.0 * cycles.ntt as f64 / total,
            100.0 * cycles.auto as f64 / total,
        );
    }
}

/// Table VI: full-system benchmark times, model vs published.
pub fn table6_full_system() {
    let sim = sim();
    let published = [
        published::POSEIDON_TIMES.lr_ms,
        published::POSEIDON_TIMES.lstm_ms,
        published::POSEIDON_TIMES.resnet_ms,
        published::POSEIDON_TIMES.bootstrap_ms,
    ];
    println!(
        "{:<22} {:>14} {:>16} {:>8}",
        "Benchmark", "model (ms)", "published (ms)", "ratio"
    );
    for (b, pub_ms) in Benchmark::ALL.iter().zip(published) {
        let r = sim.run(&b.trace());
        println!(
            "{:<22} {:>14.2} {:>16.2} {:>8.2}",
            b.name(),
            r.millis(),
            pub_ms,
            r.millis() / pub_ms
        );
    }
}

/// Fig. 8: per-benchmark time breakdown across basic operations.
pub fn fig8_time_breakdown() {
    let sim = sim();
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>10}",
        "Benchmark", "HAdd%", "PMult%", "CMult%", "Rotation%", "Rescale%", "KeySw%", "total(ms)"
    );
    for b in Benchmark::ALL {
        let r = sim.run(&b.trace());
        println!(
            "{:<22} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>10.2}",
            b.name(),
            r.time_share_percent(BasicOp::HAdd),
            r.time_share_percent(BasicOp::PMult),
            r.time_share_percent(BasicOp::CMult),
            r.time_share_percent(BasicOp::Rotation),
            r.time_share_percent(BasicOp::Rescale),
            r.time_share_percent(BasicOp::Keyswitch),
            r.millis()
        );
    }
}

/// Fig. 9: per-benchmark operator-cycle breakdown.
pub fn fig9_operator_breakdown() {
    let sim = sim();
    println!(
        "{:<22} {:>7} {:>7} {:>9} {:>13}",
        "Benchmark", "MA%", "MM%", "NTT%", "Automorphism%"
    );
    for b in Benchmark::ALL {
        let r = sim.run(&b.trace());
        println!(
            "{:<22} {:>6.1}% {:>6.1}% {:>8.1}% {:>12.1}%",
            b.name(),
            r.operator_share_percent(Operator::Ma),
            r.operator_share_percent(Operator::Mm),
            r.operator_share_percent(Operator::Ntt),
            r.operator_share_percent(Operator::Automorphism),
        );
    }
}

/// Table VII: bandwidth utilisation per basic op and benchmark.
pub fn table7_bandwidth() {
    let sim = sim();
    let reports: Vec<_> = Benchmark::ALL.iter().map(|b| sim.run(&b.trace())).collect();
    println!(
        "{:<12} {:>17} {:>17} {:>17} {:>17}",
        "Op", "LR", "LSTM", "ResNet-20", "PackedBoot"
    );
    for op in [
        BasicOp::HAdd,
        BasicOp::PMult,
        BasicOp::CMult,
        BasicOp::Keyswitch,
        BasicOp::Rotation,
        BasicOp::Rescale,
    ] {
        let row: Vec<String> = reports
            .iter()
            .map(|r| {
                r.utilisation_by_op
                    .iter()
                    .find(|(o, _)| *o == op)
                    .map(|(_, u)| format!("{:.1}%", u * 100.0))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        let pub_row = published::TABLE7.iter().find(|r| r.op == op.name());
        let pubs = pub_row
            .map(|r| {
                format!(
                    "  [paper: {:.0}/{:.0}/{:.0}/{:.0}]",
                    r.percent[0], r.percent[1], r.percent[2], r.percent[3]
                )
            })
            .unwrap_or_default();
        println!(
            "{:<12} {:>17} {:>17} {:>17} {:>17}{}",
            op.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            pubs
        );
    }
    let avg: Vec<String> = reports
        .iter()
        .map(|r| format!("{:.1}%", r.bandwidth_utilisation * 100.0))
        .collect();
    println!(
        "{:<12} {:>17} {:>17} {:>17} {:>17}  [paper: 43/52/48/59]",
        "Average", avg[0], avg[1], avg[2], avg[3]
    );
}

/// Table VIII: Auto vs HFAuto core resources and latency.
pub fn table8_auto_resources() {
    use poseidon_sim::AutoMode;
    println!(
        "{:<8} {:>8} {:>9} {:>6} {:>6} {:>16} {:>22}",
        "Design", "FF", "LUT", "DSP", "BRAM", "latency (model)", "latency (published)"
    );
    for (mode, pub_row) in [
        (AutoMode::Naive, &published::TABLE8[0]),
        (AutoMode::HfAuto, &published::TABLE8[1]),
    ] {
        let r = resources::auto_core(mode, 512);
        let hf = poseidon_core::HfAuto::new(1 << 16, 512);
        let lat = match mode {
            AutoMode::Naive => hf.naive_latency_cycles(),
            AutoMode::HfAuto => hf.hf_latency_steps(),
        };
        println!(
            "{:<8} {:>8} {:>9} {:>6} {:>6} {:>16} {:>22}",
            pub_row.design, r.ff, r.lut, r.dsp, r.bram, lat, pub_row.latency_cycles
        );
    }
}

/// Table IX: benchmark times with naive Auto vs HFAuto.
pub fn table9_auto_ablation() {
    let hf = Simulator::new(AcceleratorConfig::poseidon_u280());
    let naive = Simulator::new(AcceleratorConfig::poseidon_naive_auto());
    let pub_hf = [
        published::POSEIDON_TIMES.lr_ms,
        published::POSEIDON_TIMES.lstm_ms,
        published::POSEIDON_TIMES.resnet_ms,
        published::POSEIDON_TIMES.bootstrap_ms,
    ];
    let pub_naive = [
        published::POSEIDON_NAIVE_AUTO_TIMES.lr_ms,
        published::POSEIDON_NAIVE_AUTO_TIMES.lstm_ms,
        published::POSEIDON_NAIVE_AUTO_TIMES.resnet_ms,
        published::POSEIDON_NAIVE_AUTO_TIMES.bootstrap_ms,
    ];
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>14}",
        "Benchmark", "Auto (ms)", "HFAuto (ms)", "ratio", "paper ratio"
    );
    for (i, b) in Benchmark::ALL.iter().enumerate() {
        let t = b.trace();
        let a = naive.run(&t).millis();
        let h = hf.run(&t).millis();
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>7.1}x {:>13.1}x",
            b.name(),
            a,
            h,
            a / h,
            pub_naive[i] / pub_hf[i]
        );
    }
}

/// Fig. 10: NTT fusion-degree sweep — resources and execution time.
pub fn fig10_fusion_sweep() {
    let n = 4096;
    println!(
        "{:<3} {:>10} {:>10} {:>7} {:>14}",
        "k", "#Regs/lane", "#LUTs/lane", "#DSPs", "NTT time (us)"
    );
    for k in 2..=6u32 {
        let cfg = AcceleratorConfig {
            ntt_fusion_k: k,
            ..AcceleratorConfig::poseidon_u280()
        };
        let r = resources::ntt_core_per_lane(k, n);
        println!(
            "{:<3} {:>10} {:>10} {:>7} {:>14.3}{}",
            k,
            r.ff,
            r.lut,
            r.dsp,
            resources::ntt_time_us(k, n, &cfg),
            if k == 3 {
                "   <- optimum (paper: k = 3)"
            } else {
                ""
            }
        );
    }
}

/// Fig. 11: lane-count sensitivity on ResNet-20 (time and EDP).
pub fn fig11_lane_sweep() {
    let t = Benchmark::ResNet20.trace();
    println!(
        "{:<7} {:>14} {:>16} {:>10}",
        "lanes", "time (ms)", "EDP (J*s)", "speedup"
    );
    let mut base = None;
    for lanes in [64usize, 128, 256, 512] {
        let cfg = AcceleratorConfig {
            lanes,
            ..AcceleratorConfig::poseidon_u280()
        };
        let r = Simulator::new(cfg).run(&t);
        let b = *base.get_or_insert(r.seconds);
        println!(
            "{:<7} {:>14.2} {:>16.4e} {:>9.2}x",
            lanes,
            r.millis(),
            r.edp(),
            b / r.seconds
        );
    }
}

/// Fig. 12: energy consumption and breakdown per benchmark.
pub fn fig12_energy() {
    let sim = sim();
    println!(
        "{:<22} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "Benchmark", "total (J)", "mem%", "MM%", "NTT%", "MA%", "Auto%", "static%"
    );
    for b in Benchmark::ALL {
        let r = sim.run(&b.trace());
        let e = r.energy;
        let tot = e.total();
        println!(
            "{:<22} {:>10.3} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>8.1}%",
            b.name(),
            tot,
            100.0 * e.memory / tot,
            100.0 * e.mm / tot,
            100.0 * e.ntt / tot,
            100.0 * e.ma / tot,
            100.0 * e.auto / tot,
            100.0 * e.static_energy / tot,
        );
    }
}

/// Table X: energy-delay product per benchmark.
pub fn table10_edp() {
    let sim = sim();
    println!(
        "{:<22} {:>16} {:>14}",
        "Benchmark", "EDP (J*s)", "energy (J)"
    );
    for b in Benchmark::ALL {
        let r = sim.run(&b.trace());
        println!(
            "{:<22} {:>16.4e} {:>14.3}",
            b.name(),
            r.edp(),
            r.energy.total()
        );
    }
    println!("(paper Table X reports Poseidon ahead of the GPU by ~1000x on LR and");
    println!(" ahead of CraterLake/BTS on LR and ResNet-20; ASICs lead elsewhere.)");
}

/// Table XI: per-core resource consumption at 512 lanes.
pub fn table11_core_resources() {
    let lanes = 512u64;
    let n = 1 << 16;
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>7}",
        "Core", "FF", "LUT", "DSP", "BRAM"
    );
    let rows = [
        ("MA", resources::ma_core_per_lane()),
        ("MM", resources::mm_core_per_lane()),
        ("SBT", resources::sbt_core_per_lane()),
        ("NTT", resources::ntt_core_per_lane(3, n)),
    ];
    let mut total = resources::auto_core(poseidon_sim::AutoMode::HfAuto, 512);
    for (name, per_lane) in rows {
        let ff = per_lane.ff * lanes;
        let lut = per_lane.lut * lanes;
        let dsp = per_lane.dsp * lanes;
        let bram = per_lane.bram * lanes;
        println!("{:<14} {:>10} {:>10} {:>8} {:>7}", name, ff, lut, dsp, bram);
        total.ff += ff;
        total.lut += lut;
        total.dsp += dsp;
        total.bram += bram;
    }
    let auto = resources::auto_core(poseidon_sim::AutoMode::HfAuto, 512);
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>7}",
        "Automorphism", auto.ff, auto.lut, auto.dsp, auto.bram
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>7}",
        "Total", total.ff, total.lut, total.dsp, total.bram
    );
}

/// Table XII: resource comparison against other FPGA prototypes.
pub fn table12_fpga_comparison() {
    let r = resources::design_resources(&AcceleratorConfig::poseidon_u280(), 1 << 16);
    println!("{:<26} {:>10} {:>8} {:>7}", "Design", "LUT", "DSP", "BRAM");
    println!(
        "{:<26} {:>10} {:>8} {:>7}",
        "Poseidon (model)", r.lut, r.dsp, r.bram
    );
    println!(
        "{:<26} {:>10} {:>8} {:>7}",
        "U280 capacity", 1_303_680, 9_024, 2_016
    );
    println!("(the paper's Table XII compares against Kim et al. and HEAX and reports");
    println!(" lower consumption for Poseidon; those columns are not legible in the");
    println!(" provided text and are recorded as unavailable in EXPERIMENTS.md.)");
}

/// Extension: design-space ablations for the §VI discussion parameters
/// (scratchpad volume, HBM bandwidth, fusion degree at system level).
pub fn ablations() {
    use poseidon_sim::sweeps;
    let t = Benchmark::PackedBootstrapping.trace();

    println!("--- scratchpad capacity (packed bootstrapping) ---");
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "MB", "time (ms)", "EDP (J*s)", "bw util"
    );
    for p in sweeps::sweep_scratchpad(&t, &[0.5, 2.0, 4.0, 8.6, 16.0, 32.0]) {
        println!(
            "{:<10} {:>12.2} {:>14.4e} {:>9.1}%",
            p.x,
            p.millis,
            p.edp,
            p.bandwidth_utilisation * 100.0
        );
    }

    println!("\n--- HBM bandwidth (packed bootstrapping) ---");
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "GB/s", "time (ms)", "EDP (J*s)", "bw util"
    );
    for p in sweeps::sweep_bandwidth(&t, &[115.0, 230.0, 460.0, 920.0, 1840.0]) {
        println!(
            "{:<10} {:>12.2} {:>14.4e} {:>9.1}%",
            p.x,
            p.millis,
            p.edp,
            p.bandwidth_utilisation * 100.0
        );
    }

    println!("\n--- NTT fusion degree at system level (packed bootstrapping) ---");
    println!("{:<10} {:>12} {:>14}", "k", "time (ms)", "EDP (J*s)");
    for p in sweeps::sweep_fusion(&t, &[1, 2, 3, 4, 5, 6]) {
        println!("{:<10} {:>12.2} {:>14.4e}", p.x, p.millis, p.edp);
    }

    println!("\n--- keyswitch digit count (CMult at N=2^16, L=44) ---");
    println!("{:<10} {:>14} {:>14}", "dnum", "time (us)", "HBM (MB)");
    let sim = sim();
    for dnum in [1usize, 2, 4, 11, 22, 44] {
        let p = poseidon_core::OpParams::with_dnum(1 << 16, 44, 2, dnum);
        let t = sim.time_single(BasicOp::CMult, &p);
        println!(
            "{:<10} {:>14.2} {:>14.2}",
            dnum,
            t.seconds * 1e6,
            t.hbm_bytes as f64 / 1e6
        );
    }
}

/// Extension: cross-operation pipelining (double-buffered prefetch) — the
/// dataflow-planning headroom §IV-A's memory-system description implies.
pub fn pipeline() {
    use poseidon_sim::schedule::schedule;
    let cfg = AcceleratorConfig::poseidon_u280();
    println!(
        "{:<22} {:>13} {:>15} {:>9}",
        "Benchmark", "serial (ms)", "pipelined (ms)", "gain"
    );
    for b in Benchmark::ALL {
        let s = schedule(&b.trace(), &cfg);
        println!(
            "{:<22} {:>13.2} {:>15.2} {:>8.2}x",
            b.name(),
            s.serial_seconds * 1e3,
            s.makespan * 1e3,
            s.speedup()
        );
    }
}

/// `tables run <file>`: simulate a program file (see
/// `poseidon_sim::program` for the format) and print its report.
pub fn run_program(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let trace = match poseidon_sim::program::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}:{e}");
            std::process::exit(1);
        }
    };
    let r = sim().run(&trace);
    println!("program           : {path}");
    println!("entries           : {}", trace.entries().len());
    println!("time              : {:.3} ms", r.millis());
    println!("HBM traffic       : {:.3} GB", r.hbm_bytes as f64 / 1e9);
    println!(
        "bandwidth util    : {:.1} %",
        r.bandwidth_utilisation * 100.0
    );
    println!(
        "energy            : {:.3} J  (EDP {:.3e} J*s)",
        r.energy.total(),
        r.edp()
    );
    for op in BasicOp::ALL {
        let share = r.time_share_percent(op);
        if share > 0.05 {
            println!("  {:<10} {:>5.1} % of time", op.name(), share);
        }
    }
}
