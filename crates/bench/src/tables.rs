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

/// Extension: limb-parallel engine thread sweep — serial vs multi-threaded
/// throughput of the NTT/CMult/keyswitch hot paths, the software analogue
/// of the paper's lane-count sweep (Fig. 11). Thread counts are pinned via
/// `poseidon_par::with_threads`; speedups are relative to 1 thread.
pub fn parallel_scaling() {
    type Op<'a> = (&'a str, Box<dyn Fn() + 'a>);
    let n = 1 << 13;
    let chain = 6;
    let host = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("software library at N=2^13, L={chain}; host cores available: {host}");
    let h = crate::cpu_baseline::CpuHarness::new(n, chain);
    let coeff = h.ct_a.c0().clone();
    let ops: Vec<Op> = vec![
        ("NTT", {
            let coeff = coeff.clone();
            Box::new(move || {
                let _ = coeff.clone().into_eval();
            })
        }),
        (
            "CMult",
            Box::new(|| {
                let _ = h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap();
            }),
        ),
        (
            "Keyswitch",
            Box::new(|| {
                let _ = h.eval.keyswitch(h.ct_a.c1(), h.keys.relin());
            }),
        ),
        (
            "Rescale",
            Box::new(|| {
                let _ = h.eval.try_rescale(&h.ct_a).unwrap();
            }),
        ),
    ];
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "Operation", "1t (op/s)", "2t", "4t", "8t"
    );
    for (name, f) in &ops {
        // 40 calls per cell: in a burst of a few milliseconds the scheduler
        // has not yet moved a freshly woken helper off the caller's core, and
        // every column reads like one thread.
        let rates: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| poseidon_par::with_threads(t, || h.ops_per_second(40, f)))
            .collect();
        println!(
            "{:<10} {:>12.2} {:>7.2} ({:>4.2}x) {:>5.2} ({:>4.2}x) {:>5.2} ({:>4.2}x)",
            name,
            rates[0],
            rates[1],
            rates[1] / rates[0],
            rates[2],
            rates[2] / rates[0],
            rates[3],
            rates[3] / rates[0],
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

/// `tables metrics` without the `telemetry` feature: explain how to get
/// the instrumented build instead of printing an empty report.
#[cfg(not(feature = "telemetry"))]
pub fn metrics() {
    println!("telemetry is compiled out of this build (all probes are no-ops).");
    println!("rebuild with:");
    println!("  cargo run -p poseidon-bench --features telemetry --bin tables -- metrics");
}

/// `tables hoisting` without the `telemetry` feature: the NTT counters the
/// report is built from are compiled out, so point at the right build.
#[cfg(not(feature = "telemetry"))]
pub fn hoisting() {
    println!("telemetry is compiled out of this build (all probes are no-ops).");
    println!("rebuild with:");
    println!("  cargo run -p poseidon-bench --features telemetry --bin tables -- hoisting");
}

/// `tables hoisting`: measured `ntt.forward` counts for 8-rotation
/// workloads under per-call rotations and under the hoisted batch engine,
/// so the saving the hoisting engine claims is a counter readout, not an
/// estimate. Both variants' ciphertexts are asserted bit-identical before
/// the counts are printed.
#[cfg(feature = "telemetry")]
pub fn hoisting() {
    use he_ckks::cipher::{Ciphertext, Plaintext};
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::eval::Evaluator;
    use he_ckks::keys::KeySet;
    use he_ckks::linear::PlainMatrix;
    use he_ckks::params::CkksParams;
    use poseidon_telemetry::{Registry, Snapshot};
    use rand::SeedableRng;

    // Dim 32 with a 24-wide band (diagonals 24..32 zero) gives BSGS
    // exactly 8 rotations: baby steps 1..5 plus giant steps 6, 12, 18
    // (the two all-zero giant blocks are skipped).
    const DIM: usize = 32;
    const BAND: usize = 24;
    let ctx = CkksContext::new(CkksParams::paper_32bit(1 << 12, 4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0157);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let key_steps: Vec<i64> = (1..=8).chain([12, 18]).collect();
    for &s in &key_steps {
        keys.add_rotation_key(s, &mut rng);
    }
    let eval = Evaluator::new(&ctx);
    let z: Vec<Complex> = (0..DIM)
        .map(|i| Complex::new(0.3 + 0.05 * i as f64, 0.0))
        .collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    let reg = Registry::global();
    let fwd = |d: &Snapshot| d.get("ntt.forward").map_or(0, |s| s.count);
    let hoists = |d: &Snapshot| d.get("keyswitch.hoist").map_or(0, |s| s.count);
    let saved = |d: &Snapshot| d.get("keyswitch.saved_ntt").map_or(0, |s| s.items);
    let measure = |f: &mut dyn FnMut() -> Vec<Ciphertext>| -> (Vec<Ciphertext>, Snapshot) {
        let before = reg.snapshot();
        let out = f();
        (out, reg.snapshot().since(&before))
    };

    println!(
        "N=2^12, L={} (4 chain primes + 1 special); counts are ntt.forward invocations",
        ctx.max_level()
    );

    // -- 8 rotations of one ciphertext ------------------------------------
    let steps: Vec<i64> = (1..=8).collect();
    let (r_call, d_call) = measure(&mut || {
        steps
            .iter()
            .map(|&s| eval.try_rotate(&ct, s, &keys).unwrap())
            .collect()
    });
    let (r_hoist, d_hoist) = measure(&mut || eval.try_rotate_many(&ct, &steps, &keys).unwrap());
    assert_eq!(r_call, r_hoist, "hoisted batch changed rotation bits");

    println!("\n-- 8 rotations of one ciphertext (bit-identical outputs) --");
    println!(
        "{:<34} {:>12} {:>8} {:>12}",
        "variant", "ntt.forward", "hoists", "saved NTTs"
    );
    for (name, d) in [
        ("per call (rotate)", &d_call),
        ("hoisted batch (rotate_many)", &d_hoist),
    ] {
        println!(
            "{:<34} {:>12} {:>8} {:>12}",
            name,
            fwd(d),
            hoists(d),
            saved(d)
        );
    }
    println!(
        "forward-NTT reduction: {:.1}x vs per-call  (acceptance: >= 2x)",
        fwd(&d_call) as f64 / fwd(&d_hoist) as f64,
    );

    // -- 8-rotation BSGS matvec -------------------------------------------
    // The unhoisted reference replays `PlainMatrix::apply_bsgs` with a
    // per-call rotation for every baby and giant step; the hoisted run is
    // the shipped method. Both produce identical ciphertexts, so the NTT
    // delta is pure dataflow.
    let m = PlainMatrix::new(
        (0..DIM)
            .map(|i| {
                (0..DIM)
                    .map(|j| {
                        if (j + DIM - i) % DIM < BAND {
                            Complex::new(((i * 7 + j * 3) % 7) as f64 * 0.05 - 0.15, 0.0)
                        } else {
                            Complex::new(0.0, 0.0)
                        }
                    })
                    .collect()
            })
            .collect(),
    );
    let bsgs_per_call = |v: &Ciphertext| -> Ciphertext {
        let bs = (DIM as f64).sqrt().ceil() as usize;
        let gs = DIM.div_ceil(bs);
        let scale = eval.context().default_scale();
        let mut baby = vec![v.clone()];
        for b in 1..bs {
            baby.push(eval.try_rotate(v, b as i64, &keys).unwrap());
        }
        let mut acc: Option<Ciphertext> = None;
        for g in 0..gs {
            let mut inner: Option<Ciphertext> = None;
            for (b, ct_b) in baby.iter().enumerate().take(bs) {
                let d = g * bs + b;
                // Same zero-diagonal skip as `apply_bsgs`.
                if d >= DIM || m.diagonal(d).iter().all(|c| c.abs() < 1e-300) {
                    continue;
                }
                let shift = g * bs;
                let diag: Vec<Complex> = (0..DIM)
                    .map(|i| m.diagonal(d)[(i + DIM - shift) % DIM])
                    .collect();
                let pt = eval.encode_at_level(&diag, scale, ct_b.level());
                let term = eval.try_mul_plain(ct_b, &pt).unwrap();
                match &mut inner {
                    None => inner = Some(term),
                    Some(a) => eval.try_add_assign(a, &term).unwrap(),
                }
            }
            if let Some(inner) = inner {
                let shifted = if g == 0 {
                    inner
                } else {
                    eval.try_rotate(&inner, (g * bs) as i64, &keys).unwrap()
                };
                match &mut acc {
                    None => acc = Some(shifted),
                    Some(a) => eval.try_add_assign(a, &shifted).unwrap(),
                }
            }
        }
        eval.try_rescale(&acc.expect("non-zero matrix")).unwrap()
    };
    let (v_call, b_call) = measure(&mut || vec![bsgs_per_call(&ct)]);
    let (v_hoist, b_hoist) = measure(&mut || vec![m.try_apply_bsgs(&eval, &keys, &ct).unwrap()]);
    assert_eq!(v_call, v_hoist, "hoisted BSGS changed matvec bits");

    println!("\n-- 8-rotation BSGS matvec, dim 32, band 24 (bit-identical outputs) --");
    println!(
        "{:<34} {:>12} {:>8} {:>12}",
        "variant", "ntt.forward", "hoists", "saved NTTs"
    );
    println!(
        "{:<34} {:>12} {:>8} {:>12}",
        "per-call rotations",
        fwd(&b_call),
        hoists(&b_call),
        saved(&b_call)
    );
    println!(
        "{:<34} {:>12} {:>8} {:>12}",
        "hoisted (apply_bsgs)",
        fwd(&b_hoist),
        hoists(&b_hoist),
        saved(&b_hoist)
    );
    println!(
        "forward-NTT reduction: {:.2}x vs per-call",
        fwd(&b_call) as f64 / fwd(&b_hoist) as f64,
    );
}

/// The HELR scoring kernel written once against [`HomomorphicOps`]:
/// PMult + rotate-fold dot product, bias add, then the cubic term of the
/// HELR sigmoid (square + CMult). Runs identically on the evaluator and
/// on the operator-pool machine.
#[cfg(feature = "telemetry")]
fn helr_kernel<B: poseidon_core::HomomorphicOps>(
    backend: &mut B,
    ctx: &he_ckks::context::CkksContext,
    keys: &he_ckks::keys::KeySet,
    x: &he_ckks::cipher::Ciphertext,
    weights: &[f64],
    bias: f64,
) -> Result<he_ckks::cipher::Ciphertext, he_ckks::error::EvalError> {
    use he_ckks::cipher::Plaintext;
    use he_ckks::encoding::Complex;
    let enc = |z: &[Complex], scale: f64, level: usize| {
        Plaintext::new(
            ctx.encoder().encode_rns(&ctx.level_basis(level), z, scale),
            scale,
        )
    };
    let w: Vec<Complex> = weights.iter().map(|&w| Complex::new(w, 0.0)).collect();
    let w_pt = enc(&w, ctx.default_scale(), x.level());
    let wx = backend.try_mul_plain(x, &w_pt)?;
    let mut acc = backend.try_rescale(&wx)?;
    let mut step = 1;
    while step < weights.len() {
        let r = backend.try_rotate(&acc, step as i64, keys)?;
        acc = backend.try_add(&acc, &r)?;
        step *= 2;
    }
    let bias_pt = enc(&[Complex::new(bias, 0.0)], acc.scale(), acc.level());
    let logit = backend.try_add_plain(&acc, &bias_pt)?;
    let sq = backend.try_square(&logit, keys)?;
    let z2 = backend.try_rescale(&sq)?;
    let z_low = backend.try_drop_to_level(&logit, z2.level())?;
    let prod = backend.try_mul(&z2, &z_low, keys)?;
    backend.try_rescale(&prod)
}

/// `tables metrics`: runtime per-operator telemetry for a HELR scoring
/// workload — the measured counterpart of the paper's Fig. 7 operator
/// composition — plus every instrumented scope across the stack.
///
/// The report cross-checks the telemetry items against
/// [`OperatorPool::usage`](poseidon_core::OperatorPool::usage) (they are
/// two views over the same atomics, so agreement must be exact).
#[cfg(feature = "telemetry")]
pub fn metrics() {
    use he_ckks::apps::LogisticModel;
    use he_ckks::cipher::Plaintext;
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::eval::Evaluator;
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use poseidon_core::PoseidonMachine;
    use rand::SeedableRng;

    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0E71);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let weights = [0.4, -0.2, 0.1, 0.3];
    let bias = 0.15;
    let mut step = 1;
    while step < weights.len() {
        keys.add_rotation_key(step as i64, &mut rng);
        step *= 2;
    }
    let features: Vec<Complex> = (0..weights.len())
        .map(|i| Complex::new(0.3 + 0.1 * i as f64, 0.0))
        .collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &features, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    // Reference software run: full HELR sigmoid on the evaluator,
    // populating the eval.* / keyswitch.* / rns.* / ntt.* scopes.
    let eval = Evaluator::new(&ctx);
    let model = LogisticModel::new(&weights, bias);
    let _score = model.score(&eval, &keys, &ct).unwrap();

    // Machine run of the kernel through the shared trait: every element
    // retired by an operator core is counted AND timed.
    let mut machine = PoseidonMachine::new(&ctx, 256, 2);
    let out = helr_kernel(&mut machine, &ctx, &keys, &ct, &weights, bias).unwrap();
    let got = {
        let pt = keys.secret().decrypt(&out);
        ctx.encoder()
            .decode_rns(pt.poly(), pt.scale(), weights.len())[0]
            .re
    };
    let logit: f64 = weights
        .iter()
        .zip(&[0.3, 0.4, 0.5, 0.6])
        .map(|(w, x)| w * x)
        .sum::<f64>()
        + bias;
    println!(
        "workload          : HELR scoring, N=2^11, L={} (z3 check: {:.4} vs {:.4})",
        ctx.max_level(),
        got,
        logit.powi(3)
    );

    println!("\n-- operator pool (machine HELR kernel, measured) --");
    let usage = machine.usage();
    let snap = machine.pool_mut().snapshot();
    print!("{}", snap.to_text_table());
    let mut exact = true;
    for (scope, count) in [
        ("pool.ma", usage.ma),
        ("pool.mm", usage.mm),
        ("pool.ntt", usage.ntt),
        ("pool.auto", usage.auto),
        ("pool.sbt", usage.sbt),
    ] {
        let items = snap.get(scope).map_or(0, |s| s.items);
        if items != count {
            exact = false;
            println!("  MISMATCH {scope}: telemetry {items} != usage {count}");
        }
    }
    println!(
        "telemetry vs OperatorPool::usage(): {}",
        if exact { "exact agreement" } else { "MISMATCH" }
    );

    // Fig. 7 shape: element share per operator, decomposition model vs
    // the machine's measured counters for the same basic-op mix.
    println!("\n-- operator composition, model vs measured (Fig. 7 shape) --");
    let p = OpParams::new(ctx.n(), ctx.max_level() + 1, ctx.special_basis().len());
    let kernel_ops = [
        (BasicOp::PMult, 1u64),
        (BasicOp::Rotation, 2),
        (BasicOp::HAdd, 3),
        (BasicOp::CMult, 2),
        (BasicOp::Rescale, 3),
    ];
    let mut predicted = poseidon_core::OperatorCounts::ZERO;
    for (op, times) in kernel_ops {
        predicted += op.operator_counts(&p) * times;
    }
    let ptotal = predicted.total() as f64;
    let mtotal = usage.total() as f64;
    println!("{:<14} {:>9} {:>10}", "Operator", "model %", "measured %");
    for op in Operator::ALL {
        println!(
            "{:<14} {:>8.1}% {:>9.1}%",
            op.to_string(),
            100.0 * predicted.get(op) as f64 / ptotal,
            100.0 * usage.get(op) as f64 / mtotal,
        );
    }

    println!("\n-- all instrumented scopes (global registry) --");
    print!(
        "{}",
        poseidon_telemetry::Registry::global()
            .snapshot()
            .to_text_table()
    );
}

/// `tables faults` without the `faults` feature: the injector hooks are
/// compiled out, so point at the instrumented build.
#[cfg(not(feature = "faults"))]
pub fn faults() {
    println!("fault injection is compiled out of this build (all hooks are no-ops).");
    println!("rebuild with:");
    println!("  cargo run -p poseidon-bench --features faults --bin tables -- faults");
}

/// `tables faults`: the datapath-integrity evaluation. Sweeps seeded
/// single-upset campaigns over every fault site against a checked
/// keyswitch workload (CMult + rotation through [`CheckedEvaluator`]),
/// reporting per-site detection, recovery, and escalation counts, then
/// measures the wall-clock overhead the duplicated checked execution adds
/// over the plain evaluator. EXPERIMENTS.md records the sweep.
///
/// [`CheckedEvaluator`]: he_ckks::integrity::CheckedEvaluator
#[cfg(feature = "faults")]
pub fn faults() {
    use he_ckks::cipher::{Ciphertext, Plaintext};
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::error::EvalError;
    use he_ckks::eval::Evaluator;
    use he_ckks::integrity::{integrity_stats, CheckedEvaluator};
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
    use poseidon_sim::hbm::HbmLayout;
    use rand::SeedableRng;
    use std::time::Instant;

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();

    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA7E);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let checked = CheckedEvaluator::new(&ctx);
    let eval = Evaluator::new(&ctx);
    let encrypt = |v: f64, rng: &mut rand::rngs::StdRng| {
        let z = vec![Complex::new(v, 0.0)];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    };
    let a = encrypt(1.25, &mut rng);
    let b = encrypt(-0.5, &mut rng);
    let clean_mul = eval.try_mul(&a, &b, &keys).unwrap();
    let clean_rot = eval.try_rotate(&a, 1, &keys).unwrap();

    // The checked workload a campaign attacks: one relinearising CMult and
    // one rotation — together they traverse every evaluator-side site
    // (residues, twiddles, key cache, par scratch).
    let workload = |checked: &CheckedEvaluator| -> [Result<Ciphertext, EvalError>; 2] {
        [checked.mul(&a, &b, &keys), checked.rotate(&a, 1, &keys)]
    };

    const SEEDS: u64 = 8;
    println!("single-upset campaigns: {SEEDS} seeded transient BitFlips per site");
    println!("workload: CMult + rotation through CheckedEvaluator (N=2^10 toy chain)");
    println!(
        "\n{:<14} {:>6} {:>9} {:>9} {:>10} {:>11}",
        "site", "fired", "detected", "retried", "escalated", "bit-exact"
    );
    let eval_sites = [
        FaultSite::RnsResidue,
        FaultSite::NttTwiddle,
        FaultSite::KeyCache,
        FaultSite::ParScratch,
    ];
    for site in eval_sites {
        let (mut fired, mut exact) = (0u64, 0u64);
        let before = integrity_stats();
        for seed in 0..SEEDS {
            poseidon_faults::arm(FaultPlan::transient(site, FaultKind::BitFlip, seed));
            let out = workload(&checked);
            fired += poseidon_faults::fired();
            poseidon_faults::disarm();
            if out[0].as_ref() == Ok(&clean_mul) && out[1].as_ref() == Ok(&clean_rot) {
                exact += 1;
            }
        }
        let d = integrity_stats();
        println!(
            "{:<14} {:>6} {:>9} {:>9} {:>10} {:>8}/{}",
            site.as_str(),
            fired,
            d.detected - before.detected,
            d.retried - before.retried,
            d.escalated - before.escalated,
            exact,
            SEEDS,
        );
    }

    // The HBM channel site is attacked through the data-bearing stream
    // model; detection there is the transfer-level checksum (FNV over the
    // streamed words), the stand-in for a per-channel CRC.
    {
        let layout = HbmLayout::from_config(&poseidon_sim::AcceleratorConfig::poseidon_u280());
        let clean: Vec<u64> = (0..(1u64 << 12)).map(|i| i.wrapping_mul(0x9E37)).collect();
        let reference = he_rns::integrity::fnv1a_words(&clean);
        let (mut fired, mut caught) = (0u64, 0u64);
        for seed in 0..SEEDS {
            poseidon_faults::arm(FaultPlan::transient(
                FaultSite::HbmChannel,
                FaultKind::BitFlip,
                seed,
            ));
            let mut words = clean.clone();
            layout.stream_through(&mut words);
            fired += poseidon_faults::fired();
            poseidon_faults::disarm();
            if he_rns::integrity::fnv1a_words(&words) != reference {
                caught += 1;
            }
        }
        println!(
            "{:<14} {:>6} {:>9} {:>9} {:>10} {:>8}  (transfer checksum)",
            FaultSite::HbmChannel.as_str(),
            fired,
            caught,
            0,
            0,
            "-",
        );
    }
    println!(
        "note: par_scratch upsets are architecturally masked — recycled \
         scratch is write-before-read,\nso corrupted stale words are \
         overwritten before any butterfly consumes them (bit-exact 8/8)."
    );

    // Persistent (stuck-element) campaigns must end in a typed escalation,
    // never a panic and never a silently wrong ciphertext.
    println!("\npersistent campaigns: 4 seeded every-hit BitFlips per site");
    println!("{:<14} {:>10} {:>10}", "site", "escalated", "wrong-bits");
    for site in eval_sites {
        let (mut escalated, mut wrong) = (0u64, 0u64);
        for seed in 0..4 {
            poseidon_faults::arm(FaultPlan::persistent(site, FaultKind::BitFlip, seed));
            for out in workload(&checked) {
                match out {
                    Err(EvalError::IntegrityFault { .. }) => escalated += 1,
                    Err(_) => {}
                    Ok(ct) => {
                        if ct != clean_mul && ct != clean_rot {
                            wrong += 1;
                        }
                    }
                }
            }
            poseidon_faults::disarm();
        }
        println!("{:<14} {:>8}/8 {:>10}", site.as_str(), escalated, wrong);
    }

    // Overhead: duplicated checked execution vs the plain evaluator on the
    // same keyswitch-bearing operation (disarmed injector — the fast path).
    const REPS: u32 = 10;
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(eval.try_mul(&a, &b, &keys).unwrap());
    }
    let plain = t0.elapsed().as_secs_f64() / f64::from(REPS);
    let t1 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(checked.mul(&a, &b, &keys).expect("clean"));
    }
    let dmr = t1.elapsed().as_secs_f64() / f64::from(REPS);
    println!("\n-- checked-execution overhead (disarmed hooks, CMult w/ relin) --");
    println!("plain evaluator   {:>9.3} ms", plain * 1e3);
    println!(
        "checked (DMR x2)  {:>9.3} ms   {:.2}x",
        dmr * 1e3,
        dmr / plain
    );

    let s = integrity_stats();
    println!(
        "\ncumulative integrity counters: checked {} detected {} retried {} escalated {}",
        s.checked, s.detected, s.retried, s.escalated
    );
}

/// `tables serve`: the batch-serving layer in one table — wire frame
/// sizes for the payloads crossing the TCP boundary, served operations
/// checked bit-for-bit against the bare evaluator, and an 8-rotation
/// burst timed per-call (eight singleton batches, eight hoisted lifts)
/// versus coalesced (one batch, one lift). With `--features telemetry`
/// the hoist counters backing the claim are printed too.
pub fn serve() {
    use he_ckks::cipher::Plaintext;
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::eval::Evaluator;
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use poseidon_serve::{EvalService, Request, ServiceConfig};
    use rand::SeedableRng;
    use std::time::Instant;

    let steps: Vec<i64> = (1..=8).collect();
    let ctx = CkksContext::new(CkksParams::paper_32bit(1 << 12, 4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E4E);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    for &s in &steps {
        keys.add_rotation_key(s, &mut rng);
    }
    let eval = Evaluator::new(&ctx);
    let z: Vec<Complex> = (0..8).map(|i| Complex::new(0.1 * i as f64, 0.0)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let a = keys.public().encrypt(&pt, &mut rng);
    let b = keys.public().encrypt(&pt, &mut rng);

    println!("N=2^12, L={} (4 chain primes + 1 special)", ctx.max_level());

    // -- wire frames -------------------------------------------------------
    let ct_frame = poseidon_wire::encode_ciphertext(&ctx, &a);
    let pk_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    let pt_frame = poseidon_wire::encode_plaintext(&ctx, &pt);
    println!("\n-- wire frame sizes --");
    println!("{:<26} {:>12}", "frame", "bytes");
    println!("{:<26} {:>12}", "ciphertext", ct_frame.len());
    println!("{:<26} {:>12}", "plaintext", pt_frame.len());
    println!("{:<26} {:>12}", "public keyset (+8 rot)", pk_frame.len());
    let back = poseidon_wire::decode_ciphertext(&ctx, &ct_frame).expect("round trip");
    assert_eq!(back.c0(), a.c0(), "wire round trip changed ciphertext bits");

    // -- served ops vs the bare evaluator ---------------------------------
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("tables", ctx.clone(), keys.clone());
    let served = service
        .call(
            "tables",
            Request::Mul {
                a: a.clone(),
                b: b.clone(),
            },
        )
        .expect("served mul");
    let local = eval.try_mul(&a, &b, &keys).unwrap();
    assert_eq!(served.c0(), local.c0(), "served mul diverged from local");
    println!("\nserved CMult is bit-identical to the local evaluator");

    // -- 8-rotation burst: per-call vs coalesced --------------------------
    #[cfg(feature = "telemetry")]
    let reg = poseidon_telemetry::Registry::global();
    #[cfg(feature = "telemetry")]
    let hoists = |d: &poseidon_telemetry::Snapshot| d.get("keyswitch.hoist").map_or(0, |s| s.count);

    #[cfg(feature = "telemetry")]
    let before = reg.snapshot();
    let t0 = Instant::now();
    let per_call: Vec<_> = steps
        .iter()
        .map(|&s| {
            service
                .call(
                    "tables",
                    Request::Rotate {
                        a: a.clone(),
                        steps: s,
                    },
                )
                .expect("served rotate")
        })
        .collect();
    let per_call_t = t0.elapsed().as_secs_f64();
    #[cfg(feature = "telemetry")]
    let per_call_hoists = hoists(&reg.snapshot().since(&before));

    #[cfg(feature = "telemetry")]
    let before = reg.snapshot();
    let t1 = Instant::now();
    service.suspend();
    let tickets: Vec<_> = steps
        .iter()
        .map(|&s| {
            service
                .submit(
                    "tables",
                    Request::Rotate {
                        a: a.clone(),
                        steps: s,
                    },
                )
                .expect("submit")
        })
        .collect();
    service.resume();
    let batched: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("batched rotate"))
        .collect();
    let batched_t = t1.elapsed().as_secs_f64();
    #[cfg(feature = "telemetry")]
    let batched_hoists = hoists(&reg.snapshot().since(&before));

    for (p, q) in per_call.iter().zip(&batched) {
        assert_eq!(p.c0(), q.c0(), "batched rotation diverged from per-call");
    }
    service.shutdown();

    println!("\n-- 8-rotation burst, one ciphertext (bit-identical outputs) --");
    println!("{:<26} {:>10} {:>8}", "schedule", "ms", "hoists");
    #[cfg(feature = "telemetry")]
    {
        println!(
            "{:<26} {:>10.3} {:>8}",
            "per-call (8 batches)",
            per_call_t * 1e3,
            per_call_hoists
        );
        println!(
            "{:<26} {:>10.3} {:>8}",
            "coalesced (1 batch)",
            batched_t * 1e3,
            batched_hoists
        );
        assert!(
            batched_hoists < per_call_hoists,
            "coalesced batch must hoist fewer times than per-call"
        );
    }
    #[cfg(not(feature = "telemetry"))]
    {
        println!(
            "{:<26} {:>10.3} {:>8}",
            "per-call (8 batches)",
            per_call_t * 1e3,
            "n/a"
        );
        println!(
            "{:<26} {:>10.3} {:>8}",
            "coalesced (1 batch)",
            batched_t * 1e3,
            "n/a"
        );
        println!("(rebuild with --features telemetry for the hoist counters)");
    }
}

/// `tables serve_scale` — sharded multi-dispatcher serving throughput.
///
/// Drives the mixed add/mul/rotation workload of
/// [`crate::serve_scale`] over the TCP loopback: a blocking
/// request-per-roundtrip baseline on a single dispatcher (the pre-mux
/// stack's behaviour — queues never fill, rotations never coalesce),
/// then the pipelined multiplexing client against 1, 2, and 4 shards
/// and against 1 and 4 tenants. Every cell's response digest must be
/// identical: sharding, stealing, and pipelining are scheduling-only.
pub fn serve_scale() {
    use crate::serve_scale::{requests_per_tenant, run_cell, Harness};

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let h = Harness::new();
    println!(
        "N=2^12, L=4+special; {} requests/tenant ({} rotations : {} adds : {} muls per round, {} rounds); host cores: {}",
        requests_per_tenant(),
        crate::serve_scale::ROT_STEPS.len(),
        crate::serve_scale::ADDS_PER_ROUND,
        crate::serve_scale::MULS_PER_ROUND,
        crate::serve_scale::ROUNDS,
        cores,
    );
    println!(
        "keyset frame: {} bytes (chunk-streamed registration), ciphertext frame: {} bytes",
        h.keyset_frame.len(),
        h.frame_a.len()
    );

    #[cfg(feature = "telemetry")]
    let reg = poseidon_telemetry::Registry::global();

    let baseline = run_cell(&h, 1, 4, false);

    // The tentpole cell — 4 shards, 4 tenants, pipelined — with the
    // coalescing counters watched under telemetry.
    #[cfg(feature = "telemetry")]
    let before = reg.snapshot();
    let tentpole = run_cell(&h, 4, 4, true);
    #[cfg(feature = "telemetry")]
    {
        let diff = reg.snapshot().since(&before);
        let hoists = diff.get("keyswitch.hoist").map_or(0, |s| s.count);
        let rotations =
            (crate::serve_scale::ROT_STEPS.len() * crate::serve_scale::ROUNDS * 4) as u64;
        let (_, stolen) = diff.sum_prefix("serve.steal");
        println!(
            "coalescing under shard affinity: {rotations} rotations -> {hoists} hoisted lifts ({stolen} jobs stolen)"
        );
        assert!(
            hoists < rotations,
            "pipelined shard queues must coalesce same-ciphertext rotations \
             ({hoists} hoists for {rotations} rotations)"
        );
    }

    let cells = [
        run_cell(&h, 1, 4, true),
        run_cell(&h, 2, 4, true),
        run_cell(&h, 4, 1, true),
    ];

    println!(
        "\n{:<12} {:>7} {:>8} {:>9} {:>10} {:>10} {:>10}",
        "mode", "shards", "tenants", "requests", "req/s", "p99 ms", "digest"
    );
    let mut rows = vec![&baseline, &tentpole];
    rows.extend(cells.iter());
    for c in &rows {
        println!(
            "{:<12} {:>7} {:>8} {:>9} {:>10.1} {:>10.2} {:>10x}",
            c.mode, c.shards, c.tenants, c.requests, c.rps, c.p99_ms, c.digest
        );
    }

    // Bit-identity: every 4-tenant cell must produce the same digest.
    for c in &rows {
        if c.tenants == baseline.tenants {
            assert_eq!(
                c.digest, baseline.digest,
                "{} x{} shards diverged from the baseline digest",
                c.mode, c.shards
            );
        }
    }
    println!("\nall 4-tenant schedules produced bit-identical response frames");

    let speedup = tentpole.rps / baseline.rps;
    println!(
        "4 shards (pipelined) vs single-dispatcher blocking baseline: {speedup:.2}x requests/sec"
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "acceptance: >= 2x sustained requests/sec at 4 shards (got {speedup:.2}x)"
        );
    } else {
        println!(
            "(acceptance >= 2x expects >= 4 cores so shard workers run in parallel; \
             this host has {cores} — crypto work serializes and the ratio reflects \
             scheduling/coalescing effects only; see EXPERIMENTS.md)"
        );
    }
}
