//! Every workload and metric the benchmark knows, by name: unit, which
//! direction is better, the regression bound (end to end) or the
//! end-to-end metric it is predicted to move (per layer). `BENCHMARK.json`,
//! `perf/README.md` and the printed tables all follow this file; `perf
//! validate` checks that they still agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may read before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline value.
    Relative(f64),
    /// An absolute difference, for shares that sit at 0 or 1.
    Absolute(f64),
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "boot_inproc",
        why: "in-process packed bootstrapping: 26-limb key-switch, ntt, rns and par do all the work; wire, serve and the planner none",
    },
    Workload {
        name: "prog_rot",
        why: "planned keyswitch_micro.pos at N=2^13: key-switch as hoisted rotation fans, on a working set past L2",
    },
    Workload {
        name: "prog_mul",
        why: "planned deep_mul_chain.pos at N=2^13: unhoisted relinearisation and rescale; bypasses what prog_rot exercises",
    },
    Workload {
        name: "serve_program",
        why: "bsgs_matvec.pos over TCP, closed loop, one request in flight per tenant: crosses every layer, no batch can form",
    },
    Workload {
        name: "serve_mix_pipelined",
        why: "rotations, adds and a mul pipelined over TCP: the only load that fills shard queues, coalesces rotations, steals",
    },
    Workload {
        name: "serve_light_open",
        why: "open-loop Poisson arrivals of NTT-free ops at 100 req/s: wire and serve are the request; queueing shows apart",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Whether `BENCHMARK.json` lists it. The driver's contract wants every
    /// listed metric defined and non-zero on every workload and steady
    /// within its bound. The tail has too few samples on the in-process
    /// workloads and does not hold 25 % on this host in the open loop; one
    /// share exists on one workload and the other is zero when all is well.
    /// Those three are printed, recorded and checked by `perf compare` only.
    pub gated: bool,
    pub why: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: true,
        why: "context, key generation, keyset encode, registration and warm-up until every lazy cache is full; median of the run's set-ups",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: true,
        why: "median time of one operation: one bootstrap, one program execution, one request (from its due time in the open loop)",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: false,
        why: "90th percentile of the same times, only where at least ten samples lie beyond it (100 samples: the serve_* workloads)",
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        gated: true,
        why: "operations completed per second of the timed phase; in the open loop this is the offered rate unless the server falls behind",
    },
    EndToEnd {
        name: "cpu_s_per_op",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: true,
        why: "user plus system CPU seconds of the process over operations completed, load generator included",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        gated: true,
        why: "peak resident set (VmHWM) once the timed phase and its output checks are done; on serve_light_open, where host stalls set the peak, the median resident set (VmRSS) read at every tenth send",
    },
    EndToEnd {
        name: "within_limit_share",
        unit: "share",
        better: Better::Higher,
        bound: Bound::Absolute(0.02),
        gated: false,
        why: "serve_light_open only: share of requests sent that succeeded within 20 ms of their due time; failures and refusals miss",
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        gated: false,
        why: "failed, refused or wrong-output operations over operations attempted; any increase is a regression",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metrics and workloads it is predicted to move,
    /// written down before anything was measured.
    pub moves: &'static str,
}

const KERNELS: &str = "latency_p50_ms and cpu_s_per_op on boot_inproc, prog_rot, prog_mul and through them serve_program; no change on serve_light_open (zero NTTs)";
const ROTATION: &str =
    "latency_p50_ms on prog_rot and throughput_ops_s on serve_mix_pipelined; no change on prog_mul";
const MULTIPLY: &str = "latency_p50_ms on prog_mul; no change on prog_rot";
const BOOT: &str = "latency_p50_ms on boot_inproc, split the way paper Fig 8 splits bootstrapping";
const PLAN_COMPILE: &str = "about 1 ms of an 85 ms serve_program request: no end-to-end metric above its bound on any workload";
const PLAN_EXEC: &str = "peak_rss_mb and latency_p50_ms on prog_rot and prog_mul";
const FRONT: &str = "latency_p50_ms, latency_p90_ms, within_limit_share and cpu_s_per_op on serve_light_open; at most 3 % of serve_program";
const SERVICE: &str = "as the front end on serve_light_open, plus throughput_ops_s on serve_mix_pipelined (its mul and adds run twice)";
const QUEUE: &str = "throughput_ops_s and latency_p90_ms on serve_mix_pipelined only; p90 rises before throughput stops rising";
const RESIDENT: &str = "peak_rss_mb on the serve_* workloads";
const PAR: &str = "latency_p50_ms on boot_inproc and prog_*; about 0 on serve_*, whose shard workers already hold the cores";
const SYS: &str = "cpu_s_per_op on every workload (thread spawn and allocation churn)";
const SETUP: &str = "setup_s, so work moved into set-up shows";
const MODEL: &str =
    "nothing measured: the accelerator model's answer for the same trace, beside the host's";
const SELF: &str = "nothing: describes the benchmark's own run";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            moves: $moves,
        }
    };
}

pub const PER_LAYER: [Layer; 104] = [
    // math
    layer!("math.barrett_mul.ns_per_1k", "ns", Lower, KERNELS),
    layer!("math.shoup_mul.ns_per_1k", "ns", Lower, KERNELS),
    // ntt
    layer!("ntt.forward.ns_per_call", "ns", Lower, KERNELS),
    layer!("ntt.inverse.ns_per_call", "ns", Lower, MULTIPLY),
    layer!("ntt.forward.count", "count", Lower, KERNELS),
    layer!("ntt.inverse.count", "count", Lower, MULTIPLY),
    layer!("ntt.forward.busy_ns", "ns", Lower, KERNELS),
    layer!("ntt.inverse.busy_ns", "ns", Lower, MULTIPLY),
    // rns
    layer!("rns.modup.ns_per_call", "ns", Lower, KERNELS),
    layer!("rns.moddown.ns_per_call", "ns", Lower, KERNELS),
    layer!("rns.rescale.ns_per_call", "ns", Lower, MULTIPLY),
    layer!("rns.mul_assign.ns_per_call", "ns", Lower, KERNELS),
    layer!("rns.automorphism_eval.ns_per_call", "ns", Lower, ROTATION),
    layer!("rns.pointwise.count", "count", Lower, KERNELS),
    layer!("rns.pointwise.busy_ns", "ns", Lower, KERNELS),
    layer!("rns.moddown.count", "count", Lower, KERNELS),
    layer!("rns.moddown.busy_ns", "ns", Lower, KERNELS),
    layer!("rns.convert.count", "count", Lower, KERNELS),
    layer!("rns.convert.busy_ns", "ns", Lower, KERNELS),
    // ckks: spans of the benchmark's HomomorphicOps wrapper
    layer!("ckks.add.count", "count", Lower, PLAN_EXEC),
    layer!("ckks.add.busy_ns", "ns", Lower, PLAN_EXEC),
    layer!("ckks.mul_plain.count", "count", Lower, MULTIPLY),
    layer!("ckks.mul_plain.busy_ns", "ns", Lower, MULTIPLY),
    layer!("ckks.mul.count", "count", Lower, MULTIPLY),
    layer!("ckks.mul.busy_ns", "ns", Lower, MULTIPLY),
    layer!("ckks.rescale.count", "count", Lower, MULTIPLY),
    layer!("ckks.rescale.busy_ns", "ns", Lower, MULTIPLY),
    layer!("ckks.rotate.count", "count", Lower, ROTATION),
    layer!("ckks.rotate.busy_ns", "ns", Lower, ROTATION),
    layer!("ckks.rotate_many.count", "count", Lower, ROTATION),
    layer!("ckks.rotate_many.busy_ns", "ns", Lower, ROTATION),
    // ckks: bootstrap stages
    layer!("ckks.boot.mod_raise.busy_ns", "ns", Lower, BOOT),
    layer!("ckks.boot.subsum.busy_ns", "ns", Lower, BOOT),
    layer!("ckks.boot.coeff_to_slot.busy_ns", "ns", Lower, BOOT),
    layer!("ckks.boot.eval_mod.busy_ns", "ns", Lower, BOOT),
    layer!("ckks.boot.slot_to_coeff.busy_ns", "ns", Lower, BOOT),
    // ckks: probes
    layer!("ckks.keyswitch.ns_per_call", "ns", Lower, KERNELS),
    layer!("ckks.hoist.ns_per_call", "ns", Lower, ROTATION),
    layer!(
        "ckks.apply_galois_hoisted.ns_per_call",
        "ns",
        Lower,
        ROTATION
    ),
    layer!("ckks.checked_mul.ns_per_call", "ns", Lower, SERVICE),
    layer!("ckks.encode.ns_per_call", "ns", Lower, SETUP),
    layer!("ckks.decode.ns_per_call", "ns", Lower, SELF),
    layer!("ckks.encrypt.ns_per_call", "ns", Lower, SETUP),
    layer!("ckks.decrypt.ns_per_call", "ns", Lower, SELF),
    // ckks: the program's own registry
    layer!("ckks.keyswitch.count", "count", Lower, KERNELS),
    layer!("ckks.keyswitch.busy_ns", "ns", Lower, KERNELS),
    layer!("ckks.keyswitch_digit.busy_ns", "ns", Lower, KERNELS),
    layer!("ckks.keyswitch_hoist.count", "count", Lower, ROTATION),
    layer!("ckks.keyswitch_hoist.busy_ns", "ns", Lower, ROTATION),
    layer!("ckks.saved_ntt.count", "count", Higher, ROTATION),
    // ckks: set-up parts
    layer!("ckks.keygen.ms", "ms", Lower, SETUP),
    layer!("ckks.rotation_keygen.ms_per_key", "ms", Lower, SETUP),
    // core
    layer!(
        "core.plan.parse_compile.ns_per_call",
        "ns",
        Lower,
        PLAN_COMPILE
    ),
    layer!("core.plan.exec.self_ns", "ns", Lower, PLAN_EXEC),
    layer!("core.plan.nodes_after", "count", Lower, PLAN_EXEC),
    layer!("core.plan.hoist_batches", "count", Higher, ROTATION),
    layer!("core.plan.max_live", "count", Lower, PLAN_EXEC),
    layer!("core.auto.hfauto.ns_per_call", "ns", Lower, ROTATION),
    // par
    layer!("par.dispatch.count", "count", Lower, PAR),
    layer!("par.serial.count", "count", Lower, PAR),
    layer!("par.parallel_share", "share", Higher, PAR),
    layer!("par.threads", "count", Higher, PAR),
    layer!("par.par_map.overhead_ns", "ns", Lower, PAR),
    // sim
    layer!("sim.simulated_us", "us", Lower, MODEL),
    layer!("sim.host_us_per_run", "us", Lower, MODEL),
    // wire
    layer!("wire.decode_ct.ns_per_call", "ns", Lower, FRONT),
    layer!("wire.decode_ct_pooled.ns_per_call", "ns", Lower, RESIDENT),
    layer!("wire.encode_ct.ns_per_call", "ns", Lower, FRONT),
    layer!("wire.checksum.ns_per_mb", "ns/MB", Lower, FRONT),
    layer!("wire.encode_keyset.ms", "ms", Lower, SETUP),
    layer!("wire.decode_keyset.ms", "ms", Lower, SETUP),
    layer!("wire.bytes_per_op", "bytes", Lower, FRONT),
    layer!("wire.decode.count", "count", Lower, FRONT),
    layer!("wire.encode.count", "count", Lower, FRONT),
    layer!("wire.decode.busy_ns", "ns", Lower, FRONT),
    layer!("wire.encode.busy_ns", "ns", Lower, FRONT),
    // serve: the onion
    layer!("serve.onion.eval_ns", "ns", Lower, FRONT),
    layer!("serve.onion.wire_ns", "ns", Lower, FRONT),
    layer!("serve.onion.service_ns", "ns", Lower, SERVICE),
    layer!("serve.onion.tcp_ns", "ns", Lower, FRONT),
    layer!("serve.service.overhead_ns", "ns", Lower, SERVICE),
    layer!("serve.tcp.overhead_ns", "ns", Lower, FRONT),
    // serve: the program's own registry
    layer!("serve.enqueue.count", "count", Lower, QUEUE),
    layer!("serve.dequeue.count", "count", Lower, QUEUE),
    layer!("serve.batch_size.mean", "count", Higher, QUEUE),
    layer!("serve.steal.count", "count", Lower, QUEUE),
    layer!("serve.reject.count", "count", Lower, QUEUE),
    layer!("serve.shed.count", "count", Lower, QUEUE),
    layer!("serve.replay_hit.count", "count", Higher, RESIDENT),
    layer!("serve.keycache_miss.count", "count", Lower, RESIDENT),
    layer!("serve.program.count", "count", Lower, PLAN_COMPILE),
    // serve: polled through public getters at each submit
    layer!("serve.queue_depth.max", "count", Lower, QUEUE),
    layer!("serve.replay_bytes.max", "bytes", Lower, RESIDENT),
    // serve: set-up parts and the informational tail
    layer!("serve.start_listen.ms", "ms", Lower, SETUP),
    layer!("serve.register_chunked.ms", "ms", Lower, SETUP),
    layer!("serve.tcp.latency_p99_ms", "ms", Lower, QUEUE),
    // the benchmark itself
    layer!("loadgen.sent", "count", Higher, SELF),
    layer!("loadgen.ok", "count", Higher, SELF),
    layer!("loadgen.failed", "count", Lower, SELF),
    layer!("loadgen.lag_p99_ms", "ms", Lower, SELF),
    layer!("loadgen.within_limit_share", "share", Higher, FRONT),
    layer!("proc.cpu_user_s", "s", Lower, SYS),
    layer!("proc.cpu_sys_s", "s", Lower, SYS),
    layer!("trace.overhead_share", "share", Lower, SELF),
];

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Latency limit of the open-loop workload, from each request's due time.
pub const LIGHT_LATENCY_LIMIT_MS: f64 = 20.0;
