//! What every workload shares: the options of a run, the shape of a timed
//! phase, probes, and the assembly of a record out of what was measured.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{self, Scope};
use crate::catalog;
use crate::procfs::{self, CpuTimes};
use crate::record::{Host, Metric, Record};
use crate::stats;
use crate::trace;

/// One invocation of `perf run`.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// The per-layer run: spans on, probes, the program's registry read.
    pub traced: bool,
    /// A tenth of `seconds`; the record is flagged and `compare` refuses it.
    pub quick: bool,
    /// Where records and traces are written.
    pub out_dir: PathBuf,
}

impl Options {
    /// The length of the timed phase after `--quick` is applied.
    pub fn run_length(&self) -> Duration {
        Duration::from_secs_f64(if self.quick {
            self.seconds / 10.0
        } else {
            self.seconds
        })
    }
}

/// How long [`condition_host`] keeps the cores busy.
const CONDITIONING: Duration = Duration::from_secs(1);

/// Keeps every core busy for a second (a tenth under `--quick`) before
/// anything is measured. This sandbox runs in one of two states and keeps
/// the one it is in for minutes: after both cores have been busy,
/// single-threaded and mostly idle work runs about a fifth faster than
/// after ten idle seconds (`serve_light_open` at 20 % utilisation: 4.1 ms
/// against 5.4 ms median; `boot_inproc` set-up: 3.0 s against 3.5 s).
/// Which state a run started in depended on what ran before it. One busy
/// second puts every run in the same, fast state, and a run that loads
/// the machine at all holds it.
pub fn condition_host(opts: &Options) {
    let length = if opts.quick {
        CONDITIONING / 10
    } else {
        CONDITIONING
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let start = Instant::now();
                let mut x = 1u64;
                while start.elapsed() < length {
                    for i in 0..10_000u64 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

/// What a timed phase produced.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// One latency per completed operation.
    pub latencies_ns: Vec<u64>,
    pub wall_s: f64,
    /// CPU the process used during the phase.
    pub cpu: CpuTimes,
    pub attempted: u64,
    /// Failed, refused or wrong-output operations.
    pub failed: u64,
    /// Open loop only: how late each request was sent.
    pub lag_ns: Vec<u64>,
    /// Open loop only: requests that succeeded within the latency limit.
    pub within_limit: Option<u64>,
    /// Request plus reply bytes that crossed the socket.
    pub wire_bytes: u64,
    /// Open loop only: the resident set in MB, read at every tenth send.
    pub rss_mb: Vec<f64>,
}

impl Timed {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Folds another driver thread's share of the same phase in.
    pub fn merge(&mut self, other: Timed) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lag_ns.extend(other.lag_ns);
        self.wire_bytes += other.wire_bytes;
        self.rss_mb.extend(other.rss_mb);
        self.within_limit = match (self.within_limit, other.within_limit) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
    }
}

/// Measures wall and CPU time around `phase`.
pub fn timed_phase(phase: impl FnOnce() -> adapter::Res<Timed>) -> adapter::Res<Timed> {
    let cpu0 = procfs::cpu_times()?;
    let t0 = Instant::now();
    let mut timed = phase()?;
    timed.wall_s = t0.elapsed().as_secs_f64();
    timed.cpu = procfs::cpu_times()?.since(&cpu0);
    Ok(timed)
}

/// A closed loop with one driver: runs `op` until `length` has passed (at
/// least twice), one operation in flight. An operation that errs, or whose
/// output `same` does not recognise as the warm-up's, counts as failed.
/// Returns the last output too, for the checks that follow.
pub fn closed_loop<T>(
    length: Duration,
    first_op: u64,
    mut op: impl FnMut() -> adapter::Res<T>,
    same: impl Fn(&T) -> bool,
) -> (Timed, Option<T>) {
    let mut timed = Timed::default();
    let mut last = None;
    let start = Instant::now();
    while timed.attempted < 2 || start.elapsed() < length {
        trace::set_operation(first_op + timed.attempted);
        timed.attempted += 1;
        let t0 = Instant::now();
        match op() {
            Ok(out) => {
                timed.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                if !same(&out) {
                    timed.failed += 1;
                }
                last = Some(out);
            }
            Err(_) => timed.failed += 1,
        }
    }
    (timed, last)
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per set-up performed in the run.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub timed: Timed,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// Per-layer metrics by catalogue name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    pub service_shards: usize,
    pub client_threads: usize,
    /// Peak resident set when the timed phase and its checks were done.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Reads the peak resident set now. Workloads call this before the
    /// extra set-ups that only steady `setup_s`: those allocate a second
    /// set of keys next to the first, and the peak should be the
    /// workload's, not theirs.
    pub fn mark_peak_rss(&mut self) -> adapter::Res<()> {
        self.peak_rss_mb = Some(procfs::peak_rss_mb()?);
        Ok(())
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::per_layer(name).is_some(), "unknown metric {name}");
        self.layers.insert(name, value);
    }
}

/// Repeats `f` for about `budget` (at least three calls after one to warm
/// up) and returns the median nanoseconds of one call.
pub fn probe_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 100_000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    stats::median(&samples).expect("at least three samples") as f64
}

/// [`probe_ns`] for a call that can fail: the first error ends the probe.
pub fn try_probe_ns(
    what: &str,
    budget: Duration,
    mut f: impl FnMut() -> adapter::Res<()>,
) -> adapter::Res<f64> {
    let mut failure = None;
    let ns = probe_ns(budget, || {
        if let Err(e) = f() {
            failure.get_or_insert(e);
        }
    });
    match failure {
        Some(e) => Err(format!("probe {what}: {e}")),
        None => Ok(ns),
    }
}

/// What the program's registry counted between two snapshots.
pub fn registry_since(
    earlier: &BTreeMap<String, Scope>,
    later: &BTreeMap<String, Scope>,
) -> BTreeMap<String, Scope> {
    later
        .iter()
        .map(|(name, now)| {
            let was = earlier.get(name).copied().unwrap_or_default();
            (
                name.clone(),
                Scope {
                    count: now.count - was.count,
                    items: now.items - was.items,
                    nanos: now.nanos - was.nanos,
                },
            )
        })
        .collect()
}

/// Copies registry scopes into per-layer metrics, per workload operation.
/// Nothing is recorded from a build without the registry, so the metrics
/// read `null` rather than a zero nobody measured.
pub fn registry_layers(out: &mut Outcome, delta: &BTreeMap<String, Scope>, ops: u64) {
    if !adapter::registry_compiled_in() || ops == 0 {
        return;
    }
    let per_op = |x: u64| x as f64 / ops as f64;
    let scope = |name: &str| delta.get(name).copied().unwrap_or_default();
    for (metric_count, metric_busy, name) in [
        (
            Some("ntt.forward.count"),
            Some("ntt.forward.busy_ns"),
            "ntt.forward",
        ),
        (
            Some("ntt.inverse.count"),
            Some("ntt.inverse.busy_ns"),
            "ntt.inverse",
        ),
        (
            Some("rns.pointwise.count"),
            Some("rns.pointwise.busy_ns"),
            "rns.pointwise",
        ),
        (
            Some("rns.moddown.count"),
            Some("rns.moddown.busy_ns"),
            "rns.moddown",
        ),
        (
            Some("rns.convert.count"),
            Some("rns.convert.busy_ns"),
            "rns.convert",
        ),
        (
            Some("ckks.keyswitch.count"),
            Some("ckks.keyswitch.busy_ns"),
            "eval.keyswitch",
        ),
        (
            None,
            Some("ckks.keyswitch_digit.busy_ns"),
            "keyswitch.digit",
        ),
        (
            Some("ckks.keyswitch_hoist.count"),
            Some("ckks.keyswitch_hoist.busy_ns"),
            "keyswitch.hoist",
        ),
        (Some("par.dispatch.count"), None, "par.dispatch"),
        (Some("par.serial.count"), None, "par.serial"),
        (
            Some("wire.decode.count"),
            Some("wire.decode.busy_ns"),
            "wire.decode",
        ),
        (
            Some("wire.encode.count"),
            Some("wire.encode.busy_ns"),
            "wire.encode",
        ),
        (Some("serve.enqueue.count"), None, "serve.enqueue"),
        (Some("serve.reject.count"), None, "serve.reject"),
        (Some("serve.shed.count"), None, "serve.shed"),
        (Some("serve.replay_hit.count"), None, "serve.replay.hit"),
        (
            Some("serve.keycache_miss.count"),
            None,
            "serve.keycache.miss",
        ),
    ] {
        let s = scope(name);
        if let Some(m) = metric_count {
            out.layer(m, per_op(s.count));
        }
        if let Some(m) = metric_busy {
            out.layer(m, per_op(s.nanos));
        }
    }
    // These scopes count in their `items`: forward NTTs a hoisted rotation
    // skipped, jobs per drained or stolen batch.
    out.layer(
        "ckks.saved_ntt.count",
        per_op(scope("keyswitch.saved_ntt").items),
    );
    out.layer("serve.dequeue.count", per_op(scope("serve.dequeue").items));
    out.layer("serve.steal.count", per_op(scope("serve.steal").items));
    out.layer("serve.program.count", per_op(scope("serve.program").count));
    let batches = scope("serve.batch.size");
    if batches.count > 0 {
        out.layer(
            "serve.batch_size.mean",
            batches.items as f64 / batches.count as f64,
        );
    }
    let (dispatch, serial) = (scope("par.dispatch").count, scope("par.serial").count);
    if dispatch + serial > 0 {
        out.layer(
            "par.parallel_share",
            dispatch as f64 / (dispatch + serial) as f64,
        );
    }
}

/// What every traced run reports about its own traced phase, next to the
/// untraced phase already in `out.timed`.
pub fn traced_phase_layers(out: &mut Outcome, traced: &Timed) {
    out.layer("loadgen.sent", traced.attempted as f64);
    out.layer(
        "loadgen.ok",
        traced.completed().saturating_sub(traced.failed) as f64,
    );
    out.layer("loadgen.failed", traced.failed as f64);
    if let (Some(off), Some(on)) = (
        stats::median(&out.timed.latencies_ns),
        stats::median(&traced.latencies_ns),
    ) {
        out.layer("trace.overhead_share", on as f64 / off as f64 - 1.0);
    }
}

/// Writes the spans of a traced run to `<out_dir>/<workload>.trace.json`.
pub fn write_trace(opts: &Options, spans: &[trace::Span]) -> adapter::Res<()> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!("{}.trace.json", opts.workload));
    std::fs::write(&path, trace::to_json(spans).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Turns what a workload measured into its record.
pub fn finish(opts: &Options, outcome: Outcome) -> adapter::Res<Record> {
    let timed = &outcome.timed;
    let sorted = timed.sorted_latencies();
    let completed = timed.completed();
    let failed = timed.failed + outcome.check_failures.len() as u64;
    let attempted = timed.attempted + outcome.check_failures.len() as u64;
    let mut values: BTreeMap<&'static str, f64> = outcome.layers.clone();

    if opts.traced {
        values.insert(
            "proc.cpu_user_s",
            timed.cpu.user_s / completed.max(1) as f64,
        );
        values.insert("proc.cpu_sys_s", timed.cpu.sys_s / completed.max(1) as f64);
        if let Some(p99) = stats::percentile(&sorted, 99.0) {
            if outcome.service_shards > 0 {
                values.insert("serve.tcp.latency_p99_ms", ms(p99));
            }
        }
        let mut lag = timed.lag_ns.clone();
        lag.sort_unstable();
        if let Some(p99) = stats::percentile(&lag, 99.0) {
            values.insert("loadgen.lag_p99_ms", ms(p99));
        }
        if let Some(within) = timed.within_limit {
            values.insert(
                "loadgen.within_limit_share",
                within as f64 / timed.attempted.max(1) as f64,
            );
        }
    } else {
        if let Some(s) = stats::median_f64(&outcome.setup_s) {
            values.insert("setup_s", s);
        }
        if let Some(p50) = stats::percentile(&sorted, 50.0) {
            values.insert("latency_p50_ms", ms(p50));
        }
        if stats::samples_beyond(sorted.len(), 90.0) >= 10 {
            if let Some(p90) = stats::percentile(&sorted, 90.0) {
                values.insert("latency_p90_ms", ms(p90));
            }
        }
        if completed > 0 && timed.wall_s > 0.0 {
            values.insert("throughput_ops_s", completed as f64 / timed.wall_s);
            values.insert("cpu_s_per_op", timed.cpu.total_s() / completed as f64);
        }
        values.insert(
            "peak_rss_mb",
            match outcome.peak_rss_mb {
                Some(mb) => mb,
                None => procfs::peak_rss_mb()?,
            },
        );
        if let Some(within) = timed.within_limit {
            values.insert(
                "within_limit_share",
                within as f64 / timed.attempted.max(1) as f64,
            );
        }
        values.insert("failed_share", failed as f64 / attempted.max(1) as f64);
    }

    let metric = |name: &'static str, unit: &'static str| Metric {
        name: name.to_string(),
        value: values.get(name).copied(),
        unit: unit.to_string(),
    };
    let metrics = if opts.traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| metric(m.name, m.unit))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit))
            .collect()
    };
    Ok(Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        seconds: opts.run_length().as_secs_f64(),
        quick: opts.quick,
        traced: opts.traced,
        host: Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            par_threads: adapter::par_threads(),
            service_shards: outcome.service_shards,
            client_threads: outcome.client_threads,
        },
        samples: completed,
        attempted,
        failed,
        correct: failed == 0,
        notes: outcome.check_failures,
        metrics,
    })
}
