//! The statistics every reported number goes through: nearest-rank
//! percentiles, the highest percentile a sample supports, latency counted
//! from a request's due time, and the onion subtraction that splits one
//! served request into its layers.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// small subtraction keeps a product that is whole on paper (99.9 % of
/// 10 000) from rounding up through floating-point error.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[u64]) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0)
}

/// Median of a float sample (mean of the middle two when even).
pub fn median_f64(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The percentiles a tail is reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it in a sample of `n` — a tail read off fewer is one outlier, not
/// a percentile. `None` when even p75 has fewer than ten beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` ascending samples lie beyond the nearest-rank `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Latency of an open-loop request, counted from when it was *due*, not
/// from when the generator got round to sending it: a stall that delays
/// later sends is charged to those requests instead of hiding in the
/// generator.
pub fn due_time_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// How late the generator sent a request against its schedule.
pub fn generator_lag_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// One request timed at four depths, outermost last. Every field is a
/// median over repetitions of the same request, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Onion {
    /// The bare evaluator on already-decoded operands.
    pub eval_ns: i64,
    /// Decoding the operand frames plus encoding the reply frame.
    pub wire_ns: i64,
    /// `EvalService::call` in process (admission, queue, execution, reply).
    pub service_ns: i64,
    /// The request over TCP loopback.
    pub tcp_ns: i64,
}

impl Onion {
    /// What the service adds to the evaluator: admission, queueing,
    /// integrity re-execution, replay bookkeeping. Signed: on a noisy host a
    /// thin layer can measure below zero, and clamping would break the sum.
    pub fn service_overhead_ns(&self) -> i64 {
        self.service_ns - self.eval_ns
    }

    /// What TCP adds to the service and the codec: framing, copies, socket.
    pub fn tcp_overhead_ns(&self) -> i64 {
        self.tcp_ns - self.service_ns - self.wire_ns
    }

    /// The layers summed back up; equals `tcp_ns` by construction.
    pub fn layers_sum_ns(&self) -> i64 {
        self.eval_ns + self.service_overhead_ns() + self.wire_ns + self.tcp_overhead_ns()
    }
}

/// Seeded Poisson arrivals over `horizon_ns`, conditioned on their count:
/// given that a Poisson process had `count` arrivals in an interval, they
/// lie there as `count` sorted uniform draws. Fixing the count at rate ×
/// duration keeps the offered load the same for every seed, while gaps and
/// bursts still vary. `uniform` yields values in `[0, 1)`.
pub fn poisson_schedule_ns(
    count: usize,
    horizon_ns: u64,
    mut uniform: impl FnMut() -> f64,
) -> Vec<u64> {
    let mut due: Vec<u64> = (0..count)
        .map(|_| (uniform() * horizon_ns as f64) as u64)
        .collect();
    due.sort_unstable();
    due
}
