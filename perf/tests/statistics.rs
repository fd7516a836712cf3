//! The statistics behind every reported number.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use perf::loadgen::{self, InFlight};
use perf::stats::{self, Onion};
use perf::trace::{self, Span};

#[test]
fn nearest_rank_percentiles() {
    let sample: Vec<u64> = (1..=100).collect();
    assert_eq!(stats::percentile(&sample, 50.0), Some(50));
    assert_eq!(stats::percentile(&sample, 90.0), Some(90));
    assert_eq!(stats::percentile(&sample, 99.0), Some(99));
    assert_eq!(stats::percentile(&sample, 100.0), Some(100));
    assert_eq!(stats::percentile(&[7], 90.0), Some(7));
    assert_eq!(stats::percentile(&[], 50.0), None);
    assert_eq!(stats::median(&[9, 1, 5]), Some(5));
    assert_eq!(stats::median_f64(&[4.0, 1.0]), Some(2.5));
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    // Fewer than 40 samples: even p75 has fewer than ten beyond it.
    assert_eq!(stats::highest_supported_percentile(8), None);
    assert_eq!(stats::highest_supported_percentile(39), None);
    assert_eq!(stats::highest_supported_percentile(40), Some(75.0));
    // p90 needs a hundred samples, p99 a thousand.
    assert_eq!(stats::highest_supported_percentile(99), Some(75.0));
    assert_eq!(stats::highest_supported_percentile(100), Some(90.0));
    assert_eq!(stats::highest_supported_percentile(999), Some(95.0));
    assert_eq!(stats::highest_supported_percentile(1000), Some(99.0));
    assert_eq!(stats::highest_supported_percentile(10_000), Some(99.9));
    for n in [40usize, 100, 200, 1000, 2160] {
        let p = stats::highest_supported_percentile(n).expect("supported");
        assert!(stats::samples_beyond(n, p) >= 10, "n = {n}, p = {p}");
    }
}

/// A single FIFO server that takes `service` per request and does nothing
/// at all between `stall.0` and `stall.1`: when each request is done.
fn fifo_done_times(sent: &[u64], service: u64, stall: (u64, u64)) -> Vec<u64> {
    let mut free_at = 0;
    sent.iter()
        .map(|&arrived| {
            let mut begin = arrived.max(free_at);
            if begin >= stall.0 && begin < stall.1 {
                begin = stall.1;
            }
            free_at = begin + service;
            free_at
        })
        .collect()
}

#[test]
fn due_time_latency_charges_a_stall_to_every_request_due_in_it() {
    // One request every 10 ms, 1 ms of service, the server stalled from
    // 25 ms to 75 ms. A generator that waits for each reply before sending
    // the next (a closed loop) sends late and sees one slow request; timed
    // from their due times, five requests are slow.
    let due: Vec<u64> = (0..10).map(|i| i * 10_000_000).collect();
    let (service, stall) = (1_000_000, (25_000_000, 75_000_000));

    // Each request goes out when it is due and the one before is answered.
    let mut sent: Vec<u64> = Vec::new();
    let mut done: Vec<u64> = Vec::new();
    for &d in &due {
        sent.push(d.max(done.last().copied().unwrap_or(0)));
        done = fifo_done_times(&sent, service, stall);
    }
    let from_send: Vec<u64> = sent.iter().zip(&done).map(|(s, d)| d - s).collect();
    let from_due: Vec<u64> = due
        .iter()
        .zip(&done)
        .map(|(&due, &done)| stats::due_time_latency_ns(due, done))
        .collect();
    let slow = |l: &[u64]| l.iter().filter(|&&x| x > 5_000_000).count();
    assert_eq!(slow(&from_send), 1, "{from_send:?}");
    assert_eq!(slow(&from_due), 5, "{from_due:?}");
    // The request due at 30 ms waited for the stall to end at 75 ms.
    assert_eq!(from_due[3], 46_000_000);
    // A reply seen before its due time (clock skew) is zero, not negative.
    assert_eq!(stats::due_time_latency_ns(10, 5), 0);
}

#[test]
fn generator_lag_is_how_late_a_send_ran() {
    assert_eq!(stats::generator_lag_ns(1_000, 1_250), 250);
    assert_eq!(stats::generator_lag_ns(1_000, 1_000), 0);
    assert_eq!(stats::generator_lag_ns(1_000, 900), 0);
}

#[test]
fn onion_layers_sum_to_the_outermost_depth() {
    let o = Onion {
        eval_ns: 300_000,
        wire_ns: 700_000,
        service_ns: 1_900_000,
        tcp_ns: 3_500_000,
    };
    assert_eq!(o.service_overhead_ns(), 1_600_000);
    assert_eq!(o.tcp_overhead_ns(), 900_000);
    assert_eq!(o.layers_sum_ns(), o.tcp_ns);
    // A thin layer can measure negative on a noisy host; the sum holds.
    let noisy = Onion {
        eval_ns: 500,
        wire_ns: 900,
        service_ns: 450,
        tcp_ns: 1_000,
    };
    assert_eq!(noisy.service_overhead_ns(), -50);
    assert_eq!(noisy.tcp_overhead_ns(), -350);
    assert_eq!(noisy.layers_sum_ns(), noisy.tcp_ns);
}

#[test]
fn poisson_schedule_repeats_for_a_seed_and_keeps_its_count() {
    let draw = |seed: u64| {
        let mut rng = perf::adapter::rng(seed);
        stats::poisson_schedule_ns(1000, 10_000_000_000, || perf::adapter::uniform(&mut rng))
    };
    let (a, b, c) = (draw(7), draw(7), draw(8));
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!((a.len(), c.len()), (1000, 1000));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| t < 10_000_000_000));
    // Gaps of a Poisson process are exponential: about 1/e of them are
    // longer than the mean gap of 10 ms.
    let long = a.windows(2).filter(|w| w[1] - w[0] > 10_000_000).count();
    assert!((300..440).contains(&long), "{long} long gaps");
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    };
    let spans = vec![
        span("execute", 0, 100, None),
        span("mul", 10, 40, Some(0)),
        span("rescale", 50, 70, Some(0)),
        span("execute", 200, 260, None),
        span("mul", 210, 250, Some(3)),
    ];
    let totals = trace::totals(&spans);
    let execute = totals["execute"];
    assert_eq!(
        (execute.count, execute.busy_ns, execute.self_ns),
        (2, 160, 70)
    );
    assert_eq!(totals["mul"].busy_ns, 70);
    assert_eq!(totals["rescale"].self_ns, 20);
    // The parts sum to the whole.
    assert_eq!(
        execute.self_ns + totals["mul"].busy_ns + totals["rescale"].busy_ns,
        execute.busy_ns
    );
}

/// An in-flight request answered over a channel by the test itself.
struct Fake(mpsc::Receiver<u32>);

impl InFlight for Fake {
    type Reply = u32;

    fn poll(&self, wait: Duration) -> Option<Result<u32, String>> {
        match self.0.recv_timeout(wait) {
            Ok(v) => Some(Ok(v)),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err("dropped".into())),
        }
    }
}

#[test]
fn open_loop_sends_everything_on_schedule_even_when_replies_are_withheld() {
    // The "server" answers nothing until every request has been sent: a
    // closed loop would deadlock here, the open loop must not. Request 2 is
    // refused at submit, request 4 is dropped by the server.
    let due: Vec<u64> = (0..6).map(|i| i * 2_000_000).collect();
    let mut held: VecDeque<(usize, mpsc::Sender<u32>)> = VecDeque::new();
    let mut sent_order = Vec::new();
    let mut completions = Vec::new();
    let start = Instant::now();
    let lag = loadgen::open_loop(
        start,
        &due,
        Duration::from_secs(5),
        |i| {
            sent_order.push(i);
            if i == 2 {
                return Err("refused".to_string());
            }
            let (tx, rx) = mpsc::channel();
            held.push_back((i, tx));
            if i == due.len() - 1 {
                for (j, tx) in held.drain(..) {
                    if j != 4 {
                        tx.send(j as u32 * 10).expect("receiver alive");
                    }
                }
            }
            Ok(Fake(rx))
        },
        |done| completions.push(done),
    );
    assert_eq!(sent_order, [0, 1, 2, 3, 4, 5]);
    assert_eq!(lag.len(), due.len());
    assert_eq!(completions.len(), due.len());
    let mut by_index: Vec<_> = completions.iter().collect();
    by_index.sort_by_key(|c| c.index);
    for c in by_index {
        match c.index {
            2 => assert_eq!(c.reply, Err("refused".to_string())),
            4 => assert_eq!(c.reply, Err("dropped".to_string())),
            i => {
                assert_eq!(c.reply, Ok(i as u32 * 10));
                // Nothing was answered before the last send was due, so
                // every latency from due time covers at least that wait.
                assert!(c.latency_ns >= due[due.len() - 1] - due[i]);
            }
        }
    }
}
