//! The open-loop load generator: requests are sent when they are due,
//! whether or not earlier ones have been answered, and each is timed from
//! its due time.
//!
//! One generator thread owns one connection. It sends, and between sends
//! it collects replies, oldest first; it sleeps until shortly before the
//! next due time and spins the rest, so that how late it runs (reported as
//! lag) stays far below the latencies it measures.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::stats;

/// A request that has been sent and not yet answered.
pub trait InFlight {
    type Reply;

    /// Waits up to `wait` for the reply; `None` while it is in flight.
    fn poll(&self, wait: Duration) -> Option<Result<Self::Reply, String>>;
}

/// How close to a due time the generator stops sleeping and spins.
const SPIN_NS: u64 = 200_000;

/// One answered (or failed) request of an open loop.
pub struct Completion<R> {
    /// Position in the schedule.
    pub index: usize,
    pub reply: Result<R, String>,
    /// From the request's due time to the moment its reply was seen.
    pub latency_ns: u64,
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Sends request `i` at `start + due_ns[i]` through `submit`, hands every
/// outcome to `complete`, and returns how late each send ran. A request
/// still unanswered `drain` after the last send fails.
pub fn open_loop<P: InFlight>(
    start: Instant,
    due_ns: &[u64],
    drain: Duration,
    mut submit: impl FnMut(usize) -> Result<P, String>,
    mut complete: impl FnMut(Completion<P::Reply>),
) -> Vec<u64> {
    let mut lag_ns = Vec::with_capacity(due_ns.len());
    let mut pending: VecDeque<(usize, P)> = VecDeque::new();
    let mut next = 0;
    let mut drain_until = None;
    loop {
        let now = nanos_since(start);
        if next < due_ns.len() && now >= due_ns[next] {
            lag_ns.push(stats::generator_lag_ns(due_ns[next], now));
            match submit(next) {
                Ok(sent) => pending.push_back((next, sent)),
                Err(e) => complete(Completion {
                    index: next,
                    reply: Err(e),
                    latency_ns: stats::due_time_latency_ns(due_ns[next], nanos_since(start)),
                }),
            }
            next += 1;
            continue;
        }
        let wait_ns = if next < due_ns.len() {
            due_ns[next] - now
        } else {
            let until = *drain_until.get_or_insert(now + drain.as_nanos() as u64);
            until.saturating_sub(now)
        };
        let Some((index, front)) = pending.front() else {
            if next == due_ns.len() {
                return lag_ns;
            }
            if wait_ns > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(wait_ns - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        if next < due_ns.len() && wait_ns <= SPIN_NS {
            std::hint::spin_loop();
            continue;
        }
        let budget = if next < due_ns.len() {
            wait_ns - SPIN_NS
        } else {
            wait_ns
        };
        let reply = match front.poll(Duration::from_nanos(budget)) {
            Some(reply) => reply,
            None if next == due_ns.len() && wait_ns == 0 => {
                Err("no reply before the drain deadline".to_string())
            }
            None => continue,
        };
        complete(Completion {
            index: *index,
            reply,
            latency_ns: stats::due_time_latency_ns(due_ns[*index], nanos_since(start)),
        });
        pending.pop_front();
    }
}
