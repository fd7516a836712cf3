//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API subset the workspace's benches use — groups,
//! `bench_function` / `bench_with_input`, [`BenchmarkId`], `sample_size`,
//! and the [`criterion_group!`] / [`criterion_main!`] macros — backed by a
//! plain wall-clock harness: per sample, the measured closure runs in a
//! batch sized to take ≳5 ms, and the per-iteration median/min/mean across
//! samples is printed to stdout.
//!
//! No statistical outlier analysis, plots, or result persistence — numbers
//! print once and the caller records them (EXPERIMENTS.md does).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness handle.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== bench group: {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: self.sample_size,
        }
    }

    /// Registers a benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let sample_size = self.sample_size;
        run_one("", &id.into().label, sample_size, f);
    }
}

/// A named benchmark identifier (`group/function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identifier `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Times `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_one(&self.name, &id.into().label, self.sample_size, f);
        self
    }

    /// Times `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&self.name, &id.label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (printing already happened per-bench).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, label: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
        sample_size,
    };
    f(&mut b);
    let full = if group.is_empty() {
        label.to_string()
    } else {
        format!("{group}/{label}")
    };
    match summarize(&b.samples) {
        Some((median, mean, min)) => println!(
            "{full:<44} median {:>12}  mean {:>12}  min {:>12}",
            fmt_duration(median),
            fmt_duration(mean),
            fmt_duration(min),
        ),
        None => println!("{full:<44} (no measurement — Bencher::iter never called)"),
    }
}

fn summarize(samples: &[Duration]) -> Option<(Duration, Duration, Duration)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    Some((median, mean, min))
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Times a closure: batches iterations until a sample takes ≳5 ms, then
/// records `sample_size` timed samples of the mean per-iteration cost.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measures `routine`, retaining its output via [`black_box`] so the
    /// optimizer cannot elide the work.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + batch sizing: grow the batch until it costs ≥ 5 ms (or
        // a 64k-iteration cap for ultra-cheap routines).
        let mut batch: u64 = 1;
        let batch_target = Duration::from_millis(5);
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= batch_target || batch >= 65_536 {
                break;
            }
            // Aim straight at the target with a 2× safety margin.
            let scale = (batch_target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil();
            batch = (batch.saturating_mul(scale as u64 * 2)).clamp(batch + 1, 65_536);
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch as u32);
        }
    }

    /// `iter` variant receiving per-sample setup output (subset: setup runs
    /// once per iteration, outside the timed region is NOT guaranteed).
    pub fn iter_with_setup<S, O, P: FnMut() -> S, R: FnMut(S) -> O>(
        &mut self,
        mut setup: P,
        mut routine: R,
    ) {
        self.iter(|| routine(setup()));
    }
}

/// Declares a benchmark group entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("shim_selftest");
        group.bench_function("noop_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &k| {
            b.iter(|| (0..k).product::<u64>())
        });
        group.finish();
    }

    #[test]
    fn ids_format_as_expected() {
        assert_eq!(BenchmarkId::new("ntt", 4096).label, "ntt/4096");
        assert_eq!(BenchmarkId::from_parameter(3).label, "3");
    }
}
