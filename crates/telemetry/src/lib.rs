//! Observability substrate for the Poseidon software stack.
//!
//! The paper's whole evaluation is *measured* per-operator behaviour:
//! operator usage per basic operation (Table I), per-operation time
//! breakdowns (Figs 7–9), bandwidth utilisation (Table VII). This crate is
//! the measurement layer those regenerators sit on when they run against
//! the functional library instead of the analytical model.
//!
//! Three primitives, all `std`-only and lock-free on the hot path:
//!
//! * [`Metric`] — three atomics per named scope: an event counter, an
//!   element (work-item) counter and a monotonic busy-time accumulator.
//! * [`Span`] — an RAII timer guard ([`Metric::span`]): measures one timed
//!   region with `Instant` and folds duration + element count into the
//!   metric on drop. [`Metric::add`] is the timer-free variant for pure
//!   counting (the operator-pool path).
//! * [`Registry`] — a thread-safe name → `Arc<Metric>` map. The process
//!   global ([`Registry::global`]) is what instrumented crates use; each
//!   scope is resolved once into a static handle ([`scope_fn!`]) so the hot
//!   path never touches the map lock.
//!
//! [`Snapshot`] captures the registry (or any metric set) at an instant;
//! [`Snapshot::since`] is the difference of two.
//!
//! Scope naming convention is dotted lower-case paths mirroring the layers:
//! `ntt.forward`, `rns.convert`, `rescale`, `keyswitch.digit`, `eval.mul`,
//! `auto.hfauto`, `pool.mm`, `par.dispatch`, `boot.evalmod`.
//!
//! The key-switch scopes, stage by stage: `eval.keyswitch` is one event per
//! key-switched output (items = digits·N; a rotation fan runs its outputs
//! together and shares its elapsed time among them, [`Metric::record_shared`]);
//! `keyswitch.digit` is the inner-product kernel, one span per extended limb
//! of `Q_l ∪ P` and output covering every digit of that limb (items =
//! digits·N); `rns.moddown` is one event per Moddown'd polynomial (items =
//! extended limbs·N) and `rns.convert` the source-limb scaling of its basis
//! conversion (items = `P` limbs·N) — both recorded by per-limb halves that
//! may run on different workers: limb 0 records the event, every limb adds
//! its busy time ([`Metric::add_busy`]); `rns.pointwise` counts
//! whole-polynomial element-wise passes, of which a key-switch runs none.
//!
//! Every instrumented crate depends on this one unconditionally: counters
//! always count and spans always time, in every build, so a running
//! service's registry is always there to read.
//!
//! # Examples
//!
//! ```
//! use poseidon_telemetry::Registry;
//! let m = Registry::global().scope("example.work");
//! {
//!     let _span = m.span(64); // 64 elements processed in this region
//!     let _ = (0..64u64).sum::<u64>();
//! }
//! let snap = Registry::global().snapshot();
//! let s = snap.get("example.work").unwrap();
//! assert_eq!(s.count, 1);
//! assert_eq!(s.items, 64);
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Defines functions returning the global registry's metric for a scope,
/// each resolved on its first call and lock-free after it — the one way an
/// instrumented crate holds a process-wide scope handle.
///
/// ```
/// poseidon_telemetry::scope_fn! {
///     /// Doc comments and visibility pass through: this is `pub fn work()`.
///     pub work = "example.scoped";
/// }
/// work().add(3);
/// let snap = poseidon_telemetry::Registry::global().snapshot();
/// assert_eq!(snap.get("example.scoped").unwrap().items, 3);
/// ```
#[macro_export]
macro_rules! scope_fn {
    ($($(#[$attr:meta])* $vis:vis $name:ident = $scope:literal;)+) => {$(
        $(#[$attr])*
        $vis fn $name() -> &'static ::std::sync::Arc<$crate::Metric> {
            static M: ::std::sync::OnceLock<::std::sync::Arc<$crate::Metric>> =
                ::std::sync::OnceLock::new();
            M.get_or_init(|| $crate::Registry::global().scope($scope))
        }
    )+};
}

/// The per-scope metric bundle: event count, element count, busy nanos.
///
/// All three update with relaxed atomics — cross-scope consistency is not
/// needed (snapshots are diagnostic, not transactional), and the counters
/// themselves are exact.
#[derive(Debug, Default)]
pub struct Metric {
    count: AtomicU64,
    items: AtomicU64,
    nanos: AtomicU64,
}

impl Metric {
    /// A fresh, unregistered metric: instance-local counters that no
    /// registry snapshot sees ([`Snapshot::from_metrics`] exports them).
    pub fn new() -> Arc<Metric> {
        Arc::new(Metric::default())
    }

    /// Counts one event covering `items` elements, without timing.
    #[inline]
    pub fn add(&self, items: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    /// Opens a timed span covering `items` elements; the drop of the
    /// returned guard records the duration.
    #[inline]
    pub fn span(&self, items: u64) -> Span<'_> {
        Span {
            metric: self,
            items,
            start: Instant::now(),
        }
    }

    /// Records a completed region measured by the caller.
    #[inline]
    pub fn record_nanos(&self, items: u64, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records `count` events that ran together in one region of `elapsed`
    /// time, `items` elements each — a batch whose members stay one event
    /// apiece, the region's time shared equally among them.
    pub fn record_shared(&self, count: usize, items: u64, elapsed: std::time::Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        for _ in 0..count {
            self.record_nanos(items, nanos / count as u64);
        }
    }

    /// Adds busy time to an event counted elsewhere — one worker's share
    /// of a region that is split across limb tasks and recorded once.
    #[inline]
    pub fn add_busy(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Events recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Elements recorded so far.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Total busy nanoseconds recorded so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Zeroes the metric.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }

    /// Captures the metric under a scope name.
    pub fn stats(&self, name: &str) -> ScopeStats {
        ScopeStats {
            name: name.to_string(),
            count: self.count(),
            items: self.items(),
            nanos: self.nanos(),
        }
    }
}

/// RAII guard of one timed region (see [`Metric::span`]).
#[derive(Debug)]
pub struct Span<'a> {
    metric: &'a Metric,
    items: u64,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.metric.record_nanos(self.items, nanos);
    }
}

/// Thread-safe name → metric map.
///
/// Scope lookup takes a mutex, so instrumented code resolves its scopes
/// once (into a static handle, [`scope_fn!`]) and then runs lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    scopes: Mutex<BTreeMap<String, Arc<Metric>>>,
}

impl Registry {
    /// A fresh private registry (the global one, and tests).
    fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry every instrumented crate records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Resolves (creating on first use) the metric for `name`.
    pub fn scope(&self, name: &str) -> Arc<Metric> {
        let mut map = self.scopes.lock().expect("telemetry registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Resolves the metric for an indexed scope family, `"{base}{index}"`
    /// — e.g. `scope_indexed("serve.shard", 2)` → `serve.shard2`. Sharded
    /// subsystems use one scope per lane/worker so imbalance is visible in
    /// a snapshot; summing the family's scopes recovers the aggregate.
    pub fn scope_indexed(&self, base: &str, index: usize) -> Arc<Metric> {
        self.scope(&format!("{base}{index}"))
    }

    /// Zeroes every registered metric (registrations survive).
    pub fn reset(&self) {
        let map = self.scopes.lock().expect("telemetry registry poisoned");
        for m in map.values() {
            m.reset();
        }
    }

    /// Captures all scopes at this instant.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.scopes.lock().expect("telemetry registry poisoned");
        Snapshot {
            scopes: map.iter().map(|(n, m)| m.stats(n)).collect(),
        }
    }
}

/// One scope's captured statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStats {
    /// Scope name (dotted path).
    pub name: String,
    /// Events (spans or `add` calls).
    pub count: u64,
    /// Elements covered by those events.
    pub items: u64,
    /// Total busy nanoseconds (0 for untimed counters).
    pub nanos: u64,
}

/// A point-in-time capture of a metric set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Captured scopes, sorted by name.
    pub scopes: Vec<ScopeStats>,
}

impl Snapshot {
    /// Builds a snapshot from explicit `(name, metric)` pairs (sorted by
    /// name) — how instance-local metric groups export themselves.
    pub fn from_metrics<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a Metric)>) -> Snapshot {
        let mut scopes: Vec<ScopeStats> = pairs.into_iter().map(|(n, m)| m.stats(n)).collect();
        scopes.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { scopes }
    }

    /// Stats for one scope, if present.
    pub fn get(&self, name: &str) -> Option<&ScopeStats> {
        self.scopes.iter().find(|s| s.name == name)
    }

    /// The scope-by-scope difference `self − earlier`, saturating at zero.
    /// Scopes absent from `earlier` pass through unchanged.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let scopes = self
            .scopes
            .iter()
            .map(|s| {
                let Some(e) = earlier.get(&s.name) else {
                    return s.clone();
                };
                ScopeStats {
                    name: s.name.clone(),
                    count: s.count.saturating_sub(e.count),
                    items: s.items.saturating_sub(e.items),
                    nanos: s.nanos.saturating_sub(e.nanos),
                }
            })
            .collect();
        Snapshot { scopes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_accumulates_and_resets() {
        let m = Metric::new();
        m.add(10);
        m.add(5);
        m.record_nanos(3, 1500);
        assert_eq!(m.count(), 3);
        assert_eq!(m.items(), 18);
        assert_eq!(m.nanos(), 1500);
        m.reset();
        assert_eq!((m.count(), m.items(), m.nanos()), (0, 0, 0));
    }

    #[test]
    fn span_records_on_drop() {
        let m = Metric::new();
        {
            let _s = m.span(7);
        }
        assert_eq!(m.count(), 1);
        assert_eq!(m.items(), 7);
    }

    #[test]
    fn registry_shares_scopes_by_name() {
        let r = Registry::new();
        let a = r.scope("x.y");
        let b = r.scope("x.y");
        a.add(3);
        assert_eq!(b.items(), 3);
        assert_eq!(r.snapshot().scopes.len(), 1);
        r.reset();
        assert_eq!(b.items(), 0);
    }

    #[test]
    fn snapshot_diff_and_lookup() {
        let r = Registry::new();
        r.scope("a").add(4);
        let early = r.snapshot();
        r.scope("a").add(6);
        r.scope("b").record_nanos(1, 100);
        let later = r.snapshot();
        let d = later.since(&early);
        assert_eq!(d.get("a").unwrap().items, 6);
        assert_eq!(d.get("a").unwrap().count, 1);
        assert_eq!(d.get("b").unwrap().nanos, 100);
    }

    #[test]
    fn from_metrics_sorts_by_name() {
        let a = Metric::new();
        let b = Metric::new();
        a.add(1);
        b.add(2);
        let snap = Snapshot::from_metrics([("z.last", &*a), ("a.first", &*b)]);
        assert_eq!(snap.scopes[0].name, "a.first");
        assert_eq!(snap.scopes[1].name, "z.last");
    }
}
