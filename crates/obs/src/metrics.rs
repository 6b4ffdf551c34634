//! Typed metrics: counters, gauges, and fixed-bucket histograms behind a
//! name registry.
//!
//! Handles are `Arc`s onto atomic cells: cloning a handle is cheap,
//! recording through one is a single relaxed atomic RMW, and concurrent
//! writers can never lose an increment the way a plain `u64 += 1`
//! read-modify-write can.

use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bucket upper bounds, in nanoseconds: a base-4
/// exponential ladder from 256 ns to ~4.3 s, plus the implicit overflow
/// bucket. Thirteen buckets cover everything from a single AEAD seal to a
/// stalled lock with ~2 bits of resolution per decade.
pub const DEFAULT_NS_BOUNDS: &[u64] = &[
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
    4_294_967_296,
];

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping, like the underlying atomic).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. a queue depth).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistogramCore {
    /// Sorted inclusive upper bounds; `counts` has one extra slot for
    /// values above the last bound.
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Bucket `i` holds samples `v` with `v <= bounds[i]` (and greater than
/// the previous bound); the final bucket holds everything above the last
/// bound. Every recorded sample lands in exactly one bucket, so the
/// bucket counts always sum to the total sample count.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut counts = Vec::with_capacity(sorted.len() + 1);
        counts.resize_with(sorted.len() + 1, AtomicU64::default);
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: sorted.into_boxed_slice(),
                counts: counts.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = self.core.bounds.partition_point(|b| value > *b);
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        // Read `count`/`sum` first: a racing `record` bumps buckets before
        // the totals, so totals can only under-report relative to buckets,
        // never claim samples the buckets lack.
        let count = self.core.count.load(Ordering::Acquire);
        let sum = self.core.sum.load(Ordering::Acquire);
        HistogramSnapshot {
            bounds: self.core.bounds.to_vec(),
            counts: self
                .core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect(),
            count,
            sum,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A registry of named metrics.
///
/// Get-or-create registration locks a map briefly; the returned handles
/// record lock-free. Cloning the registry clones the `Arc` — all clones
/// see the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "counters",
                &self.inner.counters.lock().expect("registry lock").len(),
            )
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Returns the histogram named `name` with the default nanosecond
    /// buckets ([`DEFAULT_NS_BOUNDS`]), creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, DEFAULT_NS_BOUNDS)
    }

    /// Returns the histogram named `name`, creating it with `bounds` on
    /// first use. An existing histogram keeps its original buckets —
    /// bounds are part of the registration, not of each lookup.
    #[must_use]
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// A point-in-time copy of every metric in the registry.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_the_cell() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(registry.counter("x").get(), 3);
        assert_eq!(registry.counter("y").get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Registry::new().gauge("depth");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_partition_the_domain() {
        let registry = Registry::new();
        let h = registry.histogram_with_bounds("h", &[10, 100]);
        for v in [0, 10, 11, 100, 101, u64::MAX] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let hs = &snap.histograms["h"];
        assert_eq!(hs.counts, vec![2, 2, 2]); // <=10, <=100, overflow
        assert_eq!(hs.count, 6);
        assert_eq!(hs.counts.iter().sum::<u64>(), hs.count);
    }

    #[test]
    fn concurrent_increments_are_never_lost() {
        // The bug this registry exists to prevent: plain `u64 += 1`
        // read-modify-writes from concurrent writers drop updates.
        let registry = Registry::new();
        let c = registry.counter("seals");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn default_bounds_are_sorted_and_distinct() {
        let mut sorted = DEFAULT_NS_BOUNDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.as_slice(), DEFAULT_NS_BOUNDS);
    }
}
