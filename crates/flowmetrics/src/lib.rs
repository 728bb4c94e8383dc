//! In-tree metrics for the Flowtree fleet — no external dependencies.
//!
//! Every node (site daemon, relay, root) holds one [`Registry`]: a
//! cheap cloneable handle behind which instruments live as `Arc`'d
//! atomics. Registration takes a lock once; the instruments themselves
//! are lock-free on the hot path:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`. `set` exists
//!   so scrape handlers can mirror an existing snapshot counter
//!   (e.g. `RelayLedger` fields) into a registry-backed series without
//!   rewriting the producer.
//! * [`Gauge`] — an `AtomicI64` that can go up and down (queue depths,
//!   open windows, lag).
//! * [`Histogram`] — fixed exponential buckets over seconds, counts
//!   and sum as atomics. Built for latency: decode, flush, merge,
//!   export round-trip, query.
//! * [`Stopwatch`] — the hot-path timer. With the `hot-timers` feature
//!   (default on) it reads `Instant`; compiled out it is a zero-sized
//!   no-op.
//!
//! Exposition is text-based and allocation-at-scrape-time only:
//! [`Registry::render_prometheus`] emits the Prometheus text format
//! (`# HELP`/`# TYPE`, cumulative `le` buckets, `+Inf` == `_count`),
//! [`Registry::render_json`] the same series as one JSON object. The
//! [`events`] module adds a bounded in-memory ring of operational
//! events (rebases, fallbacks, sheds, crash-restarts) served as
//! `GET /events`.
//!
//! Naming convention (enforced at registration): Prometheus charset
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, `flowtree_` prefix, `_total` suffix on
//! counters, `_seconds` on latency histograms, base units otherwise.

pub mod events;
pub mod expo;

pub use events::{Event, EventRing};
pub use expo::{render_kv_json, render_kv_text, KvValue};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency bounds, seconds: powers of 4 from 1 µs to ~4.2 s.
/// Twelve finite buckets + `+Inf` covers a UDP decode (~µs) through a
/// WAN export round-trip (~s) with 2 buckets per decade.
pub const DEFAULT_LATENCY_BOUNDS: [f64; 12] = [
    0.000001, 0.000004, 0.000016, 0.000064, 0.000256, 0.001024, 0.004096, 0.016384, 0.065536,
    0.262144, 1.048576, 4.194304,
];

/// What a series holds; decides the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter (`_total`).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Latency distribution (`_bucket`/`_sum`/`_count`).
    Histogram,
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for scrape-time mirroring of an
    /// external monotonic counter, not for hot-path use.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram internals: per-bucket counts (non-cumulative in memory,
/// cumulated at render), total count, and a sum held in nanoseconds so
/// it stays an integer atomic.
pub(crate) struct HistogramCore {
    pub(crate) bounds: Vec<f64>,
    pub(crate) counts: Box<[AtomicU64]>,
    pub(crate) inf: AtomicU64,
    pub(crate) sum_nanos: AtomicU64,
}

/// A fixed-bucket latency histogram over seconds.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum_secs", &self.sum_secs())
            .finish()
    }
}

impl Histogram {
    /// Records one observation in seconds.
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        let core = &*self.0;
        let nanos = (secs * 1e9).max(0.0) as u64;
        core.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        // Linear scan: 12 bounds, branch-predictable, cheaper than
        // binary search at this size.
        for (i, b) in core.bounds.iter().enumerate() {
            if secs <= *b {
                core.counts[i].fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        core.inf.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation from a `Duration`.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        let core = &*self.0;
        let finite: u64 = core.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        finite + core.inf.load(Ordering::Relaxed)
    }

    /// Sum of observations, seconds.
    pub fn sum_secs(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `(bound, cumulative_count)` per finite bucket, then the total
    /// count (the `+Inf` bucket) — exactly the exposition shape.
    pub fn cumulative(&self) -> (Vec<(f64, u64)>, u64) {
        let core = &*self.0;
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(core.bounds.len());
        for (i, b) in core.bounds.iter().enumerate() {
            acc += core.counts[i].load(Ordering::Relaxed);
            out.push((*b, acc));
        }
        (out, acc + core.inf.load(Ordering::Relaxed))
    }
}

/// Hot-path timer. With `hot-timers` (default) this reads the
/// monotonic clock; compiled out it is zero-sized and every method is
/// a no-op the optimizer deletes.
pub struct Stopwatch {
    #[cfg(feature = "hot-timers")]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing (or does nothing, feature-off).
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[cfg(feature = "hot-timers")]
            start: std::time::Instant::now(),
        }
    }

    /// Stops and records into `hist` (feature-off: no-op).
    #[inline]
    pub fn observe(self, hist: &Histogram) {
        #[cfg(feature = "hot-timers")]
        hist.observe(self.start.elapsed());
        #[cfg(not(feature = "hot-timers"))]
        let _ = hist;
    }

    /// Whether timing is compiled in.
    pub const fn enabled() -> bool {
        cfg!(feature = "hot-timers")
    }
}

pub(crate) enum Value {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

pub(crate) struct Series {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) value: Value,
}

pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) kind: Kind,
    pub(crate) series: Vec<Series>,
}

#[derive(Default)]
struct Inner {
    families: Vec<Family>,
}

/// Handle to a node's metric set. Cloning shares the same registry;
/// registration is idempotent per `(name, labels)` pair.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.inner.lock().expect("metrics registry").families.len();
        f.debug_struct("Registry")
            .field("families", &families)
            .finish()
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Value,
    ) -> Value {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut inner = self.inner.lock().expect("metrics registry");
        let fam = match inner.families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} registered as {:?} and {:?}",
                    f.kind,
                    kind
                );
                f
            }
            None => {
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                inner.families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = fam.series.iter().find(|s| s.labels == labels) {
            return clone_value(&s.value);
        }
        let value = make();
        fam.series.push(Series {
            labels,
            value: clone_value(&value),
        });
        value
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with static labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            Value::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Value::Counter(c) => c,
            _ => unreachable!("registered as counter"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with static labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels, || {
            Value::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Value::Gauge(g) => g,
            _ => unreachable!("registered as gauge"),
        }
    }

    /// Registers (or finds) a histogram with the default latency
    /// bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with_bounds(name, help, &DEFAULT_LATENCY_BOUNDS)
    }

    /// Registers (or finds) a histogram with explicit bucket bounds
    /// (strictly increasing, seconds).
    pub fn histogram_with_bounds(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must strictly increase"
        );
        match self.register(name, help, Kind::Histogram, &[], || {
            let counts: Box<[AtomicU64]> = (0..bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Value::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts,
                inf: AtomicU64::new(0),
                sum_nanos: AtomicU64::new(0),
            })))
        }) {
            Value::Histogram(h) => h,
            _ => unreachable!("registered as histogram"),
        }
    }

    /// Prometheus text exposition of every registered series.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry");
        expo::prometheus(&inner.families)
    }

    /// The same series as one JSON object, `{"name{labels}": value}`
    /// with histograms expanded to `_count`/`_sum`/`_bucket` keys.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry");
        expo::json(&inner.families)
    }
}

fn clone_value(v: &Value) -> Value {
    match v {
        Value::Counter(c) => Value::Counter(c.clone()),
        Value::Gauge(g) => Value::Gauge(g.clone()),
        Value::Histogram(h) => Value::Histogram(h.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("flowtree_test_total", "test");
        let b = reg.counter("flowtree_test_total", "test");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let g = reg.gauge("flowtree_depth", "test");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("flowtree_depth", "test").get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::new();
        let a = reg.counter_with("flowtree_drops_total", "d", &[("reason", "quota")]);
        let b = reg.counter_with("flowtree_drops_total", "d", &[("reason", "decode")]);
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("flow-tree", "dash is not allowed");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.counter("flowtree_x", "x");
        reg.gauge("flowtree_x", "x");
    }

    #[test]
    fn histogram_buckets_accumulate_and_sum() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("flowtree_lat_seconds", "t", &[0.001, 0.01, 0.1]);
        h.observe_secs(0.0005); // bucket 0
        h.observe_secs(0.005); // bucket 1
        h.observe_secs(0.5); // +Inf
        let (buckets, total) = h.cumulative();
        assert_eq!(buckets, vec![(0.001, 1), (0.01, 2), (0.1, 2)]);
        assert_eq!(total, 3);
        assert_eq!(h.count(), 3);
        assert!((h.sum_secs() - 0.5055).abs() < 1e-6);
    }

    #[test]
    fn observation_on_a_bound_lands_in_that_bucket() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("flowtree_edge_seconds", "t", &[0.001, 0.01]);
        h.observe_secs(0.001); // le is inclusive
        let (buckets, _) = h.cumulative();
        assert_eq!(buckets[0].1, 1);
    }

    #[test]
    fn stopwatch_records_when_enabled() {
        let reg = Registry::new();
        let h = reg.histogram("flowtree_sw_seconds", "t");
        let sw = Stopwatch::start();
        sw.observe(&h);
        if Stopwatch::enabled() {
            assert_eq!(h.count(), 1);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[cfg(not(feature = "hot-timers"))]
    #[test]
    fn stopwatch_compiles_out_without_hot_timers() {
        assert!(!Stopwatch::enabled());
        assert_eq!(std::mem::size_of::<Stopwatch>(), 0);
    }

    #[test]
    fn default_bounds_strictly_increase() {
        assert!(DEFAULT_LATENCY_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }
}
