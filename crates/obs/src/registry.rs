//! Static-registration metrics: atomic counters, max-gauges, and log₂
//! histograms.
//!
//! Metrics are declared as `static` items with `const` constructors and
//! register themselves in the global registry on first touch (one
//! relaxed flag check per update after that). Updates are plain relaxed
//! atomics — safe from any thread, never allocating after registration,
//! and cheap enough for per-point (not per-cycle) call sites. The
//! per-cycle hot loop uses the [`phase`](crate::phase) profiler and the
//! core's own watermark fields instead; nothing in `Network::step`
//! touches this registry.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Histogram bucket count: bucket `k` counts observations `v` with
/// `floor(log2(v)) == k - 1` (bucket 0 holds `v == 0`), upper bounds
/// `2^0 .. 2^31`, everything larger in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

fn register(metric: MetricRef) {
    REGISTRY.lock().expect("metric registry").push(metric);
}

/// A monotonically increasing event count.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A counter at zero (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter { name, help, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn inc(&'static self, n: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            register(MetricRef::Counter(self));
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge with *maximum* semantics: [`Gauge::set_max`] ratchets the
/// value upward (the natural shape for high-water marks); [`Gauge::set`]
/// overwrites it.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A gauge at zero (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge { name, help, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    #[inline]
    fn touch(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            register(MetricRef::Gauge(self));
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&'static self, v: u64) {
        self.touch();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (watermark update).
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        self.touch();
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// The const-repeat array initializer: each use expands to a fresh
// AtomicU64, which is exactly the intent (clippy's interior-mutability
// lint guards against *sharing* a const atomic, which never happens).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A log₂-bucketed histogram of `u64` observations, with total sum and
/// count (so exact means survive the bucketing).
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram (use in a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            name,
            help,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            register(MetricRef::Histogram(self));
        }
        let idx = ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// One metric as captured by [`samples`]: a uniform shape covering all
/// three kinds so snapshots serialize and parse with the vendored
/// serde's plain-struct derive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (Prometheus-safe: `mira_*`).
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// One-line description.
    pub help: String,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: u64,
    /// Histogram sum (zero for counters and gauges).
    pub sum: u64,
    /// Per-bucket (non-cumulative) histogram counts; empty for counters
    /// and gauges. Bucket `k` has upper bound `2^k` (last is +Inf).
    pub buckets: Vec<u64>,
}

impl MetricSample {
    /// Renders this metric in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# HELP {} {}\n", self.name, self.help));
        match self.kind.as_str() {
            "histogram" => {
                out.push_str(&format!("# TYPE {} histogram\n", self.name));
                let mut cumulative = 0u64;
                for (k, n) in self.buckets.iter().enumerate() {
                    cumulative += n;
                    // Skip empty leading buckets but keep the full
                    // cumulative tail once anything fired.
                    if cumulative == 0 {
                        continue;
                    }
                    let le = if k + 1 == self.buckets.len() {
                        "+Inf".to_string()
                    } else {
                        format!("{}", 1u64 << k)
                    };
                    out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cumulative}\n", self.name));
                }
                out.push_str(&format!("{}_sum {}\n", self.name, self.sum));
                out.push_str(&format!("{}_count {}\n", self.name, self.value));
            }
            kind => {
                out.push_str(&format!("# TYPE {} {kind}\n", self.name));
                out.push_str(&format!("{} {}\n", self.name, self.value));
            }
        }
        out
    }
}

/// Snapshots every registered metric, in registration order.
pub fn samples() -> Vec<MetricSample> {
    let reg = REGISTRY.lock().expect("metric registry");
    reg.iter()
        .map(|m| match m {
            MetricRef::Counter(c) => MetricSample {
                name: c.name.to_string(),
                kind: "counter".to_string(),
                help: c.help.to_string(),
                value: c.get(),
                sum: 0,
                buckets: Vec::new(),
            },
            MetricRef::Gauge(g) => MetricSample {
                name: g.name.to_string(),
                kind: "gauge".to_string(),
                help: g.help.to_string(),
                value: g.get(),
                sum: 0,
                buckets: Vec::new(),
            },
            MetricRef::Histogram(h) => MetricSample {
                name: h.name.to_string(),
                kind: "histogram".to_string(),
                help: h.help.to_string(),
                value: h.count(),
                sum: h.sum(),
                buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            },
        })
        .collect()
}

// --- Well-known metrics shared across the workspace -------------------

/// Peak live flits in the network's `FlitArena`, across every simulation
/// this process ran (updated per completed point / bench pass).
pub static ARENA_LIVE_PEAK: Gauge = Gauge::new(
    "mira_arena_live_peak_flits",
    "Peak live flits in the flit arena across all runs in this process",
);

/// Peak per-router buffer occupancy across every simulation this
/// process ran.
pub static ROUTER_BUFFER_PEAK: Gauge = Gauge::new(
    "mira_router_buffer_peak_flits",
    "Peak single-router buffer occupancy across all runs in this process",
);

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("mira_test_counter_total", "test counter");
    static TEST_GAUGE: Gauge = Gauge::new("mira_test_gauge", "test gauge");
    static TEST_HIST: Histogram = Histogram::new("mira_test_hist", "test histogram");

    #[test]
    fn counters_accumulate_and_register_once() {
        TEST_COUNTER.inc(2);
        TEST_COUNTER.inc(3);
        assert_eq!(TEST_COUNTER.get(), 5);
        let n = samples().iter().filter(|s| s.name == "mira_test_counter_total").count();
        assert_eq!(n, 1, "first touch registers exactly once");
    }

    #[test]
    fn gauge_set_max_ratchets() {
        TEST_GAUGE.set_max(10);
        TEST_GAUGE.set_max(4);
        assert_eq!(TEST_GAUGE.get(), 10);
        TEST_GAUGE.set_max(12);
        assert_eq!(TEST_GAUGE.get(), 12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        TEST_HIST.observe(0); // bucket 0
        TEST_HIST.observe(1); // bucket 1 (le 2)
        TEST_HIST.observe(900); // bucket 10 (le 1024)
        TEST_HIST.observe(u64::MAX); // last bucket
        assert_eq!(TEST_HIST.count(), 4);
        let s = samples();
        let h = s.iter().find(|m| m.name == "mira_test_hist").expect("registered");
        assert_eq!(h.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        let prom = h.to_prometheus();
        assert!(prom.contains("mira_test_hist_bucket{le=\"1\"} 1"));
        assert!(prom.contains("mira_test_hist_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("mira_test_hist_count 4"));
    }
}
