//! A shared, stack-wide metrics registry and bounded event trace.
//!
//! The paper's feasibility argument (§2.3) and success model (§4.3) are all
//! about rates and counts — activations per refresh window, IOPS at the NVMe
//! front end, flips per attack cycle. This module gives every layer of the
//! simulated stack one place to record them, so a single attack run can be
//! observed end-to-end instead of through per-crate ad-hoc structs.
//!
//! # Model
//!
//! A [`Telemetry`] value is a cheap clone of a shared registry. Layers
//! resolve named instruments once at construction time and keep the returned
//! handles ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`]), so the
//! hot path is a plain load and store on a [`Cell`] — no map lookup, no lock,
//! no atomic. Metric names follow a `layer.metric` scheme
//! (`dram.activations`, `ftl.l2p_reads`, `nvme.qp1.submissions`); resolving
//! the same name twice yields handles to the same underlying cell.
//!
//! A registry and its handles belong to the thread that made them, like the
//! simulated device that records into them: neither is `Send`, so a device
//! and its registry can never be shared between threads and its counters
//! never need atomics. A campaign builds one device and registry per shard
//! on the worker thread, and merges plain values (see
//! [`crate::supervisor`]).
//!
//! Structured events ([`TraceEvent`]) carry a simulated timestamp and go into
//! a bounded ring: once full, the oldest events are dropped and counted in
//! [`TelemetrySnapshot::trace_dropped`], so tracing can stay on in long runs
//! without unbounded memory.
//!
//! [`Telemetry::snapshot`] freezes everything into a [`TelemetrySnapshot`],
//! which renders to JSON via [`TelemetrySnapshot::to_json`] — this is what
//! `ssdhammer-bench`'s `repro` binary writes next to each figure's results.
//! A snapshot is plain data and may cross threads.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::telemetry::Telemetry;
//! use ssdhammer_simkit::SimTime;
//!
//! let t = Telemetry::new();
//! let acts = t.counter("dram.activations");
//! acts.add(128);
//! t.trace(SimTime::from_nanos(500), "dram.flip", "row 17 bit 3 1->0");
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("dram.activations"), Some(128));
//! assert_eq!(snap.trace.len(), 1);
//! ```
//!
//! Neither a registry nor a handle can move to another thread:
//!
//! ```compile_fail
//! fn assert_send<T: Send>(_: T) {}
//! assert_send(ssdhammer_simkit::telemetry::Telemetry::new());
//! ```
//!
//! ```compile_fail
//! fn assert_send<T: Send>(_: T) {}
//! let t = ssdhammer_simkit::telemetry::Telemetry::new();
//! assert_send(t.counter("dram.activations"));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::Json;
use crate::stats::LatencyHistogram;
use crate::time::{SimDuration, SimTime};

/// Default bound on the structured event ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A handle to a named monotonic counter. Cloning is cheap and both clones
/// address the same cell.
#[derive(Debug, Clone)]
pub struct CounterHandle(Rc<Cell<u64>>);

impl CounterHandle {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A handle to a named gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Rc<Cell<f64>>);

impl GaugeHandle {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// A handle to a named simulated-time latency histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Rc<RefCell<LatencyHistogram>>);

impl HistogramHandle {
    /// Records one duration sample.
    pub fn record(&self, d: SimDuration) {
        self.0.borrow_mut().record(d);
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn read(&self) -> LatencyHistogram {
        self.0.borrow().clone()
    }
}

/// One structured trace event on the simulated timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp of the event.
    pub time: SimTime,
    /// Dotted event kind, mirroring metric naming (`dram.flip`,
    /// `ftl.gc.victim`, `attack.cycle`).
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// Bounded ring of trace events; drops the oldest when full.
#[derive(Debug)]
struct TraceRing {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[derive(Debug)]
struct Registry {
    counters: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    gauges: RefCell<BTreeMap<String, Rc<Cell<f64>>>>,
    histograms: RefCell<BTreeMap<String, Rc<RefCell<LatencyHistogram>>>>,
    trace: RefCell<TraceRing>,
}

/// The shared registry every layer of the stack records into.
///
/// Cloning a `Telemetry` produces another view of the *same* registry;
/// a fresh, private registry comes from [`Telemetry::new`]. A registry
/// stays on the thread that made it (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Rc<Registry>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An empty registry with the default trace capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An empty registry whose trace ring keeps at most `capacity` events
    /// (zero disables tracing but still counts drops).
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Rc::new(Registry {
                counters: RefCell::new(BTreeMap::new()),
                gauges: RefCell::new(BTreeMap::new()),
                histograms: RefCell::new(BTreeMap::new()),
                trace: RefCell::new(TraceRing {
                    events: std::collections::VecDeque::new(),
                    capacity,
                    dropped: 0,
                }),
            }),
        }
    }

    /// Whether two handles view the same underlying registry.
    #[must_use]
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Resolves (creating on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut map = self.inner.counters.borrow_mut();
        CounterHandle(Rc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Resolves (creating on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        let mut map = self.inner.gauges.borrow_mut();
        GaugeHandle(Rc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Resolves (creating on first use) the latency histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.inner.histograms.borrow_mut();
        HistogramHandle(Rc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Rc::new(RefCell::new(LatencyHistogram::new()))),
        ))
    }

    /// Records a structured trace event at simulated time `time`.
    pub fn trace(&self, time: SimTime, kind: impl Into<String>, detail: impl Into<String>) {
        self.inner.trace.borrow_mut().push(TraceEvent {
            time,
            kind: kind.into(),
            detail: detail.into(),
        });
    }

    /// The current value of a counter, if it has been created.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.counters.borrow().get(name).map(|c| c.get())
    }

    /// Trace events whose kind equals `kind`, oldest first.
    #[must_use]
    pub fn trace_events(&self, kind: &str) -> Vec<TraceEvent> {
        self.inner
            .trace
            .borrow()
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Freezes every instrument and the trace ring into a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::of(&v.borrow())))
            .collect();
        let ring = self.inner.trace.borrow();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            trace: ring.events.iter().cloned().collect(),
            trace_dropped: ring.dropped,
        }
    }
}

/// Reduced view of a [`LatencyHistogram`] for export.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample in nanoseconds.
    pub mean_ns: u64,
    /// Approximate median in nanoseconds.
    pub p50_ns: u64,
    /// Approximate 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    #[must_use]
    pub fn of(h: &LatencyHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean_ns: h.mean().as_nanos(),
            p50_ns: h.quantile(0.5).as_nanos(),
            p99_ns: h.quantile(0.99).as_nanos(),
            max_ns: h.max().as_nanos(),
        }
    }
}

/// A point-in-time copy of everything a [`Telemetry`] registry holds.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values by name (sorted).
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (sorted).
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name (sorted).
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Trace events, oldest first (bounded by the ring capacity).
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the ring because it was full.
    pub trace_dropped: u64,
}

impl TelemetrySnapshot {
    /// Looks up a counter by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by exact name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...},
    ///   "trace": [...], "trace_dropped": n}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), Json::F64(*v)))),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::U64(h.count)),
                            ("mean_ns", Json::U64(h.mean_ns)),
                            ("p50_ns", Json::U64(h.p50_ns)),
                            ("p99_ns", Json::U64(h.p99_ns)),
                            ("max_ns", Json::U64(h.max_ns)),
                        ]),
                    )
                })),
            ),
            (
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("t_ns", Json::U64(e.time.as_nanos())),
                                ("kind", Json::str(e.kind.clone())),
                                ("detail", Json::str(e.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trace_dropped", Json::U64(self.trace_dropped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_a_cell_by_name() {
        let t = Telemetry::new();
        let a = t.counter("dram.activations");
        let b = t.counter("dram.activations");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(t.counter_value("dram.activations"), Some(4));
        assert_eq!(t.counter_value("missing"), None);
    }

    #[test]
    fn clones_view_the_same_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter("x").incr();
        assert_eq!(u.counter_value("x"), Some(1));
        assert!(t.same_registry(&u));
        assert!(!t.same_registry(&Telemetry::new()));
    }

    #[test]
    fn gauges_hold_floats() {
        let t = Telemetry::new();
        let g = t.gauge("nvme.iops");
        assert_eq!(g.get(), 0.0);
        g.set(123_456.75);
        assert_eq!(t.gauge("nvme.iops").get(), 123_456.75);
    }

    #[test]
    fn histograms_accumulate() {
        let t = Telemetry::new();
        let h = t.histogram("nvme.latency");
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(30));
        let summary = HistogramSummary::of(&h.read());
        assert_eq!(summary.count, 2);
        assert_eq!(summary.mean_ns, 20_000);
        assert_eq!(summary.max_ns, 30_000);
    }

    #[test]
    fn trace_ring_is_bounded_and_counts_drops() {
        let t = Telemetry::with_trace_capacity(3);
        for i in 0..5u64 {
            t.trace(SimTime::from_nanos(i), "ev", format!("#{i}"));
        }
        let snap = t.snapshot();
        assert_eq!(snap.trace.len(), 3);
        assert_eq!(snap.trace_dropped, 2);
        // Oldest events were evicted.
        assert_eq!(snap.trace[0].detail, "#2");
        assert_eq!(snap.trace[2].detail, "#4");
    }

    #[test]
    fn trace_events_filters_by_kind() {
        let t = Telemetry::new();
        t.trace(SimTime::ZERO, "dram.flip", "a");
        t.trace(SimTime::ZERO, "ftl.gc", "b");
        t.trace(SimTime::ZERO, "dram.flip", "c");
        let flips = t.trace_events("dram.flip");
        assert_eq!(flips.len(), 2);
        assert_eq!(flips[1].detail, "c");
    }

    #[test]
    fn snapshot_is_sorted_and_renders_json() {
        let t = Telemetry::new();
        t.counter("b.second").add(2);
        t.counter("a.first").incr();
        t.gauge("g").set(1.5);
        t.histogram("h").record(SimDuration::from_nanos(100));
        t.trace(SimTime::from_nanos(7), "k", "d");
        let snap = t.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "b.second");
        let json = snap.to_json().to_string();
        assert!(json.contains(r#""a.first":1"#));
        assert!(json.contains(r#""g":1.5"#));
        assert!(json.contains(r#""count":1"#));
        assert!(json.contains(r#""t_ns":7"#));
        assert!(json.contains(r#""trace_dropped":0"#));
    }

    #[test]
    fn zero_capacity_ring_only_counts() {
        let t = Telemetry::with_trace_capacity(0);
        t.trace(SimTime::ZERO, "k", "d");
        let snap = t.snapshot();
        assert!(snap.trace.is_empty());
        assert_eq!(snap.trace_dropped, 1);
    }
}
