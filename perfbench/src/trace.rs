//! Host-time measurement: untraced timing, in-memory spans and counter
//! deltas taken at phase boundaries.
//!
//! Every host-clock read goes through `ssdhammer_bench::harness::wallclock`,
//! which measures the duration of a closure. A span therefore knows its
//! duration exactly; its start is placed at its parent's start plus the
//! durations of its earlier siblings, so glue code between sibling calls
//! shows up as the parent's self time rather than as gaps.

use std::collections::BTreeMap;

use ssdhammer_bench::harness::wallclock;
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::telemetry::Telemetry;

/// Runs `f` once and returns its result with its host duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut f = Some(f);
    let mut out = None;
    let secs = wallclock::time_once(&mut || out = f.take().map(|f| f()));
    (out.expect("time_once runs the closure exactly once"), secs)
}

/// Registry counters read at phase boundaries. All are registered in
/// `TELEMETRY.md`; a registry that lacks one reads as zero.
pub const COUNTERS: &[&str] = &[
    "dram.activations",
    "dram.reads",
    "dram.writes",
    "dram.refresh_windows",
    "dram.flips",
    "flash.reads",
    "flash.programs",
    "flash.erases",
    "ftl.host_reads",
    "ftl.host_writes",
    "ftl.host_trims",
    "ftl.l2p_reads",
    "ftl.gc_runs",
    "ftl.gc_relocated",
    "nvme.submissions",
    "nvme.completions",
    "fs.block_reads",
    "fs.block_writes",
];

/// Counter values by name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Reads every [`COUNTERS`] entry, summed over `registries`.
#[must_use]
pub fn read_counters(registries: &[&Telemetry]) -> Counts {
    COUNTERS
        .iter()
        .map(|&name| {
            let v = registries
                .iter()
                .filter_map(|r| r.counter_value(name))
                .sum::<u64>();
            (name, v)
        })
        .collect()
}

/// Adds `after - before` into `acc`, per counter.
pub fn add_delta(acc: &mut Counts, before: &Counts, after: &Counts) {
    for (&name, &a) in after {
        let b = before.get(name).copied().unwrap_or(0);
        *acc.entry(name).or_insert(0) += a.saturating_sub(b);
    }
}

/// Adds every counter of `other` into `acc`.
pub fn add_counts(acc: &mut Counts, other: &Counts) {
    for (&name, &v) in other {
        *acc.entry(name).or_insert(0) += v;
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    run: u32,
}

/// Totals of every span with one name (kept or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the part covered by child spans, seconds.
    pub self_s: f64,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    kept: Option<usize>,
    start_s: f64,
    child_s: f64,
}

/// Spans kept individually; every span still counts in the per-name totals.
const KEPT_SPANS: usize = 20_000;

/// In-memory span recorder. A disabled tracer runs closures untimed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
    root_cursor_s: f64,
    totals: BTreeMap<&'static str, SpanTotals>,
    phase_counts: BTreeMap<&'static str, Counts>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            root_cursor_s: 0.0,
            totals: BTreeMap::new(),
            phase_counts: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Tags later spans with run (instance or shard) id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start_s = match self.open.last() {
            Some(parent) => parent.start_s + parent.child_s,
            None => self.root_cursor_s,
        };
        let kept = if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent: self.open.last().and_then(|p| p.kept),
                run: self.run,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(OpenSpan {
            name,
            kept,
            start_s,
            child_s: 0.0,
        });
        let mut f = Some(f);
        let mut out = None;
        let secs = wallclock::time_once(&mut || out = f.take().map(|f| f(self)));
        let open = self.open.pop().expect("span stack balanced");
        debug_assert_eq!(open.name, name);
        if let Some(i) = open.kept {
            self.spans[i].end_s = start_s + secs;
        }
        match self.open.last_mut() {
            Some(parent) => parent.child_s += secs,
            None => self.root_cursor_s += secs,
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_s += secs;
        t.self_s += (secs - open.child_s).max(0.0);
        out.expect("time_once runs the closure exactly once")
    }

    /// A span that also adds the counter deltas of `registries` across `f`
    /// to the phase `name`. Counters are read only at these boundaries.
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        registries: &[&Telemetry],
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let before = read_counters(registries);
        let out = self.span(name, f);
        let after = read_counters(registries);
        add_delta(self.phase_counts.entry(name).or_default(), &before, &after);
        out
    }

    /// Totals of spans called `name` (zero when none closed).
    #[must_use]
    pub fn total(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Counter deltas accumulated by phase name.
    #[must_use]
    pub fn phase_counts(&self) -> &BTreeMap<&'static str, Counts> {
        &self.phase_counts
    }

    /// Counter deltas of phase `name` (empty when it never ran).
    #[must_use]
    pub fn phase_count(&self, phase: &str, counter: &str) -> u64 {
        self.phase_counts
            .get(phase)
            .and_then(|c| c.get(counter))
            .copied()
            .unwrap_or(0)
    }

    /// Folds another tracer's spans, totals and phase counts into this one
    /// (per-shard tracers of a supervised sweep).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for s in other.spans {
            if self.spans.len() >= KEPT_SPANS {
                self.dropped += 1;
                continue;
            }
            self.spans.push(Span {
                parent: s.parent.map(|p| p + base),
                ..s
            });
        }
        self.dropped += other.dropped;
        for (name, t) in other.totals {
            let acc = self.totals.entry(name).or_default();
            acc.count += t.count;
            acc.total_s += t.total_s;
            acc.self_s += t.self_s;
        }
        for (name, c) in other.phase_counts {
            add_counts(self.phase_counts.entry(name).or_default(), &c);
        }
    }

    /// The trace document: kept spans and per-name totals with self time.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("run", Json::from(s.run)),
                ("start_s", Json::from(s.start_s)),
                ("end_s", Json::from(s.end_s)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
            ])
        });
        let totals = self.totals.iter().map(|(&name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::from(t.count)),
                    ("total_s", Json::from(t.total_s)),
                    ("self_s", Json::from(t.self_s)),
                ]),
            )
        });
        let phases = self
            .phase_counts
            .iter()
            .map(|(&name, c)| (name, Json::obj(c.iter().map(|(&k, &v)| (k, Json::from(v))))));
        Json::obj([
            ("spans_kept", Json::from(self.spans.len())),
            ("spans_dropped", Json::from(self.dropped)),
            ("totals", Json::obj(totals)),
            ("phase_counters", Json::obj(phases)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}
