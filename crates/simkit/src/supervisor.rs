//! The campaign runner: deterministic sharding under supervision.
//!
//! Every multi-trial experiment in the workspace — Monte-Carlo sweeps,
//! per-module measurement campaigns, the attack grid, the torture and fuzz
//! campaigns — runs its trials as the shards of one [`Supervisor`]. Each
//! shard builds its own simulated device from a seed and shares no state,
//! so shards spread across [`std::thread`] workers while the output stays
//! **bit-identical regardless of thread count**, which the repro suite
//! asserts (see the `--threads` flag on the `repro` binary).
//!
//! The determinism rule is simple and worth stating once:
//!
//! 1. **Seeds are positional.** Shard `i` of a campaign seeded `root`
//!    always runs with [`rng::derive_seed`]`(root, tag, i)` — a splitmix64
//!    mix of the campaign seed, a per-campaign tag, and the shard index.
//!    Which worker thread executes shard `i` has no influence on its seed.
//! 2. **Results merge in index order.** Workers pull shard indices from a
//!    shared atomic counter (so a slow shard does not stall the others),
//!    tag each result with its index, and the runner sorts the merged
//!    results by index. The caller observes what a sequential loop would
//!    have produced.
//!
//! Anything seeded *per shard* and merged *by index* is therefore safe to
//! run at any parallelism; anything that threads RNG state across shards is
//! not, and must be restructured (see `ssdhammer-core`'s chunked
//! Monte-Carlo estimator for the pattern).
//!
//! On top of that sharding, the supervisor adds the robustness layers a
//! campaign needs:
//!
//! * **Sim-time budget watchdog** — each shard receives a fresh
//!   [`ShardCtx`] carrying a [`SimClock`] and an optional budget; shards
//!   that consume more simulated time than the budget come back as typed
//!   [`ShardOutcome::Timeout`] results instead of values. Cooperative
//!   shards poll [`ShardCtx::over_budget`] to bail out early.
//! * **Panic isolation** — shard closures run under
//!   [`std::panic::catch_unwind`]; a panic is captured together with the
//!   shard's index and seed so the failure replays deterministically in a
//!   debugger, and the rest of the campaign keeps running.
//!
//! Every shard runs exactly once: a shard is a pure function of its seed,
//! so rerunning it could only repeat its panic, and rerunning it on
//! another seed would be a different trial.
//!
//! The merged [`SupervisedReport`] keeps per-shard outcomes in trial order
//! and exposes a [`SupervisedReport::degraded`] flag scenario JSON can
//! surface when a shard failed; callers that need every shard take
//! [`SupervisedReport::into_complete`].
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::supervisor::{ShardOutcome, Supervisor};
//!
//! let doubled = Supervisor::new(42).with_threads(4).run(10, |ctx| {
//!     // ctx.trial.seed is derive_seed(42, "trial", ctx.trial.index);
//!     // build a device from it here. The value lands at its index.
//!     ctx.trial.index as u64 * 2
//! });
//! let sequential = Supervisor::new(42).run(10, |ctx| ctx.trial.index as u64 * 2);
//! assert_eq!(doubled.outcomes, sequential.outcomes);
//! assert_eq!(doubled.into_complete(), (0..10).map(|i| i * 2).collect::<Vec<_>>());
//!
//! let report = Supervisor::new(42).with_threads(4).run(8, |ctx| {
//!     if ctx.trial.index == 3 {
//!         panic!("injected shard failure");
//!     }
//!     ctx.trial.index as u64 * 2
//! });
//! assert_eq!(report.panics, 1);
//! assert!(report.degraded());
//! assert!(matches!(report.outcomes[3], ShardOutcome::Panicked { index: 3, .. }));
//! assert_eq!(report.outcomes[4].value(), Some(&8));
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::clock::SimClock;
use crate::rng;
use crate::telemetry::{CounterHandle, Telemetry};
use crate::time::SimDuration;

/// A shard's position in its campaign and the seed it runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Position of this shard in the campaign (`0..trials`). Results are
    /// merged in this order.
    pub index: usize,
    /// Seed for this shard: `derive_seed(campaign_seed, tag, index)`.
    /// Independent of the executing thread.
    pub seed: u64,
}

/// Per-shard context handed to supervised closures.
#[derive(Debug, Clone)]
pub struct ShardCtx {
    /// The shard's position and seed.
    pub trial: Trial,
    clock: SimClock,
    budget: Option<SimDuration>,
}

impl ShardCtx {
    /// The simulated clock this shard should drive its device with; the
    /// watchdog reads it back after the closure returns.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated time consumed so far.
    #[must_use]
    pub fn sim_elapsed(&self) -> SimDuration {
        SimDuration::from_nanos(self.clock.now().as_nanos())
    }

    /// True once the shard has consumed its simulated-time budget;
    /// cooperative shards poll this to abandon runaway work early.
    #[must_use]
    pub fn over_budget(&self) -> bool {
        self.budget
            .is_some_and(|b| self.sim_elapsed().as_nanos() > b.as_nanos())
    }
}

/// What happened to one supervised shard; merged in trial order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome<T> {
    /// The shard completed within budget.
    Ok(T),
    /// The shard completed but consumed more simulated time than the
    /// configured budget; its value is discarded.
    Timeout {
        /// Trial index for deterministic replay.
        index: usize,
        /// The shard's seed.
        seed: u64,
        /// Simulated time the shard consumed.
        sim_elapsed: SimDuration,
    },
    /// The shard panicked.
    Panicked {
        /// Trial index for deterministic replay.
        index: usize,
        /// The shard's seed — replaying `(index, seed)` reproduces the
        /// panic.
        seed: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl<T> ShardOutcome<T> {
    /// The completed value, when the shard succeeded.
    #[must_use]
    pub fn value(&self) -> Option<&T> {
        match self {
            ShardOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome into the completed value, when present.
    #[must_use]
    pub fn into_value(self) -> Option<T> {
        match self {
            ShardOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Short status tag for reports: `ok`, `timeout`, `panicked`.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            ShardOutcome::Ok(_) => "ok",
            ShardOutcome::Timeout { .. } => "timeout",
            ShardOutcome::Panicked { .. } => "panicked",
        }
    }
}

/// Merged result of a supervised campaign, in trial order.
#[derive(Debug, Clone)]
pub struct SupervisedReport<T> {
    /// Per-shard outcomes, index `i` at position `i`.
    pub outcomes: Vec<ShardOutcome<T>>,
    /// Shards that exceeded the simulated-time budget.
    pub timeouts: usize,
    /// Shards that panicked.
    pub panics: usize,
    /// Always 0: every shard runs. Kept, with [`Self::retries`], because
    /// the benchmark and torture's and fuzz's documents read it.
    pub skipped: usize,
    /// Always 0: no shard is retried. Kept, with [`Self::skipped`],
    /// because the benchmark and torture's and fuzz's documents read it.
    pub retries: usize,
}

impl<T> SupervisedReport<T> {
    /// True when any shard failed to contribute a value — the scenario
    /// JSON marker for partial-result aggregation.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.timeouts + self.panics > 0
    }

    /// Completed values in trial order (failed shards absent).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.outcomes.iter().filter_map(ShardOutcome::value)
    }

    /// Every shard's value in trial order, for callers whose result only
    /// means something when the whole campaign completed.
    ///
    /// # Panics
    ///
    /// Panics on the first shard that did not complete, printing its
    /// outcome (index and seed replay it) — an isolated shard panic
    /// resurfaces here instead of silently shrinking the result.
    #[must_use]
    pub fn into_complete(self) -> Vec<T>
    where
        T: fmt::Debug,
    {
        self.outcomes
            .into_iter()
            .map(|outcome| match outcome {
                ShardOutcome::Ok(v) => v,
                failed => panic!("campaign incomplete: {failed:?}"),
            })
            .collect()
    }
}

/// Telemetry handles bound by [`Supervisor::attach_telemetry`].
#[derive(Clone)]
struct SupervisorTel {
    shards: CounterHandle,
    timeouts: CounterHandle,
    panics: CounterHandle,
}

/// A supervised, deterministically sharded campaign.
///
/// See the [module docs](self) for the robustness layers.
#[derive(Clone)]
pub struct Supervisor {
    seed: u64,
    tag: &'static str,
    threads: usize,
    sim_budget: Option<SimDuration>,
    tel: Option<SupervisorTel>,
}

impl Supervisor {
    /// A supervisor rooted at `seed`, single-threaded, no budget, default
    /// tag `"trial"`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Supervisor {
            seed,
            tag: "trial",
            threads: 1,
            sim_budget: None,
            tel: None,
        }
    }

    /// Sets the worker-thread count. `0` and `1` both mean "run inline on
    /// the calling thread"; larger values shard across that many
    /// `std::thread` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the tag mixed into per-shard seed derivation, separating the
    /// seed streams of campaigns that share a root seed.
    #[must_use]
    pub fn with_tag(mut self, tag: &'static str) -> Self {
        self.tag = tag;
        self
    }

    /// Caps the simulated time one shard may consume before it is reported
    /// as [`ShardOutcome::Timeout`].
    #[must_use]
    pub fn with_sim_budget(mut self, budget: SimDuration) -> Self {
        self.sim_budget = Some(budget);
        self
    }

    /// Binds the `supervisor.*` counters on `registry`; totals are added
    /// after the deterministic merge, on the calling thread.
    #[must_use]
    pub fn attach_telemetry(mut self, registry: &Telemetry) -> Self {
        // No shard is retried; the counter stays bound at 0 so telemetry
        // files keep the key.
        let _ = registry.counter("supervisor.retries");
        self.tel = Some(SupervisorTel {
            shards: registry.counter("supervisor.shards"),
            timeouts: registry.counter("supervisor.timeouts"),
            panics: registry.counter("supervisor.panics"),
        });
        self
    }

    /// The seed shard `index` runs with.
    #[must_use]
    pub fn trial_seed(&self, index: usize) -> u64 {
        rng::derive_seed(self.seed, self.tag, index as u64)
    }

    /// Runs `trials` supervised shards and merges their outcomes in trial
    /// order — bit-identical for any thread count.
    pub fn run<T, F>(&self, trials: usize, f: F) -> SupervisedReport<T>
    where
        T: Send,
        F: Fn(&ShardCtx) -> T + Sync,
    {
        let outcomes = shard_in_order(self.threads, trials, |index| {
            self.supervise(
                Trial {
                    index,
                    seed: self.trial_seed(index),
                },
                &f,
            )
        });
        let count = |status| outcomes.iter().filter(|o| o.status() == status).count();
        let report = SupervisedReport {
            timeouts: count("timeout"),
            panics: count("panicked"),
            skipped: 0,
            retries: 0,
            outcomes,
        };
        if let Some(tel) = &self.tel {
            tel.shards.add(report.outcomes.len() as u64);
            tel.timeouts.add(report.timeouts as u64);
            tel.panics.add(report.panics as u64);
        }
        report
    }

    /// One shard: run once under `catch_unwind`, then apply the sim-time
    /// watchdog.
    fn supervise<T, F>(&self, trial: Trial, f: &F) -> ShardOutcome<T>
    where
        F: Fn(&ShardCtx) -> T + Sync,
    {
        let ctx = ShardCtx {
            trial,
            clock: SimClock::new(),
            budget: self.sim_budget,
        };
        match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            Ok(_) if ctx.over_budget() => ShardOutcome::Timeout {
                index: trial.index,
                seed: trial.seed,
                sim_elapsed: ctx.sim_elapsed(),
            },
            Ok(value) => ShardOutcome::Ok(value),
            Err(payload) => ShardOutcome::Panicked {
                index: trial.index,
                seed: trial.seed,
                message: panic_message(payload.as_ref()),
            },
        }
    }
}

/// Runs `f(0..trials)` on up to `threads` workers and returns the results
/// in index order — bit-identical for any thread count. Workers claim
/// indices by atomic counter (work stealing: a slow shard, e.g. a table1 row
/// whose binary search needs extra windows, leaves no worker idle), and the
/// index tags keep the merge deterministic.
fn shard_in_order<T, F>(threads: usize, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(trials.max(1));
    if workers <= 1 {
        return (0..trials).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(trials));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= trials {
                        break;
                    }
                    local.push((i, f(i)));
                }
                collected
                    .lock()
                    .expect("supervisor worker panicked while merging")
                    .extend(local);
            });
        }
    });
    let mut merged = collected.into_inner().expect("supervisor merge poisoned");
    merged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(merged.len(), trials);
    merged.into_iter().map(|(_, t)| t).collect()
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn clean_run_merges_in_trial_order() {
        let report = Supervisor::new(7)
            .with_threads(4)
            .run(16, |ctx| ctx.trial.index as u64 * 3);
        assert!(!report.degraded());
        let values: Vec<u64> = report.values().copied().collect();
        assert_eq!(values, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(report.into_complete(), values);
    }

    #[test]
    fn seeds_are_positional_tagged_and_distinct() {
        let seeds = Supervisor::new(1234)
            .with_threads(3)
            .run(16, |ctx| ctx.trial.seed)
            .into_complete();
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, rng::derive_seed(1234, "trial", i as u64));
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "per-shard seeds must differ");
        assert_ne!(
            Supervisor::new(5).with_tag("mc").trial_seed(0),
            Supervisor::new(5).with_tag("table1").trial_seed(0)
        );
    }

    #[test]
    fn empty_and_oversubscribed_campaigns() {
        let none = Supervisor::new(3)
            .with_threads(8)
            .run(0, |ctx| ctx.trial.index);
        assert!(none.outcomes.is_empty() && !none.degraded());
        let few = Supervisor::new(3)
            .with_threads(32)
            .run(3, |ctx| ctx.trial.index * 10);
        assert_eq!(few.into_complete(), vec![0, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "Panicked { index: 2")]
    fn into_complete_resurfaces_an_isolated_panic() {
        let report = Supervisor::new(9).with_threads(2).run(4, |ctx| {
            assert!(ctx.trial.index != 2, "boom");
            ctx.trial.index
        });
        let _ = report.into_complete();
    }

    #[test]
    fn panic_is_isolated_and_captured() {
        let report = Supervisor::new(9).with_threads(2).run(6, |ctx| {
            assert!(ctx.trial.index != 2, "boom at shard 2");
            ctx.trial.index
        });
        assert_eq!(report.panics, 1);
        assert!(report.degraded());
        match &report.outcomes[2] {
            ShardOutcome::Panicked {
                index,
                seed,
                message,
            } => {
                assert_eq!(*index, 2);
                assert_eq!(*seed, Supervisor::new(9).trial_seed(2));
                assert!(message.contains("boom at shard 2"), "got {message:?}");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert_eq!(report.values().count(), 5);
    }

    #[test]
    fn sim_budget_converts_runaways_to_timeouts() {
        let budget = SimDuration::from_micros(10);
        let report = Supervisor::new(5).with_sim_budget(budget).run(4, |ctx| {
            if ctx.trial.index == 1 {
                // Runaway shard: burns simulated time past the budget and
                // notices via the cooperative check.
                while !ctx.over_budget() {
                    ctx.clock().advance(SimDuration::from_micros(3));
                }
            } else {
                ctx.clock().advance(SimDuration::from_micros(1));
            }
            ctx.trial.index
        });
        assert_eq!(report.timeouts, 1);
        match &report.outcomes[1] {
            ShardOutcome::Timeout {
                index, sim_elapsed, ..
            } => {
                assert_eq!(*index, 1);
                assert!(sim_elapsed.as_nanos() > budget.as_nanos());
            }
            other => panic!("expected timeout outcome, got {other:?}"),
        }
        assert_eq!(report.values().count(), 3);
    }

    #[test]
    fn outcomes_identical_across_thread_counts() {
        let run = |threads| {
            Supervisor::new(21).with_threads(threads).run(12, |ctx| {
                assert!(ctx.trial.index % 5 != 0, "failing shard");
                ctx.trial.seed
            })
        };
        let one = run(1);
        assert_eq!(one.panics, 3);
        for threads in [2, 4] {
            let many = run(threads);
            assert_eq!(one.outcomes, many.outcomes, "diverged at {threads} threads");
        }
    }

    #[test]
    fn telemetry_counts_after_merge() {
        let registry = Telemetry::new();
        let report = Supervisor::new(13)
            .attach_telemetry(&registry)
            .run(5, |ctx| {
                assert!(ctx.trial.index != 0, "failing shard");
                ctx.trial.index
            });
        assert_eq!(report.panics, 1);
        assert_eq!(registry.counter_value("supervisor.shards"), Some(5));
        assert_eq!(registry.counter_value("supervisor.panics"), Some(1));
        assert_eq!(registry.counter_value("supervisor.retries"), Some(0));
        assert_eq!(registry.counter_value("supervisor.timeouts"), Some(0));
    }
}
