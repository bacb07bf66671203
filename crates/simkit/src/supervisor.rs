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
//! * **Bounded seeded retry** — a panicked shard is retried up to
//!   [`Supervisor::with_max_retries`] times, each attempt reseeded with
//!   [`rng::derive_seed`]`(trial_seed, "retry", attempt)` so retries are
//!   themselves reproducible.
//!
//! The merged [`SupervisedReport`] keeps per-shard outcomes in trial order
//! and exposes a [`SupervisedReport::degraded`] flag scenario JSON can
//! surface when partial results were aggregated; callers that need every
//! shard take [`SupervisedReport::into_complete`].
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
    /// The shard's position and (attempt-specific) seed. On retry the seed
    /// is re-derived; the index never changes.
    pub trial: Trial,
    /// Which attempt this is: `0` for the first run, `1..` for retries.
    pub attempt: u32,
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
        /// Seed of the attempt that timed out.
        seed: u64,
        /// Simulated time the shard consumed.
        sim_elapsed: SimDuration,
    },
    /// Every attempt of the shard panicked.
    Panicked {
        /// Trial index for deterministic replay.
        index: usize,
        /// Seed of the *first* attempt — replaying `(index, seed)`
        /// reproduces the original panic.
        seed: u64,
        /// Attempts made (first run plus retries).
        attempts: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The shard never ran: the campaign stopped first
    /// ([`Supervisor::with_stop_after`]).
    Skipped {
        /// Trial index.
        index: usize,
        /// The seed the shard would have used.
        seed: u64,
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

    /// Short status tag for reports: `ok`, `timeout`, `panicked`,
    /// `skipped`.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            ShardOutcome::Ok(_) => "ok",
            ShardOutcome::Timeout { .. } => "timeout",
            ShardOutcome::Panicked { .. } => "panicked",
            ShardOutcome::Skipped { .. } => "skipped",
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
    /// Shards whose every attempt panicked.
    pub panics: usize,
    /// Shards skipped because the campaign stopped early.
    pub skipped: usize,
    /// Total retry attempts performed across all shards.
    pub retries: usize,
}

impl<T> SupervisedReport<T> {
    /// True when any shard failed to contribute a value — the scenario
    /// JSON marker for partial-result aggregation.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.timeouts + self.panics + self.skipped > 0
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
    retries: CounterHandle,
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
    max_retries: u32,
    stop_after: Option<usize>,
    tel: Option<SupervisorTel>,
}

impl Supervisor {
    /// A supervisor rooted at `seed`, single-threaded, no budget, no
    /// retries, default tag `"trial"`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Supervisor {
            seed,
            tag: "trial",
            threads: 1,
            sim_budget: None,
            max_retries: 0,
            stop_after: None,
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

    /// Number of seeded retries granted to a panicking shard.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Stops launching new shards once `n` have started; the rest report
    /// [`ShardOutcome::Skipped`]. `n = 0` therefore aborts before the
    /// first shard: every shard is skipped and the workload closure never
    /// runs. Used to simulate a killed campaign (`repro --abort-after`).
    #[must_use]
    pub fn with_stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Binds the `supervisor.*` counters on `registry`; totals are added
    /// after the deterministic merge, on the calling thread.
    #[must_use]
    pub fn attach_telemetry(mut self, registry: &Telemetry) -> Self {
        self.tel = Some(SupervisorTel {
            shards: registry.counter("supervisor.shards"),
            timeouts: registry.counter("supervisor.timeouts"),
            panics: registry.counter("supervisor.panics"),
            retries: registry.counter("supervisor.retries"),
        });
        self
    }

    /// The seed shard `index` will receive on its first attempt.
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
        let started = AtomicUsize::new(0);
        let shards: Vec<(ShardOutcome<T>, u32)> = shard_in_order(self.threads, trials, |index| {
            let trial = Trial {
                index,
                seed: self.trial_seed(index),
            };
            if let Some(limit) = self.stop_after {
                if started.fetch_add(1, Ordering::SeqCst) >= limit {
                    return (
                        ShardOutcome::Skipped {
                            index: trial.index,
                            seed: trial.seed,
                        },
                        0,
                    );
                }
            }
            self.supervise(trial, &f)
        });
        let mut report = SupervisedReport {
            outcomes: Vec::with_capacity(shards.len()),
            timeouts: 0,
            panics: 0,
            skipped: 0,
            retries: 0,
        };
        for (outcome, retries) in shards {
            match &outcome {
                ShardOutcome::Ok(_) => {}
                ShardOutcome::Timeout { .. } => report.timeouts += 1,
                ShardOutcome::Panicked { .. } => report.panics += 1,
                ShardOutcome::Skipped { .. } => report.skipped += 1,
            }
            report.retries += retries as usize;
            report.outcomes.push(outcome);
        }
        if let Some(tel) = &self.tel {
            tel.shards.add(report.outcomes.len() as u64);
            tel.timeouts.add(report.timeouts as u64);
            tel.panics.add(report.panics as u64);
            tel.retries.add(report.retries as u64);
        }
        report
    }

    /// One shard: run under `catch_unwind`, retry panics with re-derived
    /// seeds, and apply the sim-time watchdog to the surviving attempt.
    fn supervise<T, F>(&self, trial: Trial, f: &F) -> (ShardOutcome<T>, u32)
    where
        F: Fn(&ShardCtx) -> T + Sync,
    {
        let mut attempt = 0u32;
        loop {
            let seed = if attempt == 0 {
                trial.seed
            } else {
                rng::derive_seed(trial.seed, "retry", u64::from(attempt))
            };
            let ctx = ShardCtx {
                trial: Trial {
                    index: trial.index,
                    seed,
                },
                attempt,
                clock: SimClock::new(),
                budget: self.sim_budget,
            };
            match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                Ok(value) => {
                    let sim_elapsed = ctx.sim_elapsed();
                    if self
                        .sim_budget
                        .is_some_and(|b| sim_elapsed.as_nanos() > b.as_nanos())
                    {
                        return (
                            ShardOutcome::Timeout {
                                index: trial.index,
                                seed,
                                sim_elapsed,
                            },
                            attempt,
                        );
                    }
                    return (ShardOutcome::Ok(value), attempt);
                }
                Err(payload) => {
                    if attempt >= self.max_retries {
                        return (
                            ShardOutcome::Panicked {
                                index: trial.index,
                                seed: trial.seed,
                                attempts: attempt + 1,
                                message: panic_message(payload.as_ref()),
                            },
                            attempt,
                        );
                    }
                    attempt += 1;
                }
            }
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
                attempts,
                message,
            } => {
                assert_eq!(*index, 2);
                assert_eq!(*seed, Supervisor::new(9).trial_seed(2));
                assert_eq!(*attempts, 1);
                assert!(message.contains("boom at shard 2"), "got {message:?}");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert_eq!(report.values().count(), 5);
    }

    #[test]
    fn retries_are_seeded_and_bounded() {
        // Succeed only when handed a retry seed (attempt > 0); the retry
        // seed itself must be the documented derivation.
        let report = Supervisor::new(11).with_max_retries(2).run(3, |ctx| {
            if ctx.attempt == 0 {
                panic!("first attempt fails");
            }
            assert_eq!(
                ctx.trial.seed,
                rng::derive_seed(
                    Supervisor::new(11).trial_seed(ctx.trial.index),
                    "retry",
                    u64::from(ctx.attempt)
                )
            );
            99u64
        });
        assert_eq!(report.panics, 0);
        assert_eq!(report.retries, 3);
        assert_eq!(report.values().count(), 3);

        let exhausted = Supervisor::new(11)
            .with_max_retries(2)
            .run(1, |_ctx: &ShardCtx| -> u64 { panic!("always") });
        assert_eq!(exhausted.panics, 1);
        assert_eq!(exhausted.retries, 2);
        match &exhausted.outcomes[0] {
            ShardOutcome::Panicked { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected panic outcome, got {other:?}"),
        }
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
            Supervisor::new(21)
                .with_threads(threads)
                .with_max_retries(1)
                .run(12, |ctx| {
                    if ctx.trial.index % 5 == 0 && ctx.attempt == 0 {
                        panic!("flaky shard");
                    }
                    ctx.trial.seed
                })
        };
        let one = run(1);
        for threads in [2, 4] {
            let many = run(threads);
            assert_eq!(one.outcomes, many.outcomes, "diverged at {threads} threads");
            assert_eq!(one.retries, many.retries);
        }
    }

    #[test]
    fn telemetry_counts_after_merge() {
        let registry = Telemetry::new();
        let report = Supervisor::new(13)
            .attach_telemetry(&registry)
            .with_max_retries(1)
            .run(5, |ctx| {
                if ctx.trial.index == 0 {
                    panic!("unrecoverable");
                }
                if ctx.trial.index == 1 && ctx.attempt == 0 {
                    panic!("recoverable");
                }
                ctx.trial.index
            });
        assert_eq!(registry.counter_value("supervisor.shards"), Some(5));
        assert_eq!(registry.counter_value("supervisor.panics"), Some(1));
        assert_eq!(
            registry.counter_value("supervisor.retries"),
            Some(report.retries as u64)
        );
        assert_eq!(registry.counter_value("supervisor.timeouts"), Some(0));
    }

    #[test]
    fn stop_after_zero_skips_every_shard() {
        // The abort boundary: stop-after 0 must abort *before* the first
        // shard, so the workload closure never runs at all.
        let report = Supervisor::new(17)
            .with_threads(2)
            .with_stop_after(0)
            .run(8, |_ctx: &ShardCtx| -> u64 {
                panic!("no shard may start when stop_after is 0")
            });
        assert_eq!(report.skipped, 8);
        assert_eq!(report.panics, 0);
        assert_eq!(report.values().count(), 0);
        assert!(report.degraded());
    }

    #[test]
    fn stop_after_boundary_is_exact() {
        // stop_after(n) runs exactly n shards, skipping the rest —
        // no off-by-one on either side.
        for n in [1usize, 3, 7, 8] {
            let report = Supervisor::new(17)
                .with_stop_after(n)
                .run(8, |ctx| ctx.trial.index as u64);
            assert_eq!(report.values().count(), n.min(8), "stop_after({n})");
            assert_eq!(report.skipped, 8 - n.min(8), "stop_after({n})");
        }
    }
}
