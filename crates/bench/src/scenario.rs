//! The uniform scenario API: every experiment module exposes one entry
//! point with the same shape, so callers (the `repro` binary's subcommand
//! registry, tests) can drive any experiment without knowing its
//! module-specific function zoo.
//!
//! A scenario is a unit struct implementing [`Scenario`]; the impl lives in
//! the experiment's own module next to the code it runs. `run` computes
//! the experiment once and returns an [`Output`]: the structured document
//! `repro <name> --json` prints, the human-readable report `repro <name>`
//! prints, and the device telemetry snapshot when the experiment keeps
//! one. Everything is deterministic for a fixed `(cfg, seed)`: thread count
//! shards work but never changes output bytes.
//!
//! Every *campaign* scenario — one that runs many independent trials —
//! takes the same path: its shards run on a
//! [`Supervisor`] through [`ScenarioCfg::run_campaign`], the single place
//! the `--abort-after` flag reaches the runner, and [`campaign_output`]
//! marks partial results the same way in every report and fails the run
//! on a shard that panicked or timed out.

use std::fmt;
use std::path::PathBuf;

use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::supervisor::{ShardCtx, ShardOutcome, SupervisedReport, Supervisor};
use ssdhammer_simkit::telemetry::TelemetrySnapshot;

/// Options shared by every scenario. Scenarios ignore fields that do not
/// apply to them (`fig3`, `torture` and `fuzz` distinguish `full`; only
/// `attacks` reads the grid filters; only `fuzz` reads `soak` and
/// `replay`); `abort_after` drives every campaign scenario through
/// [`ScenarioCfg::run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioCfg {
    /// Run the paper-prototype-scale configuration where one exists
    /// (fig3's 1 GiB case study, torture's sampling schedule) instead of
    /// the fast demo.
    pub full: bool,
    /// Stop launching new shards after this many (`--abort-after`, a
    /// simulated kill: the report covers the shards that ran and is
    /// marked partial).
    pub abort_after: Option<usize>,
    /// Episode-count override for the fuzz campaign (`--soak N`).
    pub soak: Option<usize>,
    /// Replay a directory of persisted fuzz corpus cases instead of
    /// soaking (`--replay DIR`).
    pub replay: Option<PathBuf>,
    /// Run only this hammer pattern's cells of the attack grid
    /// (`--pattern P`, a `pattern_names` registry entry).
    pub pattern: Option<String>,
    /// Run only this victim structure's cells of the attack grid
    /// (`--victim V`, a `victim_names` registry entry).
    pub victim: Option<String>,
}

impl ScenarioCfg {
    /// Runs a campaign's `trials` shards on `sup`, which stops launching
    /// shards after `abort_after` of them.
    pub fn run_campaign<T, F>(
        &self,
        sup: Supervisor,
        trials: usize,
        shard: F,
    ) -> SupervisedReport<T>
    where
        T: Send,
        F: Fn(&ShardCtx) -> T + Sync,
    {
        let sup = match self.abort_after {
            Some(n) => sup.with_stop_after(n),
            None => sup,
        };
        sup.run(trials, shard)
    }
}

/// What one scenario run produced: the structured document, the text
/// report, and the attacked device's telemetry snapshot for experiments
/// that keep one (`repro` writes it to `<name>-telemetry.json`).
#[derive(Debug, Clone)]
pub struct Output {
    /// The document `repro <name> --json` prints.
    pub json: Json,
    /// The report `repro <name>` prints.
    pub text: String,
    /// Every layer's counters and the event trace of the run's device.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Output {
    /// A run's document and report, without a telemetry snapshot.
    #[must_use]
    pub fn new(json: Json, text: String) -> Output {
        Output {
            json,
            text,
            telemetry: None,
        }
    }
}

/// A campaign scenario's output. When every shard completed it is
/// `(json, text)` itself. When the campaign stopped early
/// (`--abort-after`), both cover only the completed shards: the document
/// is wrapped with the partial-result marker
/// `{"degraded": true, "skipped": n, "result": json}`, and the report
/// ends with a warning line.
///
/// # Panics
///
/// On the first shard that panicked or timed out, as
/// [`SupervisedReport::into_complete`] does: a failed shard fails the run
/// instead of printing a smaller result.
#[must_use]
pub fn campaign_output<T: fmt::Debug>(
    report: &SupervisedReport<T>,
    json: Json,
    mut text: String,
) -> Output {
    // Only shards a stopped campaign never launched may be missing from a
    // printed report: the first shard that ran and failed fails the run,
    // printing its outcome (index and seed replay it).
    if let Some(failed) = report.outcomes.iter().find(|o| {
        matches!(
            o,
            ShardOutcome::Panicked { .. } | ShardOutcome::Timeout { .. }
        )
    }) {
        panic!("campaign shard failed: {failed:?}");
    }
    if report.skipped == 0 {
        return Output::new(json, text);
    }
    text.push_str(&format!(
        "WARNING: partial results ({} shards skipped)\n",
        report.skipped
    ));
    let json = Json::obj([
        ("degraded", Json::from(true)),
        ("skipped", Json::from(report.skipped)),
        ("result", json),
    ]);
    Output::new(json, text)
}

/// A reproducible experiment with a uniform entry signature.
///
/// `Sync` is a supertrait so `&'static dyn Scenario` can sit in the
/// `repro` binary's static command table.
pub trait Scenario: Sync {
    /// The canonical experiment name — the `repro` subcommand.
    fn name(&self) -> &'static str;

    /// Runs the experiment once and returns its document, report and
    /// telemetry. Byte-identical for a fixed `(cfg, seed)` regardless of
    /// `threads`.
    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three shards; shard 1 panics when `fail` is set.
    fn report(fail: bool, stop_after: Option<usize>) -> SupervisedReport<usize> {
        let cfg = ScenarioCfg {
            abort_after: stop_after,
            ..ScenarioCfg::default()
        };
        cfg.run_campaign(Supervisor::new(3).with_threads(2), 3, |ctx| {
            assert!(!(fail && ctx.trial.index == 1), "injected shard failure");
            ctx.trial.index
        })
    }

    #[test]
    #[should_panic(expected = "Panicked { index: 1")]
    fn a_panicked_shard_fails_the_output() {
        let _ = campaign_output(&report(true, None), Json::Null, String::new());
    }

    #[test]
    fn skipped_shards_only_mark_the_output_partial() {
        let partial = campaign_output(&report(false, Some(1)), Json::Null, String::new());
        let doc = &partial.json;
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("skipped").and_then(Json::as_u64), Some(2));
        assert_eq!(
            partial.text,
            "WARNING: partial results (2 shards skipped)\n"
        );

        let complete = campaign_output(&report(false, None), Json::Null, String::from("ok\n"));
        assert_eq!(complete.json, Json::Null);
        assert_eq!(complete.text, "ok\n");
    }
}
