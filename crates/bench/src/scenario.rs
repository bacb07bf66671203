//! The uniform scenario API: every experiment module exposes one entry
//! point with the same shape, so callers (the `repro` binary's subcommand
//! registry, the bench harness, tests) can drive any experiment without
//! knowing its module-specific function zoo.
//!
//! A scenario is a unit struct implementing [`Scenario`]; the impl lives in
//! the experiment's own module next to the functions it wraps. `run`
//! returns the structured result as [`Json`] — the same document `repro
//! <name> --json` prints — and `render` returns the human-readable report.
//! Both are deterministic for a fixed `(cfg, seed)`: thread count shards
//! work but never changes output bytes.
//!
//! Every *campaign* scenario — one that runs many independent trials —
//! takes the same path: its shards run on a
//! [`Supervisor`] through [`ScenarioCfg::run_campaign`], the single place
//! the `--checkpoint`/`--resume`/`--abort-after` flags reach the runner,
//! and [`campaign_document`] / [`campaign_render`] mark partial results
//! the same way in every report and fail the run on a shard that panicked
//! or timed out.

use std::fmt;
use std::path::PathBuf;

use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::supervisor::{
    JsonCodec, ShardCtx, ShardOutcome, SupervisedReport, Supervisor,
};

/// Options shared by every scenario. Scenarios ignore fields that do not
/// apply to them (`fig3`, `torture` and `fuzz` distinguish `full`); the
/// checkpoint/resume/abort flags drive every campaign scenario through
/// [`ScenarioCfg::run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioCfg {
    /// Run the paper-prototype-scale configuration where one exists
    /// (fig3's 1 GiB case study, torture's sampling schedule) instead of
    /// the fast demo.
    pub full: bool,
    /// Persist completed campaign shards to this checkpoint file
    /// (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Restore completed shards from the checkpoint before running
    /// (`--resume`).
    pub resume: bool,
    /// Stop launching new shards after this many (`--abort-after`; CI's
    /// simulated kill for checkpoint/resume round-trips).
    pub abort_after: Option<usize>,
    /// Episode-count override for the fuzz campaign (`--soak N`).
    pub soak: Option<usize>,
    /// Replay a directory of persisted fuzz corpus cases instead of
    /// soaking (`--replay DIR`).
    pub replay: Option<PathBuf>,
}

impl ScenarioCfg {
    /// Runs a campaign's `trials` shards on `sup` under this cfg's campaign
    /// flags: `abort_after` stops launching shards, and `checkpoint` (with
    /// `resume`) persists and restores completed shards through `codec`.
    ///
    /// # Panics
    ///
    /// When the checkpoint file cannot be read, validated against this
    /// campaign, or written — the run cannot keep the promise the flag
    /// asked for.
    pub fn run_campaign<T, F>(
        &self,
        sup: Supervisor,
        trials: usize,
        codec: JsonCodec<T>,
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
        match &self.checkpoint {
            Some(path) => sup
                .run_checkpointed(trials, path, self.resume, codec, shard)
                .unwrap_or_else(|e| panic!("{e}")),
            None => sup.run(trials, shard),
        }
    }
}

/// A campaign scenario's structured result. When every shard completed it
/// is `doc` itself, so a resumed campaign prints exactly what an
/// uninterrupted one does. When the campaign stopped early
/// (`--abort-after`), `doc` covers only the completed shards and is wrapped
/// with the partial-result marker:
/// `{"degraded": true, "skipped": n, "result": doc}`.
///
/// # Panics
///
/// On the first shard that panicked or timed out, as
/// [`SupervisedReport::into_complete`] does: a failed shard fails the run
/// instead of printing a smaller result.
#[must_use]
pub fn campaign_document<T: fmt::Debug>(report: &SupervisedReport<T>, doc: Json) -> Json {
    resurface_failures(report);
    if report.skipped == 0 {
        return doc;
    }
    Json::obj([
        ("degraded", Json::from(true)),
        ("skipped", Json::from(report.skipped)),
        ("result", doc),
    ])
}

/// The text counterpart of [`campaign_document`]: `text`, plus a warning
/// line when shards were skipped.
///
/// # Panics
///
/// As [`campaign_document`], on a panicked or timed-out shard.
#[must_use]
pub fn campaign_render<T: fmt::Debug>(report: &SupervisedReport<T>, mut text: String) -> String {
    resurface_failures(report);
    if report.skipped > 0 {
        text.push_str(&format!(
            "WARNING: partial results ({} shards skipped)\n",
            report.skipped
        ));
    }
    text
}

/// Panics on the first shard that ran and failed, printing its outcome
/// (index and seed replay it). Only shards a stopped campaign never
/// launched may be missing from a printed report.
fn resurface_failures<T: fmt::Debug>(report: &SupervisedReport<T>) {
    if let Some(failed) = report.outcomes.iter().find(|o| {
        matches!(
            o,
            ShardOutcome::Panicked { .. } | ShardOutcome::Timeout { .. }
        )
    }) {
        panic!("campaign shard failed: {failed:?}");
    }
}

/// A reproducible experiment with a uniform entry signature.
///
/// `Sync` is a supertrait so `&'static dyn Scenario` can sit in the
/// `repro` binary's static command table.
pub trait Scenario: Sync {
    /// The canonical experiment name — the `repro` subcommand.
    fn name(&self) -> &'static str;

    /// Runs the experiment and returns its structured result document.
    /// Byte-identical for a fixed `(cfg, seed)` regardless of `threads`.
    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Json;

    /// Runs the experiment and returns the human-readable report (the
    /// text `repro <name>` prints).
    fn render(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> String;
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
        let codec = JsonCodec {
            encode: |v| Json::from(*v),
            decode: |j| j.as_u64().map(|v| v as usize),
        };
        cfg.run_campaign(Supervisor::new(3).with_threads(2), 3, codec, |ctx| {
            assert!(!(fail && ctx.trial.index == 1), "injected shard failure");
            ctx.trial.index
        })
    }

    #[test]
    #[should_panic(expected = "Panicked { index: 1")]
    fn a_panicked_shard_fails_the_document() {
        let _ = campaign_document(&report(true, None), Json::Null);
    }

    #[test]
    #[should_panic(expected = "injected shard failure")]
    fn a_panicked_shard_fails_the_text_report() {
        let _ = campaign_render(&report(true, None), String::new());
    }

    #[test]
    fn skipped_shards_only_mark_the_report_partial() {
        let partial = report(false, Some(1));
        let doc = campaign_document(&partial, Json::Null);
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("skipped").and_then(Json::as_u64), Some(2));
        let text = campaign_render(&partial, String::new());
        assert_eq!(text, "WARNING: partial results (2 shards skipped)\n");

        let complete = report(false, None);
        assert_eq!(campaign_document(&complete, Json::Null), Json::Null);
        assert_eq!(campaign_render(&complete, String::from("ok\n")), "ok\n");
    }
}
