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
//! runs each trial once, as a shard of one
//! [`Supervisor`](ssdhammer_simkit::supervisor::Supervisor) campaign. Six
//! of them need every shard and build their output from
//! [`SupervisedReport::into_complete`](ssdhammer_simkit::supervisor::SupervisedReport::into_complete),
//! so a shard that panicked or timed out fails the run; torture and fuzz
//! count such a shard as a finding in their documents.

use std::path::PathBuf;

use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::telemetry::TelemetrySnapshot;

/// Options shared by every scenario. Scenarios ignore fields that do not
/// apply to them (`fig3`, `torture` and `fuzz` distinguish `full`; only
/// `attacks` reads the grid filters; only `fuzz` reads `soak` and
/// `replay`).
#[derive(Debug, Clone, Default)]
pub struct ScenarioCfg {
    /// Run the paper-prototype-scale configuration where one exists
    /// (fig3's 1 GiB case study, torture's sampling schedule) instead of
    /// the fast demo.
    pub full: bool,
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
