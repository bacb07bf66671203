//! Defense-in-depth campaign (`repro -- defenses`): the Figure 1 attack
//! primitive re-run against each layer of the integrity plane — no defense,
//! TRR, PARA, L2P integrity codes (detect and correct), and the background
//! patrol scrubber — reporting per configuration the **attack success
//! probability** (fraction of trials ending in at least one *silent*
//! mapping redirection) alongside physical flips, loud failures, and
//! repairs.
//!
//! The distinction the table turns on: a defense succeeds either by
//! preventing flips (TRR, PARA), by converting silent redirections into
//! loud, typed failures (L2P-Detect), or by repairing entries before the
//! host consumes them (L2P-Correct, scrubber). Only silent redirections
//! are usable by the paper's exploit chain.
//!
//! Trials run as the shards of one supervised campaign, so the output is
//! bit-identical for any `--threads` value; a trial whose shard panics
//! fails the run.

use ssdhammer_core::{find_attack_sites, AttackPipeline};
use ssdhammer_dram::{ModuleProfile, ParaConfig, TrrConfig};
use ssdhammer_flash::FlashGeometry;
use ssdhammer_ftl::{FtlConfig, IntegrityMode};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::Supervisor;
use ssdhammer_simkit::SimDuration;

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// Independent attack trials per defense configuration.
const TRIALS: usize = 3;

/// Aggregated outcome of all trials against one defense configuration.
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Defense label.
    pub defense: &'static str,
    /// Attack trials run.
    pub trials: u64,
    /// Trials that ended with at least one silent redirection.
    pub successes: u64,
    /// `successes / trials` — the attack success probability.
    pub success_probability: f64,
    /// Physical bitflips across all trials.
    pub flips: u64,
    /// Victim entries silently redirected (no error surfaced).
    pub silent_redirections: u64,
    /// Victim entries that failed loudly (typed integrity/ECC error).
    pub loud_failures: u64,
    /// Entries repaired by ECC, the integrity plane, or the scrubber.
    pub repairs: u64,
    /// Trials that ended with the device degraded to read-only.
    pub degraded: u64,
}

impl ToJson for DefenseRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("defense", Json::from(self.defense)),
            ("trials", Json::from(self.trials)),
            ("successes", Json::from(self.successes)),
            ("success_probability", Json::from(self.success_probability)),
            ("flips", Json::from(self.flips)),
            ("silent_redirections", Json::from(self.silent_redirections)),
            ("loud_failures", Json::from(self.loud_failures)),
            ("repairs", Json::from(self.repairs)),
            ("degraded", Json::from(self.degraded)),
        ])
    }
}

/// One trial's raw counts (summed into a [`DefenseRow`]).
#[derive(Debug, Clone, Copy, Default)]
struct TrialOutcome {
    flips: u64,
    silent: u64,
    loud: u64,
    repairs: u64,
    degraded: bool,
}

/// A flash geometry small enough that the tiny test DRAM holds both the
/// 4 Ki-entry L2P table (16 KiB) and a Correct-mode integrity plane
/// (24 KiB). Shared by every row so the configurations differ only in
/// their defenses.
fn small_flash() -> FlashGeometry {
    FlashGeometry {
        blocks_per_plane: 32,
        ..FlashGeometry::tiny_test()
    }
}

fn base_config(seed: u64) -> SsdConfig {
    SsdConfig {
        dram_profile: ModuleProfile::demo_ddr4(),
        flash_geometry: small_flash(),
        ..SsdConfig::test_small(seed)
    }
}

/// The six defense configurations of the matrix, in report order.
const DEFENSES: [&str; 6] = [
    "no defense",
    "TRR",
    "PARA",
    "L2P-Detect",
    "L2P-Correct",
    "scrubber + L2P-Correct",
];

/// The device configuration of [`DEFENSES`]`[defense]`.
fn configure(defense: usize, seed: u64) -> SsdConfig {
    match defense {
        0 => base_config(seed),
        1 => SsdConfig {
            trr: Some(TrrConfig::default()),
            ..base_config(seed)
        },
        2 => SsdConfig {
            para: Some(ParaConfig {
                refresh_probability: 0.05,
            }),
            ..base_config(seed)
        },
        3 => SsdConfig {
            ftl: FtlConfig {
                integrity: IntegrityMode::Detect,
                ..FtlConfig::default()
            },
            ..base_config(seed)
        },
        4 => SsdConfig {
            ftl: FtlConfig {
                integrity: IntegrityMode::Correct,
                ..FtlConfig::default()
            },
            ..base_config(seed)
        },
        _ => SsdConfig {
            ftl: FtlConfig {
                integrity: IntegrityMode::Correct,
                ..FtlConfig::default()
            },
            scrubber: true,
            ..base_config(seed)
        },
    }
}

/// Runs one Figure 1 primitive trial against `config`. The pipeline's
/// victim stage classifies every mapping change: silent (usable by the
/// exploit) vs loud (typed failure the host observes).
fn attack_trial(config: SsdConfig) -> TrialOutcome {
    let mut ssd = Ssd::build(config);
    let Some(site) = find_attack_sites(ssd.ftl(), 4).first().cloned() else {
        return TrialOutcome::default();
    };
    let outcome = AttackPipeline::default()
        .with_rate(1_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![site])
        .run(&mut ssd)
        .expect("hammer");
    let log = ssd.health_log();
    TrialOutcome {
        flips: outcome.report.flips.len() as u64,
        silent: outcome.silent_count() as u64,
        loud: outcome.loud_count() as u64,
        repairs: log.scrub_repairs + log.integrity_repaired,
        degraded: log.read_only,
    }
}

/// The defense campaign: one supervised shard per (defense, trial) pair,
/// defense-major, each seeded from its position; returns the matrix.
fn campaign(seed: u64, threads: usize) -> Vec<DefenseRow> {
    let trials = Supervisor::new(seed)
        .with_tag("defenses")
        .with_threads(threads)
        .run(DEFENSES.len() * TRIALS, |ctx| {
            attack_trial(configure(ctx.trial.index / TRIALS, ctx.trial.seed))
        })
        .into_complete();
    matrix(&trials)
}

/// Sums per-trial outcomes, in shard order, into one row per defense.
fn matrix(trials: &[TrialOutcome]) -> Vec<DefenseRow> {
    let mut rows: Vec<DefenseRow> = DEFENSES
        .iter()
        .map(|&defense| DefenseRow {
            defense,
            trials: 0,
            successes: 0,
            success_probability: 0.0,
            flips: 0,
            silent_redirections: 0,
            loud_failures: 0,
            repairs: 0,
            degraded: 0,
        })
        .collect();
    for (i, t) in trials.iter().enumerate() {
        let row = &mut rows[i / TRIALS];
        row.trials += 1;
        row.successes += u64::from(t.silent > 0);
        row.flips += t.flips;
        row.silent_redirections += t.silent;
        row.loud_failures += t.loud;
        row.repairs += t.repairs;
        row.degraded += u64::from(t.degraded);
    }
    for row in &mut rows {
        row.success_probability = row.successes as f64 / row.trials as f64;
    }
    rows
}

/// Renders the matrix.
fn render(rows: &[DefenseRow]) -> String {
    let mut out = String::from(
        "defense-in-depth: Figure 1 primitive vs the integrity plane\n\
         defense                 P(success)  flips  silent  loud  repairs  degraded\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<23} {:>10.2} {:>6} {:>7} {:>5} {:>8} {:>9}\n",
            r.defense,
            r.success_probability,
            r.flips,
            r.silent_redirections,
            r.loud_failures,
            r.repairs,
            r.degraded,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_separates_the_defenses() {
        let rows = campaign(7, 1);
        assert_eq!(rows.len(), 6);
        let get = |name: &str| rows.iter().find(|r| r.defense.starts_with(name)).unwrap();
        // Undefended, the attack succeeds every trial.
        let base = get("no defense");
        assert!(base.success_probability > 0.99, "{base:?}");
        assert!(base.flips > 0 && base.silent_redirections > 0);
        // TRR and PARA stop double-sided hammering before flips occur.
        assert_eq!(get("TRR").success_probability, 0.0);
        assert_eq!(get("PARA").success_probability, 0.0);
        // Detect: flips still land, but every consumed corruption is loud.
        let detect = get("L2P-Detect");
        assert_eq!(detect.success_probability, 0.0, "{detect:?}");
        assert!(detect.flips > 0);
        assert!(detect.loud_failures > 0);
        // Correct: flips land and are repaired; nothing silent, nothing
        // loud, no degradation.
        let correct = get("L2P-Correct");
        assert_eq!(correct.success_probability, 0.0, "{correct:?}");
        assert!(correct.flips > 0);
        assert!(correct.repairs > 0);
        assert_eq!(correct.silent_redirections, 0);
        // Scrubber on top: still blocked, with patrol repairs landing
        // during the burst.
        let scrub = get("scrubber");
        assert_eq!(scrub.success_probability, 0.0, "{scrub:?}");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let json = |threads| campaign(7, threads).to_json().to_string();
        assert_eq!(json(1), json(4));
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro defenses`.
#[derive(Debug, Clone, Copy)]
pub struct DefensesScenario;

impl Scenario for DefensesScenario {
    fn name(&self) -> &'static str {
        "defenses"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let rows = campaign(seed, threads);
        Output::new(rows.to_json(), render(&rows))
    }
}
