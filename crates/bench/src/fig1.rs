//! Experiment E2 — **Figure 1**: "A simple example of a two-sided FTL
//! rowhammering attack … redirecting LBA 256 to a different PBA."
//!
//! Reproduces the depicted mechanism as a working run: sequential-write
//! setup, an alternating read workload over LBAs whose L2P entries sit in
//! the two aggressor rows, and the resulting redirection of victim-row
//! LBAs. Also verifies the negative control (sub-threshold rate ⇒ no
//! redirection).

use ssdhammer_core::{
    find_attack_sites, AttackPipeline, CrossBank, L2pEntries, Redirection, TwoSided,
};
use ssdhammer_dram::{DramGeneration, ModuleProfile};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::telemetry::TelemetrySnapshot;
use ssdhammer_simkit::SimDuration;

/// The reproduced Figure 1 run.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Victim row coordinates.
    pub victim_bank: u32,
    /// Victim row coordinates.
    pub victim_row: u32,
    /// LBAs whose entries live in the victim row.
    pub victim_lba_count: usize,
    /// Activation rate achieved, accesses/s.
    pub achieved_rate: f64,
    /// Bitflips induced.
    pub flips: usize,
    /// Host-visible L2P redirections.
    pub redirections: Vec<Redirection>,
    /// Redirections under the sub-threshold negative control.
    pub control_redirections: usize,
}

impl ToJson for Fig1Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("victim_bank", Json::from(self.victim_bank)),
            ("victim_row", Json::from(self.victim_row)),
            ("victim_lba_count", Json::from(self.victim_lba_count)),
            ("achieved_rate", Json::from(self.achieved_rate)),
            ("flips", Json::from(self.flips)),
            ("redirections", self.redirections.to_json()),
            (
                "control_redirections",
                Json::from(self.control_redirections),
            ),
        ])
    }
}

fn build_ssd(seed: u64) -> Ssd {
    let mut profile = ModuleProfile::from_min_rate("fig1 DDR4", DramGeneration::Ddr4, 2020, 313);
    profile.row_vulnerable_prob = 1.0;
    profile.weak_cells_per_row = 6.0;
    let mut config = SsdConfig::test_small(seed);
    config.dram_profile = profile;
    Ssd::build(config)
}

/// Runs Figure 1 and also returns the attacked device's telemetry snapshot
/// (every layer's counters from the single shared registry, plus the event
/// trace with the flip and redirection records).
fn run(seed: u64) -> (Fig1Result, TelemetrySnapshot) {
    // The attack proper: a double-sided pipeline against the device's
    // weakest L2P site, aggressor entries included in the setup phase.
    let mut ssd = build_ssd(seed);
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    let outcome = AttackPipeline::new(
        TwoSided,
        L2pEntries {
            setup_aggressors: true,
            ..L2pEntries::default()
        },
        CrossBank,
    )
    .with_rate(1_500_000.0)
    .with_duration(SimDuration::from_millis(500))
    .with_sites(vec![site.clone()])
    .run(&mut ssd)
    .expect("hammer");

    // Negative control on a fresh, identical device at 1/20 the rate.
    let mut control_ssd = build_ssd(seed);
    let control_site = find_attack_sites(control_ssd.ftl(), 1).pop().expect("site");
    let control = AttackPipeline::default()
        .with_rate(75_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![control_site])
        .run(&mut control_ssd)
        .expect("control hammer");

    let snapshot = ssd.snapshot_telemetry();
    (
        Fig1Result {
            victim_bank: site.victim.bank,
            victim_row: site.victim.row,
            victim_lba_count: site.victim_lbas.len(),
            achieved_rate: outcome.report.achieved_rate,
            flips: outcome.report.flips.len(),
            redirections: outcome.redirections(),
            control_redirections: control.redirections().len(),
        },
        snapshot,
    )
}

/// Renders the result in the spirit of the figure's caption.
fn render(r: &Fig1Result) -> String {
    let mut out = format!(
        "Figure 1: two-sided FTL rowhammering\n\
         victim row: (bank {}, row {}) holding {} L2P entries\n\
         hammer: alternating reads at {:.2}M acc/s -> {} bitflips\n",
        r.victim_bank,
        r.victim_row,
        r.victim_lba_count,
        r.achieved_rate / 1e6,
        r.flips,
    );
    for redir in &r.redirections {
        out.push_str(&format!(
            "  {} redirected {:?} -> {:?}\n",
            redir.lba, redir.from, redir.to
        ));
    }
    out.push_str(&format!(
        "negative control at 75K acc/s: {} redirections\n",
        r.control_redirections
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_redirects_and_control_does_not() {
        let (r, snapshot) = run(9);
        assert!(r.flips > 0);
        assert!(
            !r.redirections.is_empty(),
            "the depicted redirection occurs"
        );
        assert_eq!(r.control_redirections, 0, "sub-threshold control is clean");
        // The exported snapshot carries every layer's counters, including
        // the fault plane and the integrity/scrub planes (zero on this
        // undefended device, but present for dashboards to scrape).
        for name in [
            "fault.consults",
            "fault.injected",
            "integrity.detected",
            "scrub.repairs",
            "recovery.uncorrectable_reads",
        ] {
            assert!(snapshot.counter(name).is_some(), "snapshot missing {name}");
        }
        // The pipeline stamps per-stage counters keyed by registry name.
        assert_eq!(snapshot.counter("attack.pattern.two_sided.cycles"), Some(1));
        assert_eq!(snapshot.counter("attack.victim.l2p.cycles"), Some(1));
        assert!(
            snapshot
                .counter("attack.victim.l2p.changes")
                .is_some_and(|n| n > 0),
            "victim change counter missing or zero"
        );
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro fig1`. Its output carries the attacked
/// device's telemetry snapshot, which `repro` writes to
/// `fig1-telemetry.json`.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Scenario;

impl Scenario for Fig1Scenario {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        let (r, snapshot) = run(seed);
        Output {
            json: r.to_json(),
            text: render(&r),
            telemetry: Some(snapshot),
        }
    }
}
