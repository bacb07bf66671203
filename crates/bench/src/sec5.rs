//! Experiment E6 — **§5**: mitigations. Each defense is enabled alone and
//! the Figure 1 primitive re-run; the table reports physical flips vs
//! host-visible redirections, plus the TRRespass caveat (many-sided beats
//! the TRR sampler) and the one-location/open-page interaction.

use ssdhammer_core::{
    find_attack_sites, AttackError, AttackPipeline, AttackSite, CrossBank, Hammerer, L2pEntries,
    ManySided, OneLocation, SameBank, TwoSided,
};
use ssdhammer_dram::{EccConfig, ModuleProfile, RowKey, TrrConfig};
use ssdhammer_ftl::L2pLayout;
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::{Lba, SimDuration};

/// One mitigation sweep point.
#[derive(Debug, Clone)]
pub struct Sec5Row {
    /// Configuration label.
    pub config: String,
    /// Physical bitflips induced.
    pub flips: u64,
    /// Host-visible L2P redirections.
    pub redirections: usize,
    /// Whether the defense stopped the attack (no usable redirections).
    pub blocked: bool,
}

impl ToJson for Sec5Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::str(&*self.config)),
            ("flips", Json::from(self.flips)),
            ("redirections", Json::from(self.redirections)),
            ("blocked", Json::from(self.blocked)),
        ])
    }
}

fn base_config(seed: u64) -> SsdConfig {
    SsdConfig {
        dram_profile: ModuleProfile::demo_ddr4(),
        ..SsdConfig::test_small(seed)
    }
}

/// Hammers `site`, or else the weakest site recon finds, through the
/// pipeline; returns the flips and the host-visible redirections.
fn attack(
    config: SsdConfig,
    hammerer: impl Hammerer + 'static,
    site: Option<AttackSite>,
) -> (u64, usize) {
    let mut ssd = Ssd::build(config);
    let Some(site) = site.or_else(|| find_attack_sites(ssd.ftl(), 4).first().cloned()) else {
        return (0, 0);
    };
    let outcome = AttackPipeline::new(hammerer, L2pEntries::default(), CrossBank)
        .with_rate(1_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![site])
        .run(&mut ssd)
        .expect("hammer");
    (
        outcome.report.flips.len() as u64,
        outcome.redirections().len(),
    )
}

fn attack_many_sided(config: SsdConfig) -> (u64, usize) {
    let mut ssd = Ssd::build(config);
    let pipeline = AttackPipeline::new(ManySided::default(), L2pEntries::default(), SameBank)
        .with_rate(2_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_max_sites(6);
    match pipeline.run(&mut ssd) {
        Ok(outcome) => (
            outcome.report.flips.len() as u64,
            outcome.redirections().len(),
        ),
        Err(AttackError::NoSites | AttackError::NotEnoughSites { .. }) => (0, 0),
        Err(e) => panic!("hammer: {e}"),
    }
}

/// Attack against a keyed-hash L2P with the attacker's recon blinded to the
/// key: it assumes a linear layout and hammers/checks the wrong LBAs.
fn attack_blind(config: SsdConfig) -> (u64, usize) {
    // The linear layout puts the entries of LBAs 256n..256n+255 in row n,
    // so rows 1 and 3 would sandwich the victim row 2.
    let row = |row| RowKey { bank: 0, row };
    let guessed = AttackSite {
        victim: row(2),
        above: row(1),
        below: row(3),
        victim_lbas: (512..768).map(Lba).collect(),
        above_lbas: vec![Lba(256)],
        below_lbas: vec![Lba(768)],
        weakest_threshold: 0,
    };
    attack(config, TwoSided, Some(guessed))
}

/// Runs the full mitigation matrix.
fn run(seed: u64) -> Vec<Sec5Row> {
    let mut rows = Vec::new();
    let mut push = |config: &str, (flips, redirections): (u64, usize)| {
        rows.push(Sec5Row {
            config: config.to_owned(),
            flips,
            redirections,
            blocked: redirections == 0,
        });
    };

    push(
        "baseline (no mitigation)",
        attack(base_config(seed), TwoSided, None),
    );

    let mut ecc = base_config(seed);
    ecc.ecc = Some(EccConfig::default());
    push("SEC-DED ECC", attack(ecc, TwoSided, None));

    let mut trr = base_config(seed);
    trr.trr = Some(TrrConfig::default());
    push("TRR vs double-sided", attack(trr.clone(), TwoSided, None));
    push("TRR vs many-sided (6 pairs)", attack_many_sided(trr));

    let mut refresh = base_config(seed);
    refresh.dram_profile = ModuleProfile::demo_ddr4().with_refresh_multiplier(16);
    push("16x refresh rate", attack(refresh, TwoSided, None));

    let mut limited = base_config(seed);
    limited.controller.rate_limit_iops = Some(50_000.0);
    push("IOPS rate limit (50K/s)", attack(limited, TwoSided, None));

    let mut hashed = base_config(seed);
    hashed.ftl.l2p_layout = L2pLayout::Hashed { key: 0x5EC6_E7B1 };
    push("keyed-hash L2P (blinded recon)", attack_blind(hashed));

    push(
        "one-location on open-page ctrl",
        attack(base_config(seed), OneLocation, None),
    );
    rows
}

/// One row of the end-to-end leak-level mitigation matrix: these defenses
/// do not stop bitflips or even redirections — they stop the *leak*.
#[derive(Debug, Clone)]
pub struct LeakRow {
    /// Configuration label.
    pub config: String,
    /// Cycles the attack ran.
    pub cycles: u32,
    /// Total flips induced.
    pub flips: u64,
    /// Scan detections (content changes seen by the attacker).
    pub scan_hits: usize,
    /// Whether the secret actually leaked.
    pub leaked: bool,
}

impl ToJson for LeakRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::str(&*self.config)),
            ("cycles", Json::from(self.cycles)),
            ("flips", Json::from(self.flips)),
            ("scan_hits", Json::from(self.scan_hits)),
            ("leaked", Json::from(self.leaked)),
        ])
    }
}

/// Runs the end-to-end case study under §5's data-protection mitigations:
/// T10-DIF block integrity, per-tenant (XTS-like) encryption, and the
/// extents-only filesystem policy.
fn run_leak_matrix(seed: u64) -> Vec<LeakRow> {
    use ssdhammer_cloud::{run_case_study, CaseStudyConfig};
    let base = || {
        let mut c = CaseStudyConfig::fast_demo(seed);
        c.max_cycles = 4;
        c
    };
    let run = |label: &str, config: CaseStudyConfig| {
        let outcome = run_case_study(&config).expect("case study");
        LeakRow {
            config: label.to_owned(),
            cycles: outcome.cycles.len() as u32,
            flips: outcome.cycles.iter().map(|c| c.flips).sum(),
            scan_hits: outcome.cycles.iter().map(|c| c.scan_hits).sum(),
            leaked: outcome.success,
        }
    };
    let mut rows = vec![run("baseline (no data protection)", base())];
    let mut dif = base();
    dif.ssd.ftl.dif = true;
    rows.push(run("T10-DIF block integrity", dif));
    let mut enc = base();
    enc.victim_encryption_key = Some(0x7E4A_11CE);
    rows.push(run("per-tenant encryption (XTS-like)", enc));
    let mut ext = base();
    ext.victim_extents_only = true;
    rows.push(run("extents-only filesystem policy", ext));
    rows
}

/// Renders the leak-level matrix.
fn render_leak_matrix(rows: &[LeakRow]) -> String {
    let mut out = String::from(
        "\n§5 (continued): data-protection mitigations vs the end-to-end leak\n\
         configuration                        cycles  flips  detections  secret leaked\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<36} {:>6} {:>6} {:>11} {:>14}\n",
            r.config,
            r.cycles,
            r.flips,
            r.scan_hits,
            if r.leaked { "LEAKED" } else { "no" }
        ));
    }
    out
}

/// Renders the matrix.
fn render(rows: &[Sec5Row]) -> String {
    let mut out = String::from(
        "§5: mitigations vs the Figure 1 primitive\n\
         configuration                        flips  redirections  attack blocked\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<36} {:>5} {:>13} {:>15}\n",
            r.config,
            r.flips,
            r.redirections,
            if r.blocked { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_matrix_has_expected_shape() {
        let rows = run(42);
        let get = |name: &str| rows.iter().find(|r| r.config.starts_with(name)).unwrap();
        // Attack works without defenses.
        assert!(!get("baseline").blocked);
        assert!(get("baseline").flips > 0);
        // ECC corrects: physical flips persist, host sees none.
        let ecc = get("SEC-DED ECC");
        assert!(ecc.flips > 0 && ecc.blocked);
        // TRR stops double-sided but not many-sided (TRRespass).
        assert!(get("TRR vs double-sided").blocked);
        assert!(!get("TRR vs many-sided").blocked);
        // Faster refresh and rate limiting both block (no flips at all).
        assert_eq!(get("16x refresh").flips, 0);
        assert_eq!(get("IOPS rate limit").flips, 0);
        // Hashed L2P: flips may occur but the blinded attacker observes no
        // redirection on its guessed victims.
        assert!(get("keyed-hash").blocked);
        // One-location achieves nothing on an open-page controller.
        assert_eq!(get("one-location").flips, 0);
    }

    #[test]
    fn leak_matrix_blocks_everything_but_the_baseline() {
        // Seed chosen so the unprotected baseline converges within the
        // matrix's four-cycle budget.
        let rows = run_leak_matrix(1);
        let get = |name: &str| rows.iter().find(|r| r.config.starts_with(name)).unwrap();
        assert!(get("baseline").leaked, "{rows:?}");
        assert!(!get("T10-DIF").leaked);
        assert!(!get("per-tenant").leaked);
        assert!(!get("extents-only").leaked);
        // DIF/encryption leave the flips; extents-only prevents the spray
        // stage entirely.
        assert!(get("T10-DIF").flips > 0);
        assert_eq!(get("extents-only").cycles, 0);
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro mitigations`. The structured document
/// carries both the mitigation matrix and the §5 leak matrix under one
/// object.
#[derive(Debug, Clone, Copy)]
pub struct Sec5Scenario;

impl Scenario for Sec5Scenario {
    fn name(&self) -> &'static str {
        "mitigations"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        let rows = run(seed);
        let leaks = run_leak_matrix(seed);
        let json = Json::obj([
            ("mitigations", rows.to_json()),
            ("leak_matrix", leaks.to_json()),
        ]);
        let mut text = render(&rows);
        text.push_str(&render_leak_matrix(&leaks));
        Output::new(json, text)
    }
}
