//! Ablations of the design choices DESIGN.md calls out (§5 of the design
//! doc): per-I/O amplification, the unmapped-read fast path, controller
//! mapping structure, and victim-activity as an accidental defense.
//!
//! The four sweeps' ten points run as the shards of one supervised
//! campaign, so the report is bit-identical for any `--threads` value and
//! honours `--abort-after`.

use ssdhammer_core::{
    cross_partition_sites, find_attack_sites, setup_entries, AttackPipeline, LbaRange,
};
use ssdhammer_dram::{DramGeneration, HammerOptions, MappingKind, ModuleProfile};
use ssdhammer_nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::{SupervisedReport, Supervisor};
use ssdhammer_simkit::{Lba, SimDuration};

use crate::scenario::{campaign_output, Output, Scenario, ScenarioCfg};

fn demo_profile(min_rate_kaps: u32) -> ModuleProfile {
    let mut p = ModuleProfile::from_min_rate("ablation", DramGeneration::Ddr4, 2020, min_rate_kaps);
    p.row_vulnerable_prob = 1.0;
    p.weak_cells_per_row = 24.0;
    p.threshold_spread = 0.3;
    p
}

fn base_config(seed: u64, profile: ModuleProfile) -> SsdConfig {
    SsdConfig {
        dram_profile: profile,
        ..SsdConfig::test_small(seed)
    }
}

// ---- amplification sweep ---------------------------------------------------

/// One amplification sweep point.
#[derive(Debug, Clone)]
pub struct AmplificationRow {
    /// L2P activations per host request.
    pub amplification: u32,
    /// Achieved activation rate, accesses/s.
    pub act_rate: f64,
    /// Flips produced in a 500 ms burst against the paper's testbed module.
    pub flips: usize,
}

/// A1 sweep points: L2P activations per host request.
const AMPS: [u32; 4] = [1, 2, 5, 10];

/// One point of the §4.1 amplification sweep against the testbed DDR3
/// profile (3 M acc/s needed): on a PCIe 4.0 controller, amplification ≥ 2
/// crosses the threshold; 1 does not — the quantitative version of "we
/// manually amplified each L2P row activation (5 hammers per I/O request)".
fn amplification_point(seed: u64, amp: u32) -> AmplificationRow {
    let mut profile = ModuleProfile::testbed_ddr3();
    profile.row_vulnerable_prob = 1.0;
    profile.weak_cells_per_row = 24.0;
    profile.threshold_spread = 0.3;
    let mut config = base_config(seed, profile);
    config.ftl.hammer_amplification = amp;
    let mut ssd = Ssd::build(config);
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    let outcome = AttackPipeline::default()
        .with_rate(10_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![site])
        .run(&mut ssd)
        .expect("hammer");
    AmplificationRow {
        amplification: amp,
        act_rate: outcome.report.achieved_rate,
        flips: outcome.report.flips.len(),
    }
}

// ---- unmapped fast path ----------------------------------------------------

/// Latency comparison for the unmapped-read fast path.
#[derive(Debug, Clone)]
pub struct FastPathRow {
    /// Configuration label.
    pub config: String,
    /// Mean completion latency of an unmapped read.
    pub mean_latency_us: f64,
}

/// A2 sweep points: the unmapped-read fast path on, then off.
const FAST_PATH: [bool; 2] = [true, false];

/// Measures per-command latency of unmapped reads with the fast path on or
/// off — why the paper's attacker prefers trimmed blocks (§3). Reads are
/// issued queue-depth-sized batches at a time through `submit_batch` /
/// `process_all` / `drain_completions` — the batched path the repro suite
/// is required to exercise.
fn fast_path_point(seed: u64, fast: bool) -> FastPathRow {
    let mut config = base_config(seed, ModuleProfile::invulnerable());
    config.ftl.unmapped_fast_path = fast;
    let mut ssd = Ssd::build(config);
    let ns = ssd.create_namespace(1024).expect("namespace");
    let qp = ssd.create_queue_pair(16);
    let mut total_us = 0.0;
    let n = 200u64;
    let mut completions = Vec::with_capacity(qp.depth());
    for burst in 0..(n / qp.depth() as u64) {
        let batch: Vec<Command> = (0..qp.depth() as u64)
            .map(|i| Command::Read {
                ns,
                lba: Lba((burst * qp.depth() as u64 + i) % 1024),
            })
            .collect();
        ssd.submit_batch(qp, &batch).expect("submit batch");
        ssd.process_all();
        ssd.drain_completions_into(qp, &mut completions)
            .expect("drain");
        for c in completions.drain(..) {
            total_us += c.latency().as_secs_f64() * 1e6;
            match c.result {
                CmdResult::Read { mapped: false, .. } => {}
                other => panic!("expected unmapped read, got {other:?}"),
            }
        }
    }
    let measured = (n / qp.depth() as u64) * qp.depth() as u64;
    FastPathRow {
        config: if fast {
            "unmapped fast path ON".to_owned()
        } else {
            "unmapped fast path OFF (flash touched)".to_owned()
        },
        mean_latency_us: total_us / measured as f64,
    }
}

// ---- controller mapping census ----------------------------------------------

/// Site census per controller mapping.
#[derive(Debug, Clone)]
pub struct MappingCensusRow {
    /// Mapping label.
    pub mapping: String,
    /// Total double-sided sites on the L2P table.
    pub total_sites: usize,
    /// Sites usable across an equal two-way partition split.
    pub cross_partition_sites: usize,
}

/// A3 sweep points: the linear controller mapping, then the XOR-swizzled
/// one.
const MAPPINGS: [(&str, bool); 2] = [("linear", false), ("xor+swizzle", true)];

/// Counts attack sites under one controller mapping — the structural source
/// of §4.2's cross-partition triples.
fn mapping_point(seed: u64, (name, swizzled): (&str, bool)) -> MappingCensusRow {
    let mut config = base_config(seed, demo_profile(313));
    config.dram_mapping = if swizzled {
        MappingKind::default_xor()
    } else {
        MappingKind::Linear
    };
    let ssd = Ssd::build(config);
    let cap = ssd.ftl().capacity_lbas();
    let sites = find_attack_sites(ssd.ftl(), usize::MAX);
    let attacker = LbaRange {
        start: Lba(0),
        blocks: cap / 2,
    };
    let victim = LbaRange {
        start: Lba(cap / 2),
        blocks: cap / 2,
    };
    let cross = cross_partition_sites(&sites, attacker, victim);
    MappingCensusRow {
        mapping: name.to_owned(),
        total_sites: sites.len(),
        cross_partition_sites: cross.len(),
    }
}

// ---- victim activity as a defense -------------------------------------------

/// Flip counts with an idle vs an active victim.
#[derive(Debug, Clone)]
pub struct VictimActivityRow {
    /// Scenario label.
    pub scenario: String,
    /// Flips on the victim row.
    pub victim_row_flips: usize,
}

/// A4 sweep points: an idle victim, then an active one.
const VICTIMS: [(&str, bool); 2] = [
    ("idle victim (cold L2P entries)", false),
    ("active victim (row re-read between bursts)", true),
];

/// Hammers the same site with the victim row left alone or periodically
/// read: every access to the victim row re-activates (and thereby
/// refreshes) it, so a *busy* victim is accidentally protected — which is
/// why the attack targets cold metadata like L2P entries of idle files.
fn victim_point(seed: u64, (scenario, active_victim): (&str, bool)) -> VictimActivityRow {
    let mut config = base_config(seed, demo_profile(200));
    config.ftl.hammer_amplification = 1;
    let mut ssd = Ssd::build(config);
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    setup_entries(ssd.ftl_mut(), &site.victim_lbas).expect("setup");
    let pattern = [site.above_lbas[0], site.below_lbas[0]];
    // Bursts small enough that no single burst crosses the ~12.8K
    // threshold on its own (8K activations ≈ 5.3 ms each); pressure only
    // accumulates across bursts within a refresh window. Between bursts
    // the victim (maybe) touches its own data, refreshing the row.
    let mut flips = 0usize;
    for _ in 0..100 {
        let report = ssd
            .hammer_device_reads(&pattern, 8_000, 1_500_000.0, HammerOptions::default())
            .expect("hammer");
        flips += report.flips.iter().filter(|f| f.row == site.victim).count();
        if active_victim {
            let _ = ssd.ftl_mut().entry_read(site.victim_lbas[0]);
        }
    }
    VictimActivityRow {
        scenario: scenario.to_owned(),
        victim_row_flips: flips,
    }
}

// ---- the campaign -------------------------------------------------------------

/// One shard of the ablations campaign: a point of one of the four sweeps.
#[derive(Debug, Clone)]
enum AblationPoint {
    /// A1: per-I/O amplification.
    Amplification(AmplificationRow),
    /// A2: unmapped-read fast path.
    FastPath(FastPathRow),
    /// A3: controller mapping census.
    MappingCensus(MappingCensusRow),
    /// A4: victim activity.
    VictimActivity(VictimActivityRow),
}

/// Shards in the campaign: every point of every sweep, in report order.
const POINTS: usize = AMPS.len() + FAST_PATH.len() + MAPPINGS.len() + VICTIMS.len();

/// Runs shard `index`. Every point measures a device built from the
/// campaign seed, so a point's result does not depend on its shard seed.
fn point(seed: u64, index: usize) -> AblationPoint {
    let mut i = index;
    if i < AMPS.len() {
        return AblationPoint::Amplification(amplification_point(seed, AMPS[i]));
    }
    i -= AMPS.len();
    if i < FAST_PATH.len() {
        return AblationPoint::FastPath(fast_path_point(seed, FAST_PATH[i]));
    }
    i -= FAST_PATH.len();
    if i < MAPPINGS.len() {
        return AblationPoint::MappingCensus(mapping_point(seed, MAPPINGS[i]));
    }
    AblationPoint::VictimActivity(victim_point(seed, VICTIMS[i - MAPPINGS.len()]))
}

/// All four sweeps, each in sweep order.
#[derive(Debug, Clone, Default)]
pub struct Ablations {
    /// A1: per-I/O amplification.
    pub amplification: Vec<AmplificationRow>,
    /// A2: unmapped-read fast path.
    pub fast_path: Vec<FastPathRow>,
    /// A3: controller mapping census.
    pub mapping_census: Vec<MappingCensusRow>,
    /// A4: victim activity.
    pub victim_activity: Vec<VictimActivityRow>,
}

impl Ablations {
    /// Sorts campaign points into their sweeps.
    fn from_points<'a>(points: impl IntoIterator<Item = &'a AblationPoint>) -> Ablations {
        let mut out = Ablations::default();
        for p in points {
            match p.clone() {
                AblationPoint::Amplification(r) => out.amplification.push(r),
                AblationPoint::FastPath(r) => out.fast_path.push(r),
                AblationPoint::MappingCensus(r) => out.mapping_census.push(r),
                AblationPoint::VictimActivity(r) => out.victim_activity.push(r),
            }
        }
        out
    }
}

/// The ablations campaign under `cfg`'s `--abort-after`: one supervised
/// shard per sweep point.
fn campaign(seed: u64, threads: usize, cfg: &ScenarioCfg) -> SupervisedReport<AblationPoint> {
    let sup = Supervisor::new(seed)
        .with_tag("ablations")
        .with_threads(threads);
    cfg.run_campaign(sup, POINTS, |ctx| point(seed, ctx.trial.index))
}

/// Renders all ablations as one report.
fn render(r: &Ablations) -> String {
    let mut out = String::from("ablations of DESIGN.md's called-out choices\n\n");
    out.push_str("A1: per-I/O amplification (testbed DDR3, needs 3M acc/s)\n");
    out.push_str("  amp  act-rate(M/s)  flips\n");
    for r in &r.amplification {
        out.push_str(&format!(
            "  {:>3} {:>14.2} {:>6}\n",
            r.amplification,
            r.act_rate / 1e6,
            r.flips
        ));
    }
    out.push_str("\nA2: unmapped-read fast path (per-command latency)\n");
    for r in &r.fast_path {
        out.push_str(&format!(
            "  {:<40} {:>8.1} us\n",
            r.config, r.mean_latency_us
        ));
    }
    out.push_str("\nA3: controller mapping census (two equal partitions)\n");
    out.push_str("  mapping       total sites  cross-partition\n");
    for r in &r.mapping_census {
        out.push_str(&format!(
            "  {:<13} {:>11} {:>16}\n",
            r.mapping, r.total_sites, r.cross_partition_sites
        ));
    }
    out.push_str("\nA4: victim activity as accidental defense\n");
    for r in &r.victim_activity {
        out.push_str(&format!(
            "  {:<44} {:>4} victim-row flips\n",
            r.scenario, r.victim_row_flips
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four sweeps share one campaign run.
    #[test]
    fn every_ablation_shows_its_effect() {
        let r = Ablations::from_points(&campaign(5, 1, &ScenarioCfg::default()).into_complete());

        // A1: amplification crosses the testbed threshold, and the rate
        // scales linearly with the knob.
        let amp1 = &r.amplification[0];
        let amp5 = &r.amplification[2];
        assert!(amp1.act_rate < 3_000_000.0 && amp1.flips == 0);
        assert!(amp5.act_rate > 3_000_000.0 && amp5.flips > 0);
        assert!((amp5.act_rate / amp1.act_rate - 5.0).abs() < 0.3);

        // A2: the fast path is orders of magnitude faster.
        let on = r.fast_path[0].mean_latency_us;
        let off = r.fast_path[1].mean_latency_us;
        assert!(off > on * 10.0, "fast {on}us vs slow {off}us");

        // A3: the swizzled mapping enables cross-partition attacks.
        let linear = &r.mapping_census[0];
        let xor = &r.mapping_census[1];
        assert_eq!(linear.cross_partition_sites, 0);
        assert!(xor.cross_partition_sites > 0);
        assert!(linear.total_sites > 0);

        // A4: busy victims are protected.
        let idle = r.victim_activity[0].victim_row_flips;
        let active = r.victim_activity[1].victim_row_flips;
        assert!(idle > 0, "idle victim must flip");
        assert!(
            active < idle,
            "victim self-refresh should suppress flips: idle {idle} vs active {active}"
        );
    }
}

// ---- structured output -------------------------------------------------------

impl ToJson for AmplificationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("amplification", Json::from(self.amplification)),
            ("act_rate", Json::from(self.act_rate)),
            ("flips", Json::from(self.flips)),
        ])
    }
}

impl ToJson for FastPathRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::from(self.config.as_str())),
            ("mean_latency_us", Json::from(self.mean_latency_us)),
        ])
    }
}

impl ToJson for MappingCensusRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mapping", Json::from(self.mapping.as_str())),
            ("total_sites", Json::from(self.total_sites)),
            (
                "cross_partition_sites",
                Json::from(self.cross_partition_sites),
            ),
        ])
    }
}

impl ToJson for VictimActivityRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.as_str())),
            ("victim_row_flips", Json::from(self.victim_row_flips)),
        ])
    }
}

impl ToJson for Ablations {
    fn to_json(&self) -> Json {
        Json::obj([
            ("amplification", self.amplification.to_json()),
            ("fast_path", self.fast_path.to_json()),
            ("mapping_census", self.mapping_census.to_json()),
            ("victim_activity", self.victim_activity.to_json()),
        ])
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro ablations`. The structured document groups
/// the four sweeps under one object.
#[derive(Debug, Clone, Copy)]
pub struct AblationsScenario;

impl Scenario for AblationsScenario {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let report = campaign(seed, threads, &cfg);
        let r = Ablations::from_points(report.values());
        campaign_output(&report, r.to_json(), render(&r))
    }
}
