//! The §3.1 attack, decomposed SWAGE-style into exchangeable stages.
//!
//! Three object-safe traits cover the degrees of freedom the rowhammer
//! literature varies independently, and [`AttackPipeline`] composes one of
//! each into a runnable attack:
//!
//! * [`Hammerer`] — *how* aggressor rows are activated: double-sided
//!   (§3.1's demonstrated pattern), single-sided, one-location,
//!   TRRespass-style many-sided with configurable pair count and phase
//!   offset, and RowPress-style open-row dwell.
//! * [`Victim`] — *which* DRAM-resident FTL state is attacked and how its
//!   corruption is observed: L2P entries (the paper's target), the
//!   grown-bad-block table, the L2P journal write cache, and the
//!   wear-level counters.
//! * [`Placement`] — *where* aggressors are chosen: the weakest sites
//!   across all banks, or packed into one bank (the raw material for
//!   many-sided patterns).
//!
//! Hammering still goes through the NVMe controller
//! ([`Ssd::hammer_device_reads`]), which caps a burst's read rate at
//! [`Ssd::max_iops`] (interface service rate, §5's rate-limit mitigation,
//! scrubber duty) and counts its reads as NVMe commands, and victims
//! observe their state back through the *device* path, so ECC correction
//! and ECC-uncorrectable failures are visible the way the firmware would
//! see them.
//!
//! Every stage is also name-keyed ([`pattern_names`], [`victim_names`],
//! [`placement_names`]; [`make_hammerer`], [`make_victim`],
//! [`make_placement`]), so the full pattern × victim grid ([`combos`]) can
//! be enumerated from a command line.

use ssdhammer_flash::Ppn;
use ssdhammer_ftl::{Ftl, FtlError};
use ssdhammer_nvme::NvmeError;
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::{Lba, SimDuration, BLOCK_SIZE};

mod hammerer;
mod pipeline;
mod placement;
mod registry;
mod victim;

pub use hammerer::{HammerPlan, Hammerer, ManySided, OneLocation, OneSided, RowPress, TwoSided};
pub use pipeline::{probe_sites, AttackOutcome, AttackPipeline, VictimChange};
pub use placement::{enumerate_sites, CrossBank, Placement, SameBank};
pub use registry::{
    combos, make_hammerer, make_placement, make_victim, pattern_names, placement_names,
    victim_names,
};
pub use victim::{
    BadBlockTable, ChangeKind, JournalCache, L2pEntries, Observation, Victim, WearCounters,
};

#[cfg(doc)]
use ssdhammer_nvme::Ssd;

/// Errors surfaced by the attack pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AttackError {
    /// Placement produced no usable aggressor site.
    NoSites,
    /// The hammerer needs more sites than placement produced.
    NotEnoughSites {
        /// Sites the pattern requires.
        needed: usize,
        /// Sites available.
        got: usize,
    },
    /// A many-sided pattern was given sites spanning multiple banks (its
    /// whole point is overwhelming one bank's TRR sampler).
    SitesSpanBanks,
    /// No hammer pattern registered under this name.
    UnknownPattern(String),
    /// No victim registered under this name.
    UnknownVictim(String),
    /// No placement registered under this name.
    UnknownPlacement(String),
    /// The device failed.
    Device(NvmeError),
}

impl core::fmt::Display for AttackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttackError::NoSites => write!(f, "no usable aggressor sites"),
            AttackError::NotEnoughSites { needed, got } => {
                write!(f, "pattern needs {needed} sites, placement found {got}")
            }
            AttackError::SitesSpanBanks => write!(f, "many-sided sites must share a bank"),
            AttackError::UnknownPattern(name) => write!(f, "unknown hammer pattern {name:?}"),
            AttackError::UnknownVictim(name) => write!(f, "unknown victim {name:?}"),
            AttackError::UnknownPlacement(name) => write!(f, "unknown placement {name:?}"),
            AttackError::Device(e) => write!(f, "device: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmeError> for AttackError {
    fn from(e: NvmeError) -> Self {
        AttackError::Device(e)
    }
}

impl From<FtlError> for AttackError {
    fn from(e: FtlError) -> Self {
        AttackError::Device(NvmeError::from(e))
    }
}

/// The host-visible state of one L2P entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingState {
    /// Maps to a physical page.
    Mapped(Ppn),
    /// The unmapped sentinel.
    Unmapped,
    /// The device could not read the entry (ECC-uncorrectable).
    Unreadable,
}

/// One observed L2P redirection (the attack's payoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redirection {
    /// The victim device LBA whose mapping changed.
    pub lba: Lba,
    /// Host-visible mapping before hammering.
    pub from: MappingState,
    /// Host-visible mapping after hammering.
    pub to: MappingState,
}

impl ToJson for MappingState {
    fn to_json(&self) -> Json {
        match self {
            MappingState::Mapped(ppn) => Json::obj([("mapped", Json::from(ppn.0))]),
            MappingState::Unmapped => Json::str("unmapped"),
            MappingState::Unreadable => Json::str("unreadable"),
        }
    }
}

impl ToJson for Redirection {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lba", Json::from(self.lba.as_u64())),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
        ])
    }
}

/// Snapshots the *host-visible* mapping states of `lbas`, reading each entry
/// through the device path (activations + ECC, including scrub-on-correct).
///
/// # Errors
///
/// Propagates only addressing errors; per-entry ECC failures and L2P
/// integrity-plane detections become [`MappingState::Unreadable`] — a loud
/// failure the host observes, not a silent redirection.
pub(crate) fn snapshot_host_mappings(
    ftl: &mut Ftl,
    lbas: &[Lba],
) -> Result<Vec<MappingState>, FtlError> {
    lbas.iter()
        .map(|&l| match ftl.entry_read(l) {
            Ok(Some(ppn)) => Ok(MappingState::Mapped(ppn)),
            Ok(None) => Ok(MappingState::Unmapped),
            Err(FtlError::Dram(_) | FtlError::L2pIntegrity { .. }) => Ok(MappingState::Unreadable),
            Err(e) => Err(e),
        })
        .collect()
}

/// §3.1's setup phase: "the attacker prepares the L2P table by writing data
/// to contiguous LBAs" so the firmware allocates physical pages and L2P
/// entries for them. Writes a recognizable pattern block to every LBA.
///
/// # Errors
///
/// Propagates FTL errors.
pub fn setup_entries(ftl: &mut Ftl, lbas: &[Lba]) -> Result<(), FtlError> {
    let mut block = [0u8; BLOCK_SIZE];
    for &lba in lbas {
        block[..8].copy_from_slice(&lba.as_u64().to_le_bytes());
        ftl.write(lba, &block)?;
    }
    Ok(())
}

/// Expected simulated time to the first *useful* flip given the per-cycle
/// useful-flip probability and the duration of one attack cycle — the §4.2
/// "about two hours" figure generalized.
///
/// # Panics
///
/// Panics unless `0 < p_useful <= 1`.
#[must_use]
pub fn expected_time_to_success(cycle: SimDuration, p_useful: f64) -> SimDuration {
    assert!(p_useful > 0.0 && p_useful <= 1.0, "bad probability");
    SimDuration::from_secs_f64(cycle.as_secs_f64() / p_useful)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recon::{find_attack_sites, AttackSite};
    use ssdhammer_dram::{MappingKind, ModuleProfile, RowKey, TrrConfig};
    use ssdhammer_nvme::{Ssd, SsdConfig};

    fn eager_profile() -> ModuleProfile {
        let mut profile =
            ModuleProfile::from_min_rate("eager", ssdhammer_dram::DramGeneration::Ddr3, 2021, 1);
        profile.hc_first = 1000;
        profile.threshold_spread = 0.0;
        profile.row_vulnerable_prob = 1.0;
        profile.weak_cells_per_row = 8.0;
        profile
    }

    fn vulnerable_ssd() -> Ssd {
        let mut config = SsdConfig::test_small(5);
        config.dram_profile = eager_profile();
        Ssd::build(config)
    }

    fn fig1_pipeline(rate: f64, millis: u64, site: AttackSite) -> AttackPipeline {
        AttackPipeline::new(
            TwoSided,
            L2pEntries {
                setup_aggressors: true,
                ..L2pEntries::default()
            },
            CrossBank,
        )
        .with_rate(rate)
        .with_duration(SimDuration::from_millis(millis))
        .with_sites(vec![site])
    }

    #[test]
    fn figure1_mechanism_redirects_a_victim_lba() {
        let mut ssd = vulnerable_ssd();
        let sites = find_attack_sites(ssd.ftl(), 4);
        let site = sites.first().expect("a site must exist").clone();
        let outcome = fig1_pipeline(5_000_000.0, 200, site).run(&mut ssd).unwrap();
        assert!(!outcome.report.flips.is_empty(), "no flips at all");
        let redirections = outcome.redirections();
        assert!(
            !redirections.is_empty(),
            "a victim LBA should have been redirected"
        );
        let r = redirections[0];
        assert_ne!(r.from, r.to);
    }

    #[test]
    fn below_threshold_rate_produces_no_redirections() {
        let mut ssd = vulnerable_ssd();
        let site = find_attack_sites(ssd.ftl(), 1).pop().unwrap();
        let pipeline = AttackPipeline::default()
            .with_rate(10_000.0) // far below the ~15.6K acts/window needed
            .with_duration(SimDuration::from_millis(200))
            .with_sites(vec![site]);
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(outcome.changes.is_empty());
    }

    #[test]
    fn controller_rate_limit_bounds_the_hammer() {
        let mut config = SsdConfig::test_small(5);
        config.dram_profile = eager_profile();
        config.controller.rate_limit_iops = Some(10_000.0);
        let mut ssd = Ssd::build(config);
        let site = find_attack_sites(ssd.ftl(), 1).pop().unwrap();
        // Ask for 5M/s; the limiter must clamp to 10K/s — below threshold.
        let pipeline = AttackPipeline::default()
            .with_rate(5_000_000.0)
            .with_duration(SimDuration::from_millis(200))
            .with_sites(vec![site]);
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(outcome.report.achieved_rate <= 10_500.0);
        assert!(outcome.changes.is_empty());
    }

    #[test]
    fn ecc_hides_redirections_from_the_host() {
        let mut config = SsdConfig::test_small(5);
        config.dram_profile = eager_profile();
        config.ecc = Some(ssdhammer_dram::EccConfig::default());
        let mut ssd = Ssd::build(config);
        let site = find_attack_sites(ssd.ftl(), 1).pop().unwrap();
        let pipeline = AttackPipeline::default()
            .with_rate(5_000_000.0)
            .with_duration(SimDuration::from_millis(200))
            .with_sites(vec![site]);
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(
            !outcome.report.flips.is_empty(),
            "cells still flip physically under ECC"
        );
        assert!(
            outcome
                .redirections()
                .iter()
                .all(|r| r.to == MappingState::Unreadable || r.from == r.to),
            "single-bit flips must be corrected (or at worst detected): {:?}",
            outcome.redirections()
        );
        // Every surviving change is loud — ECC turns silent redirections
        // into observable failures.
        assert!(outcome.changes.iter().all(|c| c.kind == ChangeKind::Loud));
    }

    fn trr_ssd() -> Ssd {
        let mut config = SsdConfig::test_small(5);
        config.dram_profile = eager_profile();
        config.trr = Some(TrrConfig {
            sampler_size: 4,
            detection_threshold: 100,
        });
        Ssd::build(config)
    }

    #[test]
    fn many_sided_defeats_trr_where_double_sided_fails() {
        // Double-sided: fully tracked, no redirections.
        let mut ssd = trr_ssd();
        let pipeline = AttackPipeline::default()
            .with_rate(10_000_000.0)
            .with_duration(SimDuration::from_millis(200));
        let ds = pipeline.run(&mut ssd).unwrap();
        assert!(ds.changes.is_empty(), "TRR should stop double-sided");

        // Many-sided over same-bank sites: sampler overwhelmed.
        let mut ssd = trr_ssd();
        let pipeline = AttackPipeline::new(
            ManySided { pairs: 6, phase: 0 },
            L2pEntries::default(),
            SameBank,
        )
        .with_rate(20_000_000.0)
        .with_duration(SimDuration::from_millis(400));
        let ms = pipeline.run(&mut ssd).unwrap();
        assert_eq!(ms.sites_used, 6);
        assert!(
            !ms.changes.is_empty(),
            "many-sided should escape the sampler: {:?}",
            ms.report.flips.len()
        );
    }

    #[test]
    fn rowpress_dwell_presses_through_trr() {
        // Same tracked two-row pattern that TRR defeats above — but each
        // access holds the row open 32x longer. The sampler still counts
        // (and caps) activations, yet the per-activation disturbance grows
        // with dwell, so pressure passes the threshold anyway.
        let mut ssd = trr_ssd();
        let pipeline =
            AttackPipeline::new(RowPress { dwell: 32.0 }, L2pEntries::default(), CrossBank)
                .with_rate(10_000_000.0)
                .with_duration(SimDuration::from_millis(400));
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(
            !outcome.changes.is_empty(),
            "rowpress should press through the TRR cap"
        );
        // The achieved activation rate is dwell-limited, far below the
        // requested host rate.
        assert!(outcome.report.achieved_rate < 1_000_000.0);
    }

    #[test]
    fn one_location_fails_on_open_page_device() {
        let mut ssd = vulnerable_ssd();
        let site = find_attack_sites(ssd.ftl(), 1).pop().unwrap();
        let pipeline = AttackPipeline::new(OneLocation, L2pEntries::default(), CrossBank)
            .with_rate(5_000_000.0)
            .with_duration(SimDuration::from_millis(200))
            .with_sites(vec![site]);
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(
            outcome.changes.is_empty(),
            "open-page row buffer should absorb one-location hammering"
        );
    }

    #[test]
    fn probing_confirms_hammerable_sites_online() {
        // A device where only some rows carry weak cells: probing must keep
        // a subset (the flippable ones, given their stored data) and drop
        // the rest.
        let mut config = SsdConfig::test_small(5);
        let mut profile = eager_profile();
        profile.row_vulnerable_prob = 0.4;
        config.dram_profile = profile;
        let mut ssd = Ssd::build(config);
        let candidates = find_attack_sites(ssd.ftl(), 16);
        assert!(!candidates.is_empty());
        let confirmed = probe_sites(
            &mut ssd,
            &candidates,
            5_000_000.0,
            SimDuration::from_millis(100),
        )
        .unwrap();
        assert!(!confirmed.is_empty(), "some site must confirm");
        for c in &confirmed {
            assert!(candidates.contains(c));
        }

        // An invulnerable device confirms nothing.
        let mut clean = Ssd::build(SsdConfig::test_small(5));
        let confirmed = probe_sites(
            &mut clean,
            &candidates,
            5_000_000.0,
            SimDuration::from_millis(100),
        )
        .unwrap();
        assert!(confirmed.is_empty());
    }

    #[test]
    fn placement_matches_recon_for_l2p_victim() {
        let ssd = vulnerable_ssd();
        let recon = find_attack_sites(ssd.ftl(), 16);
        let targets = L2pEntries::default().target_rows(ssd.ftl());
        let placed = CrossBank.place(ssd.ftl(), &targets, 16);
        assert_eq!(placed, recon, "cross-bank placement must replicate recon");
    }

    #[test]
    fn many_sided_phase_rotates_the_pattern() {
        let site = |bank: u32, row: u32, base: u64| AttackSite {
            victim: RowKey { bank, row },
            above: RowKey { bank, row: row - 1 },
            below: RowKey { bank, row: row + 1 },
            victim_lbas: vec![Lba(base)],
            above_lbas: vec![Lba(base + 1)],
            below_lbas: vec![Lba(base + 2)],
            weakest_threshold: 1000,
        };
        let sites = vec![site(0, 1, 10), site(0, 4, 20), site(0, 7, 30)];
        let p0 = ManySided { pairs: 3, phase: 0 }.plan(&sites).unwrap();
        let p1 = ManySided { pairs: 3, phase: 1 }.plan(&sites).unwrap();
        assert_eq!(p0.pattern.len(), 6);
        assert_eq!(
            &p1.pattern[..2],
            &p0.pattern[2..4],
            "phase 1 starts at pair 1"
        );
        assert_eq!(&p1.pattern[4..], &p0.pattern[..2], "and wraps around");

        let mixed = vec![site(0, 1, 10), site(1, 4, 20)];
        assert!(matches!(
            ManySided { pairs: 2, phase: 0 }.plan(&mixed),
            Err(AttackError::SitesSpanBanks)
        ));
        assert!(matches!(
            ManySided { pairs: 4, phase: 0 }.plan(&sites),
            Err(AttackError::NotEnoughSites { needed: 4, got: 3 })
        ));
    }

    #[test]
    fn rowpress_plan_scales_rate_inversely_with_dwell() {
        let site = AttackSite {
            victim: RowKey { bank: 0, row: 1 },
            above: RowKey { bank: 0, row: 0 },
            below: RowKey { bank: 0, row: 2 },
            victim_lbas: vec![Lba(1)],
            above_lbas: vec![Lba(2)],
            below_lbas: vec![Lba(3)],
            weakest_threshold: 1000,
        };
        let plan = RowPress { dwell: 8.0 }
            .plan(std::slice::from_ref(&site))
            .unwrap();
        assert_eq!(plan.opts.dwell_factor, 8.0);
        assert_eq!(plan.rate_scale, 0.125);
        assert_eq!(plan.opts.label, "rowpress");
    }

    #[test]
    fn expected_time_scales_inversely_with_probability() {
        let cycle = SimDuration::from_secs(600);
        let t7 = expected_time_to_success(cycle, 0.07);
        let t14 = expected_time_to_success(cycle, 0.14);
        assert!((t7.as_secs_f64() - 8571.4).abs() < 1.0);
        assert!((t7.as_secs_f64() / t14.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn setup_writes_recognizable_blocks() {
        let mut ssd = vulnerable_ssd();
        setup_entries(ssd.ftl_mut(), &[Lba(5), Lba(6)]).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        ssd.ftl_mut().read(Lba(6), &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), 6);
    }

    #[test]
    fn registry_round_trips_every_name() {
        for name in pattern_names() {
            assert_eq!(make_hammerer(name).unwrap().name(), *name);
        }
        for name in victim_names() {
            assert_eq!(make_victim(name).unwrap().name(), *name);
        }
        for name in placement_names() {
            assert_eq!(make_placement(name).unwrap().name(), *name);
        }
        assert!(matches!(
            make_hammerer("nope"),
            Err(AttackError::UnknownPattern(_))
        ));
        assert!(matches!(
            make_victim("nope"),
            Err(AttackError::UnknownVictim(_))
        ));
        assert!(matches!(
            make_placement("nope"),
            Err(AttackError::UnknownPlacement(_))
        ));
    }

    #[test]
    fn combos_cover_the_full_grid_in_registry_order() {
        let grid = combos();
        assert_eq!(grid.len(), pattern_names().len() * victim_names().len());
        assert_eq!(grid[0], (pattern_names()[0], victim_names()[0]));
        assert_eq!(grid[1], (pattern_names()[0], victim_names()[1]));
        for (p, v) in grid {
            make_hammerer(p).unwrap();
            make_victim(v).unwrap();
        }
    }

    #[test]
    fn metadata_victims_flip_under_swizzled_mapping() {
        // Meta rows interleave with L2P rows only under the controller's
        // XOR swizzle — the §4.2 observation generalized to firmware
        // metadata.
        let mut config = SsdConfig::test_small(5);
        config.dram_profile = eager_profile();
        config.dram_mapping = MappingKind::default_xor();
        let victim = BadBlockTable;
        victim.configure(&mut config);
        let mut ssd = Ssd::build(config);
        assert!(ssd.ftl().meta().is_some());
        let pipeline = AttackPipeline::new(TwoSided, victim, CrossBank)
            .with_rate(5_000_000.0)
            .with_duration(SimDuration::from_millis(400));
        let outcome = pipeline.run(&mut ssd).unwrap();
        assert!(
            !outcome.changes.is_empty(),
            "a bad-block-table word should have flipped"
        );
        assert!(outcome.redirections().is_empty(), "no L2P units involved");
        assert!(outcome.silent_count() > 0, "word flips are silent failures");
    }
}
