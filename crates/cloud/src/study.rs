//! The §4 cloud case study, end to end: spray → hammer → scan → repeat,
//! on a multi-tenant host sharing one SSD.

use std::collections::BTreeSet;

use ssdhammer_core::{
    clear_spray, cross_partition_sites, dump_through_hit, find_attack_sites, scan_for_leaks,
    spray_filesystem, AttackSite, LbaRange, SprayPlan,
};
use ssdhammer_fs::{Credentials, FsBlock, InodeMap};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::{Lba, SimDuration};

use crate::partition::SharedSsd;
use crate::tenants::{AttackerVm, CloudError, VictimVm, ATTACKER_UID, SECRET_MARKER};

/// Which Figure 2 topology to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSetup {
    /// Figure 2 (a): the unprivileged process in the victim VM drives the
    /// hammering itself through its own partition ("given a system that
    /// provides fast enough unprivileged direct access to the SSD … the
    /// attacker VM can be dropped").
    Direct,
    /// Figure 2 (b): a co-located attacker VM with raw access to its own
    /// partition drives the hammering (the paper's actual testbed, needed
    /// because "our main system is relatively slow").
    HelperVm,
}

/// Parameters of one case-study run.
#[derive(Debug, Clone)]
pub struct CaseStudyConfig {
    /// The shared SSD.
    pub ssd: SsdConfig,
    /// Topology.
    pub setup: AttackSetup,
    /// Victim partition size in blocks.
    pub victim_blocks: u64,
    /// Attacker partition size in blocks (HelperVm only).
    pub attacker_blocks: u64,
    /// Ordinary (non-secret) victim data, in blocks.
    pub victim_filler_blocks: u32,
    /// Fraction of the victim partition the in-VM attacker may fill with
    /// spray files. The paper's prototype was limited to 5 % "due to
    /// technical issues in the FTL library" (§4.2).
    pub spray_fraction: f64,
    /// Blocks of the attacker partition to fill with malicious payloads.
    pub attacker_fill_blocks: u64,
    /// Host request rate during hammering, requests/second.
    pub request_rate: f64,
    /// Hammer burst length per site.
    pub hammer_per_site: SimDuration,
    /// Sites hammered per cycle.
    pub sites_per_cycle: usize,
    /// Give up after this many spray→hammer→scan cycles.
    pub max_cycles: u32,
    /// Target pointers per malicious payload (≤ 1019; the window slides
    /// each cycle, "editing the malicious indirect block to map other
    /// LBAs").
    pub targets_per_payload: usize,
    /// Per-tenant encryption key for the victim partition (§5 mitigation).
    pub victim_encryption_key: Option<u64>,
    /// Mount the victim filesystem extents-only (§5 mitigation).
    pub victim_extents_only: bool,
}

impl CaseStudyConfig {
    /// A fast, reliably-converging configuration for tests and examples:
    /// small device, highly vulnerable DRAM, generous spraying.
    #[must_use]
    pub fn fast_demo(seed: u64) -> Self {
        use ssdhammer_dram::{DramGeneration, ModuleProfile};
        let mut ssd = SsdConfig::test_small(seed);
        let mut profile = ModuleProfile::from_min_rate("demo", DramGeneration::Ddr3, 2021, 100);
        profile.row_vulnerable_prob = 1.0;
        profile.weak_cells_per_row = 24.0;
        profile.threshold_spread = 0.3;
        ssd.dram_profile = profile;
        ssd.dram_mapping = ssdhammer_dram::MappingKind::default_xor();
        CaseStudyConfig {
            ssd,
            setup: AttackSetup::HelperVm,
            victim_blocks: 6000,
            attacker_blocks: 6000,
            victim_filler_blocks: 64,
            spray_fraction: 0.20,
            attacker_fill_blocks: 3000,
            request_rate: 1_500_000.0,
            hammer_per_site: SimDuration::from_millis(500),
            sites_per_cycle: 8,
            max_cycles: 8,
            targets_per_payload: 512,
            victim_encryption_key: None,
            victim_extents_only: false,
        }
    }

    /// The paper's prototype configuration (§4.1): 1 GiB SSD, testbed DDR3
    /// profile (3 M accesses/s to flip), 5× per-request amplification,
    /// two equal partitions, 5 % spray limit, ~10 minutes of hammering per
    /// spray→hammer→scan cycle (the paper hammered in ~5-minute periods and
    /// repeated "as necessary").
    #[must_use]
    pub fn paper_prototype(seed: u64) -> Self {
        let mut ssd = SsdConfig::paper_prototype(seed);
        ssd.ftl.hammer_amplification = 5;
        CaseStudyConfig {
            ssd,
            setup: AttackSetup::HelperVm,
            victim_blocks: 120_000,
            attacker_blocks: 120_000,
            victim_filler_blocks: 512,
            spray_fraction: 0.05,
            attacker_fill_blocks: 60_000,
            request_rate: 1_500_000.0,
            hammer_per_site: SimDuration::from_secs(38),
            sites_per_cycle: 16,
            max_cycles: 24,
            targets_per_payload: 1019,
            victim_encryption_key: None,
            victim_extents_only: false,
        }
    }
}

/// Statistics of one spray→hammer→scan cycle.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle index (0-based).
    pub cycle: u32,
    /// Spray files created this cycle.
    pub sprayed_files: usize,
    /// Sites hammered.
    pub sites_hammered: usize,
    /// DRAM bitflips induced this cycle.
    pub flips: u64,
    /// Sprayed files whose content changed (detected corruption).
    pub scan_hits: usize,
    /// Whether the secret marker was recovered this cycle.
    pub leaked_secret: bool,
    /// Simulated time this cycle consumed.
    pub elapsed: SimDuration,
}

impl ssdhammer_simkit::json::ToJson for CycleReport {
    fn to_json(&self) -> ssdhammer_simkit::json::Json {
        use ssdhammer_simkit::json::Json;
        Json::obj([
            ("cycle", Json::from(self.cycle)),
            ("sprayed_files", Json::from(self.sprayed_files)),
            ("sites_hammered", Json::from(self.sites_hammered)),
            ("flips", Json::from(self.flips)),
            ("scan_hits", Json::from(self.scan_hits)),
            ("leaked_secret", Json::from(self.leaked_secret)),
            ("elapsed_secs", Json::from(self.elapsed.as_secs_f64())),
        ])
    }
}

/// Result of a full case-study run.
#[derive(Debug, Clone)]
pub struct CaseStudyOutcome {
    /// True when the secret was leaked to the unprivileged attacker.
    pub success: bool,
    /// Per-cycle statistics.
    pub cycles: Vec<CycleReport>,
    /// Total simulated time from first spray to success (or give-up).
    pub total_time: SimDuration,
    /// The leaked block, when successful.
    pub leaked_block: Option<Box<[u8]>>,
    /// Total detected-corruption events across the run (scan hits that did
    /// not carry the secret — §3.2's data-corruption outcome).
    pub corruption_events: usize,
    /// Set when accumulated flips corrupted victim filesystem *metadata*
    /// badly enough that the attack loop could no longer operate — the
    /// catastrophic end of §3.2's corruption outcome ("rendering the file
    /// system unmountable").
    pub aborted_by_corruption: bool,
}

/// Runs the full §4.2 attack. See the module docs for the flow.
///
/// # Errors
///
/// Propagates provisioning and device errors; an unsuccessful attack is a
/// normal outcome, not an error.
///
/// # Panics
///
/// Panics on internally inconsistent configurations (e.g. partitions that
/// do not fit the device).
pub fn run_case_study(config: &CaseStudyConfig) -> Result<CaseStudyOutcome, CloudError> {
    let shared = SharedSsd::new(Ssd::build(config.ssd.clone()));
    let mut victim = VictimVm::provision_with(
        &shared,
        crate::tenants::VictimVmOptions {
            blocks: config.victim_blocks,
            filler_blocks: config.victim_filler_blocks,
            encryption_key: config.victim_encryption_key,
            extents_only: config.victim_extents_only,
        },
    )?;
    let mut helper = match config.setup {
        AttackSetup::HelperVm => Some(AttackerVm::provision(&shared, config.attacker_blocks)?),
        AttackSetup::Direct => None,
    };
    let attacker = Credentials::user(ATTACKER_UID);
    let t0 = shared.borrow().clock().now();

    let data_start = victim.fs().superblock().data_start;
    let fs_blocks = victim.fs().superblock().total_blocks;
    let data_span = fs_blocks - data_start;
    let spray_count = ((config.spray_fraction * config.victim_blocks as f64) / 2.0).floor() as u32;

    let mut cycles = Vec::new();
    let mut corruption_events = 0usize;
    let mut leaked: Option<Box<[u8]>> = None;
    let mut aborted_by_corruption = false;

    for cycle in 0..config.max_cycles {
        let cycle_t0 = shared.borrow().clock().now();

        // --- Spraying stage (unprivileged, inside the victim VM) ---------
        // Target selection (§4.2: "pointing at target LBAs of potentially
        // privileged content"): half the pointers stay pinned on the hot
        // early-disk region where system files land on a fresh install; the
        // other half slides a window across the rest of the partition
        // ("editing the malicious indirect block to map other LBAs").
        let hot = (config.targets_per_payload / 2) as u32;
        let window = cycle * (config.targets_per_payload as u32 - hot);
        let targets: Vec<FsBlock> = (0..hot)
            .map(|i| data_start + i % data_span)
            .chain(
                (0..config.targets_per_payload as u32 - hot)
                    .map(|i| data_start + (hot + window + i) % data_span),
            )
            .collect();
        let plan = SprayPlan {
            dir: "/home/attacker".into(),
            prefix: format!("spray{cycle}-"),
            count: spray_count,
            targets,
        };
        let spray = match spray_filesystem(victim.fs(), attacker, &plan) {
            Ok(s) => s,
            // Earlier cycles' flips can corrupt directory or inode-table
            // metadata; once the filesystem stops cooperating, the attack
            // loop is over (§3.2's catastrophic-corruption outcome).
            // The extents-only policy rejects indirect-addressed spray files
            // outright: the attack has no foothold.
            Err(ssdhammer_fs::FsError::PermissionDenied) => {
                break;
            }
            // Anything else at this stage means earlier flips corrupted
            // metadata the attacker depends on (checksum failures, garbage
            // directory contents making paths vanish, I/O errors): the
            // catastrophic-corruption outcome of §3.2 ends the attack loop.
            Err(_) => {
                aborted_by_corruption = true;
                break;
            }
        };

        // The helper VM sprays its own partition with malicious payload
        // blocks. One pass suffices: later cycles' payloads differ only in
        // their target window, and any payload block is a useful landing
        // site for a flipped entry.
        if let (Some(h), 0) = (&mut helper, cycle) {
            h.fill_with_payload(&spray.payload, config.attacker_fill_blocks)?;
        }

        // Sprayed indirect blocks, as device LBAs (the attacker learns its
        // own files' physical layout, FIEMAP-style).
        let mut indirect_lbas: BTreeSet<u64> = BTreeSet::new();
        for f in &spray.files {
            // Inodes can already be corrupted by earlier cycles; skip those.
            let Ok(inode) = victim.fs().read_inode(f.ino) else {
                continue;
            };
            if let InodeMap::Indirect { single, .. } = inode.map {
                indirect_lbas.insert(victim.fs_block_to_device_lba(single).as_u64());
            }
        }

        // --- Hammering stage ---------------------------------------------
        let sites = {
            let ssd = shared.borrow();
            find_attack_sites(ssd.ftl(), 4096)
        };
        let chosen = select_sites(
            &sites,
            config.setup,
            helper.as_ref().map(AttackerVm::range),
            victim.range(),
            &indirect_lbas,
            config.sites_per_cycle,
            cycle,
        );
        let mut flips = 0u64;
        for (above, below) in &chosen {
            let requests =
                (config.request_rate * config.hammer_per_site.as_secs_f64()).ceil() as u64;
            let report = match &mut helper {
                Some(h) => {
                    h.hammer_device_lbas(&[*above, *below], requests, config.request_rate)?
                }
                None => {
                    let rel = [
                        victim.range().to_relative(*above),
                        victim.range().to_relative(*below),
                    ];
                    shared.borrow_mut().hammer_reads(
                        victim.ns(),
                        &rel,
                        requests,
                        config.request_rate,
                    )?
                }
            };
            flips += report.flips.len() as u64;
        }

        // --- Scan stage (unprivileged, inside the victim VM) --------------
        let hits = scan_for_leaks(victim.fs(), attacker, &spray)?;
        let mut leaked_this_cycle = false;
        for hit in &hits {
            for slot in 0..config.targets_per_payload as u32 {
                let Ok(block) = dump_through_hit(victim.fs(), attacker, hit, slot) else {
                    continue;
                };
                if block.starts_with(SECRET_MARKER) {
                    leaked = Some(block.to_vec().into_boxed_slice());
                    leaked_this_cycle = true;
                    break;
                }
            }
            if leaked_this_cycle {
                break;
            }
        }
        corruption_events += hits.len() - usize::from(leaked_this_cycle);

        cycles.push(CycleReport {
            cycle,
            sprayed_files: spray.files.len(),
            sites_hammered: chosen.len(),
            flips,
            scan_hits: hits.len(),
            leaked_secret: leaked_this_cycle,
            elapsed: shared.borrow().clock().elapsed_since(cycle_t0),
        });
        if leaked_this_cycle {
            break;
        }
        // Re-spray with fresh files next cycle, "forcing the FTL to
        // re-shuffle all address mappings" (§4.2).
        clear_spray(victim.fs(), attacker, &spray)?;
    }

    let total_time = shared.borrow().clock().elapsed_since(t0);
    Ok(CaseStudyOutcome {
        success: leaked.is_some(),
        cycles,
        total_time,
        leaked_block: leaked,
        corruption_events,
        aborted_by_corruption,
    })
}

/// Picks the aggressor LBA pairs for this cycle.
///
/// Preference order: sites whose victim rows expose sprayed indirect-block
/// entries (a flip there is detectable), then any topology-compatible site.
/// The rotation by `cycle` varies which rows get hammered across cycles.
fn select_sites(
    sites: &[AttackSite],
    setup: AttackSetup,
    attacker_range: Option<LbaRange>,
    victim_range: LbaRange,
    indirect_lbas: &BTreeSet<u64>,
    limit: usize,
    cycle: u32,
) -> Vec<(Lba, Lba)> {
    let usable: Vec<(Lba, Lba, bool)> = match setup {
        AttackSetup::HelperVm => {
            let Some(attacker) = attacker_range else {
                return Vec::new();
            };
            cross_partition_sites(sites, attacker, victim_range)
                .into_iter()
                .map(|c| {
                    let overlaps = c
                        .exposed_victim_lbas
                        .iter()
                        .any(|l| indirect_lbas.contains(&l.as_u64()));
                    (c.aggressor_above, c.aggressor_below, overlaps)
                })
                .collect()
        }
        AttackSetup::Direct => sites
            .iter()
            .filter_map(|s| {
                let above = s
                    .above_lbas
                    .iter()
                    .copied()
                    .find(|&l| victim_range.contains(l))?;
                let below = s
                    .below_lbas
                    .iter()
                    .copied()
                    .find(|&l| victim_range.contains(l))?;
                let overlaps = s
                    .victim_lbas
                    .iter()
                    .any(|l| indirect_lbas.contains(&l.as_u64()));
                Some((above, below, overlaps))
            })
            .collect(),
    };
    let preferred: Vec<(Lba, Lba)> = usable
        .iter()
        .filter(|(_, _, o)| *o)
        .map(|&(a, b, _)| (a, b))
        .collect();
    let rest: Vec<(Lba, Lba)> = usable
        .iter()
        .filter(|(_, _, o)| !*o)
        .map(|&(a, b, _)| (a, b))
        .collect();
    // Rotate both lists by cycle so consecutive cycles explore different
    // rows instead of re-hammering rows whose weak cells are exhausted.
    let rotate = |v: &[(Lba, Lba)]| -> Vec<(Lba, Lba)> {
        if v.is_empty() {
            return Vec::new();
        }
        let offset = (cycle as usize) % v.len();
        v.iter()
            .cycle()
            .skip(offset)
            .take(v.len())
            .copied()
            .collect()
    };
    let mut chosen = rotate(&preferred);
    chosen.extend(rotate(&rest));
    chosen.truncate(limit);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_demo_leaks_the_secret() {
        // Seed chosen so the demo converges within its eight-cycle budget.
        let outcome = run_case_study(&CaseStudyConfig::fast_demo(1)).unwrap();
        assert!(
            outcome.success,
            "demo attack should succeed; cycles: {:?}",
            outcome.cycles
        );
        let leaked = outcome.leaked_block.as_ref().unwrap();
        assert!(leaked.starts_with(SECRET_MARKER));
        assert!(!outcome.cycles.is_empty());
        assert!(outcome.total_time > SimDuration::ZERO);
    }

    /// The demo headline as a seed distribution rather than one seed: at
    /// least as many of seeds 1–16 leak as EXPERIMENTS.md E4 records, and
    /// every leak carries the secret.
    #[test]
    fn fast_demo_leaks_across_seeds() {
        /// Leaking seeds among 1–16 in EXPERIMENTS.md E4.
        const E4_LEAKS: usize = 10;
        let mut leaked = Vec::new();
        for seed in 1..=16 {
            let outcome = run_case_study(&CaseStudyConfig::fast_demo(seed)).unwrap();
            if !outcome.success {
                continue;
            }
            let block = outcome.leaked_block.as_ref().unwrap();
            assert!(block.starts_with(SECRET_MARKER), "seed {seed}");
            assert!(!outcome.cycles.is_empty(), "seed {seed}");
            assert!(outcome.total_time > SimDuration::ZERO, "seed {seed}");
            leaked.push(seed);
        }
        assert!(
            leaked.len() >= E4_LEAKS,
            "seeds {leaked:?} leaked; EXPERIMENTS.md E4 records {E4_LEAKS} of 1–16"
        );
    }

    #[test]
    fn invulnerable_dram_defeats_the_attack() {
        let mut config = CaseStudyConfig::fast_demo(7);
        config.ssd.dram_profile = ssdhammer_dram::ModuleProfile::invulnerable();
        config.max_cycles = 2;
        let outcome = run_case_study(&config).unwrap();
        assert!(!outcome.success);
        assert_eq!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>(), 0);
    }

    #[test]
    fn direct_setup_runs_and_reports() {
        let mut config = CaseStudyConfig::fast_demo(9);
        config.setup = AttackSetup::Direct;
        config.victim_blocks = 12_000;
        config.attacker_blocks = 0;
        config.max_cycles = 4;
        let outcome = run_case_study(&config).unwrap();
        // Direct mode on the demo profile should also find sites and flip.
        assert!(outcome.cycles.iter().any(|c| c.sites_hammered > 0));
        assert!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>() > 0);
    }

    #[test]
    fn dif_blocks_the_leak_end_to_end() {
        let mut config = CaseStudyConfig::fast_demo(7);
        config.ssd.ftl.dif = true;
        let outcome = run_case_study(&config).unwrap();
        assert!(
            !outcome.success,
            "DIF must stop the information leak: {:?}",
            outcome.cycles
        );
        // Flips still happen; the device just refuses to serve misdirected
        // data.
        assert!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>() > 0);
    }

    #[test]
    fn l2p_correct_blocks_the_leak_end_to_end() {
        let mut config = CaseStudyConfig::fast_demo(7);
        // The Correct-mode integrity plane needs 6 bytes per L2P entry of
        // distant DRAM beyond the 64 KiB table; double the tiny geometry's
        // rows so both fit.
        config.ssd.dram_geometry = ssdhammer_dram::DramGeometry {
            rows_per_bank: 128,
            ..ssdhammer_dram::DramGeometry::tiny_test()
        };
        config.ssd.ftl.integrity = ssdhammer_ftl::IntegrityMode::Correct;
        let outcome = run_case_study(&config).unwrap();
        assert!(
            !outcome.success,
            "protected L2P must stop the leak: {:?}",
            outcome.cycles
        );
        // The attacker still flips bits; the plane repairs every consumed
        // entry before it can redirect a read, so no scan ever hits.
        assert!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>() > 0);
        assert_eq!(outcome.cycles.iter().map(|c| c.scan_hits).sum::<usize>(), 0);
    }

    #[test]
    fn per_tenant_encryption_blocks_the_leak_end_to_end() {
        let mut config = CaseStudyConfig::fast_demo(7);
        config.victim_encryption_key = Some(0x7E4A_11CE);
        let outcome = run_case_study(&config).unwrap();
        assert!(
            !outcome.success,
            "wrong-tweak decryption must not yield the secret: {:?}",
            outcome.cycles
        );
        assert!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>() > 0);
    }

    #[test]
    fn extents_only_policy_denies_the_spray_stage() {
        let mut config = CaseStudyConfig::fast_demo(7);
        config.victim_extents_only = true;
        let outcome = run_case_study(&config).unwrap();
        assert!(!outcome.success);
        assert!(
            outcome.cycles.is_empty(),
            "spraying should be rejected before any cycle completes"
        );
    }

    #[test]
    fn rate_limited_device_blocks_the_attack() {
        let mut config = CaseStudyConfig::fast_demo(7);
        // Limit IOPS below the profile's flipping threshold (100K acc/s
        // calibration => limit to 20K requests/s).
        config.ssd.controller.rate_limit_iops = Some(20_000.0);
        config.max_cycles = 2;
        let outcome = run_case_study(&config).unwrap();
        assert!(
            !outcome.success,
            "rate limiting below the hammer rate must stop the attack"
        );
        assert_eq!(outcome.cycles.iter().map(|c| c.flips).sum::<u64>(), 0);
    }
}
