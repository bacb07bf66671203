//! The §4.2 spray → hammer → scan → clear loop, rebuilt from the public
//! calls `run_case_study` makes so each call can be timed and its counter
//! deltas taken. Traced runs hold it to `run_case_study`'s reports.

use std::collections::BTreeSet;

use ssdhammer_cloud::{
    run_case_study, AttackSetup, AttackerVm, CaseStudyConfig, CaseStudyOutcome, CloudError,
    CycleReport, SharedSsd, VictimVm, VictimVmOptions, ATTACKER_UID, SECRET_MARKER,
};
use ssdhammer_core::{
    clear_spray, cross_partition_sites, dump_through_hit, find_attack_sites, scan_for_leaks,
    spray_filesystem, AttackSite, LbaRange, SprayPlan,
};
use ssdhammer_fs::{Credentials, FsBlock, FsError, InodeMap};
use ssdhammer_nvme::Ssd;
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::{Lba, SimDuration, SimTime};

use crate::trace::{timed, Tracer};

/// A provisioned host: the shared device and both tenants.
pub struct Instance {
    shared: SharedSsd,
    victim: VictimVm,
    helper: Option<AttackerVm>,
    ssd_tel: Telemetry,
    fs_tel: Telemetry,
}

/// Builds the device and provisions both tenants, as `run_case_study` does.
///
/// # Errors
///
/// Provisioning errors.
pub fn provision(config: &CaseStudyConfig, tr: &mut Tracer) -> Result<Instance, CloudError> {
    let shared = tr.span("nvme::Ssd::build", |_| {
        SharedSsd::new(Ssd::build(config.ssd.clone()))
    });
    let mut victim = tr.span("cloud::VictimVm::provision_with", |_| {
        VictimVm::provision_with(
            &shared,
            VictimVmOptions {
                blocks: config.victim_blocks,
                filler_blocks: config.victim_filler_blocks,
                encryption_key: config.victim_encryption_key,
                extents_only: config.victim_extents_only,
            },
        )
    })?;
    let helper = match config.setup {
        AttackSetup::HelperVm => Some(tr.span("cloud::AttackerVm::provision", |_| {
            AttackerVm::provision(&shared, config.attacker_blocks)
        })?),
        AttackSetup::Direct => None,
    };
    let ssd_tel = shared.borrow().telemetry();
    let fs_tel = victim.fs().shared_telemetry();
    Ok(Instance {
        shared,
        victim,
        helper,
        ssd_tel,
        fs_tel,
    })
}

/// What one driven attack produced, in `run_case_study`'s terms, plus the
/// host time of its cycles.
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// Per-cycle reports.
    pub cycles: Vec<CycleReport>,
    /// Simulated time from the first spray to the end.
    pub total_time: SimDuration,
    /// The leaked block, when the secret leaked.
    pub leaked_block: Option<Box<[u8]>>,
    /// Scan hits that carried no secret.
    pub corruption_events: usize,
    /// Metadata corruption ended the loop.
    pub aborted_by_corruption: bool,
    /// Sum of hammer-burst refresh windows (for host time per window).
    pub hammer_windows: u64,
    /// Cycles started, including one that ended before producing a report.
    pub attempted_cycles: u32,
    /// Host seconds of every started cycle.
    pub host_s: f64,
}

enum Control {
    Continue,
    Stop,
}

/// Drives the attack loop on `inst` until `config.max_cycles` or the end of
/// the attack.
///
/// # Errors
///
/// Device errors, exactly where `run_case_study` would return them.
pub fn drive(
    inst: &mut Instance,
    config: &CaseStudyConfig,
    tr: &mut Tracer,
) -> Result<AttackRun, CloudError> {
    let t0 = now(inst);
    let data_start = inst.victim.fs().superblock().data_start;
    let fs_blocks = inst.victim.fs().superblock().total_blocks;
    let spray_count = ((config.spray_fraction * config.victim_blocks as f64) / 2.0).floor() as u32;
    let mut run = AttackRun {
        cycles: Vec::new(),
        total_time: SimDuration::ZERO,
        leaked_block: None,
        corruption_events: 0,
        aborted_by_corruption: false,
        hammer_windows: 0,
        attempted_cycles: 0,
        host_s: 0.0,
    };
    for cycle in 0..config.max_cycles {
        run.attempted_cycles += 1;
        let (control, secs) = timed(|| {
            tr.span("cycle", |tr| {
                one_cycle(
                    inst,
                    config,
                    tr,
                    &mut run,
                    cycle,
                    (data_start, fs_blocks - data_start),
                    spray_count,
                )
            })
        });
        run.host_s += secs;
        if matches!(control?, Control::Stop) {
            break;
        }
    }
    run.total_time = now(inst).saturating_since(t0);
    Ok(run)
}

impl Instance {
    /// The FTL's write amplification so far.
    #[must_use]
    pub fn write_amp(&self) -> f64 {
        self.shared.borrow().ftl().write_amplification()
    }
}

fn now(inst: &Instance) -> SimTime {
    inst.shared.borrow().clock().now()
}

fn one_cycle(
    inst: &mut Instance,
    config: &CaseStudyConfig,
    tr: &mut Tracer,
    run: &mut AttackRun,
    cycle: u32,
    (data_start, data_span): (FsBlock, FsBlock),
    spray_count: u32,
) -> Result<Control, CloudError> {
    let attacker = Credentials::user(ATTACKER_UID);
    let ssd_tel = inst.ssd_tel.clone();
    let fs_tel = inst.fs_tel.clone();
    let regs = [&ssd_tel, &fs_tel];
    let cycle_t0 = now(inst);

    // Spray: half the pointers pinned on the early-disk region, half on a
    // window that slides each cycle.
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
    let victim = &mut inst.victim;
    let spray = match tr.phase("spray", &regs, |tr| {
        tr.span("core::spray_filesystem", |_| {
            spray_filesystem(victim.fs(), attacker, &plan)
        })
    }) {
        Ok(s) => s,
        Err(FsError::PermissionDenied) => return Ok(Control::Stop),
        Err(_) => {
            run.aborted_by_corruption = true;
            return Ok(Control::Stop);
        }
    };
    if let (Some(h), 0) = (&mut inst.helper, cycle) {
        tr.phase("payload_fill", &regs, |tr| {
            tr.span("cloud::AttackerVm::fill_with_payload", |_| {
                h.fill_with_payload(&spray.payload, config.attacker_fill_blocks)
            })
        })?;
    }

    // The attacker's own files' indirect blocks, as device LBAs.
    let mut indirect_lbas: BTreeSet<u64> = BTreeSet::new();
    tr.phase("fiemap", &regs, |tr| {
        for f in &spray.files {
            let Ok(inode) = tr.span("fs::FileSystem::read_inode", |_| {
                victim.fs().read_inode(f.ino)
            }) else {
                continue;
            };
            if let InodeMap::Indirect { single, .. } = inode.map {
                indirect_lbas.insert(victim.fs_block_to_device_lba(single).as_u64());
            }
        }
    });

    // Hammer.
    let shared = &inst.shared;
    let helper_range = inst.helper.as_ref().map(AttackerVm::range);
    let chosen = tr.phase("recon", &regs, |tr| {
        let sites = tr.span("core::find_attack_sites", |_| {
            find_attack_sites(shared.borrow().ftl(), 4096)
        });
        tr.span("core::cross_partition_sites", |_| {
            select_sites(
                &sites,
                config.setup,
                helper_range,
                victim.range(),
                &indirect_lbas,
                config.sites_per_cycle,
                cycle,
            )
        })
    });
    let requests = (config.request_rate * config.hammer_per_site.as_secs_f64()).ceil() as u64;
    let helper = &mut inst.helper;
    let (flips, windows) = tr.phase("hammer", &regs, |tr| {
        let mut flips = 0u64;
        let mut windows = 0u64;
        for (above, below) in &chosen {
            let report = match helper {
                Some(h) => tr.span("cloud::AttackerVm::hammer_device_lbas", |_| {
                    h.hammer_device_lbas(&[*above, *below], requests, config.request_rate)
                })?,
                None => {
                    let rel = [
                        victim.range().to_relative(*above),
                        victim.range().to_relative(*below),
                    ];
                    tr.span("nvme::Ssd::hammer_reads", |_| {
                        shared.borrow_mut().hammer_reads(
                            victim.ns(),
                            &rel,
                            requests,
                            config.request_rate,
                        )
                    })?
                }
            };
            flips += report.flips.len() as u64;
            windows += report.windows;
        }
        Ok::<_, CloudError>((flips, windows))
    })?;
    run.hammer_windows += windows;

    // Scan, and dump through any hit.
    let (hits, leaked) = tr.phase("scan", &regs, |tr| {
        let hits = tr.span("core::scan_for_leaks", |_| {
            scan_for_leaks(victim.fs(), attacker, &spray)
        })?;
        let mut leaked = None;
        'hits: for hit in &hits {
            for slot in 0..config.targets_per_payload as u32 {
                let Ok(block) = tr.span("core::dump_through_hit", |_| {
                    dump_through_hit(victim.fs(), attacker, hit, slot)
                }) else {
                    continue;
                };
                if block.starts_with(SECRET_MARKER) {
                    leaked = Some(block.to_vec().into_boxed_slice());
                    break 'hits;
                }
            }
        }
        Ok::<_, CloudError>((hits, leaked))
    })?;
    let leaked_this_cycle = leaked.is_some();
    if leaked.is_some() {
        run.leaked_block = leaked;
    }
    run.corruption_events += hits.len() - usize::from(leaked_this_cycle);
    run.cycles.push(CycleReport {
        cycle,
        sprayed_files: spray.files.len(),
        sites_hammered: chosen.len(),
        flips,
        scan_hits: hits.len(),
        leaked_secret: leaked_this_cycle,
        elapsed: now_shared(shared).saturating_since(cycle_t0),
    });
    if leaked_this_cycle {
        return Ok(Control::Stop);
    }
    tr.phase("clear", &regs, |tr| {
        tr.span("core::clear_spray", |_| {
            clear_spray(victim.fs(), attacker, &spray)
        })
    })?;
    Ok(Control::Continue)
}

fn now_shared(shared: &SharedSsd) -> SimTime {
    shared.borrow().clock().now()
}

/// A copy of the case study's private site selection: sites whose victim
/// rows expose sprayed indirect blocks first, then any usable site, each
/// list rotated by the cycle index.
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
    let pick = |preferred: bool| -> Vec<(Lba, Lba)> {
        usable
            .iter()
            .filter(|(_, _, o)| *o == preferred)
            .map(|&(a, b, _)| (a, b))
            .collect()
    };
    let rotate = |v: Vec<(Lba, Lba)>| -> Vec<(Lba, Lba)> {
        if v.is_empty() {
            return v;
        }
        let offset = (cycle as usize) % v.len();
        v.iter()
            .cycle()
            .skip(offset)
            .take(v.len())
            .copied()
            .collect()
    };
    let mut chosen = rotate(pick(true));
    chosen.extend(rotate(pick(false)));
    chosen.truncate(limit);
    chosen
}

/// A canonical text of an attack's simulated results: every cycle report
/// field, the total simulated time, the leaked block's digest, the
/// corruption count and the abort flag.
#[must_use]
pub fn key(
    cycles: &[CycleReport],
    total_time: SimDuration,
    leaked: Option<&[u8]>,
    corruption_events: usize,
    aborted: bool,
) -> String {
    let mut k = String::new();
    for c in cycles {
        k.push_str(&format!(
            "c{}:files{}:sites{}:flips{}:hits{}:leak{}:sim{};",
            c.cycle,
            c.sprayed_files,
            c.sites_hammered,
            c.flips,
            c.scan_hits,
            c.leaked_secret,
            c.elapsed.as_nanos()
        ));
    }
    k.push_str(&format!(
        "total{}:leaked{}:corruption{}:abort{}",
        total_time.as_nanos(),
        leaked.map_or_else(|| "none".to_owned(), crate::digest_bytes),
        corruption_events,
        aborted
    ));
    k
}

impl AttackRun {
    /// [`key`] of this run.
    #[must_use]
    pub fn key(&self) -> String {
        key(
            &self.cycles,
            self.total_time,
            self.leaked_block.as_deref(),
            self.corruption_events,
            self.aborted_by_corruption,
        )
    }
}

/// [`key`] of a `run_case_study` outcome.
#[must_use]
pub fn outcome_key(o: &CaseStudyOutcome) -> String {
    key(
        &o.cycles,
        o.total_time,
        o.leaked_block.as_deref(),
        o.corruption_events,
        o.aborted_by_corruption,
    )
}

/// [`key`] of `run_case_study` at `config`.
///
/// # Errors
///
/// `run_case_study`'s own errors.
pub fn reference_key(config: &CaseStudyConfig) -> Result<String, CloudError> {
    run_case_study(config).map(|o| outcome_key(&o))
}
