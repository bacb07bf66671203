//! Fault-injection scenario runner (`repro -- faults`): exercises the
//! deterministic fault plane through the whole recovery stack — read-retry
//! ladder, ECC escalation, bad-block remapping, journal replay after a
//! power cut, and controller timeout/retry — and reports, per scenario, how
//! many faults were injected, how many the stack recovered, and how many
//! surfaced as (honest) failures.
//!
//! Scenarios run as the shards of one supervised campaign, so the output
//! is bit-identical for any `--threads` value; a scenario whose shard
//! panics fails the run.

use ssdhammer_dram::{DramGeometry, DramModule, MappingKind, ModuleProfile};
use ssdhammer_flash::{FlashArray, FlashGeometry};
use ssdhammer_ftl::{Ftl, FtlConfig, FtlError};
use ssdhammer_nvme::{Command, ControllerConfig, NsId, RetryPolicy, Ssd, SsdConfig};
use ssdhammer_simkit::faultplane::{FaultPlane, FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::Supervisor;
use ssdhammer_simkit::{Lba, SimClock, BLOCK_SIZE};

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// One fault-injection scenario's outcome.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scenario name.
    pub scenario: String,
    /// Faults the plane injected.
    pub injected: u64,
    /// Faults the recovery stack absorbed (the host saw success).
    pub recovered: u64,
    /// Faults that surfaced to the host as errors (honest failures).
    pub failed: u64,
    /// Whether the device ended the scenario degraded to read-only.
    pub degraded: bool,
}

impl ToJson for FaultRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario.as_str())),
            ("injected", Json::from(self.injected)),
            ("recovered", Json::from(self.recovered)),
            ("failed", Json::from(self.failed)),
            ("degraded", Json::from(self.degraded)),
        ])
    }
}

fn tiny_ftl(seed: u64, config: FtlConfig, faults: &FaultPlaneConfig) -> Ftl {
    let clock = SimClock::new();
    let dram = DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(clock.clone());
    // Flash seed 1: no factory-bad blocks in the tiny geometry, so every
    // grown-bad block in the scenario is fault-injected.
    let mut nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
    nand.set_fault_plane(FaultPlane::new(seed, faults));
    Ftl::new(dram, nand, config).expect("tiny FTL assembly")
}

fn fresh_dram(seed: u64) -> DramModule {
    DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(SimClock::new())
}

/// Transient media read failures absorbed by the read-retry ladder.
fn read_retry(seed: u64) -> FaultRow {
    let faults =
        FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::with_probability(0.5));
    let mut ftl = tiny_ftl(
        seed,
        FtlConfig {
            read_retry_max: 8,
            ..FtlConfig::default()
        },
        &faults,
    );
    let buf = vec![0u8; BLOCK_SIZE];
    let mut recovered = 0u64;
    let mut failed = 0u64;
    for lba in 0..200u64 {
        ftl.write(Lba(lba % 100), &buf).expect("write");
    }
    for lba in 0..100u64 {
        match ftl.read_shared(Lba(lba)) {
            Ok(_) => recovered += 1,
            Err(_) => failed += 1,
        }
    }
    FaultRow {
        scenario: "read-retry ladder".into(),
        injected: ftl.fault_plane().fired("flash.read_fail"),
        recovered,
        failed,
        degraded: ftl.is_read_only(),
    }
}

/// Persistent read failures escalating into SEC-DED ECC classification.
fn ecc_escalation(seed: u64) -> FaultRow {
    let faults = FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always());
    let mut ftl = tiny_ftl(
        seed,
        FtlConfig {
            read_retry_max: 0,
            ..FtlConfig::default()
        },
        &faults,
    );
    let buf = vec![0x3Cu8; BLOCK_SIZE];
    for lba in 0..100u64 {
        ftl.write(Lba(lba), &buf).expect("write");
    }
    for lba in 0..100u64 {
        let _ = ftl.read_shared(Lba(lba));
    }
    let tel = ftl.shared_telemetry();
    FaultRow {
        scenario: "ECC escalation".into(),
        injected: ftl.fault_plane().fired("flash.read_fail"),
        recovered: tel.counter_value("recovery.ecc_corrected").unwrap_or(0),
        failed: tel
            .counter_value("recovery.uncorrectable_reads")
            .unwrap_or(0)
            + tel
                .counter_value("recovery.silent_corruptions")
                .unwrap_or(0),
        degraded: ftl.is_read_only(),
    }
}

/// Program failures triggering grown-bad-block remaps.
fn bad_block_remap(seed: u64) -> FaultRow {
    // Each program failure retires a whole block, so the tiny 16-block
    // array tolerates only a handful of grown-bad blocks before filling up;
    // cap the fires to stay within its spare capacity.
    let faults = FaultPlaneConfig::new().with_site(
        "flash.program_fail",
        FaultSpec::with_probability(0.02).with_max_fires(3),
    );
    let mut ftl = tiny_ftl(
        seed,
        FtlConfig {
            remap_budget: 16,
            ..FtlConfig::default()
        },
        &faults,
    );
    let buf = vec![0xA5u8; BLOCK_SIZE];
    let mut failed = 0u64;
    for round in 0..6u64 {
        for lba in 0..100u64 {
            match ftl.write(Lba(lba), &buf) {
                Ok(_) => {}
                Err(FtlError::ReadOnly) => failed += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let _ = round;
    }
    FaultRow {
        scenario: "bad-block remap".into(),
        injected: ftl.fault_plane().fired("flash.program_fail"),
        recovered: ftl
            .shared_telemetry()
            .counter_value("recovery.bad_block_remaps")
            .unwrap_or(0),
        failed,
        degraded: ftl.is_read_only(),
    }
}

/// A mid-workload power cut; the L2P journal replays on remount.
fn journal_replay(seed: u64) -> FaultRow {
    // Checkpoint every entry: the journal is durable up to the very
    // mutation the power cut lands on, so no trim can resurrect. (Larger
    // intervals trade that worst-case window for fewer journal writes.)
    let config = FtlConfig {
        journal_checkpoint_every: 1,
        journal_blocks: 2,
        ..FtlConfig::default()
    };
    let faults = FaultPlaneConfig::new()
        .with_site("ftl.power_loss", FaultSpec::always().with_window(70, 71));
    let mut ftl = tiny_ftl(seed, config, &faults);
    let buf = vec![0x11u8; BLOCK_SIZE];
    let mut trimmed = Vec::new();
    let mut cut = false;
    'workload: for round in 0..2u64 {
        for lba in 0..50u64 {
            match ftl.write(Lba(lba), &buf) {
                // A rewrite of a previously trimmed LBA maps it again.
                Ok(_) => trimmed.retain(|&t| t != lba),
                Err(FtlError::PowerLoss) => {
                    cut = true;
                    break 'workload;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
            if round == 0 && lba % 5 == 0 {
                match ftl.trim(Lba(lba)) {
                    Ok(()) => trimmed.push(lba),
                    Err(FtlError::PowerLoss) => {
                        cut = true;
                        break 'workload;
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
    }
    assert!(cut, "power cut must fire inside the workload");
    let (_lost_dram, nand) = ftl.into_parts();
    let recovered_ftl = Ftl::recover(fresh_dram(seed ^ 1), nand, config).expect("remount");
    // Trims checkpointed before the cut must not resurrect. (Entries still
    // buffered in lost DRAM at the cut are honest, bounded losses.)
    let replayed = recovered_ftl
        .shared_telemetry()
        .counter_value("recovery.journal_replayed")
        .unwrap_or(0);
    let resurrected = trimmed
        .iter()
        .filter(|&&lba| {
            recovered_ftl
                .peek_mapping(Lba(lba))
                .expect("peek")
                .is_some()
        })
        .count() as u64;
    FaultRow {
        scenario: "power-loss replay".into(),
        injected: 1,
        recovered: replayed,
        failed: resurrected,
        degraded: recovered_ftl.is_read_only(),
    }
}

/// Controller command timeouts absorbed by bounded retry-with-backoff.
fn nvme_timeout(seed: u64) -> FaultRow {
    let faults =
        FaultPlaneConfig::new().with_site("nvme.timeout", FaultSpec::with_probability(0.4));
    let retry = RetryPolicy { max_retries: 4 };
    let mut ssd = Ssd::build(SsdConfig {
        fault_plane: faults,
        controller: ControllerConfig {
            retry,
            ..ControllerConfig::default()
        },
        ..SsdConfig::test_small(seed)
    });
    let ns = ssd.create_namespace(256).expect("namespace");
    let qp = ssd.create_queue_pair(32);
    let mut failed = 0u64;
    let mut recovered = 0u64;
    let mut completions = Vec::with_capacity(32);
    for round in 0..4u64 {
        let cmds: Vec<Command> = (0..32u64).map(|i| write_cmd(ns, i, round as u8)).collect();
        ssd.submit_batch(qp, &cmds).expect("submit");
        ssd.process(qp).expect("process");
        ssd.drain_completions_into(qp, &mut completions)
            .expect("drain");
        for c in completions.drain(..) {
            if c.is_ok() {
                recovered += 1;
            } else {
                failed += 1;
            }
        }
    }
    let snap = ssd.snapshot_telemetry();
    FaultRow {
        scenario: "nvme timeout/retry".into(),
        injected: snap.counter("nvme.timeouts").unwrap_or(0),
        recovered,
        failed,
        degraded: false,
    }
}

fn write_cmd(ns: NsId, lba: u64, fill: u8) -> Command {
    Command::Write {
        ns,
        lba: Lba(lba),
        data: vec![fill; BLOCK_SIZE].into_boxed_slice(),
    }
}

/// The fault campaign: one supervised shard per scenario, each seeded from
/// its position, in scenario order.
fn campaign(seed: u64, threads: usize) -> Vec<FaultRow> {
    const SCENARIOS: [fn(u64) -> FaultRow; 5] = [
        read_retry,
        ecc_escalation,
        bad_block_remap,
        journal_replay,
        nvme_timeout,
    ];
    Supervisor::new(seed)
        .with_tag("faults")
        .with_threads(threads)
        .run(SCENARIOS.len(), |ctx| {
            SCENARIOS[ctx.trial.index](ctx.trial.seed)
        })
        .into_complete()
}

/// Renders the scenario table.
fn render(rows: &[FaultRow]) -> String {
    let mut out = String::from(
        "fault-injection scenarios: deterministic fault plane vs the recovery stack\n\
         scenario            injected  recovered  failed  degraded\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>8}  {:>9}  {:>6}  {}\n",
            r.scenario,
            r.injected,
            r.recovered,
            r.failed,
            if r.degraded { "read-only" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_inject_and_mostly_recover() {
        let rows = campaign(7, 1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.injected > 0, "{}: no faults injected", r.scenario);
        }
        let ladder = &rows[0];
        assert_eq!(ladder.failed, 0, "retry ladder absorbs p=0.5");
        let replay = &rows[3];
        assert_eq!(replay.failed, 0, "no trims resurrect");
        assert!(replay.recovered > 0, "journal entries replayed");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let json = |threads| campaign(7, threads).to_json().to_string();
        assert_eq!(json(1), json(4));
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro faults`.
#[derive(Debug, Clone, Copy)]
pub struct FaultsScenario;

impl Scenario for FaultsScenario {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let rows = campaign(seed, threads);
        Output::new(rows.to_json(), render(&rows))
    }
}
