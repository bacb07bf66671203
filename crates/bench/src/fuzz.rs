//! Model-based fuzz campaign (`repro fuzz`): seeded random interleavings
//! of host block ops, scrubber pumps, registry-driven hammer bursts, and
//! armed crash-point cuts, executed against the real [`Ssd`]/FTL stack and
//! differentially checked — every observable result — against the
//! [`ShadowDisk`] oracle.
//!
//! The executor here (`SsdFuzz::run`) is the one place a device is
//! driven against the shadow: the torture campaign
//! ([`crate::torture`]) replays its fixed workload through it with one
//! [`FuzzOp::ArmCut`] per crash point. The oracle checks that reads return
//! content the operation history allows, that a device that loudly
//! degraded to read-only never acknowledges another mutation, that typed
//! errors are *legal* for the operation that surfaced them
//! ([`error_is_legal`]), that a hammer burst on the invulnerable test
//! module never flips a bit, and that every power cut — armed
//! mid-operation via [`FuzzOp::ArmCut`] or clean via
//! [`FuzzOp::PowerCycle`] — remounts idempotently (a second recovery from
//! the same flash rebuilds the same L2P table, journal-replay count,
//! read-only flag and free-block count) into a state the shadow accepts.
//!
//! On divergence the engine ([`ssdhammer_simkit::fuzz`]) auto-shrinks the
//! sequence to a minimal repro (ddmin over ops, then per-op parameters);
//! the campaign buckets failures by signature, and its document carries
//! the minimized cases in the same JSON shape as the committed `corpus/`
//! directory, which `repro fuzz --replay corpus/` re-executes as
//! regression tests.
//!
//! The device under fuzz is deliberately *invulnerable* (no weak DRAM
//! cells) and fault-free except for the one armed cut (and, in torture's
//! workload, one program failure): any divergence is a stack bug, not an
//! injected upset. Victim [`configure`] hooks are not applied for the same
//! reason — the hammer op drives the registry's pattern planning and the
//! real `hammer_reads` path, against a module where the correct observable
//! outcome is "no flips".
//!
//! [`configure`]: ssdhammer_core::attack::Victim::configure

use std::path::Path;

use ssdhammer_core::attack::{combos, enumerate_sites, make_hammerer, make_victim};
use ssdhammer_dram::HammerOptions;
use ssdhammer_flash::FlashGeometry;
use ssdhammer_ftl::{error_is_legal, FtlConfig, FtlError, HostOp, ReadOutcome};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::fuzz::{run_episode, Failure, FuzzCase, FuzzTarget, ShadowDisk, Verdict};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::rng::{Rng, SimRng};
use ssdhammer_simkit::supervisor::{SupervisedReport, Supervisor};
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::torture::{census_config, measure_crossings, SiteCrossings};
use ssdhammer_simkit::{Lba, SimDuration, BLOCK_SIZE};

use crate::scenario::{Output, Scenario, ScenarioCfg};
use crate::torture::torture_sites;

/// Structured-result schema identifier.
pub const SCHEMA: &str = "ssdhammer-fuzz-v1";

/// Schema identifier of one persisted corpus case.
pub const CASE_SCHEMA: &str = "ssdhammer-fuzz-case-v1";

/// LBA span the generator covers; the oracle's readback span is never
/// smaller (a longer hand-built sequence widens it).
const SPAN: u64 = 12;

/// Fixed device seed: the op sequence carries all per-episode variation,
/// so a minimized case replays from its ops alone.
const DEVICE_SEED: u64 = 0xF022;

/// Requests per hammer burst (kept small: the burst's oracle value is
/// "no flips and a lawful result", not flip statistics).
const HAMMER_REQUESTS: u64 = 16;

/// Host request rate hammer bursts are issued at.
const HAMMER_RATE: f64 = 1.0e6;

// ---- op space ---------------------------------------------------------------

/// One generated operation. Everything is data — the sequence alone
/// determines the episode, so cases serialize losslessly to JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// Read the LBA and check the payload against the shadow.
    Read(u64),
    /// Write `[fill; BLOCK_SIZE]` to the LBA.
    Write(u64, u8),
    /// TRIM the LBA.
    Trim(u64),
    /// Explicit journal flush.
    Flush,
    /// One background scrub chunk (8 L2P entries, 4 patrol reads).
    Scrub,
    /// One registry-driven hammer burst: index into [`combos`] selects the
    /// `pattern × victim` pair whose planning and `hammer_reads` path run.
    Hammer(u8),
    /// Clean power cut between operations: remount via [`Ssd::power_cycle`].
    PowerCycle,
    /// Arm a power cut at crossing `.1` of crash site `.0` (index into
    /// [`torture_sites`]). Execution is a no-op — the *first* `ArmCut` in
    /// the sequence is baked into the device's fault plane at build, so
    /// deleting the op during shrinking removes the cut.
    ArmCut(u8, u8),
    /// Fail the flash program at consult `.0` (once), so the sequence
    /// crosses grown-bad-block retirement. Baked in at build like
    /// [`FuzzOp::ArmCut`]; the generator never draws it — it is torture's.
    FailProgram(u8),
}

/// Draws one op from the episode stream, write-heavy so state builds up.
fn gen_op(rng: &mut SimRng) -> FuzzOp {
    let dice = rng.gen_range(0u64..100);
    let lba = |rng: &mut SimRng| rng.gen_range(0u64..SPAN);
    match dice {
        0..=34 => {
            let l = lba(rng);
            FuzzOp::Write(l, rng.gen_range(1u64..256) as u8)
        }
        35..=54 => FuzzOp::Read(lba(rng)),
        55..=64 => FuzzOp::Trim(lba(rng)),
        65..=72 => FuzzOp::Flush,
        73..=80 => FuzzOp::Scrub,
        81..=86 => FuzzOp::Hammer(rng.gen_range(0u64..combos().len() as u64) as u8),
        87..=92 => FuzzOp::PowerCycle,
        _ => FuzzOp::ArmCut(
            rng.gen_range(0u64..torture_sites().len() as u64) as u8,
            rng.gen_range(0u64..8) as u8,
        ),
    }
}

/// Candidate single-op simplifications, simplest first.
fn shrink_op(op: &FuzzOp) -> Vec<FuzzOp> {
    match *op {
        FuzzOp::Read(l) if l > 0 => vec![FuzzOp::Read(0)],
        FuzzOp::Write(l, f) => {
            let mut c = Vec::new();
            if l > 0 {
                c.push(FuzzOp::Write(0, f));
            }
            if f > 1 {
                c.push(FuzzOp::Write(l, 1));
            }
            c
        }
        FuzzOp::Trim(l) if l > 0 => vec![FuzzOp::Trim(0)],
        FuzzOp::Hammer(i) if i > 0 => vec![FuzzOp::Hammer(0)],
        // The site stays put (the failure is usually site-specific); the
        // crossing index first tries the jump to the first crossing, then
        // a single decrement — the decrement lets the crossing walk down
        // in lockstep with ddmin deleting the ops that produced the
        // crossings, which the jump alone cannot do.
        FuzzOp::ArmCut(site, crossing) if crossing > 0 => {
            vec![FuzzOp::ArmCut(site, 0), FuzzOp::ArmCut(site, crossing - 1)]
        }
        _ => Vec::new(),
    }
}

fn encode_op(op: &FuzzOp) -> Json {
    match *op {
        FuzzOp::Read(l) => Json::obj([("op", Json::str("read")), ("lba", Json::from(l))]),
        FuzzOp::Write(l, f) => Json::obj([
            ("op", Json::str("write")),
            ("lba", Json::from(l)),
            ("fill", Json::from(u64::from(f))),
        ]),
        FuzzOp::Trim(l) => Json::obj([("op", Json::str("trim")), ("lba", Json::from(l))]),
        FuzzOp::Flush => Json::obj([("op", Json::str("flush"))]),
        FuzzOp::Scrub => Json::obj([("op", Json::str("scrub"))]),
        FuzzOp::Hammer(i) => Json::obj([
            ("op", Json::str("hammer")),
            ("combo", Json::from(u64::from(i))),
        ]),
        FuzzOp::PowerCycle => Json::obj([("op", Json::str("power_cycle"))]),
        FuzzOp::ArmCut(site, crossing) => Json::obj([
            ("op", Json::str("arm_cut")),
            ("site", Json::from(u64::from(site))),
            ("crossing", Json::from(u64::from(crossing))),
        ]),
        FuzzOp::FailProgram(program) => Json::obj([
            ("op", Json::str("fail_program")),
            ("program", Json::from(u64::from(program))),
        ]),
    }
}

/// Decodes one op. LBAs outside the generator's span are rejected, so a
/// decoded case can never size the shadow or index past it.
fn decode_op(j: &Json) -> Option<FuzzOp> {
    let field = |k: &str| j.get(k).and_then(Json::as_u64);
    let lba = || field("lba").filter(|&l| l < SPAN);
    Some(match j.get("op").and_then(Json::as_str)? {
        "read" => FuzzOp::Read(lba()?),
        "write" => FuzzOp::Write(lba()?, u8::try_from(field("fill")?).ok()?),
        "trim" => FuzzOp::Trim(lba()?),
        "flush" => FuzzOp::Flush,
        "scrub" => FuzzOp::Scrub,
        "hammer" => FuzzOp::Hammer(u8::try_from(field("combo")?).ok()?),
        "power_cycle" => FuzzOp::PowerCycle,
        "arm_cut" => FuzzOp::ArmCut(
            u8::try_from(field("site")?).ok()?,
            u8::try_from(field("crossing")?).ok()?,
        ),
        "fail_program" => FuzzOp::FailProgram(u8::try_from(field("program")?).ok()?),
        _ => return None,
    })
}

// ---- target -----------------------------------------------------------------

/// The fuzz target: the real SSD stack behind a differential oracle.
#[derive(Debug, Clone, Copy)]
pub struct SsdFuzz {
    /// Journal-replay CRC verification ([`FtlConfig::journal_verify_crc`]).
    /// `false` plants the torn-tail-replay bug so tests can prove the
    /// oracle catches it; every campaign entry point runs with `true`.
    pub verify_crc: bool,
}

impl Default for SsdFuzz {
    fn default() -> Self {
        SsdFuzz { verify_crc: true }
    }
}

/// What one execution of an op sequence observed.
#[derive(Debug)]
pub(crate) struct Run {
    /// The first divergence the oracle caught, if any.
    pub(crate) failure: Option<Failure>,
    /// Whether the sequence's armed cut fired (`false` without an `ArmCut`).
    pub(crate) cut_fired: bool,
    /// Lawful but visible degradation: typed errors, read-only devices,
    /// failed recoveries. The fuzz verdict ignores it; torture reports it.
    pub(crate) loud: Vec<String>,
    /// How often the run crossed each of [`torture_sites`], in that order.
    pub(crate) crossings: Vec<SiteCrossings>,
    /// Simulated time the device spent, across every remount.
    pub(crate) elapsed: SimDuration,
}

/// The sequence's first armed cut as `(site, crossing)`.
fn armed_cut(ops: &[FuzzOp]) -> Option<(&'static str, u64)> {
    let sites = torture_sites();
    ops.iter().find_map(|op| match *op {
        FuzzOp::ArmCut(site, crossing) => {
            Some((sites[usize::from(site) % sites.len()], u64::from(crossing)))
        }
        _ => None,
    })
}

/// LBAs the shadow covers: the generator's span, or more when a hand-built
/// sequence (torture's `--full` workload) addresses more.
fn span(ops: &[FuzzOp]) -> u64 {
    ops.iter()
        .filter_map(|op| match *op {
            FuzzOp::Read(l) | FuzzOp::Write(l, _) | FuzzOp::Trim(l) => Some(l + 1),
            _ => None,
        })
        .fold(SPAN, u64::max)
}

impl SsdFuzz {
    /// The device-under-fuzz configuration for a given op sequence: tiny
    /// geometry, journal every mutation, resident metadata (the
    /// recovery-critical shape), every torture site registered at
    /// probability zero so the run counts its crossings, and at most one
    /// armed cut and one program failure — the sequence's first
    /// [`FuzzOp::ArmCut`] and [`FuzzOp::FailProgram`].
    fn config(&self, ops: &[FuzzOp]) -> SsdConfig {
        let mut faults = census_config(&FaultPlaneConfig::new(), &torture_sites());
        if let Some((site, crossing)) = armed_cut(ops) {
            faults = faults.with_site(site, FaultSpec::once_at(crossing));
        }
        if let Some(&FuzzOp::FailProgram(program)) =
            ops.iter().find(|op| matches!(op, FuzzOp::FailProgram(_)))
        {
            faults = faults.with_site("flash.program_fail", FaultSpec::once_at(u64::from(program)));
        }
        SsdConfig {
            flash_geometry: FlashGeometry::tiny_test(),
            ftl: FtlConfig {
                journal_checkpoint_every: 1,
                journal_blocks: 2,
                meta_resident: true,
                journal_verify_crc: self.verify_crc,
                ..FtlConfig::default()
            },
            fault_plane: faults,
            ..SsdConfig::test_small(DEVICE_SEED)
        }
    }

    /// Executes `ops` on a fresh device and oracle-checks every result:
    /// the one executor both the fuzz and torture campaigns run.
    #[must_use]
    pub(crate) fn run(&self, ops: &[FuzzOp]) -> Run {
        let armed = armed_cut(ops);
        let config = self.config(ops);
        let ssd = Ssd::build(config.clone());
        let clock = ssd.clock().clone();
        let start = clock.now();
        let plane = ssd.ftl().fault_plane().clone();
        let mut x = Exec {
            config,
            shadow: ShadowDisk::new(span(ops)),
            cut_armed: armed.is_some(),
            loud: Vec::new(),
        };
        let failure = x.drive(ssd, ops).err();
        Run {
            failure,
            cut_fired: armed.is_some_and(|(site, _)| plane.fired(site) > 0),
            loud: x.loud,
            crossings: measure_crossings(&plane, &torture_sites()),
            elapsed: clock.elapsed_since(start),
        }
    }
}

impl FuzzTarget for SsdFuzz {
    type Op = FuzzOp;

    fn gen_op(&self, rng: &mut SimRng) -> FuzzOp {
        gen_op(rng)
    }

    fn shrink_op(&self, op: &FuzzOp) -> Vec<FuzzOp> {
        shrink_op(op)
    }

    fn execute(&self, ops: &[FuzzOp]) -> Verdict {
        match self.run(ops).failure {
            None => Verdict::Pass,
            Some(f) => Verdict::Fail(f),
        }
    }
}

/// What a recovery rebuilt: the state two recoveries from the same flash
/// must agree on.
struct Recovered {
    l2p: Vec<u8>,
    replayed: u64,
    read_only: bool,
    free_blocks: usize,
}

impl Recovered {
    /// Reads the remounted device; `replayed_before` is the registry's
    /// journal-replay count before this recovery.
    fn of(ssd: &Ssd, replayed_before: u64) -> Result<Recovered, FtlError> {
        let ftl = ssd.ftl();
        Ok(Recovered {
            l2p: ftl.l2p_snapshot()?,
            replayed: ssd
                .telemetry()
                .counter_value("recovery.journal_replayed")
                .unwrap_or(0)
                - replayed_before,
            read_only: ftl.is_read_only(),
            free_blocks: ftl.free_block_count(),
        })
    }

    /// The first field on which two recoveries disagree.
    fn difference(&self, other: &Recovered) -> Option<&'static str> {
        [
            ("L2P", self.l2p != other.l2p),
            ("journal replay count", self.replayed != other.replayed),
            ("read-only flag", self.read_only != other.read_only),
            ("free-block count", self.free_blocks != other.free_blocks),
        ]
        .into_iter()
        .find_map(|(field, differs)| differs.then_some(field))
    }
}

/// Executor state threaded through one sequence; the device itself is
/// passed by value, because a remount consumes it.
struct Exec {
    config: SsdConfig,
    shadow: ShadowDisk,
    /// Whether the sequence armed a cut (PowerLoss legality).
    cut_armed: bool,
    loud: Vec<String>,
}

impl Exec {
    /// Runs every op, then reads the whole span back.
    fn drive(&mut self, mut ssd: Ssd, ops: &[FuzzOp]) -> Result<(), Failure> {
        for &op in ops {
            match self.step(ssd, op)? {
                Some(next) => ssd = next,
                // Recovery failed loudly: nothing is left to check.
                None => return Ok(()),
            }
        }
        self.readback(&mut ssd, "final")
    }

    /// Executes one op and checks its observable result. Returns the
    /// device to continue with, or `None` once a recovery failed.
    fn step(&mut self, mut ssd: Ssd, op: FuzzOp) -> Result<Option<Ssd>, Failure> {
        let (what, host_op, result) = match op {
            FuzzOp::Read(lba) => ("read", HostOp::Read, self.read(&mut ssd, lba, "read")?),
            FuzzOp::Write(lba, fill) => (
                "write",
                HostOp::Write,
                ssd.ftl_mut().write(Lba(lba), &[fill; BLOCK_SIZE]).map(drop),
            ),
            FuzzOp::Trim(lba) => ("trim", HostOp::Trim, ssd.ftl_mut().trim(Lba(lba))),
            FuzzOp::Flush => ("flush", HostOp::Flush, ssd.ftl_mut().flush()),
            FuzzOp::Scrub => ("scrub", HostOp::Scrub, ssd.ftl_mut().scrub_chunk(8, 4)),
            FuzzOp::Hammer(i) => ("hammer", HostOp::Hammer, hammer(&mut ssd, i)?),
            FuzzOp::PowerCycle => return self.remount(ssd),
            // Baked into the fault plane at build.
            FuzzOp::ArmCut(..) | FuzzOp::FailProgram(_) => return Ok(Some(ssd)),
        };
        match (result, op) {
            (Ok(()), FuzzOp::Write(lba, _) | FuzzOp::Trim(lba)) if self.shadow.read_only() => {
                return Err(Failure {
                    signature: format!("{what}.succeeded_read_only"),
                    detail: format!("lba {lba}: {what} acknowledged after read-only degradation"),
                });
            }
            (Ok(()), FuzzOp::Write(lba, fill)) => self.shadow.commit_write(lba, fill),
            (Ok(()), FuzzOp::Trim(lba)) => self.shadow.commit_trim(lba),
            (Ok(()), _) => {}
            // The one power-loss path. A read changes nothing, so only a
            // write or TRIM leaves an uncertain LBA.
            (Err(FtlError::PowerLoss), _) => {
                match op {
                    FuzzOp::Write(lba, fill) => self.shadow.interrupt_write(lba, fill),
                    FuzzOp::Trim(lba) => self.shadow.interrupt_trim(lba),
                    _ => {}
                }
                return self.remount(ssd);
            }
            (Err(e), _) if !error_is_legal(host_op, &e, self.cut_armed) => {
                return Err(Failure {
                    signature: format!("{what}.illegal_error.{}", e.signature()),
                    detail: format!("illegal {what} error: {e}"),
                });
            }
            (Err(e), _) => {
                if matches!(e, FtlError::ReadOnly) {
                    self.shadow.mark_read_only();
                }
                self.loud.push(format!("{what}: {e}"));
            }
        }
        Ok(Some(ssd))
    }

    /// The one per-read check: reads `lba` and holds the content served to
    /// the shadow. `stage` prefixes the signature so a post-recovery
    /// divergence buckets apart from a steady-state one. The device's
    /// typed error, if any, comes back for the caller to judge.
    fn read(&self, ssd: &mut Ssd, lba: u64, stage: &str) -> Result<Result<(), FtlError>, Failure> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let fail = |kind: &str, detail: String| {
            Err(Failure {
                signature: format!("{stage}.{kind}"),
                detail,
            })
        };
        match ssd.ftl_mut().read(Lba(lba), &mut buf) {
            Ok(ReadOutcome::Wild { entry }) => fail(
                "wild_entry",
                format!("lba {lba}: wild L2P entry {entry:#x}"),
            ),
            Ok(ReadOutcome::GuardMismatch { ppn }) => fail(
                "guard_mismatch",
                format!("lba {lba}: guard mismatch at {ppn}"),
            ),
            Ok(_) if !self.shadow.acceptable(lba, &buf) => fail(
                "divergence",
                format!(
                    "lba {lba}: read fill {:#04x}, shadow allows {}",
                    buf[0],
                    self.shadow.describe(lba)
                ),
            ),
            Ok(_) => Ok(Ok(())),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Full-span differential readback; a lawful read error is loud.
    fn readback(&mut self, ssd: &mut Ssd, stage: &str) -> Result<(), Failure> {
        for lba in 0..self.shadow.span() {
            if let Err(e) = self.read(ssd, lba, stage)? {
                if !error_is_legal(HostOp::Read, &e, self.cut_armed) {
                    return Err(Failure {
                        signature: format!("{stage}.illegal_error.{}", e.signature()),
                        detail: format!("lba {lba}: illegal read error: {e}"),
                    });
                }
                self.loud.push(format!("lba {lba}: {e}"));
            }
        }
        Ok(())
    }

    /// Pulls the power and remounts twice from the same flash: both
    /// recoveries must rebuild the same state, and the second device must
    /// read back what the shadow allows. A recovery that fails outright is
    /// lawful, loud degradation and ends the episode (`None`).
    fn remount(&mut self, ssd: Ssd) -> Result<Option<Ssd>, Failure> {
        let replayed = |ssd: &Ssd| {
            ssd.telemetry()
                .counter_value("recovery.journal_replayed")
                .unwrap_or(0)
        };
        let before = replayed(&ssd);
        let first = match ssd.power_cycle(&self.config) {
            Ok(s) => s,
            Err(e) => {
                self.loud.push(format!("recover failed: {e}"));
                return Ok(None);
            }
        };
        let once = match Recovered::of(&first, before) {
            Ok(r) => r,
            Err(e) => {
                self.loud.push(format!("l2p snapshot failed: {e}"));
                return Ok(None);
            }
        };
        let not_idempotent = |detail: String| Failure {
            signature: "recover.not_idempotent".to_string(),
            detail: format!("recovery not idempotent: {detail}"),
        };
        let between = replayed(&first);
        let mut ssd = first
            .power_cycle(&self.config)
            .map_err(|e| not_idempotent(format!("second remount failed: {e}")))?;
        let twice = Recovered::of(&ssd, between)
            .map_err(|e| not_idempotent(format!("second snapshot failed: {e}")))?;
        if let Some(field) = once.difference(&twice) {
            return Err(not_idempotent(format!("{field} differs across remounts")));
        }
        if twice.read_only {
            self.shadow.mark_read_only();
            self.loud
                .push("device read-only after recovery".to_string());
        }
        self.readback(&mut ssd, "recover")?;
        Ok(Some(ssd))
    }
}

/// One registry-driven hammer burst: plan the combo's pattern over the
/// victim's target rows; when the invulnerable module yields no plannable
/// sites (the common case), aim the burst at mapped-span entries so the
/// real `hammer_reads` path still runs. Either way the oracle is the same:
/// a lawful result and zero flips.
fn hammer(ssd: &mut Ssd, i: u8) -> Result<Result<(), FtlError>, Failure> {
    let grid = combos();
    let (pattern, victim_name) = grid[usize::from(i) % grid.len()];
    let victim = make_victim(victim_name).expect("registered victim");
    let targets = victim.target_rows(ssd.ftl());
    let sites = enumerate_sites(ssd.ftl(), &targets);
    let hammerer = make_hammerer(pattern).expect("registered pattern");
    let result = match hammerer.plan(&sites) {
        Ok(plan) => ssd.ftl_mut().hammer_reads(
            &plan.pattern,
            HAMMER_REQUESTS,
            HAMMER_RATE * plan.rate_scale,
            plan.opts,
        ),
        Err(_) => {
            let lbas = [Lba(u64::from(i) % SPAN), Lba((u64::from(i) + 1) % SPAN)];
            ssd.ftl_mut().hammer_reads(
                &lbas,
                HAMMER_REQUESTS,
                HAMMER_RATE,
                HammerOptions::default(),
            )
        }
    };
    match result {
        Ok(report) if !report.flips.is_empty() => Err(Failure {
            signature: "hammer.flips_on_invulnerable".to_string(),
            detail: format!(
                "{} flips from {pattern}x{victim_name} on the invulnerable module",
                report.flips.len()
            ),
        }),
        Ok(_) => Ok(Ok(())),
        Err(e) => Ok(Err(e)),
    }
}

// ---- campaign ---------------------------------------------------------------

/// Ops per generated episode.
const OPS_PER_EPISODE: usize = 40;

/// Execution budget per shrink (re-runs of the sequence). Episodes are
/// short and the device tiny, so a generous budget is still milliseconds;
/// it has to cover several ddmin/param-shrink alternations.
const SHRINK_BUDGET: usize = 4000;

/// Episodes a soak runs: `--soak N`, else 64 at `--full` and 24 otherwise.
fn episode_count(cfg: &ScenarioCfg) -> usize {
    cfg.soak.unwrap_or(if cfg.full { 64 } else { 24 })
}

/// One supervised shard's result: did the episode diverge, and if so into
/// what minimized case.
#[derive(Debug)]
struct EpisodeOutcome {
    seed: u64,
    hammer_bursts: u64,
    failure: Option<FuzzCase<FuzzOp>>,
}

/// Runs one supervised episode: generate, execute, shrink on divergence.
fn run_one(target: &SsdFuzz, seed: u64) -> EpisodeOutcome {
    let ops = ssdhammer_simkit::fuzz::gen_ops(target, seed, OPS_PER_EPISODE);
    let hammer_bursts = ops
        .iter()
        .filter(|op| matches!(op, FuzzOp::Hammer(_)))
        .count() as u64;
    let failure = run_episode(target, seed, OPS_PER_EPISODE, SHRINK_BUDGET);
    EpisodeOutcome {
        seed,
        hammer_bursts,
        failure,
    }
}

/// The soak's supervisor. It grants no retry: a retry re-derives the
/// episode seed, so a different episode would run in place of the one
/// that panicked, and a panic is a finding.
fn supervisor(seed: u64, threads: usize, tel: &Telemetry) -> Supervisor {
    Supervisor::new(seed)
        .with_tag("fuzz")
        .with_threads(threads)
        .attach_telemetry(tel)
}

/// Runs the soak campaign under `cfg` (episode count from `soak`/`full`;
/// `abort_after` stops it early): supervised episodes, divergences
/// auto-shrunk and bucketed into the structured result document, its text
/// report, and the `supervisor.*` and `fuzz.*` counters. The document is
/// bit-identical for any `threads`.
fn run_soak(seed: u64, threads: usize, cfg: &ScenarioCfg) -> Output {
    let episodes = episode_count(cfg);
    let target = SsdFuzz::default();
    let tel = Telemetry::new();
    let sup = supervisor(seed, threads, &tel);
    let report = cfg.run_campaign(sup, episodes, |ctx| run_one(&target, ctx.trial.seed));
    let tally = SoakTally::of(&report);
    tel.counter("fuzz.episodes").add(tally.pass + tally.fail);
    tel.counter("fuzz.divergences").add(tally.fail);
    tel.counter("fuzz.shrink_execs").add(tally.shrink_execs);
    tel.counter("fuzz.hammer.bursts").add(tally.hammer_bursts);
    let json = document(seed, episodes, &report, tally);
    Output {
        text: render(&json),
        json,
        telemetry: Some(tel.snapshot()),
    }
}

/// Outcome counts over the completed episodes: the document's summary and
/// the `fuzz.*` counters both read this one tally.
#[derive(Debug, Default)]
struct SoakTally {
    pass: u64,
    fail: u64,
    hammer_bursts: u64,
    shrink_execs: u64,
    /// Divergences per failure signature.
    buckets: std::collections::BTreeMap<String, u64>,
}

impl SoakTally {
    fn of(report: &SupervisedReport<EpisodeOutcome>) -> SoakTally {
        let mut t = SoakTally::default();
        for o in report.values() {
            t.hammer_bursts += o.hammer_bursts;
            match &o.failure {
                None => t.pass += 1,
                Some(f) => {
                    t.fail += 1;
                    t.shrink_execs += f.shrink_execs as u64;
                    *t.buckets.entry(f.failure.signature.clone()).or_insert(0) += 1;
                }
            }
        }
        t
    }
}

/// Assembles the soak result document.
fn document(
    seed: u64,
    episodes: usize,
    report: &SupervisedReport<EpisodeOutcome>,
    tally: SoakTally,
) -> Json {
    let failures: Vec<Json> = report
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, outcome)| {
            let o = outcome.value()?;
            let f = o.failure.as_ref()?;
            Some(Json::obj([
                ("episode", Json::from(i)),
                ("seed", Json::from(o.seed)),
                ("signature", Json::str(f.failure.signature.as_str())),
                ("detail", Json::str(f.failure.detail.as_str())),
                ("original_len", Json::from(f.original_len)),
                ("minimized_len", Json::from(f.ops.len())),
                ("shrink_execs", Json::from(f.shrink_execs)),
                ("ops", Json::Arr(f.ops.iter().map(encode_op).collect())),
            ]))
        })
        .collect();
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str("soak")),
        ("seed", Json::from(seed)),
        ("episodes", Json::from(episodes)),
        ("ops_per_episode", Json::from(OPS_PER_EPISODE)),
        ("degraded", Json::from(report.degraded())),
        (
            "summary",
            Json::obj([
                ("pass", Json::from(tally.pass)),
                ("fail", Json::from(tally.fail)),
                ("hammer_bursts", Json::from(tally.hammer_bursts)),
                ("shrink_execs", Json::from(tally.shrink_execs)),
                ("timeouts", Json::from(report.timeouts)),
                ("panics", Json::from(report.panics)),
                ("skipped", Json::from(report.skipped)),
                ("retries", Json::from(report.retries)),
                (
                    "buckets",
                    Json::Obj(
                        tally
                            .buckets
                            .into_iter()
                            .map(|(k, v)| (k, Json::from(v)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("failures", Json::Arr(failures)),
    ])
}

// ---- corpus -----------------------------------------------------------------

fn case_from_json(doc: &Json) -> Option<(String, Vec<FuzzOp>)> {
    if doc.get("schema").and_then(Json::as_str) != Some(CASE_SCHEMA) {
        return None;
    }
    let name = doc.get("name").and_then(Json::as_str)?.to_string();
    let ops = doc
        .get("ops")
        .and_then(Json::as_arr)?
        .iter()
        .map(decode_op)
        .collect::<Option<Vec<_>>>()?;
    Some((name, ops))
}

/// Replays every corpus case under `dir` (sorted by filename) against the
/// current stack and reports per-case verdicts and the
/// `fuzz.corpus_replayed` counter. Each case must pass: a corpus case is a
/// minimized repro of a past or planted divergence, and replaying clean
/// proves the stack (with its defenses on) still holds. A directory that
/// cannot be read or holds no `.json` case replays nothing, so the run is
/// degraded and its `corpus_error` says which.
fn run_replay(dir: &Path) -> Output {
    let target = SsdFuzz::default();
    let listed = std::fs::read_dir(dir).map(|entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect::<Vec<_>>()
    });
    let corpus_error = match &listed {
        Ok(files) if files.is_empty() => Some(format!("{} holds no .json case", dir.display())),
        Ok(_) => None,
        Err(e) => Some(format!("{} cannot be read: {e}", dir.display())),
    };
    let mut files = listed.unwrap_or_default();
    files.sort();
    let mut rows = Vec::new();
    let mut diverged = 0u64;
    for path in &files {
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        let verdict = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| case_from_json(&doc));
        let (status, detail) = match verdict {
            None => ("unreadable".to_string(), "not a corpus case".to_string()),
            Some((name, ops)) => match target.execute(&ops) {
                Verdict::Pass => ("pass".to_string(), name),
                Verdict::Fail(f) => ("diverged".to_string(), format!("{name}: {}", f.detail)),
            },
        };
        if status != "pass" {
            diverged += 1;
        }
        rows.push(Json::obj([
            ("file", Json::str(file.as_str())),
            ("status", Json::str(status.as_str())),
            ("detail", Json::str(detail.as_str())),
        ]));
    }
    let registry = Telemetry::new();
    registry
        .counter("fuzz.corpus_replayed")
        .add(rows.len() as u64);
    let degraded = diverged > 0 || corpus_error.is_some();
    let mut json = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str("replay")),
        ("cases", Json::from(rows.len())),
        ("degraded", Json::from(degraded)),
        (
            "summary",
            Json::obj([
                ("replayed", Json::from(rows.len())),
                ("diverged", Json::from(diverged)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ]);
    if let Some(error) = corpus_error {
        json.push("corpus_error", Json::str(error));
    }
    Output {
        text: render(&json),
        json,
        telemetry: Some(registry.snapshot()),
    }
}

/// Renders a campaign (soak or replay) document as text.
fn render(doc: &Json) -> String {
    let get_u64 = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut out = String::from("model-based fuzz: generator > executor > oracle > shrinker\n");
    let summary = doc.get("summary");
    if doc.get("mode").and_then(Json::as_str) == Some("replay") {
        out.push_str(&format!(
            "corpus replay: {} cases, {} diverged\n",
            get_u64(doc, "cases"),
            summary.map_or(0, |s| get_u64(s, "diverged")),
        ));
        if let Some(error) = doc.get("corpus_error").and_then(Json::as_str) {
            out.push_str(&format!("corpus {error}\n"));
        }
        if let Some(results) = doc.get("results").and_then(Json::as_arr) {
            for r in results {
                out.push_str(&format!(
                    "  {:<44} {}\n",
                    r.get("file").and_then(Json::as_str).unwrap_or("?"),
                    r.get("status").and_then(Json::as_str).unwrap_or("?"),
                ));
            }
        }
    } else {
        out.push_str(&format!(
            "soak: {} episodes x {} ops (seed {})\n",
            get_u64(doc, "episodes"),
            get_u64(doc, "ops_per_episode"),
            get_u64(doc, "seed"),
        ));
        if let Some(s) = summary {
            out.push_str(&format!(
                "pass={} fail={} hammer_bursts={} shrink_execs={} timeouts={} panics={} skipped={}\n",
                get_u64(s, "pass"),
                get_u64(s, "fail"),
                get_u64(s, "hammer_bursts"),
                get_u64(s, "shrink_execs"),
                get_u64(s, "timeouts"),
                get_u64(s, "panics"),
                get_u64(s, "skipped"),
            ));
            if let Some(buckets) = s.get("buckets").and_then(Json::as_obj) {
                for (sig, n) in buckets {
                    out.push_str(&format!(
                        "  bucket {:<36} {}\n",
                        sig,
                        n.as_u64().unwrap_or(0)
                    ));
                }
            }
        }
        if let Some(failures) = doc.get("failures").and_then(Json::as_arr) {
            for f in failures {
                out.push_str(&format!(
                    "  episode {} seed {}: {} ({} -> {} ops)\n",
                    get_u64(f, "episode"),
                    get_u64(f, "seed"),
                    f.get("signature").and_then(Json::as_str).unwrap_or("?"),
                    get_u64(f, "original_len"),
                    get_u64(f, "minimized_len"),
                ));
            }
        }
    }
    if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
        out.push_str("WARNING: divergences or partial results (degraded run)\n");
    }
    out
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro fuzz [--soak N | --replay DIR]`.
#[derive(Debug, Clone, Copy)]
pub struct FuzzScenario;

impl Scenario for FuzzScenario {
    fn name(&self) -> &'static str {
        "fuzz"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        match &cfg.replay {
            Some(dir) => run_replay(dir),
            None => run_soak(seed, threads, &cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak(seed: u64, threads: usize, episodes: usize) -> Json {
        run_soak(
            seed,
            threads,
            &ScenarioCfg {
                soak: Some(episodes),
                ..ScenarioCfg::default()
            },
        )
        .json
    }

    #[test]
    fn op_codec_roundtrips_every_variant() {
        let ops = [
            FuzzOp::Read(3),
            FuzzOp::Write(7, 0xAB),
            FuzzOp::Trim(1),
            FuzzOp::Flush,
            FuzzOp::Scrub,
            FuzzOp::Hammer(5),
            FuzzOp::PowerCycle,
            FuzzOp::ArmCut(2, 4),
            FuzzOp::FailProgram(2),
        ];
        for op in ops {
            assert_eq!(decode_op(&encode_op(&op)), Some(op), "{op:?}");
        }
    }

    #[test]
    fn soak_on_the_correct_stack_is_clean() {
        let doc = soak(7, 2, 8);
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("fail").and_then(Json::as_u64), Some(0));
        assert_eq!(summary.get("pass").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn thread_count_does_not_change_the_document() {
        let one = soak(11, 1, 6).to_string();
        let four = soak(11, 4, 6).to_string();
        assert_eq!(one, four);
    }

    #[test]
    fn planted_journal_bug_is_caught_and_shrinks_small() {
        // Disable journal-replay CRC verification: a cut mid-append now
        // replays the torn tail as a wild `lba -> ppn 0` mapping. The
        // oracle must catch the divergence and ddmin must shrink it to a
        // handful of ops (the acceptance bound is 8).
        let target = SsdFuzz { verify_crc: false };
        let mut caught = None;
        for seed in 0..200u64 {
            if let Some(case) = run_episode(&target, seed, OPS_PER_EPISODE, SHRINK_BUDGET) {
                caught = Some(case);
                break;
            }
        }
        let case = caught.expect("planted bug must be caught within 200 seeds");
        assert!(
            case.ops.len() <= 8,
            "minimized repro has {} ops: {:?}",
            case.ops.len(),
            case.ops
        );
        assert!(
            case.ops.iter().any(|op| matches!(op, FuzzOp::ArmCut(..))),
            "repro must keep the armed cut: {:?}",
            case.ops
        );
        // The minimized case still reproduces, and the same sequence is
        // clean with the defense on.
        assert!(matches!(target.execute(&case.ops), Verdict::Fail(_)));
        assert!(matches!(
            SsdFuzz::default().execute(&case.ops),
            Verdict::Pass
        ));
    }

    #[test]
    fn corpus_replays_clean() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let doc = run_replay(&dir).json;
        let summary = doc.get("summary").expect("summary");
        let replayed = summary.get("replayed").and_then(Json::as_u64).unwrap_or(0);
        assert!(replayed > 0, "committed corpus must not be empty");
        assert_eq!(summary.get("diverged").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
        // Case 001 is the planted-bug repro: prove it is not a stale
        // artifact by confirming it still bites with the defense off.
        let text = std::fs::read_to_string(dir.join("001-journal-torn-tail.json")).unwrap();
        let (_, ops) = case_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(matches!(
            SsdFuzz { verify_crc: false }.execute(&ops),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn cases_addressing_past_the_generator_span_are_unreadable() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("ssdhammer-fuzz-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = format!(
            r#"{{"schema":"{CASE_SCHEMA}","name":"past-span","seed":0,"signature":"","ops":[{{"op":"write","lba":{SPAN},"fill":1}}]}}"#
        );
        std::fs::write(dir.join("past-span.json"), case).unwrap();
        let doc = run_replay(&dir).json;
        let _ = std::fs::remove_dir_all(&dir);
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(
            results[0].get("status").and_then(Json::as_str),
            Some("unreadable")
        );
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_panicking_episode_is_a_finding_not_a_retry() {
        // A retry re-derives the episode seed, so it would run a different
        // episode in place of the one that panicked: the soak's supervisor
        // reports the panic instead.
        let report = supervisor(7, 1, &Telemetry::new()).run(1, |ctx| {
            assert!(ctx.attempt > 0, "the first attempt panics");
        });
        assert_eq!((report.panics, report.retries), (1, 0));
        assert!(report.degraded());
    }
}
