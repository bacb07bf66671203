//! Power-cut torture campaign (`repro torture`): deterministically
//! enumerate every crash point a recovery-critical workload crosses —
//! journal appends, meta-mirror write-throughs, grown-bad-block remaps,
//! scrub repair passes, explicit L2P flushes, and the classic pre-op
//! `ftl.power_loss` gate — cut power at each one, remount with
//! [`Ftl::recover`], and check the recovered device against a shadow
//! model.
//!
//! The oracle accepts exactly three honest outcomes per crash point:
//! the recovered state matches the shadow model ([`CrashVerdict::Clean`]),
//! or the device degraded *loudly* — typed errors, read-only — with
//! nothing silently wrong ([`CrashVerdict::LoudDegraded`]). The LBA whose
//! operation the cut interrupted is *uncertain*: either its pre-op or its
//! post-op content is acceptable, never anything else. Serving bytes the
//! shadow model rules out, without any error, is
//! [`CrashVerdict::SilentCorruption`] — the failure the campaign exists
//! to catch. Recovery must also be idempotent: remounting twice yields
//! the same L2P table and replay telemetry as remounting once.
//!
//! Crash points come from a census pass ([`census_config`]): the workload
//! runs once with every site configured at probability zero, the plane
//! counts crossings, and [`TorturePlan::enumerate`] turns the census into
//! the schedule — exhaustive in the default configuration, seeded
//! stratified sampling at `--full` scale. Each point then replays as one
//! shard under a [`Supervisor`]: panics are isolated with the shard's
//! seed captured, runaway shards become typed timeouts, and
//! `--checkpoint`/`--resume` persist completed shards so an interrupted
//! campaign finishes bit-identical to an uninterrupted one.

use ssdhammer_dram::{DramGeometry, DramModule, MappingKind, ModuleProfile};
use ssdhammer_flash::{FlashArray, FlashGeometry};
use ssdhammer_ftl::{Ftl, FtlConfig, FtlError, ReadOutcome, CRASH_SITES};
use ssdhammer_simkit::faultplane::{FaultPlane, FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::fuzz::ShadowDisk;
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::{JsonCodec, ShardOutcome, SupervisedReport, Supervisor};
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::torture::{
    census_config, measure_crossings, CrashPoint, CrashVerdict, SiteCrossings, TorturePlan,
};
use ssdhammer_simkit::{Lba, SimClock, SimDuration, BLOCK_SIZE};

use crate::scenario::{Scenario, ScenarioCfg};

/// Structured-result schema identifier.
pub const SCHEMA: &str = "ssdhammer-torture-v1";

/// One torture shard's result: which crossing was cut and what the oracle
/// concluded about the recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashOutcome {
    /// The crash site that was cut.
    pub site: String,
    /// Which crossing of the site was cut (per-site consult index).
    pub index: u64,
    /// The oracle's verdict on the recovered device.
    pub verdict: CrashVerdict,
}

impl ToJson for CrashOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("site", Json::str(self.site.as_str())),
            ("index", Json::from(self.index)),
            ("verdict", self.verdict.to_json()),
        ])
    }
}

/// Every site the campaign registers: the five in-operation
/// [`CRASH_SITES`] plus the pre-operation `ftl.power_loss` gate.
#[must_use]
pub fn torture_sites() -> Vec<&'static str> {
    let mut sites = CRASH_SITES.to_vec();
    sites.push("ftl.power_loss");
    sites
}

// ---- workload ---------------------------------------------------------------

/// One deterministic workload step.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write `[fill; BLOCK_SIZE]` to the LBA.
    Write(u64, u8),
    /// TRIM the LBA.
    Trim(u64),
    /// Explicit journal flush (the NVMe Flush path).
    Flush,
    /// One background scrub chunk (8 L2P entries, 4 patrol reads).
    Scrub,
}

/// LBA span the workload (and the oracle readback) covers.
fn lba_span(full: bool) -> u64 {
    if full {
        24
    } else {
        12
    }
}

/// The recovery-critical workload: write rounds with interleaved TRIMs,
/// explicit flushes, and scrub chunks, sized to cross every registered
/// crash site while fitting the tiny journal region.
fn workload(full: bool) -> Vec<Op> {
    let span = lba_span(full);
    let rounds = if full { 3 } else { 2 };
    let mut ops = Vec::new();
    for round in 0..rounds {
        for lba in 0..span {
            ops.push(Op::Write(lba, fill_byte(lba, round)));
        }
        if round + 1 == rounds {
            // TRIMs late in the schedule: their durability is exactly what
            // journal-append and meta-mirror cuts stress.
            for lba in (1..span).step_by(4) {
                ops.push(Op::Trim(lba));
            }
        }
        ops.push(Op::Flush);
        ops.push(Op::Scrub);
    }
    ops
}

/// Deterministic content for `(lba, round)` — distinct per round so stale
/// data is distinguishable from the current version.
fn fill_byte(lba: u64, round: u64) -> u8 {
    (round as u8)
        .wrapping_mul(64)
        .wrapping_add(lba as u8)
        .wrapping_add(1)
}

/// Crash-point budget for the schedule: generous enough that the default
/// workload enumerates exhaustively, tight enough that `--full` exercises
/// the stratified-sampling path.
fn plan_limit(full: bool) -> usize {
    if full {
        120
    } else {
        128
    }
}

/// Base (non-crash) faults: one deterministic program failure at the
/// third program attempt — a data page, so the workload crosses the
/// grown-bad-block retirement path exactly once.
fn base_faults() -> FaultPlaneConfig {
    FaultPlaneConfig::new().with_site(
        "flash.program_fail",
        FaultSpec::always().with_window(2, 3).with_max_fires(1),
    )
}

/// The device-under-torture configuration: journal every mutation (so
/// TRIM durability is on the line at every cut), two journal blocks, and
/// the resident metadata mirror (so meta write-throughs happen at all).
fn torture_config() -> FtlConfig {
    FtlConfig::default()
        .with_journal_checkpoint_every(1)
        .with_journal_blocks(2)
        .with_meta_resident(true)
}

/// Builds the tiny device under torture on `clock`. Flash seed is fixed
/// (no factory-bad blocks in the tiny geometry); the fault plane is
/// seeded with the workload seed so census and torture runs share one
/// deterministic consult stream per site.
fn device(seed: u64, clock: &SimClock, faults: &FaultPlaneConfig) -> Ftl {
    let dram = DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(clock.clone());
    let mut nand = FlashArray::new(FlashGeometry::tiny_test(), clock.clone(), 1);
    nand.set_fault_plane(FaultPlane::new(seed, faults));
    Ftl::new(dram, nand, torture_config()).expect("torture FTL assembly")
}

fn fresh_dram(seed: u64) -> DramModule {
    DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(SimClock::new())
}

// ---- shadow model -----------------------------------------------------------

// The oracle state lives in [`ShadowDisk`] (shared with the fuzzer);
// these adapters translate workload ops into its commit/interrupt calls.

/// Applies a completed (host-acknowledged) operation.
fn commit(shadow: &mut ShadowDisk, op: Op) {
    match op {
        Op::Write(lba, fill) => shadow.commit_write(lba, fill),
        Op::Trim(lba) => shadow.commit_trim(lba),
        Op::Flush | Op::Scrub => {}
    }
}

/// Marks the interrupted operation's LBA as uncertain.
fn interrupt(shadow: &mut ShadowDisk, op: Op) {
    match op {
        Op::Write(lba, fill) => shadow.interrupt_write(lba, fill),
        Op::Trim(lba) => shadow.interrupt_trim(lba),
        Op::Flush | Op::Scrub => {}
    }
}

// ---- census + per-point replay ----------------------------------------------

/// Runs the workload once with every crash site registered at probability
/// zero and reads back how often each was crossed.
fn census(seed: u64, full: bool) -> Vec<SiteCrossings> {
    let sites = torture_sites();
    let faults = census_config(&base_faults(), &sites);
    let clock = SimClock::new();
    let mut ftl = device(seed, &clock, &faults);
    for op in workload(full) {
        apply(&mut ftl, op).expect("census workload must complete uncut");
    }
    measure_crossings(ftl.fault_plane(), &sites)
}

fn apply(ftl: &mut Ftl, op: Op) -> Result<(), FtlError> {
    match op {
        Op::Write(lba, fill) => {
            let data = vec![fill; BLOCK_SIZE];
            ftl.write(Lba(lba), &data).map(|_| ())
        }
        Op::Trim(lba) => ftl.trim(Lba(lba)),
        Op::Flush => ftl.flush(),
        Op::Scrub => ftl.scrub_chunk(8, 4),
    }
}

/// Replays the workload with power cut at `point`, remounts, and checks
/// the recovered device against the shadow model.
fn run_crash_point(seed: u64, full: bool, point: &CrashPoint, clock: &SimClock) -> CrashOutcome {
    let sites = torture_sites();
    let faults = census_config(&base_faults(), &sites).with_site(point.site.clone(), point.spec());
    let span = lba_span(full);
    let mut ftl = device(seed, clock, &faults);
    let mut shadow = ShadowDisk::new(span);
    let mut loud: Vec<String> = Vec::new();
    let mut cut = false;
    for op in workload(full) {
        match apply(&mut ftl, op) {
            Ok(()) => commit(&mut shadow, op),
            Err(FtlError::PowerLoss) => {
                interrupt(&mut shadow, op);
                cut = true;
                break;
            }
            // Honest pre-cut degradation (e.g. read-only): the operation
            // did not happen; the shadow stays put and the workload
            // continues toward the scheduled cut.
            Err(e) => loud.push(format!("workload: {e}")),
        }
    }
    let verdict = judge(seed, span, ftl, &shadow, cut, point, loud);
    CrashOutcome {
        site: point.site.clone(),
        index: point.index,
        verdict,
    }
}

/// The invariant oracle: remount twice (idempotency), then read back the
/// whole LBA span against the shadow model.
fn judge(
    seed: u64,
    span: u64,
    ftl: Ftl,
    shadow: &ShadowDisk,
    cut: bool,
    point: &CrashPoint,
    mut loud: Vec<String>,
) -> CrashVerdict {
    if !cut || ftl.fault_plane().fired(&point.site) == 0 {
        return CrashVerdict::NotTriggered;
    }
    // First remount. The recovered FTL shares the run's fault plane, whose
    // crash spec is exhausted (max_fires = 1), so recovery itself runs cut-free.
    let config = torture_config();
    let (_lost_dram, nand) = ftl.into_parts();
    let first = match Ftl::recover(fresh_dram(seed ^ 1), nand, config) {
        Ok(f) => f,
        Err(e) => {
            return CrashVerdict::LoudDegraded {
                detail: format!("recover failed: {e}"),
            }
        }
    };
    let snap_once = match first.l2p_snapshot() {
        Ok(s) => s,
        Err(e) => {
            return CrashVerdict::LoudDegraded {
                detail: format!("l2p snapshot failed: {e}"),
            }
        }
    };
    let replayed_once = first.telemetry().journal_replayed;
    // Second remount from the same flash: recovery must be idempotent. A
    // divergence here is an invariant violation, not honest degradation.
    let (_lost_dram, nand) = first.into_parts();
    let mut ftl = match Ftl::recover(fresh_dram(seed ^ 2), nand, config) {
        Ok(f) => f,
        Err(e) => {
            return CrashVerdict::SilentCorruption {
                detail: format!("recovery not idempotent: second remount failed: {e}"),
            }
        }
    };
    match ftl.l2p_snapshot() {
        Ok(snap_twice) if snap_twice == snap_once => {}
        Ok(_) => {
            return CrashVerdict::SilentCorruption {
                detail: "recovery not idempotent: L2P differs across remounts".to_string(),
            }
        }
        Err(e) => {
            return CrashVerdict::SilentCorruption {
                detail: format!("recovery not idempotent: second snapshot failed: {e}"),
            }
        }
    }
    if ftl.telemetry().journal_replayed != replayed_once {
        return CrashVerdict::SilentCorruption {
            detail: "recovery not idempotent: journal replay count differs".to_string(),
        };
    }
    if ftl.is_read_only() {
        loud.push("device read-only after recovery".to_string());
    }
    // Full readback: every LBA must hold content the shadow model allows,
    // or fail loudly.
    let mut buf = vec![0u8; BLOCK_SIZE];
    for lba in 0..span {
        match ftl.read(Lba(lba), &mut buf) {
            Err(e) => loud.push(format!("lba {lba}: {e}")),
            Ok(ReadOutcome::Wild { entry }) => {
                loud.push(format!("lba {lba}: wild entry {entry:#x}"));
            }
            Ok(ReadOutcome::GuardMismatch { ppn }) => {
                loud.push(format!("lba {lba}: guard mismatch at {ppn}"));
            }
            Ok(_) => {
                if !shadow.acceptable(lba, &buf) {
                    return CrashVerdict::SilentCorruption {
                        detail: format!(
                            "lba {lba}: read fill {:#04x}, shadow allows {}",
                            buf[0],
                            shadow.describe(lba)
                        ),
                    };
                }
            }
        }
    }
    if loud.is_empty() {
        CrashVerdict::Clean
    } else {
        CrashVerdict::LoudDegraded {
            detail: loud.join("; "),
        }
    }
}

// ---- campaign ---------------------------------------------------------------

fn decode_outcome(j: &Json) -> Option<CrashOutcome> {
    let site = j.get("site").and_then(Json::as_str)?.to_string();
    let index = j.get("index").and_then(Json::as_u64)?;
    let v = j.get("verdict")?;
    let detail = v
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let verdict = match v.get("status").and_then(Json::as_str)? {
        "clean" => CrashVerdict::Clean,
        "loud_degraded" => CrashVerdict::LoudDegraded { detail },
        "silent_corruption" => CrashVerdict::SilentCorruption { detail },
        "not_triggered" => CrashVerdict::NotTriggered,
        _ => return None,
    };
    Some(CrashOutcome {
        site,
        index,
        verdict,
    })
}

/// Runs the full campaign under `cfg` (`full` picks the larger workload
/// and a sampling crash schedule; the campaign flags checkpoint, resume,
/// or abort it): census, crash-schedule enumeration, one supervised shard
/// per crash point, merged into the structured result document. The
/// document is bit-identical for any `threads`, and — when checkpointed,
/// killed, and resumed — bit-identical to an uninterrupted run.
#[must_use]
pub fn run_supervised(seed: u64, threads: usize, cfg: &ScenarioCfg) -> Json {
    let crossings = census(seed, cfg.full);
    let plan = TorturePlan::enumerate(&crossings, plan_limit(cfg.full), seed);
    let registry = Telemetry::new();
    let sup = Supervisor::new(seed)
        .with_tag("torture")
        .with_threads(threads)
        .with_sim_budget(SimDuration::from_secs(600))
        .with_max_retries(1)
        .attach_telemetry(&registry);
    let codec = JsonCodec {
        encode: CrashOutcome::to_json,
        decode: decode_outcome,
    };
    // Every shard replays the *same* seed and workload — only the injected
    // cut differs — so the shard closure ignores `ctx.trial.seed` and keys
    // off the trial index alone. The shard clock feeds the watchdog.
    let report = cfg.run_campaign(sup, plan.points.len(), codec, |ctx| {
        run_crash_point(seed, cfg.full, &plan.points[ctx.trial.index], ctx.clock())
    });
    let doc = document(seed, cfg.full, &crossings, &plan, &report);
    count_verdicts(&registry, &plan, &report);
    doc
}

/// Convenience entry without checkpointing.
#[must_use]
pub fn run(seed: u64, threads: usize, full: bool) -> Json {
    run_supervised(
        seed,
        threads,
        &ScenarioCfg {
            full,
            ..ScenarioCfg::default()
        },
    )
}

/// Registers and bumps the `torture.*` counters from the merged report.
fn count_verdicts(
    registry: &Telemetry,
    plan: &TorturePlan,
    report: &SupervisedReport<CrashOutcome>,
) {
    let mut clean = 0u64;
    let mut loud = 0u64;
    let mut silent = 0u64;
    let mut not_triggered = 0u64;
    for outcome in report.values() {
        match outcome.verdict {
            CrashVerdict::Clean => clean += 1,
            CrashVerdict::LoudDegraded { .. } => loud += 1,
            CrashVerdict::SilentCorruption { .. } => silent += 1,
            CrashVerdict::NotTriggered => not_triggered += 1,
        }
    }
    registry
        .counter("torture.crash_points")
        .add(plan.points.len() as u64);
    registry.counter("torture.clean").add(clean);
    registry.counter("torture.loud_degraded").add(loud);
    registry.counter("torture.silent_corruption").add(silent);
    registry.counter("torture.not_triggered").add(not_triggered);
}

/// Assembles the structured result document. `resumed` is deliberately
/// omitted: it differs between a resumed and an uninterrupted run of the
/// same campaign, and the document must not.
fn document(
    seed: u64,
    full: bool,
    crossings: &[SiteCrossings],
    plan: &TorturePlan,
    report: &SupervisedReport<CrashOutcome>,
) -> Json {
    let mut clean = 0u64;
    let mut loud = 0u64;
    let mut silent = 0u64;
    let mut not_triggered = 0u64;
    let rows: Vec<Json> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let p = &plan.points[i];
            let mut fields = vec![
                ("site", Json::str(p.site.as_str())),
                ("index", Json::from(p.index)),
                ("shard", Json::str(o.status())),
            ];
            if let ShardOutcome::Ok(out) = o {
                match out.verdict {
                    CrashVerdict::Clean => clean += 1,
                    CrashVerdict::LoudDegraded { .. } => loud += 1,
                    CrashVerdict::SilentCorruption { .. } => silent += 1,
                    CrashVerdict::NotTriggered => not_triggered += 1,
                }
                fields.push(("verdict", out.verdict.to_json()));
            }
            Json::obj(fields)
        })
        .collect();
    let sites: Vec<Json> = crossings
        .iter()
        .map(|s| {
            Json::obj([
                ("site", Json::str(s.site.as_str())),
                ("crossings", Json::from(s.crossings)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::from(seed)),
        ("full", Json::from(full)),
        ("sites", Json::Arr(sites)),
        (
            "plan",
            Json::obj([
                ("crash_points", Json::from(plan.points.len())),
                ("total_crossings", Json::from(plan.total_crossings)),
                ("exhaustive", Json::from(plan.exhaustive)),
            ]),
        ),
        ("degraded", Json::from(report.degraded())),
        (
            "summary",
            Json::obj([
                ("clean", Json::from(clean)),
                ("loud_degraded", Json::from(loud)),
                ("silent_corruption", Json::from(silent)),
                ("not_triggered", Json::from(not_triggered)),
                ("timeouts", Json::from(report.timeouts)),
                ("panics", Json::from(report.panics)),
                ("skipped", Json::from(report.skipped)),
                ("retries", Json::from(report.retries)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ])
}

/// Renders the campaign document as a table.
#[must_use]
pub fn render(doc: &Json) -> String {
    let mut out =
        String::from("power-cut torture campaign: crash-point enumeration x recovery oracle\n");
    let get_u64 = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    if let Some(plan) = doc.get("plan") {
        out.push_str(&format!(
            "schedule: {} crash points over {} crossings ({})\n",
            get_u64(plan, "crash_points"),
            get_u64(plan, "total_crossings"),
            if plan.get("exhaustive").and_then(Json::as_bool) == Some(true) {
                "exhaustive"
            } else {
                "stratified sample"
            },
        ));
    }
    out.push_str(
        "site                        crossings  points  clean  loud  silent  untriggered\n",
    );
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    if let Some(sites) = doc.get("sites").and_then(Json::as_arr) {
        for s in sites {
            let name = s.get("site").and_then(Json::as_str).unwrap_or("?");
            let verdict_count = |status: &str| {
                results
                    .iter()
                    .filter(|r| {
                        r.get("site").and_then(Json::as_str) == Some(name)
                            && r.get("verdict")
                                .and_then(|v| v.get("status"))
                                .and_then(Json::as_str)
                                == Some(status)
                    })
                    .count()
            };
            let points = results
                .iter()
                .filter(|r| r.get("site").and_then(Json::as_str) == Some(name))
                .count();
            out.push_str(&format!(
                "{:<27} {:>9} {:>7} {:>6} {:>5} {:>7} {:>12}\n",
                name,
                get_u64(s, "crossings"),
                points,
                verdict_count("clean"),
                verdict_count("loud_degraded"),
                verdict_count("silent_corruption"),
                verdict_count("not_triggered"),
            ));
        }
    }
    if let Some(summary) = doc.get("summary") {
        out.push_str(&format!(
            "totals: clean={} loud={} silent={} untriggered={} timeouts={} panics={} skipped={}\n",
            get_u64(summary, "clean"),
            get_u64(summary, "loud_degraded"),
            get_u64(summary, "silent_corruption"),
            get_u64(summary, "not_triggered"),
            get_u64(summary, "timeouts"),
            get_u64(summary, "panics"),
            get_u64(summary, "skipped"),
        ));
    }
    if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
        out.push_str("WARNING: partial results (degraded run)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_crosses_every_registered_site() {
        let crossings = census(7, false);
        for s in &crossings {
            assert!(
                s.crossings > 0,
                "site {} never crossed by the default workload",
                s.site
            );
        }
        // The default schedule enumerates every crossing of every site.
        let plan = TorturePlan::enumerate(&crossings, plan_limit(false), 7);
        assert!(plan.exhaustive, "default config must be exhaustive");
        assert_eq!(plan.sites().len(), torture_sites().len());
    }

    #[test]
    fn every_enumerated_point_fires_and_none_corrupts_silently() {
        let doc = run(7, 4, false);
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert!(!results.is_empty());
        // Coverage: enumerated sites == sites fired. A `not_triggered`
        // verdict means the schedule and the workload disagree.
        for r in results {
            let status = r
                .get("verdict")
                .and_then(|v| v.get("status"))
                .and_then(Json::as_str)
                .expect("verdict status");
            assert_ne!(
                status,
                "not_triggered",
                "crash point {}@{} never fired",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("index").and_then(Json::as_u64).unwrap_or(0),
            );
            assert_ne!(
                status,
                "silent_corruption",
                "silent corruption at {}@{}: {:?}",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("index").and_then(Json::as_u64).unwrap_or(0),
                r.get("verdict")
                    .and_then(|v| v.get("detail"))
                    .and_then(Json::as_str),
            );
        }
        let summary = doc.get("summary").expect("summary");
        assert_eq!(
            summary.get("silent_corruption").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(summary.get("not_triggered").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn thread_count_does_not_change_the_document() {
        let one = run(11, 1, false).to_string();
        let four = run(11, 4, false).to_string();
        assert_eq!(one, four);
    }

    #[test]
    fn abort_after_zero_aborts_before_the_first_shard() {
        // The boundary: `--abort-after 0` must skip every shard — zero
        // crash points replay, the run reports fully skipped/degraded.
        let doc = run_supervised(
            7,
            2,
            &ScenarioCfg {
                abort_after: Some(0),
                ..ScenarioCfg::default()
            },
        );
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        let summary = doc.get("summary").expect("summary");
        let total = doc
            .get("plan")
            .and_then(|p| p.get("crash_points"))
            .and_then(Json::as_u64)
            .expect("crash points");
        assert!(total > 0);
        assert_eq!(summary.get("skipped").and_then(Json::as_u64), Some(total));
        for key in ["clean", "loud_degraded", "silent_corruption"] {
            assert_eq!(summary.get(key).and_then(Json::as_u64), Some(0), "{key}");
        }
    }

    #[test]
    fn aborted_campaign_resumes_bit_identical() {
        let mut path = std::env::temp_dir();
        path.push(format!("ssdhammer-torture-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uninterrupted = run(7, 2, false).to_string();
        let killed = run_supervised(
            7,
            2,
            &ScenarioCfg {
                checkpoint: Some(path.clone()),
                abort_after: Some(5),
                ..ScenarioCfg::default()
            },
        );
        assert_eq!(killed.get("degraded").and_then(Json::as_bool), Some(true));
        let resumed = run_supervised(
            7,
            1,
            &ScenarioCfg {
                checkpoint: Some(path.clone()),
                resume: true,
                ..ScenarioCfg::default()
            },
        );
        assert_eq!(resumed.to_string(), uninterrupted);
        let _ = std::fs::remove_file(&path);
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro torture`.
#[derive(Debug, Clone, Copy)]
pub struct TortureScenario;

impl Scenario for TortureScenario {
    fn name(&self) -> &'static str {
        "torture"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Json {
        run_supervised(seed, threads, &cfg)
    }

    fn render(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> String {
        render(&run_supervised(seed, threads, &cfg))
    }
}
