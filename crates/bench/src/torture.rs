//! Power-cut torture campaign (`repro torture`): deterministically
//! enumerate every crash point a recovery-critical workload crosses —
//! journal appends, meta-mirror write-throughs, grown-bad-block remaps,
//! scrub repair passes, explicit L2P flushes, and the classic pre-op
//! `ftl.power_loss` gate — cut power at each one, remount, and check the
//! recovered device against a shadow model.
//!
//! The workload is a fixed [`FuzzOp`] sequence, and each crash point
//! `site@k` replays it with one [`FuzzOp::ArmCut`] in front, through the
//! fuzz campaign's executor and oracle (`SsdFuzz::run`): every remount
//! recovers twice and must rebuild the same L2P table, journal-replay
//! count, read-only flag and free-block count, and every read — per op
//! and across the whole span after each remount and at the end — must
//! return content the shadow model allows. The LBA whose operation the cut
//! interrupted is *uncertain*: either its pre-op or its post-op content is
//! acceptable, never anything else.
//!
//! The run maps onto four verdicts: the recovered state matches the shadow
//! model ([`CrashVerdict::Clean`]); the device degraded *loudly* — lawful
//! typed errors, read-only — with nothing silently wrong
//! ([`CrashVerdict::LoudDegraded`]); the oracle caught a divergence —
//! bytes the shadow rules out, a wild mapping, an illegal error, or a
//! recovery that is not idempotent ([`CrashVerdict::SilentCorruption`],
//! the failure the campaign exists to catch); or the cut never fired
//! ([`CrashVerdict::NotTriggered`]).
//!
//! Crash points come from a census pass: the workload runs once with every
//! site configured at probability zero, the plane counts crossings, and
//! [`TorturePlan::enumerate`] turns the census into the schedule —
//! exhaustive in the default configuration, seeded stratified sampling at
//! `--full` scale. Each point then replays as one shard under a
//! [`Supervisor`]: a panic is isolated with the shard's seed captured and
//! counted as a finding (the replay is deterministic, so the campaign does
//! not retry it), and a shard that overruns the simulated-time budget
//! becomes a typed timeout.

use ssdhammer_ftl::CRASH_SITES;
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::{ShardOutcome, SupervisedReport, Supervisor};
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::torture::{CrashPoint, CrashVerdict, SiteCrossings, TorturePlan};
use ssdhammer_simkit::{SimClock, SimDuration};

use crate::fuzz::{FuzzOp, Run, SsdFuzz};
use crate::scenario::{Output, Scenario, ScenarioCfg};

/// Structured-result schema identifier.
pub const SCHEMA: &str = "ssdhammer-torture-v1";

/// Every site the campaign registers: the five in-operation
/// [`CRASH_SITES`] plus the pre-operation `ftl.power_loss` gate.
#[must_use]
pub fn torture_sites() -> Vec<&'static str> {
    let mut sites = CRASH_SITES.to_vec();
    sites.push("ftl.power_loss");
    sites
}

// ---- workload ---------------------------------------------------------------

/// The recovery-critical workload: one program failure at the third
/// program (a data page, so the workload crosses grown-bad-block
/// retirement exactly once), then write rounds over 12 LBAs (24 at
/// `--full`) with interleaved TRIMs, explicit flushes, and scrub chunks,
/// sized to cross every registered crash site while fitting the tiny
/// journal region.
fn workload(full: bool) -> Vec<FuzzOp> {
    let (span, rounds) = if full { (24, 3) } else { (12, 2) };
    let mut ops = vec![FuzzOp::FailProgram(2)];
    for round in 0..rounds {
        for lba in 0..span {
            ops.push(FuzzOp::Write(lba, fill_byte(lba, round)));
        }
        if round + 1 == rounds {
            // TRIMs late in the schedule: their durability is exactly what
            // journal-append and meta-mirror cuts stress.
            for lba in (1..span).step_by(4) {
                ops.push(FuzzOp::Trim(lba));
            }
        }
        ops.push(FuzzOp::Flush);
        ops.push(FuzzOp::Scrub);
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

// ---- census + per-point replay ----------------------------------------------

/// Runs the workload once, uncut, and reads back how often it crossed each
/// site (the executor registers every site at probability zero).
fn census(full: bool) -> Vec<SiteCrossings> {
    let run = SsdFuzz::default().run(&workload(full));
    assert!(
        run.failure.is_none() && run.loud.is_empty(),
        "census workload must complete uncut and clean: {:?} {:?}",
        run.failure,
        run.loud
    );
    run.crossings
}

/// Replays the workload with power cut at `point` and judges the run,
/// advancing `clock` by the device's simulated time so the shard's
/// sim-time watchdog sees it.
fn run_crash_point(full: bool, point: &CrashPoint, clock: &SimClock) -> CrashVerdict {
    let site = torture_sites()
        .iter()
        .position(|&s| s == point.site)
        .expect("plan sites are torture sites");
    let cut = FuzzOp::ArmCut(
        u8::try_from(site).expect("site index fits an ArmCut"),
        u8::try_from(point.index).expect("crossing fits an ArmCut"),
    );
    let mut ops = vec![cut];
    ops.extend(workload(full));
    let run = SsdFuzz::default().run(&ops);
    clock.advance(run.elapsed);
    judge(run)
}

/// Maps an executor run onto the campaign's verdicts.
fn judge(run: Run) -> CrashVerdict {
    match run.failure {
        Some(f) => CrashVerdict::SilentCorruption {
            detail: format!("{}: {}", f.signature, f.detail),
        },
        None if !run.cut_fired => CrashVerdict::NotTriggered,
        None if run.loud.is_empty() => CrashVerdict::Clean,
        None => CrashVerdict::LoudDegraded {
            detail: run.loud.join("; "),
        },
    }
}

// ---- campaign ---------------------------------------------------------------

/// The campaign's supervisor: a sim-time watchdog, and no retry, since a
/// crash-point replay that panics would panic again.
fn supervisor(seed: u64, threads: usize, tel: &Telemetry) -> Supervisor {
    Supervisor::new(seed)
        .with_tag("torture")
        .with_threads(threads)
        .with_sim_budget(SimDuration::from_secs(600))
        .attach_telemetry(tel)
}

/// Runs the full campaign under `cfg` (`full` picks the larger workload
/// and a sampling crash schedule; `abort_after` stops it early): census,
/// crash-schedule enumeration, one supervised shard per crash point,
/// merged into the structured result document, its text report, and the
/// `supervisor.*` and `torture.*` counters. The document is bit-identical
/// for any `threads`.
fn run_supervised(seed: u64, threads: usize, cfg: &ScenarioCfg) -> Output {
    let crossings = census(cfg.full);
    let plan = TorturePlan::enumerate(&crossings, plan_limit(cfg.full), seed);
    let tel = Telemetry::new();
    let sup = supervisor(seed, threads, &tel);
    // Every shard replays the *same* workload — only the injected cut
    // differs — so the shard closure ignores `ctx.trial.seed` and keys off
    // the trial index alone. The shard clock feeds the watchdog.
    let report = cfg.run_campaign(sup, plan.points.len(), |ctx| {
        run_crash_point(cfg.full, &plan.points[ctx.trial.index], ctx.clock())
    });
    let v = Verdicts::tally(&report);
    let points = plan.points.len() as u64;
    tel.counter("torture.crash_points").add(points);
    tel.counter("torture.clean").add(v.clean);
    tel.counter("torture.loud_degraded").add(v.loud_degraded);
    tel.counter("torture.silent_corruption")
        .add(v.silent_corruption);
    tel.counter("torture.not_triggered").add(v.not_triggered);
    let json = document(seed, cfg.full, &crossings, &plan, &report, &v);
    Output {
        text: render(&json),
        json,
        telemetry: Some(tel.snapshot()),
    }
}

/// Verdict counts over the completed shards: the document's summary and
/// the `torture.*` counters both read this one tally.
#[derive(Debug, Default)]
struct Verdicts {
    clean: u64,
    loud_degraded: u64,
    silent_corruption: u64,
    not_triggered: u64,
}

impl Verdicts {
    fn tally(report: &SupervisedReport<CrashVerdict>) -> Verdicts {
        let mut v = Verdicts::default();
        for verdict in report.values() {
            match verdict {
                CrashVerdict::Clean => v.clean += 1,
                CrashVerdict::LoudDegraded { .. } => v.loud_degraded += 1,
                CrashVerdict::SilentCorruption { .. } => v.silent_corruption += 1,
                CrashVerdict::NotTriggered => v.not_triggered += 1,
            }
        }
        v
    }
}

/// Assembles the structured result document.
fn document(
    seed: u64,
    full: bool,
    crossings: &[SiteCrossings],
    plan: &TorturePlan,
    report: &SupervisedReport<CrashVerdict>,
    verdicts: &Verdicts,
) -> Json {
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
            if let ShardOutcome::Ok(verdict) = o {
                fields.push(("verdict", verdict.to_json()));
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
                ("clean", Json::from(verdicts.clean)),
                ("loud_degraded", Json::from(verdicts.loud_degraded)),
                ("silent_corruption", Json::from(verdicts.silent_corruption)),
                ("not_triggered", Json::from(verdicts.not_triggered)),
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
fn render(doc: &Json) -> String {
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
        let crossings = census(false);
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
        for site in torture_sites() {
            assert!(
                plan.points.iter().any(|p| p.site == site),
                "no crash point at {site}"
            );
        }
    }

    #[test]
    fn every_enumerated_point_fires_and_none_corrupts_silently() {
        let doc = run_supervised(7, 4, &ScenarioCfg::default()).json;
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
    fn crash_points_drive_the_sim_time_watchdog() {
        let plan = TorturePlan::enumerate(&census(false), plan_limit(false), 7);
        let report = Supervisor::new(7)
            .with_sim_budget(SimDuration::ZERO)
            .run(1, |ctx| {
                run_crash_point(false, &plan.points[0], ctx.clock())
            });
        assert!(
            matches!(report.outcomes[0], ShardOutcome::Timeout { .. }),
            "{:?}",
            report.outcomes[0]
        );
    }

    #[test]
    fn thread_count_does_not_change_the_document() {
        let one = run_supervised(11, 1, &ScenarioCfg::default())
            .json
            .to_string();
        let four = run_supervised(11, 4, &ScenarioCfg::default())
            .json
            .to_string();
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
        )
        .json;
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
    fn a_panicking_crash_point_is_a_finding_not_a_retry() {
        // The replay is deterministic, so a retry could only repeat the
        // panic: the campaign's supervisor reports it on the first attempt.
        let report = supervisor(7, 1, &Telemetry::new()).run(1, |ctx| {
            assert!(ctx.attempt > 0, "the first attempt panics");
        });
        assert_eq!((report.panics, report.retries), (1, 0));
        assert!(report.degraded());
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

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        run_supervised(seed, threads, &cfg)
    }
}
