//! `repro bench` — the perf baseline: wall-clock timings for the
//! simulator's hot paths, written to `BENCH_9.json`.
//!
//! Four scenarios are timed:
//!
//! 1. **fig1 hammer loop** — the two-sided FTL rowhammer primitive.
//! 2. **fig3 end-to-end** — the ext4 exploit; the paper-prototype scale
//!    under the default mode, the fast demo under `--quick` (CI smoke).
//! 3. **sec43 Monte Carlo** — the §4.3 probability-of-success campaign.
//! 4. **multi-queue engine at queue-depth saturation** — batched
//!    submit/process/drain of read commands through the allocation-free
//!    completion path (`drain_completions_into`; read data is the shared
//!    flash page, not a copy).
//!
//! The document separates *deterministic result fields* (per-scenario
//! `result` subtrees — byte-identical for a fixed seed at any thread
//! count) from *timing fields* (`wall_secs`, `host_iops`, `speedup_*`),
//! which vary run to run. [`BenchReport::deterministic`] carries only the
//! former, so tests can assert determinism without racing the host clock.
//! All host-clock access goes through [`crate::harness::wallclock`], the
//! one sanctioned `Instant` user (lint rule D1): timings are reporting
//! only and never feed back into simulated state.

use ssdhammer_nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::Lba;

use crate::harness::wallclock;
use crate::{fig1, fig3, sec43};

/// Pre-campaign wall time of `repro fig3 --full` on the reference machine,
/// recorded before the hot-path optimization work. `speedup_vs_baseline`
/// in the document is measured against this.
pub const BASELINE_FIG3_FULL_WALL_SECS: f64 = 235.6;

/// Schema tag written at the document root; bump on layout changes.
pub const SCHEMA: &str = "ssdhammer-bench-v1";

/// The output of one bench run: the full document (timings included) and
/// the timing-free subtree.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The complete `BENCH_9.json` document.
    pub doc: Json,
    /// Only the deterministic parts: schema, parameters, and each
    /// scenario's `result` subtree. Byte-identical for a fixed `(seed,
    /// quick)` at any `threads` value and across repeated runs.
    pub deterministic: Json,
}

/// Runs `f` once, returning its wall-clock seconds and its value.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let mut f = Some(f);
    let mut slot = None;
    let secs = wallclock::time_once(&mut || {
        slot = Some((f.take().expect("timed closure runs once"))());
    });
    (secs, slot.expect("timed closure ran"))
}

/// The multi-queue engine at queue-depth saturation: bursts of `depth`
/// reads over a pre-written namespace, batched through `submit_batch` /
/// `process_all` / `drain_completions_into`, buffers recycled. Returns the
/// deterministic result subtree and the command count.
fn mq_saturation(seed: u64, quick: bool) -> (Json, u64) {
    const NS_BLOCKS: u64 = 1024;
    const DEPTH: usize = 32;
    let bursts: u64 = if quick { 200 } else { 20_000 };

    let mut ssd = Ssd::build(SsdConfig::test_small(seed));
    let ns = ssd.create_namespace(NS_BLOCKS).expect("namespace");
    let qp = ssd.create_queue_pair(DEPTH);
    // Map half the namespace so the read mix covers both the mapped flash
    // path and the unmapped fast path.
    for lba in 0..NS_BLOCKS / 2 {
        let batch = [Command::Write {
            ns,
            lba: Lba(lba),
            data: vec![lba as u8; ssdhammer_simkit::BLOCK_SIZE].into_boxed_slice(),
        }];
        ssd.submit_batch(qp, &batch).expect("submit write");
        ssd.process_all();
        for c in ssd.drain_completions(qp).expect("drain writes") {
            assert!(c.is_ok(), "setup write failed");
        }
    }

    let mut commands = 0u64;
    let mut mapped = 0u64;
    let mut device_us = 0.0f64;
    let mut completions = Vec::with_capacity(DEPTH);
    let mut batch = Vec::with_capacity(DEPTH);
    for burst in 0..bursts {
        batch.clear();
        for i in 0..DEPTH as u64 {
            batch.push(Command::Read {
                ns,
                lba: Lba((burst * DEPTH as u64 + i) % NS_BLOCKS),
            });
        }
        ssd.submit_batch(qp, &batch).expect("submit batch");
        ssd.process_all();
        ssd.drain_completions_into(qp, &mut completions)
            .expect("drain");
        for c in completions.drain(..) {
            commands += 1;
            device_us += c.latency().as_secs_f64() * 1e6;
            match c.result {
                CmdResult::Read { mapped: m, .. } => mapped += u64::from(m),
                other => panic!("expected read completion, got {other:?}"),
            }
        }
    }
    let result = Json::obj([
        ("queue_depth", Json::from(DEPTH)),
        ("commands", Json::from(commands)),
        ("mapped_reads", Json::from(mapped)),
        (
            "mean_device_latency_us",
            Json::from(device_us / commands as f64),
        ),
    ]);
    (result, commands)
}

/// Runs the four timed hot paths and assembles the report.
///
/// `quick` substitutes the fig3 fast demo for the paper-prototype run and
/// shrinks the queue-saturation loop — the CI smoke configuration; the
/// committed `BENCH_9.json` comes from a non-quick run.
#[must_use]
pub fn run(seed: u64, threads: usize, quick: bool) -> BenchReport {
    let (fig1_wall, fig1_result) = timed(|| fig1::run(seed).to_json());

    let (fig3_wall, fig3_result) = if quick {
        timed(|| fig3::run(seed).to_json())
    } else {
        timed(|| fig3::run_full_json(seed))
    };

    let (mc_wall, mc_result) = timed(|| sec43::run_with_threads(seed, threads).to_json());

    let (mq_wall, (mq_result, mq_commands)) = timed(|| mq_saturation(seed, quick));

    let scenario = |result: &Json, timing: Vec<(&str, Json)>| {
        let mut pairs = vec![("result", result.clone())];
        pairs.extend(timing);
        Json::obj(pairs)
    };

    let mut fig3_timing = vec![("wall_secs", Json::from(fig3_wall))];
    if !quick {
        fig3_timing.push((
            "speedup_vs_baseline",
            Json::from(BASELINE_FIG3_FULL_WALL_SECS / fig3_wall),
        ));
    }

    let scenarios = Json::obj([
        (
            "fig1_hammer",
            scenario(&fig1_result, vec![("wall_secs", Json::from(fig1_wall))]),
        ),
        ("fig3_e2e", scenario(&fig3_result, fig3_timing)),
        (
            "sec43_monte_carlo",
            scenario(&mc_result, vec![("wall_secs", Json::from(mc_wall))]),
        ),
        (
            "mq_qd_saturation",
            scenario(
                &mq_result,
                vec![
                    ("wall_secs", Json::from(mq_wall)),
                    ("host_iops", Json::from(mq_commands as f64 / mq_wall)),
                ],
            ),
        ),
    ]);

    let params = [
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(seed)),
        ("threads", Json::from(threads)),
        ("quick", Json::from(quick)),
    ];

    // `threads` is a run parameter, not a result — it must NOT appear in
    // the deterministic view, whose whole point is that thread count
    // never changes result bytes.
    let det_params = [
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(seed)),
        ("quick", Json::from(quick)),
    ];

    let deterministic = Json::obj(det_params.into_iter().chain([(
        "scenarios",
        Json::obj([
            ("fig1_hammer", fig1_result.clone()),
            ("fig3_e2e", fig3_result.clone()),
            ("sec43_monte_carlo", mc_result.clone()),
            ("mq_qd_saturation", mq_result.clone()),
        ]),
    )]));

    let doc = Json::obj(params.into_iter().chain([
        (
            "baseline",
            Json::obj([(
                "fig3_full_wall_secs_pre_change",
                Json::from(BASELINE_FIG3_FULL_WALL_SECS),
            )]),
        ),
        ("scenarios", scenarios),
    ]));

    BenchReport { doc, deterministic }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The non-timing fields must be byte-identical across thread counts
    /// and repeated runs at a fixed seed (`--quick` keeps this fast).
    #[test]
    fn quick_bench_deterministic_across_threads_and_runs() {
        let a = run(7, 1, true).deterministic.to_string_pretty();
        let b = run(7, 4, true).deterministic.to_string_pretty();
        let c = run(7, 1, true).deterministic.to_string_pretty();
        assert_eq!(a, b, "threads=1 vs threads=4 deterministic subtree");
        assert_eq!(a, c, "repeated run deterministic subtree");
    }

    /// The document must survive a parse round-trip and carry the schema
    /// tag plus all four scenario keys.
    #[test]
    fn document_parses_and_has_required_keys() {
        let report = run(7, 2, true);
        let text = report.doc.to_string_pretty();
        let reparsed = Json::parse(&text).expect("BENCH document parses");
        let rendered = reparsed.to_string_pretty();
        for key in [
            "\"schema\"",
            "\"baseline\"",
            "\"fig1_hammer\"",
            "\"fig3_e2e\"",
            "\"sec43_monte_carlo\"",
            "\"mq_qd_saturation\"",
            "\"wall_secs\"",
        ] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }
}
