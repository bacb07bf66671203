//! `seed_sweep`: `CaseStudyConfig::fast_demo` over seeds derived from the
//! workload seed, in rounds on a `Supervisor` with one worker per host
//! core — the claims-ledger traffic of many short attacks on a small
//! filesystem.
//!
//! An untraced run spends half of `--seconds` on rounds at the host's
//! thread count (throughput) and the rest replaying those rounds on one
//! thread (latency per cycle, free of contention between workers, and the
//! thread-count determinism check).

use ssdhammer_cloud::{run_case_study, CaseStudyConfig};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::rng::derive_seed;
use ssdhammer_simkit::supervisor::{ShardCtx, SupervisedReport, Supervisor};

use crate::attack::{drive, outcome_key, provision, AttackRun};
use crate::layers::LayerMetrics;
use crate::probes::{self, Ledger};
use crate::trace::{timed, Tracer};
use crate::{chunk_rates, digest, host_threads, quantile, ratio, report_throughput, Args, Outcome};

/// Seeds per supervised round. Workers claim seeds dynamically, so only a
/// round's tail leaves a core idle; long rounds keep that share small.
const SEEDS_PER_ROUND: usize = 32;
/// Share of an untraced run spent on rounds at the host's thread count.
const PARALLEL_SHARE: f64 = 0.5;
/// Provisionings timed after each parallel round. Spreading set-up samples
/// over the run puts them under the same host conditions as the rounds.
const SETUP_PER_ROUND: usize = 16;
/// Traced runs sweep a fixed number of seeds per second of `--seconds`, in
/// one round.
const TRACED_SEEDS_PER_S: f64 = 3.0;

/// One seed's simulated result and the host seconds it took.
#[derive(Debug, Clone)]
struct Seed {
    result: Result<(String, usize), String>,
    host_s: f64,
}

/// One round: its shard results in trial order and its host seconds.
struct Round {
    seeds: Vec<Seed>,
    wall_s: f64,
    retries: usize,
    timeouts: usize,
}

impl Round {
    /// Attack cycles run by the round's successful seeds.
    fn cycles(&self) -> usize {
        self.seeds
            .iter()
            .filter_map(|s| s.result.as_ref().ok().map(|(_, c)| c))
            .sum()
    }
}

fn supervisor(args: &Args, round: usize, threads: usize) -> Supervisor {
    Supervisor::new(derive_seed(args.seed, "seed_sweep", round as u64))
        .with_tag("seed-sweep")
        .with_threads(threads)
}

fn plain_shard(ctx: &ShardCtx) -> Seed {
    let (result, host_s) = timed(|| run_case_study(&CaseStudyConfig::fast_demo(ctx.trial.seed)));
    Seed {
        result: result
            .map(|o| (outcome_key(&o), o.cycles.len()))
            .map_err(|e| e.to_string()),
        host_s,
    }
}

/// Collects a round's values, failing the run on a degraded report.
fn collect<T: Clone>(out: &mut Outcome, round: usize, report: &SupervisedReport<T>) -> Vec<T> {
    if report.degraded() {
        out.fail(format!(
            "round {round}: degraded ({} timeouts, {} panics, {} skipped)",
            report.timeouts, report.panics, report.skipped
        ));
    }
    report.values().cloned().collect()
}

fn plain_round(
    args: &Args,
    out: &mut Outcome,
    round: usize,
    seeds: usize,
    threads: usize,
) -> Round {
    let (report, wall_s) = timed(|| supervisor(args, round, threads).run(seeds, plain_shard));
    Round {
        seeds: collect(out, round, &report),
        wall_s,
        retries: report.retries,
        timeouts: report.timeouts,
    }
}

fn keys(rounds: &[Round]) -> Vec<Option<&str>> {
    rounds
        .iter()
        .flat_map(|r| &r.seeds)
        .map(|s| s.result.as_ref().ok().map(|(k, _)| k.as_str()))
        .collect()
}

/// Checks each seed's result, and that `again` (a prefix of `rounds`,
/// replayed on one thread) merged to the same results.
fn check(out: &mut Outcome, rounds: &[Round], again: &[Round], threads: usize) {
    for s in rounds.iter().flat_map(|r| &r.seeds) {
        out.attempted += 1;
        if let Err(e) = &s.result {
            out.fail(format!("run_case_study: {e}"));
        }
    }
    if again.is_empty() || keys(&rounds[..again.len().min(rounds.len())]) != keys(again) {
        out.fail(format!(
            "merged results differ between 1 and {threads} threads"
        ));
    }
}

/// Times `n` provisionings of derived `fast_demo` configs, numbered from
/// `first`.
fn setup_samples(args: &Args, out: &mut Outcome, first: usize, n: usize) -> Vec<f64> {
    let mut off = Tracer::new(false);
    (first..first + n)
        .map(|k| {
            let config =
                CaseStudyConfig::fast_demo(derive_seed(args.seed, "seed_sweep.setup", k as u64));
            let (inst, secs) = timed(|| provision(&config, &mut off));
            if let Err(e) = inst {
                out.fail(format!("provisioning: {e}"));
            }
            secs
        })
        .collect()
}

/// Host seconds per attack cycle of each seed that ran one, less the set-up
/// time `run_case_study` spends before its first cycle.
fn cycle_seconds(rounds: &[Round], setup_s: f64) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.seeds)
        .filter_map(|s| match &s.result {
            Ok((_, c)) if *c > 0 => Some((s.host_s - setup_s).max(0.0) / *c as f64),
            _ => None,
        })
        .collect()
}

fn results_digest(rounds: &[Round]) -> String {
    let keys: Vec<&str> = keys(rounds)
        .into_iter()
        .map(|k| k.unwrap_or("error"))
        .collect();
    digest(&keys.join("\n"))
}

/// Runs the workload.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let threads = host_threads();
    if !args.trace {
        let mut setup_s = Vec::new();
        let mut rounds: Vec<Round> = Vec::new();
        let mut wall = 0.0;
        while wall < args.seconds * PARALLEL_SHARE {
            let r = plain_round(args, &mut out, rounds.len(), SEEDS_PER_ROUND, threads);
            wall += r.wall_s;
            rounds.push(r);
            // Allocator retention grows with the rounds run, so peak RSS
            // is read after a fixed amount of work.
            if out.peak_rss_mb.is_none() {
                out.peak_rss_mb = crate::peak_rss_mb();
            }
            setup_s.extend(setup_samples(
                args,
                &mut out,
                setup_s.len(),
                SETUP_PER_ROUND,
            ));
        }
        let mut again: Vec<Round> = Vec::new();
        let mut wall_1 = 0.0;
        while wall_1 < args.seconds - wall && again.len() < rounds.len() {
            let r = plain_round(args, &mut out, again.len(), SEEDS_PER_ROUND, 1);
            wall_1 += r.wall_s;
            again.push(r);
        }
        check(&mut out, &rounds, &again, threads);
        let setup_med = quantile(&setup_s, 0.5);
        let cycles: usize = rounds.iter().map(Round::cycles).sum();
        let seeds: usize = rounds.iter().map(|r| r.seeds.len()).sum();
        out.metric("setup_s", setup_med, "s");
        out.record
            .push(("setup_s_samples", Json::arr(setup_s.iter().copied())));
        report_throughput(
            &mut out,
            chunk_rates(rounds.iter().map(|r| (r.cycles() as f64, r.wall_s))),
        );
        let cycle_s = cycle_seconds(&again, setup_med);
        out.metric("latency_ms_p50", quantile(&cycle_s, 0.5) * 1e3, "ms");
        out.record
            .push(("seeds_per_s", ratio(seeds as f64, wall).into()));
        out.record
            .push(("cycles_per_s", ratio(cycles as f64, wall).into()));
        out.record.push(("seeds", seeds.into()));
        out.record.push(("cycles", cycles.into()));
        out.record.push(("threads", threads.into()));
        out.record
            .push(("seeds_on_one_thread", cycle_s.len().into()));
        out.record.push(("digest", results_digest(&rounds).into()));
        return out;
    }

    let n_seeds = (args.seconds * TRACED_SEEDS_PER_S).ceil().max(1.0) as usize;
    let plain = plain_round(args, &mut out, 0, n_seeds, threads);
    let again = plain_round(args, &mut out, 0, n_seeds, 1);
    check(
        &mut out,
        std::slice::from_ref(&plain),
        std::slice::from_ref(&again),
        threads,
    );

    // The traced pass drives the same seeds through the rebuilt loop, one
    // tracer per shard, merged in trial order.
    let shard = |ctx: &ShardCtx| {
        let mut tr = Tracer::new(true);
        tr.set_run(u32::try_from(ctx.trial.index).unwrap_or(u32::MAX));
        let config = CaseStudyConfig::fast_demo(ctx.trial.seed);
        let result = tr.span("simkit::Supervisor::shard", |tr| {
            let mut inst = provision(&config, tr)?;
            let run = drive(&mut inst, &config, tr)?;
            Ok::<_, ssdhammer_cloud::CloudError>((run, inst.write_amp()))
        });
        (result.map_err(|e| e.to_string()), tr)
    };
    let (report, traced_wall) = timed(|| supervisor(args, 0, threads).run(n_seeds, shard));
    if report.degraded() {
        out.fail("traced round: degraded");
    }
    let mut tr = Tracer::new(true);
    let mut runs: Vec<AttackRun> = Vec::new();
    let mut write_amp = Vec::new();
    for (i, outcome) in report.outcomes.into_iter().enumerate() {
        let Some((result, shard_tr)) = outcome.into_value() else {
            continue;
        };
        tr.absorb(shard_tr);
        let want = plain.seeds.get(i).and_then(|s| s.result.as_ref().ok());
        match result {
            Ok((run, wa)) => {
                if want.map(|(k, _)| k) != Some(&run.key()) {
                    out.fail(format!(
                        "seed {i}: rebuilt loop differs from run_case_study"
                    ));
                }
                runs.push(run);
                write_amp.push(wa);
            }
            Err(e) => out.fail(format!("seed {i}: {e}")),
        }
    }

    let refs: Vec<&AttackRun> = runs.iter().collect();
    let mut layer = LayerMetrics::attack(&tr, &refs, runs.len());
    layer.write_amp = ratio(write_amp.iter().sum(), write_amp.len() as f64);
    let seed_s: Vec<f64> = plain.seeds.iter().map(|s| s.host_s).collect();
    layer.shard_s_p50 = quantile(&seed_s, 0.5);
    layer.parallel_eff = ratio(seed_s.iter().sum(), threads as f64 * plain.wall_s);
    layer.sup_retries = plain.retries as f64;
    layer.sup_timeouts = plain.timeouts as f64;
    layer.trace_overhead = ratio(traced_wall, plain.wall_s) - 1.0;
    let probes = probes::measure(args.seed);
    let phases: Vec<_> = tr
        .phase_counts()
        .iter()
        .map(|(&name, c)| (name, tr.total(name).total_s, c.clone()))
        .collect();
    let ledger = Ledger::build(&probes, &phases);
    layer.emit(&mut out, &probes, &ledger);
    out.record.push(("seeds", seed_s.len().into()));
    out.record.push(("threads", threads.into()));
    out.record.push((
        "digest",
        results_digest(std::slice::from_ref(&plain)).into(),
    ));
    out.trace = Some(Json::obj([
        ("ledger", ledger.detail),
        ("spans", tr.to_json()),
    ]));
    out
}
