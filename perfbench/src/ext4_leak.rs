//! `ext4_leak`: the §4.2 spray → hammer → scan → clear loop on
//! `CaseStudyConfig::paper_prototype`, one closed-loop attacker.
//!
//! Untraced runs call `run_case_study` itself on fresh instances (derived
//! seeds), each capped at [`CYCLES_PER_INSTANCE`] cycles, until `--seconds`
//! of host time is spent. Traced runs drive the rebuilt loop in
//! `crate::attack` instead, so each call can be timed, and hold every
//! report it makes to `run_case_study`'s.

use ssdhammer_cloud::{run_case_study, CaseStudyConfig};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::rng::derive_seed;

use crate::attack::{drive, outcome_key, provision, reference_key, AttackRun};
use crate::layers::LayerMetrics;
use crate::probes::{self, Ledger};
use crate::trace::{timed, Tracer};
use crate::{chunk_rates, digest, quantile, ratio, report_throughput, Args, Outcome};

/// Provisionings timed before the first untraced instance and after each
/// one. Spreading set-up samples over the run puts them under the same host
/// conditions as the instances.
const SETUP_PER_INSTANCE: usize = 6;
/// Cycle cap of each untraced instance: every instance runs the loop
/// through a clear and a second spray, and a 30 s run fits about six.
const CYCLES_PER_INSTANCE: u32 = 2;
/// Traced runs do a fixed number of attack cycles per second of
/// `--seconds`.
const TRACED_CYCLES_PER_S: f64 = 0.2;

fn config(seed: u64, instance: u32) -> CaseStudyConfig {
    CaseStudyConfig::paper_prototype(derive_seed(seed, "ext4_leak", u64::from(instance)))
}

/// One untraced instance: its result key, the cycles it reported and its
/// host seconds less the median set-up time.
struct Instance {
    key: String,
    cycles: usize,
    cycle_s: f64,
}

/// Times `SETUP_PER_INSTANCE` provisionings of the first instance's config.
fn setup_samples(args: &Args, out: &mut Outcome, samples: &mut Vec<f64>) {
    let mut off = Tracer::new(false);
    for _ in 0..SETUP_PER_INSTANCE {
        let (inst, secs) = timed(|| provision(&config(args.seed, 0), &mut off));
        samples.push(secs);
        if let Err(e) = inst {
            out.fail(format!("provisioning: {e}"));
        }
    }
}

/// Runs capped `run_case_study` instances until `--seconds` of cycle time
/// is spent, timing provisionings between them. An instance's cycle time is
/// its host time less the median set-up time measured before it.
fn run_instances(args: &Args, setup_s: &mut Vec<f64>, out: &mut Outcome) -> Vec<Instance> {
    let mut done = Vec::new();
    let mut spent = 0.0;
    let mut instance = 0u32;
    setup_samples(args, out, setup_s);
    while spent < args.seconds && out.problems.is_empty() {
        let mut config = config(args.seed, instance);
        config.max_cycles = CYCLES_PER_INSTANCE;
        let (result, secs) = timed(|| run_case_study(&config));
        // Memory grows with the cycles run (flash pages hold data until
        // garbage collection), so peak RSS is read after fixed work.
        if out.peak_rss_mb.is_none() {
            out.peak_rss_mb = crate::peak_rss_mb();
        }
        let cycle_s = (secs - quantile(setup_s, 0.5)).max(0.0);
        spent += cycle_s;
        setup_samples(args, out, setup_s);
        match result {
            Ok(o) => {
                out.attempted += o.cycles.len().max(1) as u64;
                done.push(Instance {
                    key: outcome_key(&o),
                    cycles: o.cycles.len(),
                    cycle_s,
                });
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("instance {instance}: run_case_study: {e}"));
                break;
            }
        }
        instance += 1;
    }
    done
}

/// One instance of the rebuilt loop: the config that reproduces it with
/// `run_case_study`, and what the loop reported.
struct Driven {
    config: CaseStudyConfig,
    run: AttackRun,
    write_amp: f64,
}

/// Provisions and drives instances of the rebuilt loop until `cycles`
/// cycles have started.
fn drive_instances(args: &Args, tr: &mut Tracer, cycles: u32, out: &mut Outcome) -> Vec<Driven> {
    let mut done = Vec::new();
    let mut started = 0;
    let mut instance = 0u32;
    while started < cycles {
        let mut config = config(args.seed, instance);
        config.max_cycles = config.max_cycles.min(cycles - started);
        tr.set_run(instance);
        let run = provision(&config, tr).and_then(|mut inst| {
            let run = drive(&mut inst, &config, tr)?;
            Ok((run, inst.write_amp()))
        });
        let (run, write_amp) = match run {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("instance {instance}: {e}"));
                break;
            }
        };
        started += run.attempted_cycles;
        config.max_cycles = run.attempted_cycles;
        done.push(Driven {
            config,
            run,
            write_amp,
        });
        instance += 1;
    }
    done
}

/// Holds every instance of each pass to `run_case_study` at its config.
fn check_parity(out: &mut Outcome, passes: &[&[Driven]]) {
    let Some(first) = passes.first() else { return };
    if passes.iter().any(|p| p.len() != first.len()) {
        out.fail("passes drove different instance counts");
    }
    for (i, d) in first.iter().enumerate() {
        match reference_key(&d.config) {
            Ok(want) => {
                for got in passes.iter().filter_map(|p| p.get(i)).map(|d| d.run.key()) {
                    if got != want {
                        out.fail(format!(
                            "instance {i}: rebuilt loop {got} differs from run_case_study {want}"
                        ));
                    }
                }
            }
            Err(e) => out.fail(format!("instance {i}: run_case_study: {e}")),
        }
    }
}

fn results_digest<'a>(keys: impl Iterator<Item = &'a str>) -> String {
    digest(&keys.collect::<Vec<_>>().join("\n"))
}

/// Runs the workload.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        let mut setup_s = Vec::new();
        let runs = run_instances(args, &mut setup_s, &mut out);
        // Host time per attack cycle of each instance that reported one.
        let cycle_s: Vec<f64> = runs
            .iter()
            .filter(|r| r.cycles > 0)
            .map(|r| r.cycle_s / r.cycles as f64)
            .collect();
        let cycles: usize = runs.iter().map(|r| r.cycles).sum();
        let host_s: f64 = runs.iter().map(|r| r.cycle_s).sum();
        out.metric("setup_s", quantile(&setup_s, 0.5), "s");
        out.record
            .push(("setup_s_samples", Json::arr(setup_s.iter().copied())));
        report_throughput(
            &mut out,
            chunk_rates(runs.iter().map(|r| (r.cycles as f64, r.cycle_s))),
        );
        out.metric("latency_ms_p50", quantile(&cycle_s, 0.5) * 1e3, "ms");
        out.record
            .push(("cycles_per_s", ratio(cycles as f64, host_s).into()));
        out.record.push(("cycles", cycles.into()));
        out.record.push(("instances", runs.len().into()));
        out.record.push((
            "instance_cycle_s",
            Json::arr(runs.iter().map(|r| r.cycle_s)),
        ));
        out.record.push((
            "digest",
            results_digest(runs.iter().map(|r| r.key.as_str())).into(),
        ));
        return out;
    }

    let cycles = (args.seconds * TRACED_CYCLES_PER_S).ceil().max(2.0) as u32;
    let plain = drive_instances(args, &mut Tracer::new(false), cycles, &mut out);
    let mut tr = Tracer::new(true);
    let traced = drive_instances(args, &mut tr, cycles, &mut out);
    check_parity(&mut out, &[&plain, &traced]);
    out.attempted += u64::from(traced.iter().map(|d| d.run.attempted_cycles).sum::<u32>());

    let runs: Vec<&AttackRun> = traced.iter().map(|d| &d.run).collect();
    let mut layer = LayerMetrics::attack(&tr, &runs, traced.len());
    layer.write_amp = ratio(
        traced.iter().map(|d| d.write_amp).sum(),
        traced.len() as f64,
    );
    let plain_s: f64 = plain.iter().map(|d| d.run.host_s).sum();
    let traced_s: f64 = traced.iter().map(|d| d.run.host_s).sum();
    layer.trace_overhead = ratio(traced_s, plain_s) - 1.0;
    let probes = probes::measure(args.seed);
    let phases: Vec<_> = tr
        .phase_counts()
        .iter()
        .map(|(&name, c)| (name, tr.total(name).total_s, c.clone()))
        .collect();
    let ledger = Ledger::build(&probes, &phases);
    layer.emit(&mut out, &probes, &ledger);
    let keys: Vec<String> = traced.iter().map(|d| d.run.key()).collect();
    out.record.push(("cycles", cycles.into()));
    out.record.push(("instances", traced.len().into()));
    out.record.push((
        "digest",
        results_digest(keys.iter().map(String::as_str)).into(),
    ));
    out.trace = Some(Json::obj([
        ("ledger", ledger.detail),
        ("spans", tr.to_json()),
    ]));
    out
}
