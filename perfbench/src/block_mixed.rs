//! `block_mixed`: raw block I/O on one QD32 queue pair, closed loop, 70 %
//! reads / 25 % writes / 5 % trims at uniform LBAs over the whole exported
//! capacity of `SsdConfig::test_small`, pre-filled to 90 %. No filesystem:
//! the NVMe, FTL (with garbage collection in steady state), flash and DRAM
//! layers only.

use ssdhammer_nvme::{CmdResult, Command, Completion, NsId, QueuePairHandle, Ssd, SsdConfig};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::rng::{derive_seed, seeded, Rng, SimRng};
use ssdhammer_simkit::{Lba, BLOCK_SIZE};

use crate::layers::LayerMetrics;
use crate::probes::{self, Ledger};
use crate::trace::{read_counters, timed, Counts, Tracer};
use crate::{chunk_rates, digest, quantile, ratio, report_throughput, Args, Outcome};

const DEPTH: usize = 32;
/// Random-mix batches run after the pre-fill so garbage collection is in
/// steady state before measurement (part of set-up).
const WARMUP_BATCHES: u64 = 4_096;
const SETUP_SAMPLES: usize = 7;
/// Traced runs do a fixed amount of work: this many batches per second of
/// `--seconds`.
const TRACED_BATCHES_PER_S: f64 = 2_000.0;

/// A device with its namespace, queue pair, workload stream and shadow.
struct Rig {
    ssd: Ssd,
    ns: NsId,
    qp: QueuePairHandle,
    lbas: u64,
    rng: SimRng,
    /// Last byte written to each LBA; zero when unwritten or trimmed.
    shadow: Vec<u8>,
    stamp: u8,
    cmds: Vec<Command>,
    expect: Vec<Option<u8>>,
    done: Vec<Completion>,
    /// A block filled with the byte a read is checked against.
    pattern: Vec<u8>,
}

/// Counts of one stretch of batches.
#[derive(Debug, Default)]
struct Tally {
    batches: u64,
    commands: u64,
    failed: u64,
    first_problem: Option<String>,
    /// Host seconds of each submit → drain batch; generating commands and
    /// checking completions are not part of it.
    batch_s: Vec<f64>,
    batch_total_s: f64,
    sim_latency_ns: u128,
}

impl Rig {
    fn build(seed: u64) -> Result<Rig, String> {
        let mut ssd = Ssd::build(SsdConfig::test_small(derive_seed(
            seed,
            "block_mixed.device",
            0,
        )));
        let lbas = ssd.free_capacity_blocks();
        let ns = ssd.create_namespace(lbas).map_err(|e| e.to_string())?;
        let qp = ssd.create_queue_pair(DEPTH);
        let mut rig = Rig {
            ssd,
            ns,
            qp,
            lbas,
            rng: seeded(derive_seed(seed, "block_mixed.ops", 0)),
            shadow: vec![0; lbas as usize],
            stamp: 0,
            cmds: Vec::with_capacity(DEPTH),
            expect: Vec::with_capacity(DEPTH),
            done: Vec::with_capacity(DEPTH),
            pattern: vec![0; BLOCK_SIZE],
        };
        let fill = lbas * 9 / 10;
        let mut tally = Tally::default();
        for start in (0..fill).step_by(DEPTH) {
            for lba in start..(start + DEPTH as u64).min(fill) {
                rig.push_write(lba);
            }
            rig.batch(&mut tally, &mut Tracer::new(false));
        }
        for _ in 0..WARMUP_BATCHES {
            rig.fill_mix();
            rig.batch(&mut tally, &mut Tracer::new(false));
        }
        match tally.first_problem {
            Some(p) => Err(format!("set-up: {p}")),
            None => Ok(rig),
        }
    }

    fn push_write(&mut self, lba: u64) {
        self.stamp = self.stamp % 255 + 1;
        self.shadow[lba as usize] = self.stamp;
        self.cmds.push(Command::Write {
            ns: self.ns,
            lba: Lba(lba),
            data: vec![self.stamp; BLOCK_SIZE].into_boxed_slice(),
        });
        self.expect.push(None);
    }

    /// Queues one QD32 batch of the 70/25/5 mix, recording what each read
    /// must return given the commands queued before it.
    fn fill_mix(&mut self) {
        for _ in 0..DEPTH {
            let lba = self.rng.gen_range(0..self.lbas);
            let roll = self.rng.gen_range(0..100u32);
            if roll < 70 {
                self.cmds.push(Command::Read {
                    ns: self.ns,
                    lba: Lba(lba),
                });
                self.expect.push(Some(self.shadow[lba as usize]));
            } else if roll < 95 {
                self.push_write(lba);
            } else {
                self.shadow[lba as usize] = 0;
                self.cmds.push(Command::Trim {
                    ns: self.ns,
                    lba: Lba(lba),
                });
                self.expect.push(None);
            }
        }
    }

    /// Submits the queued batch, services it, drains it, and checks every
    /// completion against the shadow.
    fn batch(&mut self, tally: &mut Tally, tr: &mut Tracer) {
        let n = self.cmds.len() as u64;
        let ((submitted, processed), secs) = timed(|| {
            tr.span("batch", |tr| {
                let submitted = tr.span("nvme::Ssd::submit_batch", |_| {
                    self.ssd.submit_batch(self.qp, &self.cmds)
                });
                let processed = tr.span("nvme::Ssd::process_all", |_| self.ssd.process_all());
                tr.span("nvme::Ssd::drain_completions_into", |_| {
                    self.ssd.drain_completions_into(self.qp, &mut self.done)
                })
                .map(|()| (submitted, processed))
                .unwrap_or_else(|e| (Err(e), processed))
            })
        });
        tally.batches += 1;
        tally.commands += n;
        tally.batch_s.push(secs);
        tally.batch_total_s += secs;
        let mut problem = None;
        if let Err(e) = submitted {
            problem = Some(format!("submit_batch: {e}"));
        } else if processed != n || self.done.len() as u64 != n {
            problem = Some(format!(
                "{n} submitted, {processed} processed, {} drained",
                self.done.len()
            ));
        }
        if problem.is_some() {
            tally.failed += n;
        }
        for (c, want) in self.done.drain(..).zip(self.expect.drain(..)) {
            tally.sim_latency_ns += u128::from(c.latency().as_nanos());
            let bad = match (c.result, want) {
                (CmdResult::Read { data, .. }, Some(v)) => {
                    self.pattern.fill(v);
                    let ok = *data == *self.pattern;
                    self.ssd.recycle_buffer(data);
                    (!ok).then(|| format!("read cid {} does not match its shadow byte {v}", c.cid))
                }
                (CmdResult::Write, None) | (CmdResult::Trim, None) => None,
                (other, _) => Some(format!("cid {}: unexpected completion {other:?}", c.cid)),
            };
            if let Some(b) = bad {
                tally.failed += 1;
                problem.get_or_insert(b);
            }
        }
        self.cmds.clear();
        self.expect.clear();
        if tally.first_problem.is_none() {
            tally.first_problem = problem;
        }
    }

    /// Runs mixed batches until `stop` says so.
    fn run(&mut self, tr: &mut Tracer, mut stop: impl FnMut(&Tally) -> bool) -> Tally {
        let mut tally = Tally::default();
        while !stop(&tally) {
            self.fill_mix();
            self.batch(&mut tally, tr);
        }
        tally
    }

    /// Digest of the simulated results: every shadow byte, the simulated
    /// clock and the FTL's write amplification.
    fn digest(&self) -> String {
        digest(&format!(
            "{:?}|{}|{:.6}",
            self.shadow,
            self.ssd.clock().now().as_nanos(),
            self.ssd.ftl().write_amplification()
        ))
    }
}

fn setup(args: &Args, out: &mut Outcome) -> Option<(Rig, Vec<f64>)> {
    let mut samples = Vec::new();
    loop {
        let (built, secs) = timed(|| Rig::build(args.seed));
        samples.push(secs);
        match built {
            Ok(r) if samples.len() == SETUP_SAMPLES => return Some((r, samples)),
            // Dropped before the next build, so peak RSS sees one rig.
            Ok(_) => {}
            Err(e) => {
                out.fail(e);
                return None;
            }
        }
    }
}

fn check(out: &mut Outcome, tally: &Tally) {
    out.attempted += tally.commands;
    out.failed += tally.failed;
    if let Some(p) = &tally.first_problem {
        out.problems.push(p.clone());
    }
}

/// Runs the workload.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some((mut rig, setup_s)) = setup(args, &mut out) else {
        return out;
    };
    if !args.trace {
        let seconds = args.seconds;
        let tally = rig.run(&mut Tracer::new(false), |t| t.batch_total_s >= seconds);
        check(&mut out, &tally);
        let kiops = ratio(tally.commands as f64, tally.batch_total_s) / 1e3;
        out.metric("setup_s", quantile(&setup_s, 0.5), "s");
        out.record
            .push(("setup_s_samples", Json::arr(setup_s.iter().copied())));
        report_throughput(
            &mut out,
            chunk_rates(tally.batch_s.iter().map(|&s| (DEPTH as f64, s))),
        );
        out.metric("latency_ms_p50", quantile(&tally.batch_s, 0.5) * 1e3, "ms");
        out.record.push(("io_kiops", kiops.into()));
        out.record
            .push(("batch_us_p50", (quantile(&tally.batch_s, 0.5) * 1e6).into()));
        out.record.push((
            "batch_us_p99",
            (quantile(&tally.batch_s, 0.99) * 1e6).into(),
        ));
        out.record.push(("batches", tally.batches.into()));
        out.record
            .push(("write_amp", rig.ssd.ftl().write_amplification().into()));
        out.record.push(("digest", rig.digest().into()));
        return out;
    }

    // Traced: the same fixed number of batches on two identical rigs, one
    // untraced and one traced; their simulated results must agree.
    let batches = (args.seconds * TRACED_BATCHES_PER_S).ceil() as u64;
    let plain = rig.run(&mut Tracer::new(false), |t| t.batches >= batches);
    check(&mut out, &plain);
    let plain_digest = rig.digest();
    let Ok(mut rig) = Rig::build(args.seed) else {
        out.fail("second rig failed to build");
        return out;
    };
    let mut tr = Tracer::new(true);
    let tel = rig.ssd.telemetry();
    let before = read_counters(&[&tel]);
    let t0 = rig.ssd.clock().now();
    let traced = tr.phase("io", &[&tel], |tr| rig.run(tr, |t| t.batches >= batches));
    let sim_s = rig.ssd.clock().now().saturating_since(t0).as_secs_f64();
    check(&mut out, &traced);
    let traced_digest = rig.digest();
    if traced_digest != plain_digest {
        out.fail(format!(
            "traced run digest {traced_digest} differs from untraced {plain_digest}"
        ));
    }
    let mut c = Counts::new();
    crate::trace::add_delta(&mut c, &before, &read_counters(&[&tel]));
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;

    let cmds = traced.commands as f64;
    let probes = probes::measure(args.seed);
    let ledger = Ledger::build(&probes, &[("io", tr.total("io").total_s, c.clone())]);
    let mean_latency_s = traced.sim_latency_ns as f64 * 1e-9 / cmds;
    let ns_per_cmd = |name: &str| ratio(tr.total(name).total_s * 1e9, cmds);
    let mut layer = LayerMetrics {
        nvme_submit_ns: ns_per_cmd("nvme::Ssd::submit_batch"),
        nvme_process_ns: ns_per_cmd("nvme::Ssd::process_all"),
        nvme_drain_ns: ns_per_cmd("nvme::Ssd::drain_completions_into"),
        nvme_inflight: mean_latency_s * ratio(cmds, sim_s),
        batch_us_p99: quantile(&traced.batch_s, 0.99) * 1e6,
        write_amp: rig.ssd.ftl().write_amplification(),
        trace_overhead: ratio(traced.batch_total_s, plain.batch_total_s) - 1.0,
        ..LayerMetrics::default()
    };
    layer.counters(&c);
    layer.emit(&mut out, &probes, &ledger);
    out.record.push(("batches", batches.into()));
    out.record.push(("sim_s", sim_s.into()));
    out.record.push(("flash_reads", get("flash.reads").into()));
    out.record.push(("digest", traced_digest.into()));
    out.trace = Some(Json::obj([
        ("ledger", ledger.detail),
        ("spans", tr.to_json()),
    ]));
    out
}
