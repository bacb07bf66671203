//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <ext4_leak|block_mixed|seed_sweep> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced for `S` host seconds and the
//! last stdout line reports the end-to-end metrics. With `--trace 1` it runs
//! a fixed amount of work (sized from `S`) twice — untraced, then traced —
//! and reports per-layer metrics. Every run checks the simulator's outputs.
//! `perfbench/README.md` defines each metric.

#![forbid(unsafe_code)]

mod attack;
mod block_mixed;
mod ext4_leak;
mod layers;
mod probes;
mod seed_sweep;
mod trace;

use std::process::ExitCode;

use ssdhammer_simkit::json::Json;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Host seconds one untraced run measures.
    pub seconds: f64,
    /// Traced pass instead of the end-to-end one.
    pub trace: bool,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Ext4Leak,
    BlockMixed,
    SeedSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ext4_leak" => Some(Workload::Ext4Leak),
            "block_mixed" => Some(Workload::BlockMixed),
            "seed_sweep" => Some(Workload::SeedSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ext4Leak => "ext4_leak",
            Workload::BlockMixed => "block_mixed",
            Workload::SeedSweep => "seed_sweep",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-OK completions, oracle mismatches, phase
    /// calls returning `Err`, degraded shards, parity mismatches.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the simulated results and the work they cover.
    pub record: Vec<(&'static str, Json)>,
    /// The trace document (traced runs only).
    pub trace: Option<Json>,
    /// Peak RSS read at a fixed point of the work; when unset it is read
    /// at the end of the run.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Host time of one throughput chunk. A run's throughput is the median of
/// its chunks' rates, so a burst of host contention that covers less than
/// half the run leaves it unmoved.
pub const CHUNK_S: f64 = 1.0;

/// Rates of consecutive chunks of `samples` (`(work, host seconds)` in run
/// order), each chunk at least [`CHUNK_S`] long. A trailing short chunk
/// joins the one before it.
#[must_use]
pub fn chunk_rates(samples: impl IntoIterator<Item = (f64, f64)>) -> Vec<f64> {
    let mut chunks: Vec<(f64, f64)> = Vec::new();
    let mut open = (0.0, 0.0);
    for (work, secs) in samples {
        open = (open.0 + work, open.1 + secs);
        if open.1 >= CHUNK_S {
            chunks.push(std::mem::take(&mut open));
        }
    }
    match chunks.last_mut() {
        Some(last) if open.1 > 0.0 => *last = (last.0 + open.0, last.1 + open.1),
        None => chunks.push(open),
        _ => {}
    }
    chunks.iter().map(|&(w, s)| ratio(w, s)).collect()
}

/// Reports `throughput` as the median of `chunk_rates`, and the chunk rates
/// in the record.
pub fn report_throughput(out: &mut Outcome, chunk_rates: Vec<f64>) {
    out.metric("throughput", quantile(&chunk_rates, 0.5), "1/s");
    out.record
        .push(("throughput_chunks", Json::arr(chunk_rates)));
}

/// `num / den`, or zero when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over `bytes`, as 16 hex digits.
#[must_use]
pub fn digest_bytes(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// [`digest_bytes`] of `text`.
#[must_use]
pub fn digest(text: &str) -> String {
    digest_bytes(text.as_bytes())
}

/// Worker threads for supervised sweeps: the host's parallelism.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload {
        Workload::Ext4Leak => ext4_leak::run(&args),
        Workload::BlockMixed => block_mixed::run(&args),
        Workload::SeedSweep => seed_sweep::run(&args),
    };
    if out.attempted == 0 {
        out.fail("no operation was attempted");
    }
    if !args.trace {
        match out.peak_rss_mb.or_else(peak_rss_mb) {
            Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
            None => out.fail("VmHWM missing from /proc/self/status"),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let mut record = vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::from(args.trace)),
        (
            "machine",
            Json::obj([
                ("nproc", Json::from(host_threads())),
                ("cpu_model", Json::from(cpu_model())),
            ]),
        ),
        (
            "validation",
            Json::from(
                "unranked: the simulator is not validated against hardware; \
                 host times compare commits on one machine only",
            ),
        ),
    ];
    record.extend(std::mem::take(&mut out.record));
    if let Some(trace) = out.trace.take() {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let doc = Json::obj([("record", Json::obj(record.clone())), ("trace", trace)]);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_string())) {
            Ok(()) => record.push(("trace_file", Json::from(path.display().to_string()))),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
    println!("{}", Json::obj([("record", Json::obj(record))]));

    let correct = out.problems.is_empty();
    let metrics = Json::obj(out.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(out.attempted.max(1))),
            ("failed", Json::from(out.failed)),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
