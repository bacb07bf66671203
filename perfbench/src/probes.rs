//! Per-layer ns/op probes and the cost ledger built from them.
//!
//! Each probe times one public call in a tight loop on a small device.
//! Probes nest along the read path (an FTL read performs an L2P lookup,
//! which reads DRAM), so each layer's *exclusive* cost subtracts the inner
//! probe times its call ratio, measured by counter deltas during the probe.
//! A phase's ledger entry for a layer is that layer's operation count in the
//! phase times its exclusive cost; what the read-path probes do not explain
//! (writes, trims, allocation, harness glue) is the unexplained remainder.

use std::hint::black_box;

use ssdhammer_cloud::{PartitionView, SharedSsd};
use ssdhammer_fs::{AddressingMode, Credentials, FileSystem};
use ssdhammer_nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer_simkit::json::Json;
use ssdhammer_simkit::telemetry::Telemetry;
use ssdhammer_simkit::{crc32c, BlockDevice, DramAddr, Lba, BLOCK_SIZE};

use crate::trace::{add_delta, read_counters, timed, Counts};

/// Inclusive ns/op of each probe, and the call ratios between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `DramModule::read` of one 4-byte L2P entry.
    pub dram_read_ns: f64,
    /// `Ftl::entry_read` on a mapped LBA.
    pub l2p_lookup_ns: f64,
    /// `Ftl::read` of a mapped LBA.
    pub ftl_read_ns: f64,
    /// One read command through submit → process → pop on a QD1 queue.
    pub nvme_roundtrip_ns: f64,
    /// `FileSystem::read_file_block` of an extent-mapped file.
    pub fs_read_block_ns: f64,
    /// CRC-32C over one 4 KiB block.
    pub crc32c_4k_ns: f64,
    /// DRAM reads per L2P lookup.
    pub dram_per_l2p: f64,
    /// L2P lookups per mapped FTL read.
    pub l2p_per_ftl_read: f64,
    /// Device block reads per `read_file_block`.
    pub dev_reads_per_fs_read: f64,
}

const PROBE_LBAS: u64 = 4096;
const REPEATS: usize = 3;

/// Runs `n` calls of `op` `REPEATS` times and returns the fastest ns/op
/// plus the counter deltas of one repetition.
fn probe(n: u64, registries: &[&Telemetry], mut op: impl FnMut(u64)) -> (f64, Counts) {
    let mut best = f64::INFINITY;
    let mut delta = Counts::new();
    for _ in 0..REPEATS {
        let before = read_counters(registries);
        let ((), secs) = timed(|| (0..n).for_each(&mut op));
        let after = read_counters(registries);
        best = best.min(secs * 1e9 / n as f64);
        delta.clear();
        add_delta(&mut delta, &before, &after);
    }
    (best, delta)
}

fn per(delta: &Counts, counter: &str, n: u64) -> f64 {
    delta.get(counter).copied().unwrap_or(0) as f64 / n as f64
}

/// Measures every probe on a fresh `SsdConfig::test_small(seed)` device.
///
/// # Panics
///
/// Panics if the probe device rejects an operation, which would be a
/// simulator bug: every probe address is in range and mapped.
#[must_use]
pub fn measure(seed: u64) -> Probes {
    let mut ssd = Ssd::build(SsdConfig::test_small(seed));
    let tel = ssd.telemetry();
    let regs = [&tel];
    let ns = ssd
        .create_namespace(PROBE_LBAS)
        .expect("probe namespace fits");
    {
        let mut view = ssd.namespace(ns).expect("namespace exists");
        for lba in 0..PROBE_LBAS {
            view.write(Lba(lba), &[(lba % 251) as u8; BLOCK_SIZE])
                .expect("probe prefill");
        }
    }
    let entry = |i: u64| Lba(i.wrapping_mul(2_654_435_761) % PROBE_LBAS);
    let mut word = [0u8; 4];
    let (dram_read_ns, _) = probe(400_000, &regs, |i| {
        let addr = DramAddr((i.wrapping_mul(2_654_435_761) % PROBE_LBAS) * 4);
        ssd.ftl_mut()
            .dram_mut()
            .read(addr, &mut word)
            .expect("L2P table address");
        black_box(&word);
    });
    let (l2p_lookup_ns, d) = probe(400_000, &regs, |i| {
        black_box(ssd.ftl_mut().entry_read(entry(i)).expect("mapped entry"));
    });
    let dram_per_l2p = per(&d, "dram.reads", 400_000);
    let mut buf = [0u8; BLOCK_SIZE];
    let (ftl_read_ns, d) = probe(200_000, &regs, |i| {
        black_box(ssd.ftl_mut().read(entry(i), &mut buf).expect("mapped read"));
    });
    let l2p_per_ftl_read = per(&d, "ftl.l2p_reads", 200_000);
    let qp = ssd.create_queue_pair(1);
    let (nvme_roundtrip_ns, _) = probe(100_000, &regs, |i| {
        let done = ssd
            .roundtrip(qp, Command::Read { ns, lba: entry(i) })
            .expect("queue accepts one command");
        if let CmdResult::Read { data, .. } = done.result {
            ssd.recycle_buffer(data);
        }
    });

    let shared = SharedSsd::new(Ssd::build(SsdConfig::test_small(seed)));
    let (part, _) = shared.create_partition(PROBE_LBAS).expect("partition fits");
    let mut fs = FileSystem::format(PartitionView::new(shared.clone(), part)).expect("format");
    let root = Credentials::root();
    let ino = fs
        .create("/probe", root, 0o644, AddressingMode::Extents)
        .expect("create probe file");
    for b in 0..8u32 {
        fs.write_file_block(ino, root, b, &[b as u8; BLOCK_SIZE])
            .expect("write probe file");
    }
    let fs_tel = fs.shared_telemetry();
    let (fs_read_block_ns, d) = probe(100_000, &[&fs_tel], |i| {
        black_box(
            fs.read_file_block(ino, root, (i % 8) as u32)
                .expect("read probe file"),
        );
    });
    let dev_reads_per_fs_read = per(&d, "fs.block_reads", 100_000);

    let block: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 7 % 256) as u8).collect();
    let (crc32c_4k_ns, _) = probe(200_000, &[], |i| {
        black_box(crc32c(black_box(&block[..])) ^ i as u32);
    });
    Probes {
        dram_read_ns,
        l2p_lookup_ns,
        ftl_read_ns,
        nvme_roundtrip_ns,
        fs_read_block_ns,
        crc32c_4k_ns,
        dram_per_l2p,
        l2p_per_ftl_read,
        dev_reads_per_fs_read,
    }
}

/// A ledger row: a layer's exclusive cost and the counter that counts its
/// operations.
struct Layer {
    name: &'static str,
    counter: &'static str,
    exclusive_ns: f64,
}

impl Probes {
    fn layers(&self) -> [Layer; 5] {
        let dev = self.dev_reads_per_fs_read.max(1.0);
        [
            Layer {
                name: "dram",
                counter: "dram.reads",
                exclusive_ns: self.dram_read_ns,
            },
            Layer {
                name: "l2p",
                counter: "ftl.l2p_reads",
                exclusive_ns: (self.l2p_lookup_ns - self.dram_per_l2p * self.dram_read_ns).max(0.0),
            },
            Layer {
                name: "ftl",
                counter: "ftl.host_reads",
                exclusive_ns: (self.ftl_read_ns - self.l2p_per_ftl_read * self.l2p_lookup_ns)
                    .max(0.0),
            },
            Layer {
                name: "nvme",
                counter: "nvme.completions",
                exclusive_ns: (self.nvme_roundtrip_ns - self.ftl_read_ns).max(0.0),
            },
            Layer {
                name: "fs",
                counter: "fs.block_reads",
                exclusive_ns: ((self.fs_read_block_ns - dev * self.ftl_read_ns) / dev).max(0.0),
            },
        ]
    }

    /// The probes as `(metric, ns/op)` pairs.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, f64); 6] {
        [
            ("probe.dram_read_ns", self.dram_read_ns),
            ("probe.l2p_lookup_ns", self.l2p_lookup_ns),
            ("probe.ftl_read_ns", self.ftl_read_ns),
            ("probe.nvme_roundtrip_ns", self.nvme_roundtrip_ns),
            ("probe.fs_read_block_ns", self.fs_read_block_ns),
            ("probe.crc32c_4k_ns", self.crc32c_4k_ns),
        ]
    }
}

/// The ledger over `phases`: `(phase, measured host seconds, counter
/// deltas)`. Aggregated hammer bursts count millions of reads and L2P
/// lookups whose cost is modelled in bulk, so the `hammer` phase gets no
/// per-operation estimate: its host time is all unexplained.
pub struct Ledger {
    /// Estimated seconds per layer, summed over phases.
    pub est_s: Vec<(&'static str, f64)>,
    /// Measured host seconds, summed over phases.
    pub host_s: f64,
    /// Per-phase detail for the trace document.
    pub detail: Json,
}

impl Ledger {
    /// Builds the ledger for `phases` with the exclusive costs of `probes`.
    #[must_use]
    pub fn build(probes: &Probes, phases: &[(&'static str, f64, Counts)]) -> Ledger {
        let layers = probes.layers();
        let mut est_s: Vec<(&'static str, f64)> = layers.iter().map(|l| (l.name, 0.0)).collect();
        let mut host_s = 0.0;
        let mut rows = Vec::new();
        for (phase, secs, counts) in phases {
            host_s += secs;
            let mut explained = 0.0;
            let mut row = vec![("host_s", Json::from(*secs))];
            for (i, layer) in layers.iter().enumerate() {
                let n = if *phase == "hammer" {
                    0
                } else {
                    counts.get(layer.counter).copied().unwrap_or(0)
                };
                let est = n as f64 * layer.exclusive_ns * 1e-9;
                est_s[i].1 += est;
                explained += est;
                row.push((layer.name, Json::from(est)));
            }
            row.push(("unexplained_s", Json::from(secs - explained)));
            rows.push((*phase, Json::obj(row)));
        }
        Ledger {
            est_s,
            host_s,
            detail: Json::obj(rows),
        }
    }

    /// Host seconds the layer estimates do not account for.
    #[must_use]
    pub fn unexplained_s(&self) -> f64 {
        self.host_s - self.est_s.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// The estimate for `layer`, merging the L2P lookup into the FTL row.
    #[must_use]
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.est_s
            .iter()
            .filter(|(name, _)| *name == layer || (layer == "ftl" && *name == "l2p"))
            .map(|(_, s)| s)
            .sum()
    }
}
