//! The per-layer metrics of a traced run. Every workload reports the full
//! set; a layer the workload does not exercise reads zero (no spans of that
//! name closed, or no operations counted).

use crate::attack::AttackRun;
use crate::probes::{Ledger, Probes};
use crate::trace::{add_counts, Counts, Tracer};
use crate::{ratio, Outcome};

/// Values of every per-layer metric; see `perfbench/README.md`.
#[derive(Debug, Default, Clone)]
pub struct LayerMetrics {
    pub fs_spray_s: f64,
    pub fs_clear_s: f64,
    pub fs_reads_per_create: f64,
    pub fs_reads_per_unlink: f64,
    pub fs_writes_per_create: f64,
    pub recon_s: f64,
    pub hammer_s: f64,
    pub scan_s: f64,
    pub provision_s: f64,
    pub scan_hits_per_site: f64,
    pub nvme_submit_ns: f64,
    pub nvme_process_ns: f64,
    pub nvme_drain_ns: f64,
    pub nvme_inflight: f64,
    pub batch_us_p99: f64,
    pub l2p_reads: f64,
    pub write_amp: f64,
    pub gc_runs: f64,
    pub gc_relocated_per_run: f64,
    pub flash_reads: f64,
    pub flash_programs: f64,
    pub flash_erases: f64,
    pub flash_reads_per_host_read: f64,
    pub dram_act_per_l2p: f64,
    pub refresh_windows: f64,
    pub hammer_us_per_window: f64,
    pub flips: f64,
    pub shard_s_p50: f64,
    pub parallel_eff: f64,
    pub sup_retries: f64,
    pub sup_timeouts: f64,
    pub trace_overhead: f64,
}

fn get(c: &Counts, k: &str) -> f64 {
    c.get(k).copied().unwrap_or(0) as f64
}

impl LayerMetrics {
    /// Sets the FTL, flash and DRAM metrics from counter deltas `c`.
    pub fn counters(&mut self, c: &Counts) {
        self.l2p_reads = get(c, "ftl.l2p_reads");
        self.gc_runs = get(c, "ftl.gc_runs");
        self.gc_relocated_per_run = ratio(get(c, "ftl.gc_relocated"), self.gc_runs);
        self.flash_reads = get(c, "flash.reads");
        self.flash_programs = get(c, "flash.programs");
        self.flash_erases = get(c, "flash.erases");
        self.flash_reads_per_host_read = ratio(self.flash_reads, get(c, "ftl.host_reads"));
        self.dram_act_per_l2p = ratio(get(c, "dram.activations"), self.l2p_reads);
        self.refresh_windows = get(c, "dram.refresh_windows");
        self.flips = get(c, "dram.flips");
    }

    /// Metrics of traced attack runs (`ext4_leak`, `seed_sweep`): phase
    /// times per phase call, fs work per file, and counters summed over
    /// every phase but the hammer phase, whose aggregated bursts count
    /// millions of bulk-modelled reads. Flips and refresh windows do come
    /// from the hammer phase, so they sum over all phases.
    pub fn attack(tr: &Tracer, runs: &[&AttackRun], instances: usize) -> LayerMetrics {
        let mut m = LayerMetrics::default();
        let mean = |name: &str| {
            let t = tr.total(name);
            ratio(t.total_s, t.count as f64)
        };
        m.fs_spray_s = mean("spray");
        m.fs_clear_s = mean("clear");
        m.recon_s = mean("recon");
        m.hammer_s = mean("hammer");
        m.scan_s = mean("scan");
        m.provision_s = ratio(
            tr.total("cloud::VictimVm::provision_with").total_s
                + tr.total("cloud::AttackerVm::provision").total_s,
            instances as f64,
        );
        let cycles = runs.iter().flat_map(|r| &r.cycles);
        let created: usize = cycles.clone().map(|c| c.sprayed_files).sum();
        let unlinked: usize = cycles
            .clone()
            .filter(|c| !c.leaked_secret)
            .map(|c| c.sprayed_files)
            .sum();
        let hits: usize = cycles.clone().map(|c| c.scan_hits).sum();
        let sites: usize = cycles.map(|c| c.sites_hammered).sum();
        m.fs_reads_per_create = ratio(
            tr.phase_count("spray", "fs.block_reads") as f64,
            created as f64,
        );
        m.fs_writes_per_create = ratio(
            tr.phase_count("spray", "fs.block_writes") as f64,
            created as f64,
        );
        m.fs_reads_per_unlink = ratio(
            tr.phase_count("clear", "fs.block_reads") as f64,
            unlinked as f64,
        );
        m.scan_hits_per_site = ratio(hits as f64, sites as f64);

        let mut all = Counts::new();
        let mut lookups = Counts::new();
        for (&phase, c) in tr.phase_counts() {
            add_counts(&mut all, c);
            if phase != "hammer" {
                add_counts(&mut lookups, c);
            }
        }
        m.counters(&lookups);
        m.refresh_windows = get(&all, "dram.refresh_windows");
        m.flips = get(&all, "dram.flips");
        let windows: u64 = runs.iter().map(|r| r.hammer_windows).sum();
        m.hammer_us_per_window = ratio(tr.total("hammer").total_s * 1e6, windows as f64);
        m
    }

    /// Appends every per-layer metric, the probes and the ledger to `out`.
    pub fn emit(&self, out: &mut Outcome, probes: &Probes, ledger: &Ledger) {
        let rows: [(&'static str, f64, &'static str); 32] = [
            ("fs.spray.host_s", self.fs_spray_s, "s"),
            ("fs.clear.host_s", self.fs_clear_s, "s"),
            (
                "fs.block_reads_per_create",
                self.fs_reads_per_create,
                "count",
            ),
            (
                "fs.block_reads_per_unlink",
                self.fs_reads_per_unlink,
                "count",
            ),
            (
                "fs.block_writes_per_create",
                self.fs_writes_per_create,
                "count",
            ),
            ("recon.host_s", self.recon_s, "s"),
            ("hammer.host_s", self.hammer_s, "s"),
            ("scan.host_s", self.scan_s, "s"),
            ("cloud.provision.host_s", self.provision_s, "s"),
            (
                "attack.scan_hits_per_site",
                self.scan_hits_per_site,
                "ratio",
            ),
            ("nvme.submit.host_ns_per_cmd", self.nvme_submit_ns, "ns"),
            ("nvme.process.host_ns_per_cmd", self.nvme_process_ns, "ns"),
            ("nvme.drain.host_ns_per_cmd", self.nvme_drain_ns, "ns"),
            ("nvme.inflight_littles", self.nvme_inflight, "count"),
            ("nvme.batch_us_p99", self.batch_us_p99, "us"),
            ("ftl.l2p_reads", self.l2p_reads, "count"),
            ("ftl.write_amp", self.write_amp, "ratio"),
            ("ftl.gc_runs", self.gc_runs, "count"),
            (
                "ftl.gc_relocated_per_run",
                self.gc_relocated_per_run,
                "count",
            ),
            ("flash.reads", self.flash_reads, "count"),
            ("flash.programs", self.flash_programs, "count"),
            ("flash.erases", self.flash_erases, "count"),
            (
                "flash.reads_per_host_read",
                self.flash_reads_per_host_read,
                "ratio",
            ),
            (
                "dram.activations_per_l2p_read",
                self.dram_act_per_l2p,
                "ratio",
            ),
            ("dram.refresh_windows", self.refresh_windows, "count"),
            ("hammer.host_us_per_window", self.hammer_us_per_window, "us"),
            ("dram.flips", self.flips, "count"),
            ("supervisor.shard_s_p50", self.shard_s_p50, "s"),
            ("supervisor.parallel_eff", self.parallel_eff, "ratio"),
            ("supervisor.retries", self.sup_retries, "count"),
            ("supervisor.timeouts", self.sup_timeouts, "count"),
            ("trace.overhead", self.trace_overhead, "ratio"),
        ];
        for (name, value, unit) in rows {
            out.metric(name, value, unit);
        }
        for (name, ns) in probes.metrics() {
            out.metric(name, ns, "ns");
        }
        for (layer, name) in [
            ("fs", "ledger.fs.est_s"),
            ("nvme", "ledger.nvme.est_s"),
            ("ftl", "ledger.ftl.est_s"),
            ("dram", "ledger.dram.est_s"),
        ] {
            out.metric(name, ledger.layer_s(layer), "s");
        }
        out.metric("ledger.host_s", ledger.host_s, "s");
        out.metric("ledger.unexplained_s", ledger.unexplained_s(), "s");
    }
}
