//! The assembled SSD: DRAM + flash + FTL behind an NVMe-ish front end with
//! namespaces, queue pairs, service-rate modeling, and IOPS accounting.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ssdhammer_dram::{
    DramGeometry, DramModule, EccConfig, HammerOptions, HammerReport, MappingKind, ModuleProfile,
    ParaConfig, TrrConfig,
};
use ssdhammer_flash::{FlashArray, FlashGeometry, FlashTiming};
use ssdhammer_ftl::{Ftl, FtlConfig, FtlError, ReadOutcome};
use ssdhammer_simkit::{
    faultplane::{FaultPlane, FaultPlaneConfig},
    telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Telemetry, TelemetrySnapshot},
    BlockDevice, Lba, SimClock, SimDuration, SimTime, StorageError, StorageResult, BLOCK_SIZE,
};

use crate::command::{
    CmdResult, Command, Completion, ControllerConfig, HealthLog, NsId, NvmeError, QpId,
    QueuePairHandle, RetryPolicy,
};

// Background patrol-scrubber schedule. Every `SCRUB_INTERVAL` of simulated
// time the controller steals a slice of its service capacity to run one
// [`Ftl::scrub_chunk`]: `SCRUB_CHUNK_ENTRIES` L2P entries are read through
// the verified path (DRAM ECC and the integrity plane classify and repair
// what they can) and `SCRUB_FLASH_READS` patrol reads sweep mapped flash
// pages through the recovery path. One 512-entry chunk plus two patrol
// reads every 50 ms sweeps a 4 Ki-entry table in under half a second while
// costing the controller well under 1% of its service capacity. The stolen
// slice shows up in [`Ssd::max_iops`] as a duty-cycle reduction — scrubbing
// is not free, which is exactly the trade §5's mitigation discussion prices.
const SCRUB_INTERVAL: SimDuration = SimDuration::from_millis(50);
const SCRUB_CHUNK_ENTRIES: u64 = 512;
const SCRUB_FLASH_READS: u32 = 2;

/// Fraction of controller service time the scrubber consumes, given the
/// device's flash read latency: the duty cycle [`Ssd::max_iops`]
/// subtracts. An uncached L2P entry check costs one DRAM activation
/// (~60 ns); a patrol read costs a full tR + transfer.
fn scrub_duty(flash_read: SimDuration) -> f64 {
    const ENTRY_CHECK_NANOS: f64 = 60.0;
    let busy = (SCRUB_CHUNK_ENTRIES as f64).mul_add(
        ENTRY_CHECK_NANOS,
        f64::from(SCRUB_FLASH_READS) * flash_read.as_nanos() as f64,
    );
    (busy / SCRUB_INTERVAL.as_nanos() as f64).min(0.9)
}

/// Full device configuration.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// On-board DRAM organization.
    pub dram_geometry: DramGeometry,
    /// DRAM vulnerability profile.
    pub dram_profile: ModuleProfile,
    /// Memory-controller address mapping.
    pub dram_mapping: MappingKind,
    /// Optional SEC-DED ECC on the DRAM.
    pub ecc: Option<EccConfig>,
    /// Optional TRR on the DRAM.
    pub trr: Option<TrrConfig>,
    /// Optional PARA (probabilistic adjacent-row activation) on the DRAM.
    pub para: Option<ParaConfig>,
    /// Background patrol scrubber on or off.
    pub scrubber: bool,
    /// NAND organization.
    pub flash_geometry: FlashGeometry,
    /// NAND latencies.
    pub flash_timing: FlashTiming,
    /// FTL policy.
    pub ftl: FtlConfig,
    /// Controller behaviour.
    pub controller: ControllerConfig,
    /// Deterministic fault-injection sites consulted by every layer of the
    /// device (`flash.*`, `ftl.*`, `nvme.*`). Empty by default: no faults.
    pub fault_plane: FaultPlaneConfig,
    /// Manufacturing-variation seed (weak cells, factory bad blocks) — also
    /// the root seed of the fault plane's per-site random streams.
    pub seed: u64,
}

impl SsdConfig {
    /// The paper's prototype scale: a 1 GiB SSD (§4.1) with 512 MiB of
    /// on-board DRAM, linear L2P, XOR-mapped memory controller, and the
    /// testbed's DDR3 vulnerability profile.
    #[must_use]
    pub fn paper_prototype(seed: u64) -> Self {
        SsdConfig {
            dram_geometry: DramGeometry::ssd_onboard_512mib(),
            dram_profile: ModuleProfile::testbed_ddr3(),
            dram_mapping: MappingKind::default_xor(),
            ecc: None,
            trr: None,
            para: None,
            scrubber: false,
            flash_geometry: FlashGeometry::gib1(),
            flash_timing: FlashTiming::default(),
            ftl: FtlConfig::default(),
            controller: ControllerConfig::default(),
            fault_plane: FaultPlaneConfig::new(),
            seed,
        }
    }

    /// A small, fast-to-simulate device for tests: 64 MiB flash over the
    /// tiny DRAM geometry, invulnerable by default.
    #[must_use]
    pub fn test_small(seed: u64) -> Self {
        SsdConfig {
            dram_geometry: DramGeometry::tiny_test(),
            dram_profile: ModuleProfile::invulnerable(),
            dram_mapping: MappingKind::Linear,
            ecc: None,
            trr: None,
            para: None,
            scrubber: false,
            flash_geometry: FlashGeometry::mib64(),
            flash_timing: FlashTiming::default(),
            ftl: FtlConfig::default(),
            controller: ControllerConfig::default(),
            fault_plane: FaultPlaneConfig::new(),
            seed,
        }
    }
}

/// Folds one sub-burst's report into the running aggregate when the
/// scrubber slices a hammer burst. Counts and flips accumulate; the
/// achieved rate is recomputed over the combined elapsed time.
fn merge_hammer_reports(mut acc: HammerReport, next: HammerReport) -> HammerReport {
    acc.activations += next.activations;
    acc.windows += next.windows;
    acc.flips.extend(next.flips);
    acc.elapsed += next.elapsed;
    let secs = acc.elapsed.as_nanos() as f64 / 1e9;
    acc.achieved_rate = if secs > 0.0 {
        acc.activations as f64 / secs
    } else {
        0.0
    };
    acc
}

#[derive(Debug, Clone, Copy)]
struct NamespaceInfo {
    start: Lba,
    blocks: u64,
    /// Per-tenant encryption key (§5's software mitigation: "encrypting
    /// data using per-tenant keys to protect data confidentiality"). The
    /// keystream is tweaked by the namespace-relative LBA, modeling
    /// XTS-style disk encryption: a misdirected read decrypts another
    /// block's ciphertext with the wrong tweak and yields garbage.
    key: Option<u64>,
}

/// XOR keystream tweaked by (key, lba) — a stand-in for XTS-AES with the
/// LBA as the tweak. Encryption and decryption are the same operation.
fn apply_cipher(key: u64, lba: Lba, buf: &mut [u8]) {
    use ssdhammer_simkit::rng::splitmix64;
    let tweak = splitmix64(key ^ lba.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let ks = splitmix64(tweak ^ i as u64).to_le_bytes();
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[derive(Debug)]
struct QueuePair {
    depth: usize,
    sq: VecDeque<(u64, Command)>,
    cq: VecDeque<Completion>,
    /// Per-queue-pair counters in the shared registry
    /// (`nvme.qp<N>.submissions` / `nvme.qp<N>.completions`).
    submissions: CounterHandle,
    completions: CounterHandle,
    /// Live submission-queue occupancy (`nvme.qp<N>.sq_depth`).
    sq_depth: GaugeHandle,
    /// Per-queue service-latency distribution (`nvme.qp<N>.latency`).
    latency: HistogramHandle,
    /// Commands aborted on this queue by the fault plane
    /// (`nvme.qp<N>.aborts`).
    aborts: CounterHandle,
}

/// Handles into the shared registry, resolved once at build time.
#[derive(Debug, Clone)]
struct SsdHandles {
    registry: Telemetry,
    submissions: CounterHandle,
    completions: CounterHandle,
    rate_limit_delays: CounterHandle,
    service_latency: HistogramHandle,
    timeouts: CounterHandle,
    retries: CounterHandle,
    retry_exhausted: CounterHandle,
    aborts: CounterHandle,
}

impl SsdHandles {
    fn bind(registry: Telemetry) -> Self {
        SsdHandles {
            submissions: registry.counter("nvme.submissions"),
            completions: registry.counter("nvme.completions"),
            rate_limit_delays: registry.counter("nvme.rate_limit_delays"),
            service_latency: registry.histogram("nvme.service_latency"),
            timeouts: registry.counter("nvme.timeouts"),
            retries: registry.counter("nvme.retries"),
            retry_exhausted: registry.counter("nvme.retry.exhausted"),
            aborts: registry.counter("nvme.aborts"),
            registry,
        }
    }
}

/// The simulated SSD.
///
/// # Examples
///
/// ```
/// use ssdhammer_nvme::{Ssd, SsdConfig};
/// use ssdhammer_simkit::{BlockDevice, Lba, BLOCK_SIZE};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ssd = Ssd::build(SsdConfig::test_small(1));
/// let ns = ssd.create_namespace(1024)?;
/// let mut view = ssd.namespace(ns)?;
/// view.write(Lba(0), &[9u8; BLOCK_SIZE])?;
/// assert_eq!(view.read(Lba(0))?[0], 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ssd {
    ftl: Ftl,
    clock: SimClock,
    controller: ControllerConfig,
    namespaces: BTreeMap<NsId, NamespaceInfo>,
    next_ns: u32,
    allocated_blocks: u64,
    /// Ordered so arbitration visits active queues deterministically.
    queues: BTreeMap<QpId, QueuePair>,
    next_qp: u32,
    next_cid: u64,
    /// Earliest instant the controller may begin the next command
    /// (service-rate / rate-limit modeling).
    next_service: SimTime,
    /// Whether the background scrubber runs.
    scrubber: bool,
    /// Next instant a scrub chunk is owed, when the scrubber runs.
    next_scrub: SimTime,
    /// Service capacity the scrubber steals (precomputed from the flash
    /// timing at build; subtracted from `max_iops`).
    scrub_duty: f64,
    /// When command accounting started, and `nvme.completions` at that
    /// instant: `nvme.iops` is the completion rate since then. A remount
    /// restarts both, while the registry's counters carry over.
    stats_started: SimTime,
    completions_at_start: u64,
    /// Fault-injection sites the controller consults (`nvme.timeout`,
    /// `nvme.abort`); the same plane (shared streams) drives the flash and
    /// FTL sites.
    fault_plane: FaultPlane,
    /// Reused scratch for the arbitration round in [`Ssd::process_all`].
    arb_scratch: Vec<QpId>,
    tel: SsdHandles,
}

/// The device's DRAM module as `config` describes it, on `clock`. A build
/// and every remount construct it here, so a remounted device models the
/// same DRAM (its contents are what a power cut loses).
fn dram_module(config: &SsdConfig, clock: &SimClock) -> DramModule {
    let mut builder = DramModule::builder(config.dram_geometry)
        .profile(config.dram_profile.clone())
        .mapping(config.dram_mapping)
        .seed(config.seed);
    if let Some(ecc) = config.ecc {
        builder = builder.ecc(ecc);
    }
    if let Some(trr) = config.trr {
        builder = builder.trr(trr);
    }
    if let Some(para) = config.para {
        builder = builder.para(para);
    }
    builder.build(clock.clone())
}

impl Ssd {
    /// Assembles the device from its configuration. DRAM, flash, the FTL
    /// and the NVMe front end all record into one fresh registry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. the L2P
    /// table does not fit in DRAM, or the geometry has zero blocks).
    #[must_use]
    pub fn build(config: SsdConfig) -> Self {
        let telemetry = Telemetry::new();
        let clock = SimClock::new();
        let dram = dram_module(&config, &clock);
        let mut nand = FlashArray::with_timing(
            config.flash_geometry,
            config.flash_timing,
            clock.clone(),
            config.seed,
        );
        // One fault plane for the whole device: the flash array, the FTL
        // (which clones it from the flash array), and the controller all
        // consult per-site streams derived from the same root seed.
        let fault_plane = FaultPlane::new(config.seed, &config.fault_plane);
        fault_plane.attach_telemetry(&telemetry);
        nand.set_fault_plane(fault_plane.clone());
        // lint:allow(P1) -- documented-panic constructor: geometry is validated by SsdConfig before assembly
        let mut ftl = Ftl::new(dram, nand, config.ftl).expect("SSD assembly failed");
        ftl.attach_telemetry(&telemetry);
        Self::fresh(
            &config,
            clock,
            ftl,
            fault_plane,
            SsdHandles::bind(telemetry),
        )
    }

    /// A device around `ftl` with fresh volatile state: no namespaces, no
    /// queue pairs, command ids from 1, and the service, scrub and IOPS
    /// accounting anchored at the clock's present. Both a build and a
    /// remount start here.
    fn fresh(
        config: &SsdConfig,
        clock: SimClock,
        ftl: Ftl,
        fault_plane: FaultPlane,
        tel: SsdHandles,
    ) -> Self {
        let now = clock.now();
        let flash_read =
            SimDuration::from_nanos(config.flash_timing.t_read_ns + config.flash_timing.t_xfer_ns);
        Ssd {
            ftl,
            clock,
            controller: config.controller,
            namespaces: BTreeMap::new(),
            next_ns: 1,
            allocated_blocks: 0,
            queues: BTreeMap::new(),
            next_qp: 1,
            next_cid: 1,
            next_service: now,
            scrubber: config.scrubber,
            next_scrub: now + SCRUB_INTERVAL,
            scrub_duty: if config.scrubber {
                scrub_duty(flash_read)
            } else {
                0.0
            },
            stats_started: now,
            completions_at_start: tel.completions.get(),
            fault_plane,
            arb_scratch: Vec::new(),
            tel,
        }
    }

    /// The shared registry every layer of this device records into.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.tel.registry.clone()
    }

    /// Freezes the shared registry, first publishing derived gauges:
    /// `nvme.iops`, completions per simulated second since the device was
    /// built or last power-cycled (0 before any time has passed), and
    /// `nvme.max_iops`, the controller ceiling [`Ssd::max_iops`].
    #[must_use]
    pub fn snapshot_telemetry(&self) -> TelemetrySnapshot {
        let elapsed = self.clock.now().saturating_since(self.stats_started);
        let iops = if elapsed.is_zero() {
            0.0
        } else {
            (self.tel.completions.get() - self.completions_at_start) as f64 / elapsed.as_secs_f64()
        };
        self.tel.registry.gauge("nvme.iops").set(iops);
        self.tel
            .registry
            .gauge("nvme.max_iops")
            .set(self.max_iops());
        self.tel.registry.snapshot()
    }

    /// The shared simulation clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The FTL (experiments reach the L2P table and the DRAM through it).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access for experiment setup/verification.
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Consumes the device, returning its FTL — used by crash-recovery
    /// experiments that "pull the power" and rebuild from flash.
    #[must_use]
    pub fn into_ftl(self) -> Ftl {
        self.ftl
    }

    /// Pulls the power and remounts: consumes the device, discards all
    /// volatile state (DRAM contents, queue pairs, in-flight commands),
    /// keeps the flash array, and rebuilds the FTL through
    /// [`Ftl::recover`]. The simulated clock and telemetry registry carry
    /// over, so campaigns observe one continuous timeline across cuts;
    /// namespaces survive (their extents live in the config-derived block
    /// accounting, not in DRAM). `config` must be the configuration the
    /// device was built from.
    ///
    /// # Errors
    ///
    /// [`NvmeError::Ftl`] when recovery itself fails (e.g. unreadable
    /// metadata beyond the retry ladder).
    pub fn power_cycle(self, config: &SsdConfig) -> Result<Self, NvmeError> {
        let Ssd {
            ftl,
            clock,
            namespaces,
            next_ns,
            allocated_blocks,
            fault_plane,
            tel,
            ..
        } = self;
        let (_lost_dram, nand) = ftl.into_parts();
        let mut dram = dram_module(config, &clock);
        // Recovery records into the registry the device keeps: `Ftl::recover`
        // adopts the DRAM's registry, so its journal-replay count and
        // torn-tail traces land where the campaign reads them.
        dram.attach_telemetry(&tel.registry);
        let ftl = Ftl::recover(dram, nand, config.ftl)?;
        Ok(Ssd {
            namespaces,
            next_ns,
            allocated_blocks,
            ..Self::fresh(config, clock, ftl, fault_plane, tel)
        })
    }

    /// Unallocated device blocks available for new namespaces.
    #[must_use]
    pub fn free_capacity_blocks(&self) -> u64 {
        self.ftl.capacity_lbas() - self.allocated_blocks
    }

    // ---- namespaces --------------------------------------------------------

    /// Carves a namespace of `blocks` 4 KiB blocks from the remaining
    /// capacity. Namespaces are contiguous LBA ranges of the shared FTL —
    /// "each VM's storage space is a partition of the shared SSD … however,
    /// the underlying FTL and its mapping table are shared across
    /// partitions" (§4.1).
    ///
    /// # Errors
    ///
    /// [`NvmeError::InsufficientCapacity`] when the device is out of space.
    pub fn create_namespace(&mut self, blocks: u64) -> Result<NsId, NvmeError> {
        if blocks == 0 || self.allocated_blocks + blocks > self.ftl.capacity_lbas() {
            return Err(NvmeError::InsufficientCapacity);
        }
        let id = NsId(self.next_ns);
        self.next_ns += 1;
        self.namespaces.insert(
            id,
            NamespaceInfo {
                start: Lba(self.allocated_blocks),
                blocks,
                key: None,
            },
        );
        self.allocated_blocks += blocks;
        Ok(id)
    }

    /// Like [`Ssd::create_namespace`], but all data written through the
    /// namespace is encrypted with a per-tenant key tweaked by the LBA
    /// (§5's confidentiality mitigation).
    ///
    /// # Errors
    ///
    /// [`NvmeError::InsufficientCapacity`] when the device is out of space.
    pub fn create_encrypted_namespace(&mut self, blocks: u64, key: u64) -> Result<NsId, NvmeError> {
        let id = self.create_namespace(blocks)?;
        if let Some(info) = self.namespaces.get_mut(&id) {
            info.key = Some(key);
        }
        Ok(id)
    }

    /// Number of blocks in `ns`.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] for unknown ids.
    pub fn namespace_blocks(&self, ns: NsId) -> Result<u64, NvmeError> {
        Ok(self.ns_info(ns)?.blocks)
    }

    /// Translates a namespace-relative LBA to the device (FTL) LBA.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] / [`NvmeError::OutOfRange`].
    pub fn translate(&self, ns: NsId, lba: Lba) -> Result<Lba, NvmeError> {
        Ok(self.locate(ns, lba)?.0)
    }

    /// Where namespace-relative `lba` of `ns` lives: its device (FTL) LBA
    /// and the namespace's tenant key, from one namespace lookup.
    fn locate(&self, ns: NsId, lba: Lba) -> Result<(Lba, Option<u64>), NvmeError> {
        let info = self.ns_info(ns)?;
        if lba.as_u64() >= info.blocks {
            return Err(NvmeError::OutOfRange { ns, lba });
        }
        Ok((Lba(info.start.as_u64() + lba.as_u64()), info.key))
    }

    /// Reads one namespace block: the read command's and the view's path.
    /// The data is the stored page itself unless the block is a mapped
    /// block of an encrypted namespace, which is decrypted into a private
    /// copy (the stored page is never mutated).
    fn read_block(&mut self, ns: NsId, lba: Lba) -> Result<BlockRead, NvmeError> {
        let (device_lba, key) = self.locate(ns, lba)?;
        let (outcome, page) = self.ftl.read_shared(device_lba)?;
        let (mapped, ready) = read_status(ns, lba, outcome)?;
        let data = match key.filter(|_| mapped) {
            Some(key) => {
                let mut plain = page.to_vec();
                apply_cipher(key, lba, &mut plain);
                plain.into()
            }
            None => page,
        };
        Ok(BlockRead {
            data,
            mapped,
            ready,
        })
    }

    /// Writes one namespace block, encrypted under the tenant key if the
    /// namespace has one, and returns when its flash program completes.
    /// The write command and the block-device view both write here.
    fn write_block(&mut self, ns: NsId, lba: Lba, data: &[u8]) -> Result<SimTime, NvmeError> {
        let (device_lba, key) = self.locate(ns, lba)?;
        // A wrong-length buffer goes to the FTL unencrypted, which rejects it.
        let written = match (key, <&[u8; BLOCK_SIZE]>::try_from(data)) {
            (Some(key), Ok(plain)) => {
                // A stack copy avoids a heap allocation per encrypted write.
                let mut enc = *plain;
                apply_cipher(key, lba, &mut enc);
                self.ftl.write(device_lba, &enc)
            }
            _ => self.ftl.write(device_lba, data),
        };
        Ok(written?)
    }

    /// Unmaps one namespace block: the trim command's and the view's path.
    fn trim_block(&mut self, ns: NsId, lba: Lba) -> Result<(), NvmeError> {
        let (device_lba, _) = self.locate(ns, lba)?;
        Ok(self.ftl.trim(device_lba)?)
    }

    fn ns_info(&self, ns: NsId) -> Result<&NamespaceInfo, NvmeError> {
        self.namespaces
            .get(&ns)
            .ok_or(NvmeError::InvalidNamespace { ns })
    }

    /// A [`BlockDevice`] view of one namespace (borrows the device).
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] for unknown ids.
    pub fn namespace(&mut self, ns: NsId) -> Result<Namespace<'_>, NvmeError> {
        let blocks = self.ns_info(ns)?.blocks;
        Ok(Namespace {
            ssd: self,
            ns,
            blocks,
        })
    }

    // ---- queue pairs -------------------------------------------------------

    /// Creates a queue pair with the given submission-queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn create_queue_pair(&mut self, depth: usize) -> QueuePairHandle {
        assert!(depth > 0, "queue depth must be positive");
        let id = QpId(self.next_qp);
        self.next_qp += 1;
        let registry = &self.tel.registry;
        self.queues.insert(
            id,
            QueuePair {
                depth,
                sq: VecDeque::new(),
                cq: VecDeque::new(),
                submissions: registry.counter(&format!("nvme.qp{}.submissions", id.0)),
                completions: registry.counter(&format!("nvme.qp{}.completions", id.0)),
                sq_depth: registry.gauge(&format!("nvme.qp{}.sq_depth", id.0)),
                latency: registry.histogram(&format!("nvme.qp{}.latency", id.0)),
                aborts: registry.counter(&format!("nvme.qp{}.aborts", id.0)),
            },
        );
        QueuePairHandle::new(id, depth)
    }

    /// Enqueues a command; returns its command id.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidQueue`] or [`NvmeError::QueueFull`].
    pub fn submit(&mut self, qp: impl Into<QpId>, cmd: Command) -> Result<u64, NvmeError> {
        let mut cids = self.submit_batch(qp, std::slice::from_ref(&cmd))?;
        cids.next().ok_or(NvmeError::Protocol {
            expected: "one cid per submitted command",
        })
    }

    /// Enqueues a batch of commands on `qp` in order, returning their
    /// command ids as a contiguous ascending range (cids are assigned
    /// sequentially, so the range *is* the id list — no per-batch
    /// allocation). The whole batch is accepted or rejected atomically: if
    /// the submission queue cannot hold every command, nothing is enqueued.
    ///
    /// Batching amortizes per-command host overhead — one queue lookup, one
    /// doorbell (telemetry) update, one command-id range — across the batch;
    /// the simulated per-command service timing is identical to issuing the
    /// commands one at a time.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidQueue`] for unknown queues,
    /// [`NvmeError::QueueFull`] when the batch exceeds the free depth.
    pub fn submit_batch(
        &mut self,
        qp: impl Into<QpId>,
        cmds: &[Command],
    ) -> Result<std::ops::Range<u64>, NvmeError> {
        let qp = qp.into();
        let first_cid = self.next_cid;
        let queue = self
            .queues
            .get_mut(&qp)
            .ok_or(NvmeError::InvalidQueue { qp })?;
        if queue.depth - queue.sq.len() < cmds.len() {
            return Err(NvmeError::QueueFull);
        }
        for (i, cmd) in cmds.iter().enumerate() {
            queue.sq.push_back((first_cid + i as u64, cmd.clone()));
        }
        self.next_cid += cmds.len() as u64;
        queue.submissions.add(cmds.len() as u64);
        queue.sq_depth.set(queue.sq.len() as f64);
        self.tel.submissions.add(cmds.len() as u64);
        Ok(first_cid..self.next_cid)
    }

    /// Services **all** active queue pairs to completion round-robin,
    /// returning the number of commands serviced. Each command moves to
    /// its queue's completion queue, and simulated time advances per the
    /// controller's service rate and the command's execution cost.
    ///
    /// Each round takes one command from every active queue, visiting
    /// queues in ascending [`QpId`] order (NVMe's mandatory arbitration
    /// scheme), so the service schedule — and therefore every completion
    /// timestamp — is deterministic.
    pub fn process_all(&mut self) -> u64 {
        let mut serviced = 0u64;
        let mut active = std::mem::take(&mut self.arb_scratch);
        loop {
            active.clear();
            active.extend(
                self.queues
                    .iter()
                    .filter(|(_, q)| !q.sq.is_empty())
                    .map(|(&id, _)| id),
            );
            if active.is_empty() {
                self.arb_scratch = active;
                return serviced;
            }
            for &id in &active {
                serviced += u64::from(self.service_one(id));
            }
        }
    }

    /// Pops one command off `qp`'s submission queue, executes it, and
    /// queues the completion. Returns false when the queue was empty.
    fn service_one(&mut self, qp: QpId) -> bool {
        let Some(queue) = self.queues.get_mut(&qp) else {
            return false;
        };
        let Some((cid, cmd)) = queue.sq.pop_front() else {
            return false;
        };
        let completion = if self.fault_plane.fires("nvme.abort") {
            // Controller-level abort: the command never reaches execution.
            let now = self.clock.now();
            self.tel.aborts.incr();
            if let Some(queue) = self.queues.get_mut(&qp) {
                queue.aborts.incr();
            }
            self.tel
                .registry
                .trace(now, "nvme.abort", format!("{qp} cid {cid}"));
            Completion {
                cid,
                submitted: now,
                completed: now,
                result: CmdResult::Error(NvmeError::Aborted),
            }
        } else {
            self.execute_with_retry(cid, cmd)
        };
        self.tel.completions.incr();
        self.tel.service_latency.record(completion.latency());
        if let Some(queue) = self.queues.get_mut(&qp) {
            queue.completions.incr();
            queue.latency.record(completion.latency());
            queue.sq_depth.set(queue.sq.len() as f64);
            queue.cq.push_back(completion);
        }
        true
    }

    /// Pops the oldest completion of `qp`, if any.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidQueue`] for unknown queues.
    pub fn pop_completion(&mut self, qp: impl Into<QpId>) -> Result<Option<Completion>, NvmeError> {
        let qp = qp.into();
        Ok(self
            .queues
            .get_mut(&qp)
            .ok_or(NvmeError::InvalidQueue { qp })?
            .cq
            .pop_front())
    }

    /// Drains every pending completion of `qp`, oldest first.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidQueue`] for unknown queues.
    pub fn drain_completions(&mut self, qp: impl Into<QpId>) -> Result<Vec<Completion>, NvmeError> {
        let mut out = Vec::new();
        self.drain_completions_into(qp, &mut out)?;
        Ok(out)
    }

    /// Drains every pending completion of `qp` into `out` (appended, oldest
    /// first) — the allocation-free form of [`Ssd::drain_completions`] for
    /// benchmark loops that reuse one completion vector across bursts.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidQueue`] for unknown queues.
    pub fn drain_completions_into(
        &mut self,
        qp: impl Into<QpId>,
        out: &mut Vec<Completion>,
    ) -> Result<(), NvmeError> {
        let qp = qp.into();
        let queue = self
            .queues
            .get_mut(&qp)
            .ok_or(NvmeError::InvalidQueue { qp })?;
        out.extend(queue.cq.drain(..));
        Ok(())
    }

    /// Drops a consumed [`CmdResult::Read`] payload. Read data is a shared
    /// page handle, not a pooled buffer, so there is nothing to recycle:
    /// letting the payload go out of scope does the same.
    pub fn recycle_buffer(&mut self, buf: Arc<[u8]>) {
        drop(buf);
    }

    /// Convenience: submit one command, serve every active queue
    /// ([`Ssd::process_all`]) and pop the command's completion.
    ///
    /// **Deprecated in favor of [`Ssd::submit_batch`] +
    /// [`Ssd::drain_completions`]:** a roundtrip per command forfeits the
    /// queue-depth parallelism the interface model rewards (and that the
    /// attack's throughput argument depends on). Prefer batching; this
    /// remains for one-off control commands like `GetLogPage`.
    ///
    /// # Errors
    ///
    /// Queue errors; command-level failures are reported in the completion.
    pub fn roundtrip(
        &mut self,
        qp: impl Into<QpId>,
        cmd: Command,
    ) -> Result<Completion, NvmeError> {
        let qp = qp.into();
        self.submit(qp, cmd)?;
        self.process_all();
        self.pop_completion(qp)?.ok_or(NvmeError::Protocol {
            expected: "completion present after process_all",
        })
    }

    /// Executes one command, absorbing injected completion timeouts
    /// (`nvme.timeout` fault site) through the controller's
    /// [`RetryPolicy`]: each timed-out attempt burns the
    /// deadline on the simulated clock, then the command is re-issued after
    /// an exponentially growing backoff; the retry budget exhausted, it
    /// completes with [`NvmeError::Timeout`]. A timed-out attempt never
    /// reaches the FTL, so retries cannot double-apply side effects.
    fn execute_with_retry(&mut self, cid: u64, cmd: Command) -> Completion {
        let max_retries = self.controller.retry.max_retries;
        let submitted = self.clock.now();
        let mut attempt = 0u32;
        while self.fault_plane.fires("nvme.timeout") {
            self.tel.timeouts.incr();
            // The attempt holds the command until its deadline expires.
            self.clock.advance(RetryPolicy::TIMEOUT);
            if attempt >= max_retries {
                self.tel.retry_exhausted.incr();
                self.tel.registry.trace(
                    self.clock.now(),
                    "nvme.timeout",
                    format!("cid {cid} failed after {attempt} retries"),
                );
                return Completion {
                    cid,
                    submitted,
                    completed: self.clock.now(),
                    result: CmdResult::Error(NvmeError::Timeout { retries: attempt }),
                };
            }
            self.tel.retries.incr();
            self.clock.advance(SimDuration::from_nanos(
                RetryPolicy::BACKOFF.as_nanos() << attempt.min(32),
            ));
            attempt += 1;
        }
        let mut completion = self.execute(cid, cmd);
        if attempt > 0 {
            // Latency spans the timed-out attempts, not just the final try.
            completion.submitted = submitted;
        }
        completion
    }

    /// Runs any scrub chunks the simulated clock owes. Called on every
    /// command execution so the patrol interleaves with foreground I/O at
    /// command granularity. Catch-up after a long gap is bounded: the
    /// scrubber forgives debt beyond a sweep's worth rather than stalling
    /// the device.
    fn pump_scrubber(&mut self) {
        if !self.scrubber {
            return;
        }
        const MAX_CATCHUP: u32 = 64;
        let mut ran = 0u32;
        while self.clock.now() >= self.next_scrub {
            self.next_scrub += SCRUB_INTERVAL;
            if ran < MAX_CATCHUP {
                ran += 1;
                if self
                    .ftl
                    .scrub_chunk(SCRUB_CHUNK_ENTRIES, SCRUB_FLASH_READS)
                    .is_err()
                {
                    // Power loss mid-experiment: the patrol resumes at the
                    // next interval after remount.
                    break;
                }
            }
        }
    }

    /// Executes one command at the controller's service rate.
    fn execute(&mut self, cid: u64, cmd: Command) -> Completion {
        self.pump_scrubber();
        let submitted = self.clock.now();
        // Service-rate shaping: fixed interface overhead plus any configured
        // rate limit.
        let start = self.next_service.max(submitted);
        if start > submitted {
            self.tel.rate_limit_delays.incr();
        }
        self.clock.advance_to(start);
        self.clock
            .advance(self.controller.interface.command_overhead());
        let (result, data_ready) = self
            .execute_inner(cmd)
            .unwrap_or_else(|e| (CmdResult::Error(e), None));
        let mut earliest_next = self.clock.now();
        if let Some(limit) = self.controller.rate_limit_iops {
            earliest_next = earliest_next.max(start + SimDuration::from_rate_per_sec(limit));
        }
        self.next_service = earliest_next;
        // The command completes when both the controller work and any flash
        // access have finished; queue-depth parallelism means the *next*
        // command's service is not delayed by this one's flash time.
        let completed = data_ready.map_or(self.clock.now(), |t| t.max(self.clock.now()));
        Completion {
            cid,
            submitted,
            completed,
            result,
        }
    }

    /// Runs one command's work; the result and when its data is ready.
    fn execute_inner(&mut self, cmd: Command) -> Result<(CmdResult, Option<SimTime>), NvmeError> {
        Ok(match cmd {
            Command::Read { ns, lba } => {
                let BlockRead {
                    data,
                    mapped,
                    ready,
                } = self.read_block(ns, lba)?;
                (CmdResult::Read { data, mapped }, ready)
            }
            Command::Write { ns, lba, data } => {
                (CmdResult::Write, Some(self.write_block(ns, lba, &data)?))
            }
            Command::Trim { ns, lba } => {
                self.trim_block(ns, lba)?;
                (CmdResult::Trim, None)
            }
            Command::GetLogPage => (CmdResult::HealthLog(self.health_log()), None),
        })
    }

    /// Assembles the SMART-style health log from the device's telemetry —
    /// the payload of [`Command::GetLogPage`].
    #[must_use]
    pub fn health_log(&self) -> HealthLog {
        let reg = &self.tel.registry;
        HealthLog {
            grown_bad_blocks: reg.counter_value("flash.grown_bad").unwrap_or(0),
            scrub_repairs: reg.counter_value("scrub.repairs").unwrap_or(0),
            uncorrectable_reads: reg
                .counter_value("recovery.uncorrectable_reads")
                .unwrap_or(0),
            integrity_detected: reg.counter_value("integrity.detected").unwrap_or(0),
            integrity_repaired: reg.counter_value("integrity.repaired").unwrap_or(0)
                + reg.counter_value("integrity.mirror_repairs").unwrap_or(0),
            read_only: self.ftl.is_read_only(),
        }
    }

    // ---- bulk attack path --------------------------------------------------

    /// Issues `requests` read commands round-robin over namespace-relative
    /// `lbas` at the highest rate the controller allows, bounded by
    /// `requested_rate`: the aggregated fast path the attack workloads use.
    /// It translates `lbas` to device LBAs and runs the burst as
    /// [`Ssd::hammer_device_reads`] does, under the same rate bounds.
    ///
    /// Returns the DRAM-level hammer report.
    ///
    /// # Errors
    ///
    /// Namespace/addressing errors or FTL failures.
    ///
    /// # Panics
    ///
    /// Panics if `lbas` is empty or `requested_rate` is not positive.
    pub fn hammer_reads(
        &mut self,
        ns: NsId,
        lbas: &[Lba],
        requests: u64,
        requested_rate: f64,
    ) -> Result<HammerReport, NvmeError> {
        assert!(requested_rate > 0.0, "rate must be positive");
        let device_lbas: Vec<Lba> = lbas
            .iter()
            .map(|&l| self.translate(ns, l))
            .collect::<Result<_, _>>()?;
        self.hammer_device_reads(
            &device_lbas,
            requests,
            requested_rate,
            HammerOptions::default(),
        )
    }

    /// Like [`Ssd::hammer_reads`] but over *device* LBAs, for single-tenant
    /// hosts that address the whole drive (e.g. Figure 2 (a) with one
    /// partition), with per-burst [`HammerOptions`]: an open-row dwell
    /// multiplier (RowPress-style patterns) and a pattern label for
    /// per-pattern DRAM activation telemetry.
    ///
    /// The FTL and DRAM account the burst's time wholesale (`requests /
    /// rate`), with the rate capped at [`Ssd::max_iops`]. With the scrubber
    /// on, the burst is sliced at scrub intervals so patrol chunks race the
    /// hammer inside the burst. It counts as `requests` commands in
    /// `nvme.submissions` and `nvme.completions`, also when the FTL rejects
    /// it, and takes no queue pair or command id.
    ///
    /// # Errors
    ///
    /// Addressing or FTL failures.
    ///
    /// # Panics
    ///
    /// Panics if `lbas` is empty or `requested_rate` is not positive.
    pub fn hammer_device_reads(
        &mut self,
        lbas: &[Lba],
        requests: u64,
        requested_rate: f64,
        opts: HammerOptions,
    ) -> Result<HammerReport, NvmeError> {
        assert!(requested_rate > 0.0, "rate must be positive");
        assert!(!lbas.is_empty(), "need at least one LBA");
        self.tel.submissions.add(requests);
        self.pump_scrubber();
        let effective = requested_rate.min(self.max_iops());
        let slice = self.scrubber.then(|| {
            let per_interval = SCRUB_INTERVAL.as_nanos() as f64 / 1e9 * effective;
            (per_interval as u64).max(1)
        });
        let mut remaining = requests;
        let mut merged: Option<HammerReport> = None;
        let result = loop {
            let n = slice.map_or(remaining, |s| remaining.min(s));
            match self.ftl.hammer_reads(lbas, n, effective, opts) {
                Ok(report) => {
                    merged = Some(match merged {
                        None => report,
                        Some(acc) => merge_hammer_reports(acc, report),
                    });
                    remaining -= n;
                    self.pump_scrubber();
                    if remaining == 0 {
                        break Ok(merged.unwrap_or_default());
                    }
                }
                Err(e) => break Err(e.into()),
            }
        };
        self.tel.completions.add(requests);
        result
    }

    /// The maximum command rate this controller can sustain: the interface
    /// service rate scaled by the achievable queue parallelism, further
    /// capped by any rate limit.
    ///
    /// A host that opens several deep queue pairs keeps all of the
    /// controller's I/O cores busy, so the ceiling scales with the number
    /// of saturated queues up to [`Self::IO_CORES`] (§2.3's
    /// feasibility numbers assume exactly this multi-queue driving). A
    /// single queue, or none, leaves the ceiling at the single-core
    /// roundtrip rate. Hammer bursts ([`Ssd::hammer_device_reads`]) run at
    /// no more than this ceiling.
    #[must_use]
    pub fn max_iops(&self) -> f64 {
        let interface = self.controller.interface.command_overhead().rate_per_sec();
        // The patrol scrubber steals a fixed duty cycle of controller time.
        let ceiling = interface * self.queue_parallelism() * (1.0 - self.scrub_duty);
        match self.controller.rate_limit_iops {
            Some(limit) => ceiling.min(limit),
            None => ceiling,
        }
    }

    /// Effective controller-core parallelism from the active queue pairs.
    ///
    /// Each queue contributes up to one core's worth of work; shallow
    /// queues (depth below [`Self::QD_SATURATION`]) cannot keep a core busy
    /// and contribute proportionally. The total is clamped to at least 1
    /// (the controller always services commands) and at most
    /// [`Self::IO_CORES`].
    fn queue_parallelism(&self) -> f64 {
        let per_queue: f64 = self
            .queues
            .values()
            .map(|q| (q.depth as f64 / f64::from(Self::QD_SATURATION)).min(1.0))
            .sum();
        per_queue.clamp(1.0, f64::from(Self::IO_CORES))
    }

    /// Submission-queue depth at which one queue pair saturates a single
    /// controller I/O core.
    pub const QD_SATURATION: u32 = 4;

    /// I/O processing cores on the controller: the upper bound on how many
    /// saturated queue pairs can be serviced concurrently, and therefore on
    /// the multi-queue IOPS ceiling [`Ssd::max_iops`] reports (§2.3's
    /// feasibility argument assumes the host drives multiple queue pairs).
    pub const IO_CORES: u32 = 4;
}

/// One namespace block read ([`Ssd::read_block`]).
struct BlockRead {
    /// The block's bytes.
    data: Arc<[u8]>,
    /// Whether the block was mapped.
    mapped: bool,
    /// When its flash read completes; `None` for a read that touched no
    /// flash.
    ready: Option<SimTime>,
}

/// Whether a host read returned the stored block, and when its flash read
/// completes. A DIF guard mismatch fails as [`NvmeError::Integrity`].
/// Only a mapped read returns stored ciphertext, so only a mapped read is
/// decrypted; unmapped and wild reads return zeroes either way.
fn read_status(
    ns: NsId,
    lba: Lba,
    outcome: ReadOutcome,
) -> Result<(bool, Option<SimTime>), NvmeError> {
    match outcome {
        ReadOutcome::GuardMismatch { .. } => Err(NvmeError::Integrity { ns, lba }),
        ReadOutcome::Mapped { completed, .. } => Ok((true, Some(completed))),
        ReadOutcome::SlowUnmapped { completed } => Ok((false, Some(completed))),
        _ => Ok((false, None)),
    }
}

/// How a block-device view reports a failed host I/O at `lba` of a
/// `capacity`-block view: data the device cannot return (a DIF mismatch,
/// an uncorrectable DRAM, flash or L2P-integrity error) is
/// [`StorageError::Uncorrectable`], an address past the namespace is
/// [`StorageError::OutOfRange`], and every other failure is
/// [`StorageError::Rejected`] with the device's reason.
fn storage_error(e: NvmeError, lba: Lba, capacity: u64) -> StorageError {
    match e {
        NvmeError::OutOfRange { .. } => StorageError::OutOfRange { lba, capacity },
        NvmeError::Integrity { .. }
        | NvmeError::Ftl(
            FtlError::Dram(_) | FtlError::Uncorrectable { .. } | FtlError::L2pIntegrity { .. },
        ) => StorageError::Uncorrectable { lba },
        // The FTL's reason, without the NVMe layer's `ftl:` prefix.
        NvmeError::Ftl(e) => StorageError::Rejected {
            reason: e.to_string(),
        },
        e => StorageError::Rejected {
            reason: e.to_string(),
        },
    }
}

/// A [`BlockDevice`] view over one namespace, suitable for mounting a
/// filesystem on. It shares the NVMe executor's data path: namespace
/// translation, the tenant cipher, the FTL read, write and trim, and the
/// error classification. It does not share the executor's queue, command
/// overhead, flash wait or `nvme.*` accounting, so a view I/O costs only
/// the FTL's DRAM time on the simulated clock.
#[derive(Debug)]
pub struct Namespace<'a> {
    ssd: &'a mut Ssd,
    ns: NsId,
    /// Cached at creation so `capacity_blocks` (an infallible trait method)
    /// needs no fallible lookup. Namespaces never resize.
    blocks: u64,
}

impl Namespace<'_> {
    /// The namespace id.
    #[must_use]
    pub fn id(&self) -> NsId {
        self.ns
    }
}

impl BlockDevice for Namespace<'_> {
    fn capacity_blocks(&self) -> u64 {
        self.blocks
    }

    /// The read command's page ([`Ftl::read_shared`]): the stored page, or
    /// a decrypted copy of it.
    fn read(&mut self, lba: Lba) -> StorageResult<Arc<[u8]>> {
        self.ssd
            .read_block(self.ns, lba)
            .map(|read| read.data)
            .map_err(|e| storage_error(e, lba, self.blocks))
    }

    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()> {
        self.check_access(lba, buf.len())?;
        self.ssd
            .write_block(self.ns, lba, buf)
            .map(|_| ())
            .map_err(|e| storage_error(e, lba, self.blocks))
    }

    fn trim(&mut self, lba: Lba) -> StorageResult<()> {
        self.ssd
            .trim_block(self.ns, lba)
            .map_err(|e| storage_error(e, lba, self.blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> Ssd {
        Ssd::build(SsdConfig::test_small(1))
    }

    #[test]
    fn power_cycle_recovers_flushed_data_on_a_shared_timeline() {
        let config = SsdConfig {
            ftl: FtlConfig {
                journal_checkpoint_every: 1,
                ..FtlConfig::default()
            },
            ..SsdConfig::test_small(3)
        };
        let mut s = Ssd::build(config.clone());
        let before = s.clock().now();
        let block = vec![0x5A; BLOCK_SIZE];
        s.ftl_mut().write(Lba(4), &block).unwrap();
        s.ftl_mut().trim(Lba(4)).unwrap();
        s.ftl_mut().write(Lba(5), &block).unwrap();
        s.ftl_mut().flush().unwrap();

        let mut s = s.power_cycle(&config).expect("remount");
        // Same clock carried over, and both the write and the TRIM
        // (journal-persisted) survived the cut.
        assert!(s.clock().now() >= before);
        let mut buf = vec![0u8; BLOCK_SIZE];
        s.ftl_mut().read(Lba(5), &mut buf).unwrap();
        assert_eq!(buf, block);
        s.ftl_mut().read(Lba(4), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "trimmed LBA reads zeroes");
        // Queue pairs are volatile: the remounted device starts with none.
        let qp = s.create_queue_pair(8);
        let c = s.roundtrip(qp, Command::GetLogPage).unwrap();
        assert!(matches!(c.result, CmdResult::HealthLog(_)));
    }

    #[test]
    fn power_cycle_records_recovery_into_the_device_registry() {
        use ssdhammer_simkit::faultplane::FaultSpec;
        // The seventh journal append is cut mid-page: six records replay,
        // the torn seventh is truncated.
        let config = SsdConfig {
            ftl: FtlConfig {
                journal_checkpoint_every: 1,
                ..FtlConfig::default()
            },
            fault_plane: FaultPlaneConfig::new().with_site(
                "ftl.crash.journal_append",
                FaultSpec::always().with_window(6, 7).with_max_fires(1),
            ),
            ..SsdConfig::test_small(3)
        };
        let mut s = Ssd::build(config.clone());
        for lba in 0..6 {
            s.ftl_mut().write(Lba(lba), &[0x5A; BLOCK_SIZE]).unwrap();
        }
        assert!(s.ftl_mut().write(Lba(6), &[0x5A; BLOCK_SIZE]).is_err());
        let registry = s.telemetry();
        let s = s.power_cycle(&config).expect("remount");
        assert_eq!(
            s.ftl()
                .shared_telemetry()
                .counter_value("recovery.journal_replayed"),
            Some(6)
        );
        assert_eq!(registry.counter_value("recovery.journal_replayed"), Some(6));
        assert_eq!(registry.trace_events("ftl.journal.torn_tail").len(), 1);
    }

    #[test]
    fn power_cycle_restarts_the_iops_window() {
        let config = SsdConfig::test_small(3);
        let mut s = Ssd::build(config.clone());
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(32);
        let cmds: Vec<Command> = (0..32).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
        s.submit_batch(qp, &cmds).unwrap();
        s.process_all();
        let before = s.snapshot_telemetry();
        assert!(before.gauge("nvme.iops").unwrap() > 0.0);
        // The registry keeps the pre-cut completions, but none happen after
        // the remount: the rate since the remount is zero.
        let s = s.power_cycle(&config).expect("remount");
        s.clock().advance(SimDuration::from_micros(10));
        let after = s.snapshot_telemetry();
        assert_eq!(after.counter("nvme.completions"), Some(32));
        assert_eq!(after.gauge("nvme.iops"), Some(0.0));
    }

    #[test]
    fn namespaces_partition_capacity() {
        let mut s = ssd();
        let total = s.ftl().capacity_lbas();
        let a = s.create_namespace(total / 2).unwrap();
        let b = s.create_namespace(total / 2).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.free_capacity_blocks(), 0);
        assert_eq!(s.create_namespace(1), Err(NvmeError::InsufficientCapacity));
        // Namespace-relative LBA 0 of b maps past a.
        assert_eq!(s.translate(b, Lba(0)).unwrap(), Lba(total / 2));
    }

    #[test]
    fn namespace_isolation_rejects_out_of_range() {
        let mut s = ssd();
        let a = s.create_namespace(100).unwrap();
        assert_eq!(
            s.translate(a, Lba(100)),
            Err(NvmeError::OutOfRange {
                ns: a,
                lba: Lba(100)
            })
        );
    }

    #[test]
    fn read_write_roundtrip_through_queue() {
        let mut s = ssd();
        let ns = s.create_namespace(256).unwrap();
        let qp = s.create_queue_pair(8);
        let data = vec![0x5Au8; BLOCK_SIZE].into_boxed_slice();
        let w = s
            .roundtrip(
                qp,
                Command::Write {
                    ns,
                    lba: Lba(3),
                    data: data.clone(),
                },
            )
            .unwrap();
        assert!(w.is_ok());
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(3) }).unwrap();
        let CmdResult::Read { data: out, mapped } = r.result else {
            panic!("expected read data");
        };
        assert!(mapped);
        assert_eq!(*out, *data);
        // A clean read completes with the stored flash page, not a copy.
        let device_lba = s.translate(ns, Lba(3)).unwrap();
        let (_, stored) = s.ftl_mut().read_shared(device_lba).unwrap();
        assert!(Arc::ptr_eq(&out, &stored));
    }

    #[test]
    fn unmapped_read_is_not_mapped_and_zero() {
        let mut s = ssd();
        let ns = s.create_namespace(256).unwrap();
        let qp = s.create_queue_pair(8);
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(9) }).unwrap();
        let CmdResult::Read { data, mapped } = r.result else {
            panic!("expected read data");
        };
        assert!(!mapped);
        assert!(data.iter().all(|&b| b == 0));
        // Every unmapped read completes with the FTL's one zero page.
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(10) }).unwrap();
        let CmdResult::Read { data: again, .. } = r.result else {
            panic!("expected read data");
        };
        assert!(Arc::ptr_eq(&data, &again));
    }

    #[test]
    fn read_data_outlives_a_rewrite_and_the_erase_of_its_block() {
        // A completion may hold the stored flash page itself; what the host
        // holds stays what was read after the LBA is rewritten and garbage
        // collection erases the block the page lived in.
        let config = SsdConfig {
            flash_geometry: FlashGeometry::tiny_test(),
            ..SsdConfig::test_small(1)
        };
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(256).unwrap();
        let qp = s.create_queue_pair(8);
        let write = |s: &mut Ssd, lba: u64, byte: u8| {
            let data = vec![byte; BLOCK_SIZE].into_boxed_slice();
            let c = s
                .roundtrip(
                    qp,
                    Command::Write {
                        ns,
                        lba: Lba(lba),
                        data,
                    },
                )
                .unwrap();
            assert!(c.is_ok(), "{:?}", c.result);
        };
        write(&mut s, 0, 0xA5);
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(0) }).unwrap();
        let CmdResult::Read { data, mapped: true } = r.result else {
            panic!("expected a mapped read, got {:?}", r.result);
        };
        let device_lba = s.translate(ns, Lba(0)).unwrap();
        let ppn = s.ftl().peek_mapping(device_lba).unwrap().unwrap();
        let block = s.ftl().nand().geometry().block_of(ppn);
        let erases = s.ftl().nand().pe_cycles(block).unwrap();
        let mut i = 0u64;
        while s.ftl().nand().pe_cycles(block).unwrap() == erases {
            assert!(i < 10_000, "garbage collection never erased {block:?}");
            write(&mut s, i % 64, 0x5A);
            i += 1;
        }
        assert_ne!(s.ftl().peek_mapping(device_lba).unwrap(), Some(ppn));
        assert!(data.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn queue_depth_enforced() {
        let mut s = ssd();
        s.create_namespace(16).unwrap();
        let qp = s.create_queue_pair(2);
        s.submit(qp, Command::GetLogPage).unwrap();
        s.submit(qp, Command::GetLogPage).unwrap();
        assert_eq!(s.submit(qp, Command::GetLogPage), Err(NvmeError::QueueFull));
        s.process_all();
        assert!(s.pop_completion(qp).unwrap().is_some());
    }

    #[test]
    fn completions_preserve_order_and_cids() {
        let mut s = ssd();
        let ns = s.create_namespace(16).unwrap();
        let qp = s.create_queue_pair(8);
        let c1 = s.submit(qp, Command::Read { ns, lba: Lba(0) }).unwrap();
        let c2 = s.submit(qp, Command::Read { ns, lba: Lba(1) }).unwrap();
        s.process_all();
        assert_eq!(s.pop_completion(qp).unwrap().unwrap().cid, c1);
        assert_eq!(s.pop_completion(qp).unwrap().unwrap().cid, c2);
        assert!(s.pop_completion(qp).unwrap().is_none());
    }

    #[test]
    fn service_rate_bounds_iops() {
        let mut s = ssd();
        let ns = s.create_namespace(1024).unwrap();
        let qp = s.create_queue_pair(64);
        let t0 = s.clock().now();
        let n = 1000u64;
        for i in 0..n {
            s.submit(
                qp,
                Command::Read {
                    ns,
                    lba: Lba(i % 1024),
                },
            )
            .unwrap();
            if i % 64 == 63 {
                s.process_all();
                while s.pop_completion(qp).unwrap().is_some() {}
            }
        }
        s.process_all();
        let elapsed = s.clock().elapsed_since(t0);
        let iops = n as f64 / elapsed.as_secs_f64();
        assert!(
            iops <= s.max_iops() * 1.01,
            "iops {iops} exceeds interface bound {}",
            s.max_iops()
        );
        // PCIe4 default should still deliver >1M IOPS on unmapped reads.
        assert!(iops > 1_000_000.0, "iops {iops} unexpectedly low");
    }

    #[test]
    fn rate_limit_mitigation_throttles() {
        let mut config = SsdConfig::test_small(1);
        config.controller.rate_limit_iops = Some(100_000.0);
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(256).unwrap();
        let qp = s.create_queue_pair(16);
        let t0 = s.clock().now();
        for i in 0..200u64 {
            s.roundtrip(
                qp,
                Command::Read {
                    ns,
                    lba: Lba(i % 256),
                },
            )
            .unwrap();
        }
        let elapsed = s.clock().elapsed_since(t0);
        let iops = 200.0 / elapsed.as_secs_f64();
        assert!(iops <= 101_000.0, "rate limit violated: {iops}");
    }

    #[test]
    fn hammer_rate_respects_rate_limit() {
        let mut config = SsdConfig::test_small(1);
        config.controller.rate_limit_iops = Some(50_000.0);
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(1024).unwrap();
        let report = s
            .hammer_reads(ns, &[Lba(0), Lba(512)], 10_000, 5_000_000.0)
            .unwrap();
        assert!(
            report.achieved_rate <= 51_000.0,
            "hammer bypassed the rate limit: {}",
            report.achieved_rate
        );
    }

    #[test]
    fn mapped_read_latency_includes_flash_time() {
        let mut s = ssd();
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        s.roundtrip(
            qp,
            Command::Write {
                ns,
                lba: Lba(0),
                data: vec![1u8; BLOCK_SIZE].into_boxed_slice(),
            },
        )
        .unwrap();
        let mapped = s.roundtrip(qp, Command::Read { ns, lba: Lba(0) }).unwrap();
        let unmapped = s.roundtrip(qp, Command::Read { ns, lba: Lba(5) }).unwrap();
        // tR (50us) dominates the mapped read; unmapped completes in
        // controller time (<1us).
        assert!(
            mapped.latency().as_nanos() >= 50_000,
            "mapped latency {}",
            mapped.latency()
        );
        assert!(
            unmapped.latency().as_nanos() < 5_000,
            "unmapped latency {}",
            unmapped.latency()
        );
    }

    #[test]
    fn disabled_fast_path_slows_unmapped_reads() {
        let mut config = SsdConfig::test_small(1);
        config.ftl.unmapped_fast_path = false;
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        let c = s.roundtrip(qp, Command::Read { ns, lba: Lba(3) }).unwrap();
        assert!(
            c.latency().as_nanos() >= 50_000,
            "slow unmapped path must pay flash time, got {}",
            c.latency()
        );
    }

    #[test]
    fn flash_latency_does_not_throttle_submission_rate() {
        // Queue-depth parallelism: a stream of mapped reads completes with
        // flash-bound latency but controller-bound *throughput*.
        let mut s = ssd();
        let ns = s.create_namespace(512).unwrap();
        let qp = s.create_queue_pair(64);
        for i in 0..512u64 {
            s.roundtrip(
                qp,
                Command::Write {
                    ns,
                    lba: Lba(i),
                    data: vec![1u8; BLOCK_SIZE].into_boxed_slice(),
                },
            )
            .unwrap();
        }
        let t0 = s.clock().now();
        let n = 2_000u64;
        for i in 0..n {
            s.submit(
                qp,
                Command::Read {
                    ns,
                    lba: Lba(i % 512),
                },
            )
            .unwrap();
            if i % 64 == 63 {
                s.process_all();
                while s.pop_completion(qp).unwrap().is_some() {}
            }
        }
        s.process_all();
        let iops = n as f64 / s.clock().elapsed_since(t0).as_secs_f64();
        assert!(
            iops > 1_000_000.0,
            "mapped-read throughput should stay controller-bound: {iops}"
        );
    }

    #[test]
    fn block_storage_view_works() {
        let mut s = ssd();
        let ns = s.create_namespace(64).unwrap();
        let mut view = s.namespace(ns).unwrap();
        assert_eq!(view.capacity_blocks(), 64);
        view.write(Lba(5), &[1u8; BLOCK_SIZE]).unwrap();
        assert_eq!(view.read(Lba(5)).unwrap()[0], 1);
        view.trim(Lba(5)).unwrap();
        assert_eq!(view.read(Lba(5)).unwrap()[0], 0);
        let err = view.read(Lba(64)).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }));
    }

    #[test]
    fn dif_turns_misdirection_into_integrity_error() {
        let mut config = SsdConfig::test_small(1);
        config.ftl.dif = true;
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        for lba in [1u64, 2] {
            s.roundtrip(
                qp,
                Command::Write {
                    ns,
                    lba: Lba(lba),
                    data: vec![lba as u8; BLOCK_SIZE].into_boxed_slice(),
                },
            )
            .unwrap();
        }
        // Redirect LBA 1 -> LBA 2's page via the DRAM backdoor (the useful
        // flip).
        let ppn2 = s.ftl().peek_mapping(Lba(2)).unwrap().unwrap();
        let addr1 = s.ftl().table().entry_addr(Lba(1));
        s.ftl_mut()
            .dram_mut()
            .write_u32(addr1, u32::try_from(ppn2.as_u64()).unwrap())
            .unwrap();
        let c = s.roundtrip(qp, Command::Read { ns, lba: Lba(1) }).unwrap();
        assert!(
            matches!(c.result, CmdResult::Error(NvmeError::Integrity { .. })),
            "{:?}",
            c.result
        );
        // The rightful owner still reads cleanly.
        let c2 = s.roundtrip(qp, Command::Read { ns, lba: Lba(2) }).unwrap();
        assert!(c2.is_ok());
    }

    #[test]
    fn encrypted_namespace_round_trips_but_ciphertext_differs() {
        let mut s = ssd();
        let ns = s.create_encrypted_namespace(64, 0xDEED).unwrap();
        let qp = s.create_queue_pair(8);
        let plaintext = vec![0x41u8; BLOCK_SIZE].into_boxed_slice();
        s.roundtrip(
            qp,
            Command::Write {
                ns,
                lba: Lba(3),
                data: plaintext.clone(),
            },
        )
        .unwrap();
        // Host round-trip is transparent, and stays so on a second read:
        // decryption works on a copy, never on the stored page.
        for _ in 0..2 {
            let c = s.roundtrip(qp, Command::Read { ns, lba: Lba(3) }).unwrap();
            let CmdResult::Read { data, .. } = c.result else {
                panic!()
            };
            assert_eq!(*data, *plaintext);
        }
        // But the physical page holds ciphertext.
        let device_lba = s.translate(ns, Lba(3)).unwrap();
        let mut raw = vec![0u8; BLOCK_SIZE];
        s.ftl_mut().read(device_lba, &mut raw).unwrap();
        assert_ne!(raw.as_slice(), plaintext.as_ref());
    }

    #[test]
    fn misdirected_read_of_encrypted_data_yields_garbage() {
        // §5: per-tenant encryption protects confidentiality from
        // misdirected reads — the redirected block decrypts with the wrong
        // LBA tweak.
        let mut s = ssd();
        let ns = s.create_encrypted_namespace(64, 0xBEEF).unwrap();
        let qp = s.create_queue_pair(8);
        let secret = vec![0x53u8; BLOCK_SIZE].into_boxed_slice();
        s.roundtrip(
            qp,
            Command::Write {
                ns,
                lba: Lba(2),
                data: secret.clone(),
            },
        )
        .unwrap();
        s.roundtrip(
            qp,
            Command::Write {
                ns,
                lba: Lba(1),
                data: vec![0u8; BLOCK_SIZE].into_boxed_slice(),
            },
        )
        .unwrap();
        // Redirect LBA 1 -> LBA 2's physical page.
        let d1 = s.translate(ns, Lba(1)).unwrap();
        let d2 = s.translate(ns, Lba(2)).unwrap();
        let ppn2 = s.ftl().peek_mapping(d2).unwrap().unwrap();
        let addr1 = s.ftl().table().entry_addr(d1);
        s.ftl_mut()
            .dram_mut()
            .write_u32(addr1, u32::try_from(ppn2.as_u64()).unwrap())
            .unwrap();
        let c = s.roundtrip(qp, Command::Read { ns, lba: Lba(1) }).unwrap();
        let CmdResult::Read { data, .. } = c.result else {
            panic!()
        };
        assert_ne!(
            *data, *secret,
            "wrong-tweak decryption must not reveal the secret"
        );
        assert!(
            data.iter().filter(|&&b| b == 0x53).count() < BLOCK_SIZE / 16,
            "the result should look like noise, not the secret"
        );
    }

    #[test]
    fn handle_carries_depth_and_converts_to_id() {
        let mut s = ssd();
        let h = s.create_queue_pair(16);
        assert_eq!(h.depth(), 16);
        let id: QpId = h.into();
        assert_eq!(id, h.id());
        // Both the handle and the raw id address the same queue.
        s.submit(h, Command::GetLogPage).unwrap();
        s.process_all();
        assert!(s.pop_completion(id).unwrap().is_some());
    }

    #[test]
    fn submit_batch_is_atomic_against_depth() {
        let mut s = ssd();
        let ns = s.create_namespace(16).unwrap();
        let qp = s.create_queue_pair(4);
        let cmds: Vec<Command> = (0..5).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
        // Five commands cannot fit a depth-4 queue: nothing is enqueued.
        assert_eq!(s.submit_batch(qp, &cmds), Err(NvmeError::QueueFull));
        s.process_all();
        assert!(s.drain_completions(qp).unwrap().is_empty());
        // Four fit, with contiguous ascending cids.
        let cids = s.submit_batch(qp, &cmds[..4]).unwrap();
        assert_eq!(cids.end - cids.start, 4, "contiguous ascending cid range");
        s.process_all();
        let done = s.drain_completions(qp).unwrap();
        assert_eq!(
            done.iter().map(|c| c.cid).collect::<Vec<_>>(),
            cids.collect::<Vec<_>>(),
            "completions drain in submission order"
        );
        assert!(s.drain_completions(qp).unwrap().is_empty());
    }

    #[test]
    fn batch_and_single_submission_cost_the_same_simulated_time() {
        // Batching amortizes host-side bookkeeping, not simulated service:
        // the device timeline must not depend on how commands were grouped.
        let elapsed = |batched: bool| {
            let mut s = ssd();
            let ns = s.create_namespace(64).unwrap();
            let qp = s.create_queue_pair(64);
            let cmds: Vec<Command> = (0..64).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
            let t0 = s.clock().now();
            if batched {
                s.submit_batch(qp, &cmds).unwrap();
            } else {
                for c in &cmds {
                    s.submit(qp, c.clone()).unwrap();
                }
            }
            s.process_all();
            s.clock().elapsed_since(t0)
        };
        assert_eq!(elapsed(true), elapsed(false));
    }

    #[test]
    fn round_robin_interleaves_active_queues() {
        let mut s = ssd();
        let ns = s.create_namespace(64).unwrap();
        let a = s.create_queue_pair(8);
        let b = s.create_queue_pair(8);
        let cmds: Vec<Command> = (0..4).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
        s.submit_batch(a, &cmds).unwrap();
        s.submit_batch(b, &cmds).unwrap();
        assert_eq!(s.process_all(), 8);
        // The clock advances strictly per serviced command, so completion
        // times reveal the service order: a,b,a,b,...
        let ca = s.drain_completions(a).unwrap();
        let cb = s.drain_completions(b).unwrap();
        let mut order: Vec<(SimTime, char)> = ca
            .iter()
            .map(|c| (c.completed, 'a'))
            .chain(cb.iter().map(|c| (c.completed, 'b')))
            .collect();
        order.sort();
        let tags: String = order.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, "abababab");
        // Per-queue telemetry saw the split.
        let snap = s.snapshot_telemetry();
        let completions = |h: QueuePairHandle| {
            snap.counter(&format!("nvme.qp{}.completions", h.id().0))
                .unwrap()
        };
        assert_eq!(completions(a), 4);
        assert_eq!(completions(b), 4);
    }

    #[test]
    fn max_iops_scales_with_saturated_queue_pairs() {
        let mut s = ssd();
        let single_core = s.max_iops();
        // One deep queue: still single-core.
        let _a = s.create_queue_pair(64);
        assert!((s.max_iops() - single_core).abs() < 1e-6);
        // Four deep queues: the ceiling quadruples (`Ssd::IO_CORES` = 4).
        let _b = s.create_queue_pair(64);
        let _c = s.create_queue_pair(64);
        let _d = s.create_queue_pair(64);
        assert!((s.max_iops() - 4.0 * single_core).abs() < 1e-6);
        // More queues cannot exceed the controller's cores.
        let _e = s.create_queue_pair(64);
        assert!((s.max_iops() - 4.0 * single_core).abs() < 1e-6);
    }

    #[test]
    fn shallow_queues_do_not_saturate_cores() {
        let mut s = ssd();
        let base = s.max_iops();
        // Two depth-2 queues each keep half a core busy: one core total.
        let _a = s.create_queue_pair(2);
        let _b = s.create_queue_pair(2);
        assert!((s.max_iops() - base).abs() < 1e-6);
        // Depth QD_SATURATION is a full core's worth.
        let _c = s.create_queue_pair(Ssd::QD_SATURATION as usize);
        let _d = s.create_queue_pair(Ssd::QD_SATURATION as usize);
        assert!((s.max_iops() - 3.0 * base).abs() < 1e-6);
    }

    #[test]
    fn rate_limit_caps_the_multi_queue_ceiling() {
        let mut config = SsdConfig::test_small(1);
        config.controller.rate_limit_iops = Some(100_000.0);
        let mut s = Ssd::build(config);
        for _ in 0..4 {
            s.create_queue_pair(64);
        }
        assert!((s.max_iops() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn hammer_burst_is_counted_as_reads_on_no_queue_pair() {
        let mut s = ssd();
        s.create_namespace(1024).unwrap();
        let burst = |s: &mut Ssd, lbas: &[Lba], requests| {
            s.hammer_device_reads(lbas, requests, 1_000_000.0, HammerOptions::default())
        };
        let report = burst(&mut s, &[Lba(0), Lba(512)], 5_000).unwrap();
        assert!(report.activations > 0);
        let snap = s.snapshot_telemetry();
        // The burst counts as 5 000 commands in device accounting...
        assert_eq!(snap.counter("nvme.submissions").unwrap(), 5_000);
        assert_eq!(snap.counter("nvme.completions").unwrap(), 5_000);
        // ...registers no queue pair...
        let mut names = snap
            .counters
            .iter()
            .map(|(k, _)| k)
            .chain(snap.gauges.iter().map(|(k, _)| k))
            .chain(snap.histograms.iter().map(|(k, _)| k));
        assert!(names.all(|k| !k.starts_with("nvme.qp")), "{snap:?}");
        // ...and leaves the IOPS ceiling at the single-core rate.
        let base = Ssd::build(SsdConfig::test_small(1)).max_iops();
        assert!((s.max_iops() - base).abs() < 1e-6);

        // A burst the FTL rejects still counts its requests.
        let past = Lba(s.ftl().capacity_lbas());
        assert!(burst(&mut s, &[Lba(0), past], 300).is_err());
        let snap = s.snapshot_telemetry();
        assert_eq!(snap.counter("nvme.submissions"), Some(5_300));
        assert_eq!(snap.counter("nvme.completions"), Some(5_300));

        // A burst takes no command id: host commands on either side of it
        // get consecutive ids.
        let qp = s.create_queue_pair(8);
        let first = s.submit(qp, Command::GetLogPage).unwrap();
        burst(&mut s, &[Lba(0)], 10).unwrap();
        let second = s.submit(qp, Command::GetLogPage).unwrap();
        assert_eq!(second, first + 1);
    }

    #[test]
    fn two_namespaces_share_one_ftl_table() {
        // The cross-partition attack premise (§4.1): one shared L2P table.
        let mut s = ssd();
        let a = s.create_namespace(128).unwrap();
        let b = s.create_namespace(128).unwrap();
        {
            let mut va = s.namespace(a).unwrap();
            va.write(Lba(0), &[0xA1u8; BLOCK_SIZE]).unwrap();
        }
        {
            let mut vb = s.namespace(b).unwrap();
            vb.write(Lba(0), &[0xB2u8; BLOCK_SIZE]).unwrap();
        }
        let la = s.translate(a, Lba(0)).unwrap();
        let lb = s.translate(b, Lba(0)).unwrap();
        // Both map through the same table; entries 0 and 128.
        assert_eq!(la, Lba(0));
        assert_eq!(lb, Lba(128));
        assert!(s.ftl().peek_mapping(la).unwrap().is_some());
        assert!(s.ftl().peek_mapping(lb).unwrap().is_some());
    }

    /// A flash geometry small enough that the tiny test DRAM holds both the
    /// L2P table and a Correct-mode integrity plane (4 Ki entries → 16 KiB
    /// table + 24 KiB plane inside 128 KiB).
    fn integrity_flash() -> FlashGeometry {
        FlashGeometry {
            blocks_per_plane: 32,
            ..FlashGeometry::tiny_test()
        }
    }

    #[test]
    fn scrubber_duty_lowers_the_iops_ceiling() {
        let base = Ssd::build(SsdConfig::test_small(1)).max_iops();
        let scrubbed = Ssd::build(SsdConfig {
            scrubber: true,
            ..SsdConfig::test_small(1)
        })
        .max_iops();
        assert!(
            scrubbed < base,
            "scrubbing steals service capacity: {scrubbed} !< {base}"
        );
        // ...but a patrol's duty cycle is a few percent, not a cliff.
        assert!(scrubbed > base * 0.9);
    }

    #[test]
    fn get_log_page_reports_health() {
        let mut s = ssd();
        s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        let c = s.roundtrip(qp, Command::GetLogPage).unwrap();
        let CmdResult::HealthLog(log) = c.result else {
            panic!("expected health log");
        };
        assert_eq!(log, HealthLog::default());
        assert!(!log.read_only);
    }

    #[test]
    fn scrubber_repairs_corrupted_entries_between_commands() {
        let config = SsdConfig {
            flash_geometry: integrity_flash(),
            ftl: FtlConfig {
                integrity: ssdhammer_ftl::IntegrityMode::Correct,
                ..FtlConfig::default()
            },
            scrubber: true,
            ..SsdConfig::test_small(1)
        };
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        for lba in 0..8u64 {
            let c = s
                .roundtrip(
                    qp,
                    Command::Write {
                        ns,
                        lba: Lba(lba),
                        data: vec![lba as u8; BLOCK_SIZE].into_boxed_slice(),
                    },
                )
                .unwrap();
            assert!(c.is_ok());
        }
        // Flip one bit in a live L2P entry behind the FTL's back.
        let addr = s.ftl().table().entry_addr(Lba(3));
        let raw = s.ftl_mut().dram_mut().read_u32(addr).unwrap();
        s.ftl_mut().dram_mut().write_u32(addr, raw ^ 0x04).unwrap();
        // Let enough simulated time pass that the patrol owes a full sweep,
        // then drive any command through the controller to pump it.
        s.clock().advance(SimDuration::from_millis(500));
        let _ = s.roundtrip(qp, Command::GetLogPage).unwrap();
        let c = s.roundtrip(qp, Command::GetLogPage).unwrap();
        let CmdResult::HealthLog(log) = c.result else {
            panic!("expected health log");
        };
        assert!(log.scrub_repairs >= 1, "patrol repaired the flip: {log:?}");
        assert!(log.integrity_repaired >= 1);
        assert!(!log.read_only);
        // The host read sees the original mapping, not a redirection.
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(3) }).unwrap();
        let CmdResult::Read { data, mapped } = r.result else {
            panic!("expected read data");
        };
        assert!(mapped);
        assert_eq!(data[0], 3);
    }

    #[test]
    fn integrity_detect_fails_reads_loudly_over_nvme() {
        let config = SsdConfig {
            flash_geometry: integrity_flash(),
            ftl: FtlConfig {
                integrity: ssdhammer_ftl::IntegrityMode::Detect,
                ..FtlConfig::default()
            },
            ..SsdConfig::test_small(1)
        };
        let mut s = Ssd::build(config);
        let ns = s.create_namespace(64).unwrap();
        let qp = s.create_queue_pair(8);
        let c = s
            .roundtrip(
                qp,
                Command::Write {
                    ns,
                    lba: Lba(5),
                    data: vec![0x55u8; BLOCK_SIZE].into_boxed_slice(),
                },
            )
            .unwrap();
        assert!(c.is_ok());
        let addr = s.ftl().table().entry_addr(Lba(5));
        let raw = s.ftl_mut().dram_mut().read_u32(addr).unwrap();
        s.ftl_mut().dram_mut().write_u32(addr, raw ^ 0x10).unwrap();
        let r = s.roundtrip(qp, Command::Read { ns, lba: Lba(5) }).unwrap();
        assert!(
            matches!(
                r.result,
                CmdResult::Error(NvmeError::Ftl(ssdhammer_ftl::FtlError::L2pIntegrity { .. }))
            ),
            "detect mode fails loudly instead of redirecting: {:?}",
            r.result
        );
    }

    #[test]
    fn view_and_command_classify_an_l2p_failure_alike() {
        // A Detect-mode integrity failure on the L2P lookup fails a read of
        // that block alike on both paths: a command with the FTL's typed
        // error, the view with `Uncorrectable` at the namespace-relative
        // LBA. A write or trim needs no old mapping, so both paths install
        // the new one over the entry.
        let config = SsdConfig {
            flash_geometry: integrity_flash(),
            ftl: FtlConfig {
                integrity: ssdhammer_ftl::IntegrityMode::Detect,
                ..FtlConfig::default()
            },
            ..SsdConfig::test_small(1)
        };
        let mut s = Ssd::build(config);
        s.create_namespace(8).unwrap();
        let ns = s.create_namespace(64).unwrap();
        s.namespace(ns)
            .unwrap()
            .write(Lba(5), &[0x55u8; BLOCK_SIZE])
            .unwrap();
        let addr = s.ftl().table().entry_addr(s.translate(ns, Lba(5)).unwrap());
        let poison = |s: &mut Ssd| {
            let raw = s.ftl_mut().dram_mut().read_u32(addr).unwrap();
            s.ftl_mut().dram_mut().write_u32(addr, raw ^ 0x10).unwrap();
        };
        poison(&mut s);
        let qp = s.create_queue_pair(8);
        let c = s.roundtrip(qp, Command::Read { ns, lba: Lba(5) }).unwrap();
        assert!(
            matches!(
                c.result,
                CmdResult::Error(NvmeError::Ftl(FtlError::L2pIntegrity { .. }))
            ),
            "{:?}",
            c.result
        );
        let mut view = s.namespace(ns).unwrap();
        assert_eq!(
            view.read(Lba(5)),
            Err(StorageError::Uncorrectable { lba: Lba(5) })
        );
        assert_eq!(view.write(Lba(5), &[1u8; BLOCK_SIZE]), Ok(()));
        assert_eq!(view.read(Lba(5)).unwrap()[..], [1u8; BLOCK_SIZE]);
        poison(&mut s);
        let c = s.roundtrip(qp, Command::Trim { ns, lba: Lba(5) }).unwrap();
        assert!(c.is_ok(), "{:?}", c.result);
    }
}
