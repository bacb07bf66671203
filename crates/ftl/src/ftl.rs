//! The page-mapped flash translation layer.
//!
//! Structurally modeled on the SPDK FTL the paper attacked (§4.1): a
//! DRAM-resident L2P array, out-of-place writes with an append point, greedy
//! garbage collection, and wear-aware block allocation. Every L2P lookup and
//! update is a real access to the simulated [`DramModule`], so host I/O
//! produces DRAM row activations — the attack surface.

use std::sync::Arc;

use ssdhammer_dram::{DramError, DramModule, EccOutcome, HammerOptions, HammerReport};
use ssdhammer_flash::{BlockId, FlashArray, FlashError, PageBytes, Ppn};
use ssdhammer_simkit::faultplane::FaultPlane;
use ssdhammer_simkit::record::{dword, word};
use ssdhammer_simkit::rng::derive_seed;
use ssdhammer_simkit::telemetry::{CounterHandle, GaugeHandle, Telemetry};
use ssdhammer_simkit::{DramAddr, Lba, SimClock, SimTime, BLOCK_SIZE};

use crate::integrity::{IntegrityMode, IntegrityPlane, VerifyOutcome};
use crate::journal::{self, JournalEntry};
use crate::l2p::{decode_entry, encode_entry, L2pLayout, L2pTable};
use crate::meta::{MetaKind, MetaPlane};

/// Errors surfaced by FTL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// LBA beyond the exported capacity.
    OutOfRange {
        /// The offending address.
        lba: Lba,
    },
    /// Buffer is not exactly one 4 KiB block.
    BadBufferLen {
        /// Supplied length.
        got: usize,
    },
    /// No free space remains even after garbage collection.
    DeviceFull,
    /// The underlying DRAM failed (e.g. ECC-uncorrectable L2P entry).
    Dram(DramError),
    /// The underlying flash failed.
    Flash(FlashError),
    /// A flash page stayed unreadable through the whole recovery ladder
    /// (read retries, then ECC escalation).
    Uncorrectable {
        /// The page that could not be read.
        ppn: Ppn,
    },
    /// The device degraded to read-only mode (remap or journal budget
    /// exhausted); writes and trims are rejected, reads still work.
    ReadOnly,
    /// A (simulated) power loss occurred; all operations fail until the
    /// device is remounted via [`Ftl::recover`].
    PowerLoss,
    /// A physical page number does not fit the 32-bit L2P entry (or
    /// collides with the unmapped sentinel) — the caller built an
    /// impossible geometry.
    EntryOverflow {
        /// The unrepresentable page.
        ppn: Ppn,
    },
    /// L2P entry integrity verification failed and the entry could not be
    /// repaired ([`FtlConfig::integrity`]); the lookup fails loudly
    /// instead of serving a (possibly redirected) mapping.
    L2pIntegrity {
        /// The LBA whose entry diverged.
        lba: Lba,
    },
}

impl FtlError {
    /// A stable, variant-level signature for failure triage: equal
    /// signatures bucket together in fuzz reports regardless of the
    /// addresses or inner errors carried by the variant.
    #[must_use]
    pub fn signature(&self) -> &'static str {
        match self {
            FtlError::OutOfRange { .. } => "out_of_range",
            FtlError::BadBufferLen { .. } => "bad_buffer_len",
            FtlError::DeviceFull => "device_full",
            FtlError::Dram(_) => "dram",
            FtlError::Flash(_) => "flash",
            FtlError::Uncorrectable { .. } => "uncorrectable",
            FtlError::ReadOnly => "read_only",
            FtlError::PowerLoss => "power_loss",
            FtlError::EntryOverflow { .. } => "entry_overflow",
            FtlError::L2pIntegrity { .. } => "l2p_integrity",
        }
    }
}

/// The host-visible operation classes an [`FtlError`] can surface from,
/// used by [`error_is_legal`] to judge whether a typed error is a lawful
/// response or itself a contract violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// [`Ftl::read`].
    Read,
    /// [`Ftl::write`].
    Write,
    /// [`Ftl::trim`].
    Trim,
    /// [`Ftl::flush`].
    Flush,
    /// [`Ftl::scrub_chunk`].
    Scrub,
    /// [`Ftl::hammer_reads`].
    Hammer,
}

/// The typed-error legality table: whether `err` is a *lawful* response
/// to an in-range, well-formed `op` — media failures and loud degradation
/// are part of the contract; validation errors against valid requests and
/// spontaneous power loss are not. `cut_armed` states whether a fault-plane
/// power cut is armed for this workload: [`FtlError::PowerLoss`] is lawful
/// only then. The fuzz oracle flags any illegal error as a divergence.
#[must_use]
pub fn error_is_legal(op: HostOp, err: &FtlError, cut_armed: bool) -> bool {
    match err {
        // The fuzzer only issues in-range, block-sized requests on sane
        // geometries, so validation errors signal FTL-side corruption.
        FtlError::OutOfRange { .. }
        | FtlError::BadBufferLen { .. }
        | FtlError::EntryOverflow { .. } => false,
        // Capacity exhaustion is only a lawful answer to a write.
        FtlError::DeviceFull => op == HostOp::Write,
        // Loud media/integrity failures are always lawful: the contract is
        // "never lie", not "never fail".
        FtlError::Dram(_)
        | FtlError::Flash(_)
        | FtlError::Uncorrectable { .. }
        | FtlError::L2pIntegrity { .. } => true,
        // Read-only degradation rejects mutations; reads and hammer reads
        // must still be served.
        FtlError::ReadOnly => !matches!(op, HostOp::Read | HostOp::Hammer),
        // Power loss is lawful exactly when a cut is armed.
        FtlError::PowerLoss => cut_armed,
    }
}

impl From<DramError> for FtlError {
    fn from(e: DramError) -> Self {
        FtlError::Dram(e)
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

impl core::fmt::Display for FtlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FtlError::OutOfRange { lba } => write!(f, "{lba} beyond exported capacity"),
            FtlError::BadBufferLen { got } => {
                write!(f, "buffer length {got}, expected {BLOCK_SIZE}")
            }
            FtlError::DeviceFull => write!(f, "device full"),
            FtlError::Dram(e) => write!(f, "dram: {e}"),
            FtlError::Flash(e) => write!(f, "flash: {e}"),
            FtlError::Uncorrectable { ppn } => {
                write!(f, "{ppn} unreadable after retry ladder and ECC")
            }
            FtlError::ReadOnly => write!(f, "device degraded to read-only"),
            FtlError::PowerLoss => write!(f, "power lost; remount required"),
            FtlError::EntryOverflow { ppn } => {
                write!(f, "{ppn} does not fit a 32-bit L2P entry")
            }
            FtlError::L2pIntegrity { lba } => {
                write!(f, "L2P entry of {lba} failed integrity verification")
            }
        }
    }
}

impl std::error::Error for FtlError {}

/// Fault-plane crash sites consulted on the FTL's metadata-persistence
/// paths, one per recovery-critical structure. Each behaves like the
/// `ftl.power_loss` site — when it fires, power is cut at that exact
/// point and the device stays offline until [`Ftl::recover`] — but is
/// placed *inside* the persistence operation, so torture campaigns
/// (`simkit::torture`) can cut power at every journal append, mirror
/// write-through, grown-bad remap, scrub pass, and explicit flush a
/// workload performs.
pub const CRASH_SITES: &[&str] = &[
    "ftl.crash.journal_append",
    "ftl.crash.meta_mirror",
    "ftl.crash.bad_block_remap",
    "ftl.crash.scrub_repair",
    "ftl.crash.l2p_flush",
];

/// DRAM byte address where the L2P table starts: the bottom of DRAM.
const L2P_BASE: DramAddr = DramAddr(0);

/// Garbage collection starts when the free-block count drops to this.
const GC_FREE_THRESHOLD: usize = 2;

/// FTL construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlConfig {
    /// L2P placement policy.
    pub l2p_layout: L2pLayout,
    /// DRAM activations of the entry's row per host I/O. The paper's SPDK
    /// prototype amplified to 5 per request to compensate for its slow
    /// testbed (§4.1); real firmware corresponds to 1.
    pub hammer_amplification: u32,
    /// Serve reads of unmapped/trimmed LBAs without touching flash — the
    /// acceleration the paper notes attackers prefer (§3, threat model).
    pub unmapped_fast_path: bool,
    /// Relocate a block once it has served this many reads since its last
    /// erase, to stay ahead of NAND read disturb. `None` disables
    /// read-refresh (data then degrades past the flash's tolerance).
    pub read_refresh_threshold: Option<u64>,
    /// T10-DIF-style block integrity (§5: "block data integrity … algorithms
    /// protect data integrity … from misdirected writes by relying on the
    /// block's LBA to digest … block data"): every page stores a guard tag
    /// binding (LBA, data); reads verify it, so a redirected mapping fails
    /// loudly instead of silently serving another block's data.
    pub dif: bool,
    /// Read-retry ladder depth: how many times a failed media read is
    /// re-issued before escalating to ECC classification.
    pub read_retry_max: u32,
    /// Blocks the FTL may retire (grown-bad remaps) before degrading to
    /// read-only mode.
    pub remap_budget: u32,
    /// Checkpoint the L2P change journal to flash every this many logged
    /// mutations. `0` disables journaling entirely (TRIMs are then lost
    /// across power cuts, as in journal-less FTLs).
    pub journal_checkpoint_every: u32,
    /// Flash blocks reserved for the journal when journaling is enabled
    /// (subtracted from the exported capacity). When the region fills, the
    /// device degrades to read-only.
    pub journal_blocks: u32,
    /// L2P entry integrity protection: per-entry SEC-DED codes (and, in
    /// [`IntegrityMode::Correct`], a distant mirror copy) verified on the
    /// firmware's read path. See [`crate::integrity`].
    pub integrity: IntegrityMode,
    /// Keep FTL metadata (grown-bad-block table, wear counters, journal
    /// write cache) resident in DRAM alongside the L2P table, making it a
    /// rowhammer target of its own. See [`crate::meta`]. Off by default:
    /// write-through costs timed DRAM accesses.
    pub meta_resident: bool,
    /// Verify per-record CRC-32C during journal replay (on by default).
    /// Disabling it replays torn journal tails as wild mappings — a
    /// planted bug kept behind a knob so the fuzz oracle's planted-bug
    /// test can prove the differential check catches the corruption.
    /// Never disable outside such a test.
    pub journal_verify_crc: bool,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            l2p_layout: L2pLayout::Linear,
            hammer_amplification: 1,
            unmapped_fast_path: true,
            // Half the flash default tolerance: hot metadata pages (e.g. a
            // filesystem's directory blocks, re-read on every lookup) cross
            // the NAND read-disturb limit quickly; production FTLs relocate
            // them preemptively.
            read_refresh_threshold: Some(50_000),
            dif: false,
            read_retry_max: 4,
            remap_budget: 16,
            journal_checkpoint_every: 0,
            journal_blocks: 2,
            integrity: IntegrityMode::Off,
            meta_resident: false,
            journal_verify_crc: true,
        }
    }
}

/// What a read translated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Entry was the unmapped sentinel; zeroes returned without flash access.
    Unmapped,
    /// Entry was unmapped but the fast path is disabled
    /// ([`FtlConfig::unmapped_fast_path`]): the firmware performed a flash
    /// access anyway, costing real channel time.
    SlowUnmapped {
        /// Flash completion time of the wasted access.
        completed: SimTime,
    },
    /// Entry decoded to a physical page beyond the array — a wildly
    /// corrupted mapping. Zeroes returned.
    Wild {
        /// The raw (corrupt) page number found in the entry.
        entry: u64,
    },
    /// DIF verification failed: the mapped page's guard tag does not match
    /// this LBA+data (a misdirected mapping). Zeroes returned; the host sees
    /// an integrity error instead of another block's data.
    GuardMismatch {
        /// The physical page that failed verification.
        ppn: Ppn,
    },
    /// Entry pointed at a real page, which was read.
    Mapped {
        /// The physical page served.
        ppn: Ppn,
        /// Flash completion time of the read.
        completed: SimTime,
    },
}

/// Handles into the shared registry, resolved once at bind time.
#[derive(Debug, Clone)]
struct FtlHandles {
    registry: Telemetry,
    host_reads: CounterHandle,
    host_writes: CounterHandle,
    host_trims: CounterHandle,
    gc_runs: CounterHandle,
    gc_relocated: CounterHandle,
    read_refreshes: CounterHandle,
    l2p_reads: CounterHandle,
    l2p_writes: CounterHandle,
    redirections_detected: CounterHandle,
    read_retries: CounterHandle,
    ecc_corrected: CounterHandle,
    silent_corruptions: CounterHandle,
    uncorrectable_reads: CounterHandle,
    bad_block_remaps: CounterHandle,
    journal_checkpoints: CounterHandle,
    journal_replayed: CounterHandle,
    power_losses: CounterHandle,
    read_only: GaugeHandle,
    integrity_detected: CounterHandle,
    integrity_repaired: CounterHandle,
    integrity_mirror_repairs: CounterHandle,
    integrity_unrepairable: CounterHandle,
    scrub_entries_checked: CounterHandle,
    scrub_repairs: CounterHandle,
    scrub_flash_reads: CounterHandle,
    scrub_sweeps: CounterHandle,
    /// The DRAM's `dram.ecc.corrected`, read by `Ftl::repairs_total`.
    dram_ecc_corrected: CounterHandle,
    /// The NAND's `flash.programs`, read by `Ftl::write_amplification`.
    flash_programs: CounterHandle,
}

impl FtlHandles {
    fn bind(registry: Telemetry) -> Self {
        FtlHandles {
            host_reads: registry.counter("ftl.host_reads"),
            host_writes: registry.counter("ftl.host_writes"),
            host_trims: registry.counter("ftl.host_trims"),
            gc_runs: registry.counter("ftl.gc_runs"),
            gc_relocated: registry.counter("ftl.gc_relocated"),
            read_refreshes: registry.counter("ftl.read_refreshes"),
            l2p_reads: registry.counter("ftl.l2p_reads"),
            l2p_writes: registry.counter("ftl.l2p_writes"),
            redirections_detected: registry.counter("ftl.redirections_detected"),
            read_retries: registry.counter("recovery.read_retries"),
            ecc_corrected: registry.counter("recovery.ecc_corrected"),
            silent_corruptions: registry.counter("recovery.silent_corruptions"),
            uncorrectable_reads: registry.counter("recovery.uncorrectable_reads"),
            bad_block_remaps: registry.counter("recovery.bad_block_remaps"),
            journal_checkpoints: registry.counter("recovery.journal_checkpoints"),
            journal_replayed: registry.counter("recovery.journal_replayed"),
            power_losses: registry.counter("recovery.power_losses"),
            read_only: registry.gauge("recovery.read_only"),
            integrity_detected: registry.counter("integrity.detected"),
            integrity_repaired: registry.counter("integrity.repaired"),
            integrity_mirror_repairs: registry.counter("integrity.mirror_repairs"),
            integrity_unrepairable: registry.counter("integrity.unrepairable"),
            scrub_entries_checked: registry.counter("scrub.entries_checked"),
            scrub_repairs: registry.counter("scrub.repairs"),
            scrub_flash_reads: registry.counter("scrub.flash_reads"),
            scrub_sweeps: registry.counter("scrub.sweeps"),
            dram_ecc_corrected: registry.counter("dram.ecc.corrected"),
            flash_programs: registry.counter("flash.programs"),
            registry,
        }
    }
}

/// The flash translation layer. See the module docs.
///
/// # Examples
///
/// ```
/// use ssdhammer_ftl::{Ftl, FtlConfig};
/// use ssdhammer_simkit::Lba;
///
/// # fn main() -> Result<(), ssdhammer_ftl::FtlError> {
/// let mut ftl = Ftl::tiny_for_tests(1)?;
/// let block = vec![0x42u8; 4096];
/// ftl.write(Lba(7), &block)?;
/// let mut out = vec![0u8; 4096];
/// ftl.read(Lba(7), &mut out)?;
/// assert_eq!(out, block);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ftl {
    dram: DramModule,
    nand: FlashArray,
    config: FtlConfig,
    table: L2pTable,
    clock: SimClock,
    exported_lbas: u64,
    free_blocks: Vec<BlockId>,
    sealed_blocks: Vec<BlockId>,
    active_block: Option<BlockId>,
    valid: Vec<bool>,
    valid_count: Vec<u32>,
    /// Monotonic write sequence stamped into every page's OOB, so
    /// [`Ftl::recover`] can order versions of the same LBA.
    write_seq: u64,
    tel: FtlHandles,
    /// Shared fault-decision plane (taken from the NAND array at assembly).
    fault_plane: FaultPlane,
    /// False after a simulated power cut; every operation then fails with
    /// [`FtlError::PowerLoss`] until the device is remounted.
    powered: bool,
    /// True once a budget was exhausted; mutations fail with
    /// [`FtlError::ReadOnly`].
    read_only: bool,
    /// Blocks retired grown-bad so far, measured against
    /// [`FtlConfig::remap_budget`].
    remap_events: u32,
    /// Flash blocks reserved for the journal (empty when disabled).
    journal_region: Vec<BlockId>,
    /// Mutations logged but not yet checkpointed to flash.
    journal_buf: Vec<JournalEntry>,
    /// L2P protection plane (`None` when [`FtlConfig::integrity`] is Off).
    integrity: Option<IntegrityPlane>,
    /// DRAM-resident metadata mirrors (`None` unless
    /// [`FtlConfig::meta_resident`]).
    meta: Option<MetaPlane>,
    /// Next LBA the patrol scrubber will verify.
    scrub_cursor: u64,
    /// Next physical page the flash patrol will consider.
    patrol_cursor: u64,
    /// The one all-zero page [`Ftl::read_shared`] serves for every read
    /// that returns zeroes (unmapped, wild, guard mismatch).
    zeroes: Arc<[u8]>,
}

/// Bytes of the FTL's record in a page's OOB area.
const OOB_BYTES: usize = 20;

/// OOB layout: little-endian LBA (8 bytes), write sequence (8 bytes), then
/// the DIF guard tag (4 bytes; zero when DIF is off).
fn encode_oob(lba: Lba, seq: u64, guard: u32) -> [u8; OOB_BYTES] {
    let mut oob = [0u8; OOB_BYTES];
    oob[..8].copy_from_slice(&lba.as_u64().to_le_bytes());
    oob[8..16].copy_from_slice(&seq.to_le_bytes());
    oob[16..].copy_from_slice(&guard.to_le_bytes());
    oob
}

/// Inverse of [`encode_oob`]. An OOB area too short for the record decodes
/// like an erased one (every field all ones), which every caller already
/// treats as "no data page here".
fn decode_oob(oob: &[u8]) -> (Lba, u64, u32) {
    match oob.first_chunk::<OOB_BYTES>() {
        Some(record) => (Lba(dword(record, 0)), dword(record, 2), word(record, 4)),
        None => (Lba(u64::MAX), u64::MAX, u32::MAX),
    }
}

/// The DIF guard: CRC-32C over the LBA and the block payload.
fn dif_guard(lba: Lba, data: &[u8]) -> u32 {
    let mut state = !0u32;
    state = ssdhammer_simkit::crc32c_update(state, &lba.as_u64().to_le_bytes());
    state = ssdhammer_simkit::crc32c_update(state, data);
    !state
}

impl Ftl {
    /// Assembles an FTL over the given DRAM and flash. Initializes the L2P
    /// table in DRAM (all entries unmapped).
    ///
    /// # Errors
    ///
    /// Fails if the L2P table does not fit in the DRAM module, or on DRAM
    /// errors during initialization.
    ///
    /// # Panics
    ///
    /// Panics if `hammer_amplification` is zero or physical page numbers do
    /// not fit 32-bit entries.
    pub fn new(dram: DramModule, nand: FlashArray, config: FtlConfig) -> Result<Self, FtlError> {
        assert!(
            config.hammer_amplification >= 1,
            "amplification must be >= 1"
        );
        let mut dram = dram;
        let geometry = *nand.geometry();
        assert!(
            geometry.total_pages() < u64::from(crate::l2p::INVALID_ENTRY),
            "flash too large for 32-bit L2P entries"
        );
        let mut good = nand.good_blocks();
        // Overprovisioning (not exported): 1/16 of all blocks, at least 2.
        let op = ((geometry.total_blocks() / 16) as u32).max(2);
        // Journaling reserves whole blocks off the top of the good list
        // (the highest ids, so data blocks keep their usual placement).
        let journal_reserve = if config.journal_checkpoint_every > 0 {
            config.journal_blocks as usize
        } else {
            0
        };
        assert!(
            good.len() > op as usize + journal_reserve,
            "overprovisioning and journal reservation exceed usable blocks"
        );
        let journal_region = good.split_off(good.len() - journal_reserve);
        let exported_lbas =
            (good.len() as u64 - u64::from(op)) * u64::from(geometry.pages_per_block);
        let table = L2pTable::new(L2P_BASE, exported_lbas, config.l2p_layout);
        let dram_cap = dram.mapping().geometry().total_bytes().as_u64();
        if L2P_BASE.as_u64() + table.size_bytes() > dram_cap {
            return Err(FtlError::Dram(DramError::OutOfRange { addr: L2P_BASE }));
        }
        table.init(&mut dram)?;
        // The integrity plane claims the far end of DRAM — distant rows the
        // attacker's table-tuned hammer pattern does not reach.
        let integrity = if config.integrity == IntegrityMode::Off {
            None
        } else {
            let primary_end = L2P_BASE.as_u64() + table.size_bytes();
            let plane = IntegrityPlane::plan(
                config.integrity,
                table.size_bytes() / 4,
                primary_end,
                dram_cap,
            )
            .ok_or(FtlError::Dram(DramError::OutOfRange {
                addr: DramAddr(dram_cap),
            }))?;
            plane.init(&mut dram, crate::l2p::INVALID_ENTRY)?;
            Some(plane)
        };
        // The metadata mirrors pack into the L2P table's slot-padding tail
        // when it is free (linear layout leaves slots ≥ capacity unused, and
        // no integrity codes cover them): firmware lays metadata right
        // behind the entries, and that adjacency is what exposes it — the
        // metadata words share controller swizzle groups with live entries,
        // so their DRAM rows neighbor host-activatable rows. When the tail
        // is occupied (hashed layout) or covered (integrity on) or too
        // small, fall back to row-aligned regions after the table, below the
        // integrity plane's reservation at the top of DRAM.
        let meta = if config.meta_resident {
            let primary_end = L2P_BASE.as_u64() + table.size_bytes();
            let limit = integrity
                .as_ref()
                .map_or(dram_cap, |p| p.region_start().as_u64());
            let row_bytes = u64::from(dram.mapping().geometry().row_bytes);
            let tail_free =
                config.l2p_layout == L2pLayout::Linear && config.integrity == IntegrityMode::Off;
            let entries_end = L2P_BASE.as_u64() + exported_lbas * 4;
            let plane = tail_free
                .then(|| MetaPlane::plan_packed(geometry.total_blocks(), entries_end, primary_end))
                .flatten()
                .or_else(|| MetaPlane::plan(geometry.total_blocks(), primary_end, row_bytes, limit))
                .ok_or(FtlError::Dram(DramError::OutOfRange {
                    addr: DramAddr(dram_cap),
                }))?;
            plane.init(&mut dram)?;
            Some(plane)
        } else {
            None
        };
        // One registry for the whole sub-stack: the DRAM module's registry
        // becomes the FTL's, and the NAND array is rebound onto it.
        let registry = dram.shared_telemetry();
        let mut nand = nand;
        nand.attach_telemetry(&registry);
        let clock = dram.clock().clone();
        let total_pages = geometry.total_pages() as usize;
        let fault_plane = nand.fault_plane().clone();
        Ok(Ftl {
            dram,
            nand,
            config,
            table,
            clock,
            exported_lbas,
            free_blocks: good,
            sealed_blocks: Vec::new(),
            active_block: None,
            valid: vec![false; total_pages],
            valid_count: vec![0; geometry.total_blocks() as usize],
            write_seq: 0,
            tel: FtlHandles::bind(registry),
            fault_plane,
            powered: true,
            read_only: false,
            remap_events: 0,
            journal_region,
            journal_buf: Vec::new(),
            integrity,
            meta,
            scrub_cursor: 0,
            patrol_cursor: 0,
            zeroes: vec![0u8; BLOCK_SIZE].into(),
        })
    }

    /// Rebuilds an FTL from the flash array's out-of-band metadata, as after
    /// a power loss: every programmed page carries `(LBA, sequence)` in its
    /// OOB, and the highest sequence per LBA wins.
    ///
    /// Without a journal ([`FtlConfig::journal_checkpoint_every`] `== 0`),
    /// a limitation shared with journal-less real FTLs applies: TRIMs are
    /// not persisted, so blocks trimmed before the crash come back mapped
    /// to their last written content. With the journal enabled, checkpointed
    /// TRIMs (and all other mutations) replay exactly; only the at most
    /// `journal_checkpoint_every - 1` entries still buffered in (lost)
    /// DRAM are subject to the journal-less limitation.
    ///
    /// # Errors
    ///
    /// Same classes as [`Ftl::new`].
    pub fn recover(
        dram: DramModule,
        nand: FlashArray,
        config: FtlConfig,
    ) -> Result<Self, FtlError> {
        let mut ftl = Self::new(dram, nand, config)?;
        let geometry = *ftl.nand.geometry();
        // Winner version per LBA by sequence; `None` means "trimmed".
        let mut winners: std::collections::BTreeMap<u64, (u64, Option<Ppn>)> =
            std::collections::BTreeMap::new();
        let mut max_seq = 0u64;
        let blocks = ftl.nand.good_blocks();
        for &block in &blocks {
            if ftl.journal_region.contains(&block) {
                continue;
            }
            let filled = ftl.nand.next_page(block)?;
            let first = geometry.first_page(block).as_u64();
            for p in first..first + u64::from(filled) {
                let (lba, seq, _) = decode_oob(ftl.nand.read_oob(Ppn(p))?);
                if lba.as_u64() >= ftl.exported_lbas {
                    continue; // stale, foreign, or journal metadata
                }
                max_seq = max_seq.max(seq);
                let slot = winners.entry(lba.as_u64()).or_insert((seq, Some(Ppn(p))));
                if seq >= slot.0 {
                    *slot = (seq, Some(Ppn(p)));
                }
            }
        }
        // Journal replay: checkpointed mutations (notably TRIMs, which the
        // OOB scan cannot see) override scan winners by sequence order.
        let mut entries = Vec::new();
        for &block in &ftl.journal_region.clone() {
            let filled = ftl.nand.next_page(block)?;
            let first = geometry.first_page(block).as_u64();
            for p in first..first + u64::from(filled) {
                let (marker, _, _) = decode_oob(ftl.nand.read_oob(Ppn(p))?);
                if marker.as_u64() != journal::JOURNAL_LBA_MARKER {
                    continue; // burned or torn journal slot
                }
                // Recovery reads bypass fault injection (assisted mode):
                // remount happens under controller-managed retry voltages.
                let (page, _) = ftl.nand.read_page_assisted(Ppn(p))?;
                let decoded = journal::decode_page_with(&page, ftl.config.journal_verify_crc);
                if decoded.torn {
                    ftl.tel.registry.trace(
                        ftl.clock.now(),
                        "ftl.journal.torn_tail",
                        format!(
                            "journal page {p}: torn tail truncated after {} records",
                            decoded.entries.len()
                        ),
                    );
                }
                entries.extend(decoded.entries);
            }
        }
        entries.sort_by_key(|e| e.seq);
        let replayed = entries.len() as u64;
        for e in entries {
            if e.lba >= ftl.exported_lbas {
                continue;
            }
            // Guard against corrupted journal payloads: a mapping outside
            // the array is treated as a trim rather than indexed blindly.
            let mapped = decode_entry(e.ppn).filter(|p| p.as_u64() < geometry.total_pages());
            max_seq = max_seq.max(e.seq);
            let slot = winners.entry(e.lba).or_insert((e.seq, mapped));
            if e.seq >= slot.0 {
                *slot = (e.seq, mapped);
            }
        }
        ftl.tel.journal_replayed.add(replayed);
        for (lba, (_, ppn)) in &winners {
            if let Some(ppn) = ppn {
                ftl.l2p_set(Lba(*lba), Some(*ppn))?;
                ftl.mark_valid(*ppn);
            }
        }
        ftl.write_seq = max_seq + 1;
        // Block bookkeeping: empty blocks are free, everything else sealed
        // (a fresh active block is opened on the next write). The journal
        // region stays reserved.
        ftl.free_blocks.clear();
        ftl.sealed_blocks.clear();
        ftl.active_block = None;
        for &block in &blocks {
            if ftl.journal_region.contains(&block) {
                continue;
            }
            if ftl.nand.next_page(block)? == 0 {
                ftl.free_blocks.push(block);
            } else {
                ftl.sealed_blocks.push(block);
            }
        }
        Ok(ftl)
    }

    /// Tears the FTL apart into its substrates — used by crash-recovery
    /// tests and experiments ("pull the power, keep the flash").
    #[must_use]
    pub fn into_parts(self) -> (DramModule, FlashArray) {
        (self.dram, self.nand)
    }

    /// A small fully-wired FTL (tiny DRAM + tiny flash, linear mappings, no
    /// timing) for unit tests and doc examples.
    ///
    /// # Errors
    ///
    /// Same classes as [`Ftl::new`] (never fails for the fixed tiny
    /// geometry; the `Result` exists so callers keep a panic-free path).
    pub fn tiny_for_tests(seed: u64) -> Result<Self, FtlError> {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        use ssdhammer_flash::FlashGeometry;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .seed(seed)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::tiny_test(), clock, seed);
        Ftl::new(dram, nand, FtlConfig::default())
    }

    /// Number of LBAs exported to the host.
    #[must_use]
    pub fn capacity_lbas(&self) -> u64 {
        self.exported_lbas
    }

    /// The L2P table descriptor (layout arithmetic).
    #[must_use]
    pub fn table(&self) -> &L2pTable {
        &self.table
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The shared registry this FTL (and its DRAM and NAND) records into.
    #[must_use]
    pub fn shared_telemetry(&self) -> Telemetry {
        self.tel.registry.clone()
    }

    /// Rebinds the FTL and both substrates onto `telemetry` (e.g. an `Ssd`'s
    /// one shared registry). Counts recorded before the switch stay in the
    /// old registry, so attach before use.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.dram.attach_telemetry(telemetry);
        self.nand.attach_telemetry(telemetry);
        self.tel = FtlHandles::bind(telemetry.clone());
    }

    /// The DRAM module (experiments profile rows and peek at cells through
    /// it).
    #[must_use]
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Mutable DRAM access for experiment setup/verification.
    pub fn dram_mut(&mut self) -> &mut DramModule {
        &mut self.dram
    }

    /// The NAND array (read-only view).
    #[must_use]
    pub fn nand(&self) -> &FlashArray {
        &self.nand
    }

    /// The DRAM-resident metadata plane, when
    /// [`FtlConfig::meta_resident`] enabled it.
    #[must_use]
    pub fn meta(&self) -> Option<&MetaPlane> {
        self.meta.as_ref()
    }

    /// Reads word `idx` of metadata mirror `kind` through the device's
    /// timed DRAM path — the firmware consulting its own tables, which is
    /// how a hammered metadata bit becomes an observable failure.
    ///
    /// # Errors
    ///
    /// [`FtlError::Dram`] when the plane is disabled, `idx` is out of
    /// range, or the DRAM word is ECC-uncorrectable.
    pub fn meta_word_read(&mut self, kind: MetaKind, idx: u64) -> Result<u32, FtlError> {
        let addr = self
            .meta
            .and_then(|plane| plane.word_addr(kind, idx))
            .ok_or(FtlError::Dram(DramError::OutOfRange {
                addr: DramAddr(u64::MAX),
            }))?;
        Ok(self.dram.read_u32(addr)?)
    }

    /// The shared simulation clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn check_lba(&self, lba: Lba) -> Result<(), FtlError> {
        if lba.as_u64() >= self.exported_lbas {
            Err(FtlError::OutOfRange { lba })
        } else {
            Ok(())
        }
    }

    /// L2P read on the host path, with configured activation amplification:
    /// the entry read, then `hammer_amplification − 1` forced activations
    /// of its row.
    fn amplified_get(&mut self, lba: Lba) -> Result<Option<Ppn>, FtlError> {
        self.tel.l2p_reads.incr();
        let extra = u64::from(self.config.hammer_amplification) - 1;
        if self.integrity.is_none() {
            // Nothing reads DRAM between the entry and its forced
            // activations, so both take one DRAM pass.
            return Ok(self.table.get_amplified(&mut self.dram, lba, extra)?);
        }
        // The integrity plane reads the entry's code and mirror first.
        let entry = self.get_verified(lba)?;
        if extra > 0 {
            self.dram
                .force_activations(self.table.entry_addr(lba), extra)?;
        }
        Ok(entry)
    }

    /// The mapping a host write or trim of `lba` replaces. An entry the
    /// device cannot read — failed verification, or a word DRAM ECC gave up
    /// on — names no page, so the mutation installs its new mapping over
    /// it, and every valid page whose OOB record names `lba` is marked
    /// invalid here (reading an OOB record charges no flash time, as in
    /// GC). Left valid, such a page would be relocated by GC under a fresh
    /// sequence and take the mapping back. An unrepairable
    /// divergence that degraded the device to read-only still fails the
    /// mutation.
    fn replaced_mapping(&mut self, lba: Lba) -> Result<Option<Ppn>, FtlError> {
        match self.amplified_get(lba) {
            Err(
                FtlError::L2pIntegrity { .. } | FtlError::Dram(DramError::Uncorrectable { .. }),
            ) if !self.read_only => {
                let mut stale = 0;
                for p in 0..self.valid.len() as u64 {
                    if self.valid[p as usize] && decode_oob(self.nand.read_oob(Ppn(p))?).0 == lba {
                        self.mark_invalid(Ppn(p));
                        stale += 1;
                    }
                }
                self.tel.registry.trace(
                    self.clock.now(),
                    "ftl.integrity",
                    format!(
                        "lba {} unreadable entry overwritten, {stale} old page(s) invalidated",
                        lba.as_u64()
                    ),
                );
                Ok(None)
            }
            lookup => lookup,
        }
    }

    /// L2P update through the integrity plane: writes the primary entry,
    /// then its code byte and mirror copy (when protection is on).
    fn l2p_set(&mut self, lba: Lba, ppn: Option<Ppn>) -> Result<(), FtlError> {
        self.table.set(&mut self.dram, lba, ppn)?;
        if let Some(plane) = self.integrity {
            plane.record(&mut self.dram, self.table.slot_of(lba), encode_entry(ppn))?;
        }
        Ok(())
    }

    /// Fetches and integrity-verifies one entry through the device path.
    /// A primary word even DRAM ECC gave up on is restored from the mirror
    /// in [`IntegrityMode::Correct`].
    fn get_verified(&mut self, lba: Lba) -> Result<Option<Ppn>, FtlError> {
        let entry = match self.table.get(&mut self.dram, lba) {
            Ok(e) => e,
            Err(err @ DramError::Uncorrectable { .. }) => {
                let Some(plane) = self.integrity else {
                    return Err(err.into());
                };
                let slot = self.table.slot_of(lba);
                let addr = self.table.entry_addr(lba);
                return match plane.restore(&mut self.dram, slot, addr)? {
                    VerifyOutcome::MirrorRepaired(raw) => {
                        self.tel.integrity_detected.incr();
                        self.tel.integrity_mirror_repairs.incr();
                        Ok(decode_entry(raw))
                    }
                    _ => {
                        self.tel.integrity_detected.incr();
                        self.tel.integrity_unrepairable.incr();
                        self.engage_read_only("L2P entry unrepairable (ECC + mirror)");
                        Err(FtlError::L2pIntegrity { lba })
                    }
                };
            }
            Err(e) => return Err(e.into()),
        };
        self.verify_entry(lba, entry)
    }

    /// Applies integrity-plane policy to a just-fetched entry: verify,
    /// repair (in [`IntegrityMode::Correct`]), or fail loudly. Unrepairable
    /// divergence degrades the device to read-only — the FTL refuses to
    /// keep serving mappings it cannot trust.
    fn verify_entry(&mut self, lba: Lba, entry: Option<Ppn>) -> Result<Option<Ppn>, FtlError> {
        let Some(plane) = self.integrity else {
            return Ok(entry);
        };
        let raw = encode_entry(entry);
        let slot = self.table.slot_of(lba);
        let addr = self.table.entry_addr(lba);
        match plane.verify(&mut self.dram, slot, addr, raw)? {
            VerifyOutcome::Clean => Ok(entry),
            VerifyOutcome::Detected => {
                self.tel.integrity_detected.incr();
                self.tel.registry.trace(
                    self.clock.now(),
                    "ftl.integrity",
                    format!("lba {} entry failed verification", lba.as_u64()),
                );
                Err(FtlError::L2pIntegrity { lba })
            }
            VerifyOutcome::Repaired(fixed) => {
                self.tel.integrity_detected.incr();
                self.tel.integrity_repaired.incr();
                Ok(decode_entry(fixed))
            }
            VerifyOutcome::MirrorRepaired(fixed) => {
                self.tel.integrity_detected.incr();
                self.tel.integrity_mirror_repairs.incr();
                self.tel.registry.trace(
                    self.clock.now(),
                    "ftl.integrity",
                    format!("lba {} entry restored from mirror", lba.as_u64()),
                );
                Ok(decode_entry(fixed))
            }
            VerifyOutcome::Unrepairable => {
                self.tel.integrity_detected.incr();
                self.tel.integrity_unrepairable.incr();
                self.engage_read_only("L2P entry and mirror diverged beyond repair");
                Err(FtlError::L2pIntegrity { lba })
            }
        }
    }

    /// Reads one block into `buf`. Returns what the mapping resolved to.
    ///
    /// [`Ftl::read_shared`] followed by one copy of the page into `buf`,
    /// for a caller that keeps the bytes in a buffer of its own. `buf` is
    /// checked before the device is touched, so a bad length reads
    /// nothing.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs, bad buffer sizes, or the errors of
    /// [`Ftl::read_shared`].
    pub fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<ReadOutcome, FtlError> {
        self.check_lba(lba)?;
        if buf.len() != BLOCK_SIZE {
            return Err(FtlError::BadBufferLen { got: buf.len() });
        }
        let (outcome, page) = self.read_shared(lba)?;
        buf.copy_from_slice(&page);
        Ok(outcome)
    }

    /// The one host read: returns what the mapping resolved to and the
    /// page as a shared handle, without copying it. Range and power
    /// checks, the amplified L2P lookup, unmapped and wild entries, the
    /// recovery ladder, the DIF guard and read refresh all happen here.
    ///
    /// A clean mapped read returns the flash page's own handle
    /// ([`FlashArray::read_page`]); unmapped, wild and guard-mismatch reads
    /// return one all-zero page the FTL holds (`zeroes`); only a read whose
    /// bytes differ from the stored ones (read disturb, or the recovery
    /// ladder's silent corruption) returns a private copy. Stored pages are
    /// never mutated, so the handle keeps what was read after the LBA is
    /// rewritten and its block erased.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs, [`FtlError::PowerLoss`], or substrate errors.
    pub fn read_shared(&mut self, lba: Lba) -> Result<(ReadOutcome, Arc<[u8]>), FtlError> {
        self.check_lba(lba)?;
        if !self.powered {
            return Err(FtlError::PowerLoss);
        }
        self.tel.host_reads.incr();
        match self.amplified_get(lba)? {
            None => {
                let outcome = if self.config.unmapped_fast_path {
                    ReadOutcome::Unmapped
                } else {
                    let completed = self.nand.charge_dummy_read(lba.as_u64());
                    ReadOutcome::SlowUnmapped { completed }
                };
                Ok((outcome, Arc::clone(&self.zeroes)))
            }
            Some(ppn) if ppn.as_u64() >= self.nand.geometry().total_pages() => {
                self.tel.redirections_detected.incr();
                self.tel.registry.trace(
                    self.clock.now(),
                    "ftl.redirection",
                    format!(
                        "lba {} resolved to wild entry {:#x}",
                        lba.as_u64(),
                        ppn.as_u64()
                    ),
                );
                Ok((
                    ReadOutcome::Wild {
                        entry: ppn.as_u64(),
                    },
                    Arc::clone(&self.zeroes),
                ))
            }
            Some(ppn) => {
                let (page, completed) = match self.nand.read_page(ppn) {
                    Err(FlashError::ReadFailed { bits, .. }) => {
                        self.recover_failed_read(ppn, bits)?
                    }
                    read => read?,
                };
                if self.config.dif {
                    let (_, _, stored_guard) = decode_oob(self.nand.read_oob(ppn)?);
                    if stored_guard != dif_guard(lba, &page) {
                        // The page's guard was computed for a different
                        // (LBA, data) pair: a misdirected mapping (or
                        // corrupted data). Fail loudly, leak nothing.
                        self.tel.redirections_detected.incr();
                        self.tel.registry.trace(
                            self.clock.now(),
                            "ftl.redirection",
                            format!("lba {} guard mismatch at {ppn}", lba.as_u64()),
                        );
                        return Ok((ReadOutcome::GuardMismatch { ppn }, Arc::clone(&self.zeroes)));
                    }
                }
                // Stay ahead of read disturb: relocate heavily-read blocks.
                if let Some(threshold) = self.config.read_refresh_threshold {
                    let block = self.nand.geometry().block_of(ppn);
                    if self.nand.reads_since_erase(block)? >= threshold {
                        // A hot page may sit in the active block; seal it so
                        // relocation targets a fresh one.
                        if self.active_block == Some(block) {
                            self.active_block = None;
                        }
                        self.relocate_and_reclaim(block)?;
                        self.tel.read_refreshes.incr();
                    }
                }
                Ok((ReadOutcome::Mapped { ppn, completed }, page))
            }
        }
    }

    /// Writes one block out-of-place and updates the mapping.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs, bad buffer sizes, [`FtlError::DeviceFull`],
    /// [`FtlError::ReadOnly`], [`FtlError::PowerLoss`], or substrate
    /// errors.
    pub fn write(&mut self, lba: Lba, data: &[u8]) -> Result<SimTime, FtlError> {
        self.check_lba(lba)?;
        if data.len() != BLOCK_SIZE {
            return Err(FtlError::BadBufferLen { got: data.len() });
        }
        self.check_mutable()?;
        self.tel.host_writes.incr();
        let old = self.replaced_mapping(lba)?;
        let guard = if self.config.dif {
            dif_guard(lba, data)
        } else {
            0
        };
        let (ppn, seq, completed) = self.program_relocatable(lba, data.into(), guard)?;
        self.tel.l2p_writes.incr();
        self.l2p_set(lba, Some(ppn))?;
        self.mark_valid(ppn);
        if let Some(old_ppn) = old {
            self.mark_invalid(old_ppn);
        }
        self.journal_record(lba, seq, Some(ppn))?;
        self.maybe_gc()?;
        Ok(completed)
    }

    /// Unmaps one block (NVMe deallocate / TRIM).
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs, [`FtlError::ReadOnly`], [`FtlError::PowerLoss`],
    /// or substrate errors.
    pub fn trim(&mut self, lba: Lba) -> Result<(), FtlError> {
        self.check_lba(lba)?;
        self.check_mutable()?;
        self.tel.host_trims.incr();
        let old = self.replaced_mapping(lba)?;
        // Trims consume a sequence number so the journal can order them
        // against writes during replay.
        let seq = self.write_seq;
        self.write_seq += 1;
        self.tel.l2p_writes.incr();
        self.l2p_set(lba, None)?;
        if let Some(old_ppn) = old {
            self.mark_invalid(old_ppn);
        }
        self.journal_record(lba, seq, None)?;
        Ok(())
    }

    /// Issues `requests` read requests round-robin over `lbas` at
    /// `request_rate` requests/second, aggregated directly into DRAM row
    /// activations (the fast path for attack workloads spanning simulated
    /// minutes to hours). `opts` (open-row dwell, pattern telemetry label)
    /// is forwarded to the DRAM layer.
    ///
    /// Each request activates its entry's DRAM row `hammer_amplification`
    /// times, exactly like the per-request path.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs or DRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if `lbas` is empty or the rate is not positive.
    pub fn hammer_reads(
        &mut self,
        lbas: &[Lba],
        requests: u64,
        request_rate: f64,
        opts: HammerOptions,
    ) -> Result<HammerReport, FtlError> {
        assert!(!lbas.is_empty(), "need at least one LBA");
        for &lba in lbas {
            self.check_lba(lba)?;
        }
        let addrs: Vec<DramAddr> = lbas.iter().map(|&l| self.table.entry_addr(l)).collect();
        let amp = u64::from(self.config.hammer_amplification);
        self.tel.host_reads.add(requests);
        self.tel.l2p_reads.add(requests);
        let report =
            self.dram
                .run_hammer(&addrs, requests * amp, request_rate * amp as f64, opts)?;
        Ok(report)
    }

    /// Reads `lba`'s L2P entry through the device path: the DRAM row is
    /// activated and ECC (when configured) is applied — including
    /// correction-with-scrub and uncorrectable-error reporting. This is what
    /// the firmware itself sees.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs; [`FtlError::Dram`] on ECC-uncorrectable entries;
    /// [`FtlError::L2pIntegrity`] when verification fails without repair.
    pub fn entry_read(&mut self, lba: Lba) -> Result<Option<Ppn>, FtlError> {
        self.check_lba(lba)?;
        self.tel.l2p_reads.incr();
        self.get_verified(lba)
    }

    /// One patrol-scrub chunk: verifies (and, per the integrity mode and
    /// DRAM ECC configuration, repairs) `entries` L2P entries from a
    /// rotating cursor through the device read path, then issues up to
    /// `flash_reads` patrol reads over mapped pages. Entries that fail
    /// verification terminally are counted by the verification path and
    /// skipped — a patrol pass never aborts mid-sweep beyond what policy
    /// itself (read-only degradation) dictates.
    ///
    /// # Errors
    ///
    /// [`FtlError::PowerLoss`] when offline, or substrate range errors.
    pub fn scrub_chunk(&mut self, entries: u64, flash_reads: u32) -> Result<(), FtlError> {
        if !self.powered {
            return Err(FtlError::PowerLoss);
        }
        self.crash_point("ftl.crash.scrub_repair")?;
        let repairs_before = self.repairs_total();
        for _ in 0..entries.min(self.exported_lbas) {
            let lba = Lba(self.scrub_cursor);
            self.scrub_cursor += 1;
            if self.scrub_cursor >= self.exported_lbas {
                self.scrub_cursor = 0;
                self.tel.scrub_sweeps.incr();
            }
            self.tel.scrub_entries_checked.incr();
            self.tel.l2p_reads.incr();
            match self.get_verified(lba) {
                Ok(_) => {}
                // Counted (and possibly degraded to read-only) by the
                // verification path; the sweep continues.
                Err(FtlError::L2pIntegrity { .. } | FtlError::Dram(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let total_pages = self.nand.geometry().total_pages();
        let mut issued = 0u32;
        let mut scanned = 0u64;
        while issued < flash_reads && scanned < total_pages {
            let ppn = Ppn(self.patrol_cursor);
            self.patrol_cursor = (self.patrol_cursor + 1) % total_pages;
            scanned += 1;
            if !self.valid[ppn.as_u64() as usize] {
                continue;
            }
            issued += 1;
            self.tel.scrub_flash_reads.incr();
            match self.read_page_recovered(ppn) {
                Ok(_) => {}
                // Already counted in `recovery.uncorrectable_reads`; the
                // host read path will surface it to the owner.
                Err(FtlError::Uncorrectable { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.tel
            .scrub_repairs
            .add(self.repairs_total() - repairs_before);
        Ok(())
    }

    /// Sum of every repair the stack can attribute to reads (DRAM ECC
    /// scrubs, flash ECC recoveries, integrity-plane repairs) — sampled
    /// around a scrub chunk to charge `scrub.repairs`.
    fn repairs_total(&self) -> u64 {
        self.tel.dram_ecc_corrected.get()
            + self.tel.ecc_corrected.get()
            + self.tel.integrity_repaired.get()
            + self.tel.integrity_mirror_repairs.get()
    }

    /// Ground-truth mapping lookup that does not disturb the device (no
    /// activation, no ECC, no time). For experiments and tests.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs or DRAM errors.
    pub fn peek_mapping(&self, lba: Lba) -> Result<Option<Ppn>, FtlError> {
        self.check_lba(lba)?;
        let mut buf = [0u8; 4];
        self.dram.peek(self.table.entry_addr(lba), &mut buf)?;
        Ok(decode_entry(u32::from_le_bytes(buf)))
    }

    /// Current number of free blocks (diagnostics).
    #[must_use]
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// Write amplification so far: flash programs per host write.
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        let host_writes = self.tel.host_writes.get();
        if host_writes == 0 {
            0.0
        } else {
            self.tel.flash_programs.get() as f64 / host_writes as f64
        }
    }

    /// True once the device degraded to read-only mode.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Blocks retired grown-bad so far (against
    /// [`FtlConfig::remap_budget`]).
    #[must_use]
    pub fn remap_events(&self) -> u32 {
        self.remap_events
    }

    /// The fault plane this FTL (and its NAND) consults.
    #[must_use]
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.fault_plane
    }

    /// The L2P integrity plane, when protection is enabled (experiments
    /// corrupt specific plane addresses through the DRAM backdoor).
    #[must_use]
    pub fn integrity_plane(&self) -> Option<&IntegrityPlane> {
        self.integrity.as_ref()
    }

    /// Journal entries logged but not yet checkpointed to flash (lost on
    /// power cut).
    #[must_use]
    pub fn journal_pending(&self) -> usize {
        self.journal_buf.len()
    }

    /// Forces any buffered journal entries out to flash (the NVMe Flush
    /// path). No-op when journaling is disabled.
    ///
    /// # Errors
    ///
    /// [`FtlError::PowerLoss`] when offline, or substrate errors.
    pub fn flush(&mut self) -> Result<(), FtlError> {
        if !self.powered {
            return Err(FtlError::PowerLoss);
        }
        self.crash_point("ftl.crash.l2p_flush")?;
        self.checkpoint_journal()
    }

    /// Byte-exact dump of the exported L2P table (4 bytes per LBA, little
    /// endian), read through the non-disturbing DRAM backdoor. Used by
    /// determinism and replay tests to compare tables across remounts.
    ///
    /// # Errors
    ///
    /// DRAM range errors only (the table was validated to fit at
    /// construction).
    pub fn l2p_snapshot(&self) -> Result<Vec<u8>, FtlError> {
        let mut entries = Vec::new();
        self.table
            .peek_batch(&self.dram, (0..self.exported_lbas).map(Lba), &mut entries)?;
        let mut out = Vec::with_capacity(entries.len() * 4);
        for raw in entries {
            out.extend_from_slice(&raw.to_le_bytes());
        }
        Ok(out)
    }

    /// Batch counterpart of [`Ftl::peek_mapping`]: snapshots many mappings
    /// through the non-disturbing DRAM backdoor in one call.
    ///
    /// # Errors
    ///
    /// Out-of-range LBAs or DRAM errors.
    pub fn peek_mappings(&self, lbas: &[Lba]) -> Result<Vec<Option<Ppn>>, FtlError> {
        for &lba in lbas {
            self.check_lba(lba)?;
        }
        let mut raw = Vec::new();
        self.table
            .peek_batch(&self.dram, lbas.iter().copied(), &mut raw)?;
        Ok(raw.into_iter().map(decode_entry).collect())
    }

    // ---- internals ---------------------------------------------------------

    /// Gate for mutations: offline and read-only states reject, and the
    /// `ftl.power_loss` fault site may cut power *now* (taking the device
    /// offline until [`Ftl::recover`]).
    fn check_mutable(&mut self) -> Result<(), FtlError> {
        if !self.powered {
            return Err(FtlError::PowerLoss);
        }
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        if self.fault_plane.fires("ftl.power_loss") {
            return Err(self.cut_power("power cut; device offline until remount"));
        }
        Ok(())
    }

    /// Cuts power now: the device goes offline until [`Ftl::recover`], the
    /// cut is counted (`recovery.power_losses`) and traced
    /// (`ftl.power_loss`, with `detail`), and the returned
    /// [`FtlError::PowerLoss`] is what the in-flight operation surfaces.
    fn cut_power(&mut self, detail: impl Into<String>) -> FtlError {
        self.powered = false;
        self.tel.power_losses.incr();
        self.tel
            .registry
            .trace(self.clock.now(), "ftl.power_loss", detail);
        FtlError::PowerLoss
    }

    /// Consults one [`CRASH_SITES`] site: when it fires, power is cut at
    /// this exact point (same semantics as the `ftl.power_loss` site) and
    /// the in-flight operation surfaces [`FtlError::PowerLoss`].
    fn crash_point(&mut self, site: &'static str) -> Result<(), FtlError> {
        if self.fault_plane.fires(site) {
            return Err(self.cut_power(format!("power cut at {site}")));
        }
        Ok(())
    }

    fn engage_read_only(&mut self, reason: &str) {
        if !self.read_only {
            self.read_only = true;
            self.tel.read_only.set(1.0);
            self.tel
                .registry
                .trace(self.clock.now(), "ftl.read_only", reason.to_string());
        }
    }

    /// Reads a page through the read-recovery ladder. Returns the flash's
    /// page handle, which may share the stored page's bytes.
    fn read_page_recovered(&mut self, ppn: Ppn) -> Result<(Arc<[u8]>, SimTime), FtlError> {
        match self.nand.read_page(ppn) {
            Err(FlashError::ReadFailed { bits, .. }) => self.recover_failed_read(ppn, bits),
            read => Ok(read?),
        }
    }

    /// The read-recovery ladder, entered when a media read of `ppn` failed
    /// with `bits` flipped: re-issue the read up to
    /// [`FtlConfig::read_retry_max`] times; when the ladder is exhausted,
    /// classify the residual flipped bits with the SEC-DED model —
    /// correctable errors are served via an assisted read, detectable ones
    /// surface as [`FtlError::Uncorrectable`], and beyond-detection flips
    /// come back as silently wrong data (DIF, when enabled, is the last
    /// line of defense) in a private copy.
    fn recover_failed_read(
        &mut self,
        ppn: Ppn,
        mut bits: u32,
    ) -> Result<(Arc<[u8]>, SimTime), FtlError> {
        let mut attempt = 0u32;
        while attempt < self.config.read_retry_max {
            attempt += 1;
            self.tel.read_retries.incr();
            match self.nand.read_page(ppn) {
                Err(FlashError::ReadFailed { bits: again, .. }) => bits = again,
                read => return Ok(read?),
            }
        }
        match EccOutcome::classify(bits as usize) {
            outcome if outcome.returns_clean_data() => {
                let read = self.nand.read_page_assisted(ppn)?;
                self.tel.ecc_corrected.incr();
                Ok(read)
            }
            EccOutcome::SilentCorruption => {
                let (page, done) = self.nand.read_page_assisted(ppn)?;
                self.tel.silent_corruptions.incr();
                // Flip a copy: the stored bytes may be shared.
                let mut data = page.to_vec();
                let bit = derive_seed(self.fault_plane.seed(), "silent-corruption", ppn.as_u64())
                    % (data.len() as u64 * 8);
                data[(bit / 8) as usize] ^= 1 << (bit % 8);
                Ok((data.into(), done))
            }
            _ => {
                self.tel.uncorrectable_reads.incr();
                self.tel.registry.trace(
                    self.clock.now(),
                    "ftl.uncorrectable",
                    format!("{ppn} unreadable after {attempt} retries"),
                );
                Err(FtlError::Uncorrectable { ppn })
            }
        }
    }

    /// Allocates a page and programs it, stamping a fresh write sequence.
    /// A failed program burns the page slot; the block is retired
    /// (grown-bad remap) and the write re-issued elsewhere. Returns the
    /// programmed page, its sequence, and the completion time.
    fn program_relocatable(
        &mut self,
        lba: Lba,
        data: PageBytes<'_>,
        guard: u32,
    ) -> Result<(Ppn, u64, SimTime), FtlError> {
        loop {
            let ppn = self.allocate_ppn()?;
            let seq = self.write_seq;
            self.write_seq += 1;
            match self
                .nand
                .program_page(ppn, data.clone(), &encode_oob(lba, seq, guard))
            {
                Ok(done) => return Ok((ppn, seq, done)),
                Err(FlashError::ProgramFailed { .. }) => {
                    let block = self.nand.geometry().block_of(ppn);
                    self.handle_program_failure(block)?;
                    // Loop: allocate_ppn now targets a different block.
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Retires a block whose program failed: evacuate its still-readable
    /// valid pages, mark it grown-bad, and charge the remap budget.
    fn handle_program_failure(&mut self, block: BlockId) -> Result<(), FtlError> {
        if self.active_block == Some(block) {
            self.active_block = None;
        }
        self.free_blocks.retain(|&b| b != block);
        if let Some(idx) = self.sealed_blocks.iter().position(|&b| b == block) {
            self.sealed_blocks.swap_remove(idx);
        }
        self.relocate_valid_pages(block)?;
        self.nand.mark_bad(block)?;
        self.note_block_retired(block, "program failure")
    }

    /// Counts one grown-bad retirement and degrades to read-only past the
    /// budget. In-flight operations are allowed to complete; subsequent
    /// mutations are rejected.
    fn note_block_retired(&mut self, block: BlockId, cause: &str) -> Result<(), FtlError> {
        // The NAND already holds the grown-bad mark; a cut here leaves a
        // half-finished retirement for recovery to reconcile.
        self.crash_point("ftl.crash.bad_block_remap")?;
        self.remap_events += 1;
        self.tel.bad_block_remaps.incr();
        self.tel.registry.trace(
            self.clock.now(),
            "ftl.bad_block",
            format!("block {} retired ({cause})", block.as_u64()),
        );
        self.meta_mark_bad(block);
        if self.remap_events > self.config.remap_budget {
            self.engage_read_only("remap budget exhausted");
        }
        Ok(())
    }

    /// Disables the metadata mirror and leaves a trace event saying why.
    /// The authoritative state lives in the FTL proper, so losing the
    /// mirror is survivable — but a *silently stale* mirror would poison
    /// the next recovery scan, so it is dropped the moment a write-through
    /// fails rather than left behind.
    fn drop_meta_mirror(&mut self, cause: &str) {
        self.meta = None;
        self.tel
            .registry
            .trace(self.clock.now(), "ftl.meta_mirror_lost", cause.to_string());
    }

    /// Write-through of the grown-bad-block mirror ([`crate::meta`]). A
    /// failed write disables the mirror (see [`Self::drop_meta_mirror`]).
    fn meta_mark_bad(&mut self, block: BlockId) {
        let Some(plane) = self.meta else { return };
        if let Some(addr) = plane.word_addr(MetaKind::BadBlock, block.as_u64()) {
            let word = MetaPlane::bad_word(block.as_u64() as u32, true);
            if self.dram.write_u32(addr, word).is_err() {
                self.drop_meta_mirror("bad-block mirror write failed");
            }
        }
    }

    /// Write-through of the wear-counter mirror after an erase.
    fn meta_note_wear(&mut self, block: BlockId) {
        let Some(plane) = self.meta else { return };
        let Ok(pe) = self.nand.pe_cycles(block) else {
            return;
        };
        if let Some(addr) = plane.word_addr(MetaKind::Wear, block.as_u64()) {
            let word = MetaPlane::wear_word(block.as_u64() as u32, pe);
            if self.dram.write_u32(addr, word).is_err() {
                self.drop_meta_mirror("wear mirror write failed");
            }
        }
    }

    /// Write-through of the journal write-cache ring: the entry is encoded
    /// into slot `seq % JOURNAL_SLOTS` as four words (LBA, sequence, PPN,
    /// slot tag).
    fn meta_journal_write(&mut self, entry: &JournalEntry) {
        let Some(plane) = self.meta else { return };
        let slot = entry.seq % crate::meta::JOURNAL_SLOTS;
        let base = slot * crate::meta::JOURNAL_SLOT_WORDS;
        let words = [
            entry.lba as u32,
            entry.seq as u32,
            entry.ppn,
            0x4A50_0000 | slot as u32,
        ];
        for (i, word) in words.into_iter().enumerate() {
            if let Some(addr) = plane.word_addr(MetaKind::Journal, base + i as u64) {
                if self.dram.write_u32(addr, word).is_err() {
                    // A half-written journal slot is worse than none.
                    self.drop_meta_mirror("journal mirror write failed");
                    return;
                }
            }
        }
    }

    /// Moves every valid page out of `block` (without erasing it). Each
    /// destination page shares the handle the read returned, so a move
    /// copies no bytes; the simulated reads and programs are charged as
    /// before. Pages that fail the whole read-recovery ladder are dropped:
    /// their LBA is unmapped — honest data loss — rather than left pointing
    /// at a dead block.
    fn relocate_valid_pages(&mut self, block: BlockId) -> Result<(), FtlError> {
        let first = self.nand.geometry().first_page(block).as_u64();
        for p in first..first + u64::from(self.nand.geometry().pages_per_block) {
            if !self.valid[p as usize] {
                continue;
            }
            let src = Ppn(p);
            let (lba, _, guard) = decode_oob(self.nand.read_oob(src)?);
            match self.read_page_recovered(src) {
                Ok((data, _)) => {
                    // No journal entry: the relocated page's OOB (with its
                    // fresh sequence) already records this mapping for the
                    // recovery scan.
                    let (dst, _, _) = self.program_relocatable(lba, data.into(), guard)?;
                    self.tel.l2p_writes.incr();
                    self.l2p_set(lba, Some(dst))?;
                    self.mark_invalid(src);
                    self.mark_valid(dst);
                    self.tel.gc_relocated.incr();
                }
                Err(FtlError::Uncorrectable { .. }) => {
                    let seq = self.write_seq;
                    self.write_seq += 1;
                    self.tel.l2p_writes.incr();
                    self.l2p_set(lba, None)?;
                    self.mark_invalid(src);
                    self.journal_record(lba, seq, None)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Logs one L2P mutation (`ppn == None` encodes a trim) and
    /// checkpoints the buffer once it reaches the configured interval.
    fn journal_record(&mut self, lba: Lba, seq: u64, ppn: Option<Ppn>) -> Result<(), FtlError> {
        if self.config.journal_checkpoint_every == 0 {
            return Ok(());
        }
        let entry = JournalEntry {
            lba: lba.as_u64(),
            seq,
            ppn: encode_entry(ppn),
        };
        // A cut here lands mid write-through: the DRAM mirror never sees
        // this entry, and neither does the journal buffer — the mutation
        // itself (L2P update, programmed page) already happened.
        self.crash_point("ftl.crash.meta_mirror")?;
        self.meta_journal_write(&entry);
        self.journal_buf.push(entry);
        if self.journal_buf.len() >= self.config.journal_checkpoint_every as usize {
            self.checkpoint_journal()?;
        }
        Ok(())
    }

    /// Writes buffered journal entries to the reserved region, page by
    /// page. Exhausting the region engages read-only mode (graceful
    /// degradation) rather than erroring: the triggering operation itself
    /// already succeeded.
    fn checkpoint_journal(&mut self) -> Result<(), FtlError> {
        if self.journal_buf.is_empty() {
            return Ok(());
        }
        let page_bytes = self.nand.geometry().page_bytes as usize;
        let per_page = journal::entries_per_page(page_bytes);
        while !self.journal_buf.is_empty() {
            let Some(ppn) = self.next_journal_ppn()? else {
                self.engage_read_only("journal region exhausted");
                return Ok(());
            };
            let take = per_page.min(self.journal_buf.len());
            let marker = encode_oob(Lba(journal::JOURNAL_LBA_MARKER), 0, 0);
            if self.fault_plane.fires("ftl.crash.journal_append") {
                // A mid-append power cut: the page header and all but the
                // final record reach the cells, the record's tail does
                // not. Recovery must detect the torn record by its CRC and
                // truncate it rather than replay garbage.
                let torn = journal::encode_page_torn(&self.journal_buf[..take], page_bytes);
                match self.nand.program_page(ppn, &torn, &marker) {
                    // A failed program just means the cut landed before
                    // any bytes hit the page — equally valid torture.
                    Ok(_) | Err(FlashError::ProgramFailed { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
                return Err(self.cut_power("power cut at ftl.crash.journal_append"));
            }
            let page = journal::encode_page(&self.journal_buf[..take], page_bytes);
            match self.nand.program_page(ppn, &page, &marker) {
                Ok(_) => {
                    self.journal_buf.drain(..take);
                    self.tel.journal_checkpoints.incr();
                }
                // A burned journal slot: the in-order pointer advanced, so
                // the next iteration simply targets the following page.
                Err(FlashError::ProgramFailed { .. }) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// The next unwritten page in the journal region, or `None` when full.
    fn next_journal_ppn(&mut self) -> Result<Option<Ppn>, FtlError> {
        for i in 0..self.journal_region.len() {
            let block = self.journal_region[i];
            let next = self.nand.next_page(block)?;
            if next < self.nand.geometry().pages_per_block {
                let first = self.nand.geometry().first_page(block).as_u64();
                return Ok(Some(Ppn(first + u64::from(next))));
            }
        }
        Ok(None)
    }

    fn mark_valid(&mut self, ppn: Ppn) {
        let block = self.nand.geometry().block_of(ppn);
        if !self.valid[ppn.as_u64() as usize] {
            self.valid[ppn.as_u64() as usize] = true;
            self.valid_count[block.as_u64() as usize] += 1;
        }
    }

    fn mark_invalid(&mut self, ppn: Ppn) {
        // A corrupted mapping may point anywhere; only unmark real pages.
        if ppn.as_u64() >= self.nand.geometry().total_pages() {
            return;
        }
        let block = self.nand.geometry().block_of(ppn);
        if self.valid[ppn.as_u64() as usize] {
            self.valid[ppn.as_u64() as usize] = false;
            self.valid_count[block.as_u64() as usize] -= 1;
        }
    }

    /// Next append-point page, opening a fresh minimum-wear block as needed.
    fn allocate_ppn(&mut self) -> Result<Ppn, FtlError> {
        loop {
            if let Some(block) = self.active_block {
                let next = self.nand.next_page(block)?;
                if next < self.nand.geometry().pages_per_block {
                    return Ok(Ppn(
                        self.nand.geometry().first_page(block).as_u64() + u64::from(next)
                    ));
                }
                self.sealed_blocks.push(block);
                self.active_block = None;
            }
            if self.free_blocks.is_empty() {
                return Err(FtlError::DeviceFull);
            }
            // Wear leveling: lowest-P/E free block (ties by id).
            let mut best = 0usize;
            let mut best_key = (u32::MAX, u64::MAX);
            for (i, &b) in self.free_blocks.iter().enumerate() {
                let key = (self.nand.pe_cycles(b)?, b.as_u64());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            self.active_block = Some(self.free_blocks.swap_remove(best));
        }
    }

    /// Greedy garbage collection: reclaim lowest-valid sealed blocks until
    /// the free pool is above the threshold (or no further progress is
    /// possible).
    fn maybe_gc(&mut self) -> Result<(), FtlError> {
        while self.free_blocks.len() <= GC_FREE_THRESHOLD {
            // Victim: sealed block with fewest valid pages.
            let Some((idx, &victim)) =
                self.sealed_blocks.iter().enumerate().min_by_key(|(_, &b)| {
                    (
                        self.valid_count[b.as_u64() as usize],
                        // Tie-break by wear so equally-empty victims rotate
                        // instead of the lowest id being erased repeatedly.
                        self.nand.pe_cycles(b).unwrap_or(u32::MAX),
                        b.as_u64(),
                    )
                })
            else {
                break;
            };
            if self.valid_count[victim.as_u64() as usize] >= self.nand.geometry().pages_per_block {
                break; // fully valid: no space to gain
            }
            self.sealed_blocks.swap_remove(idx);
            self.tel.gc_runs.incr();
            self.tel.registry.trace(
                self.clock.now(),
                "ftl.gc.victim",
                format!(
                    "block {} with {} valid pages",
                    victim.as_u64(),
                    self.valid_count[victim.as_u64() as usize]
                ),
            );
            self.relocate_and_reclaim(victim)?;
        }
        Ok(())
    }

    /// Moves every valid page out of `victim`, erases it, and returns it to
    /// the free pool (shared by GC and read-refresh). Relocation reads go
    /// through the recovery ladder and relocation programs remap away from
    /// failing blocks, like host writes.
    fn relocate_and_reclaim(&mut self, victim: BlockId) -> Result<(), FtlError> {
        if let Some(idx) = self.sealed_blocks.iter().position(|&b| b == victim) {
            self.sealed_blocks.swap_remove(idx);
        }
        self.relocate_valid_pages(victim)?;
        match self.nand.erase_block(victim) {
            Ok(_) => {
                self.free_blocks.push(victim);
                self.meta_note_wear(victim);
            }
            Err(FlashError::BadBlock { .. }) => { /* retire worn block */ }
            Err(FlashError::EraseFailed { .. }) => {
                // The flash marked it grown-bad; charge the remap budget.
                self.note_block_retired(victim, "erase failure")?;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
    use ssdhammer_flash::FlashGeometry;

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    /// Counter `name` of the FTL's registry; an unregistered name fails the
    /// test.
    fn counter(ftl: &Ftl, name: &str) -> u64 {
        ftl.shared_telemetry()
            .counter_value(name)
            .unwrap_or_else(|| panic!("counter {name} is not registered"))
    }

    /// FTL over the given flash and an eagerly vulnerable DRAM for attack
    /// tests.
    fn vulnerable_ftl_with(flash: FlashGeometry, config: FtlConfig) -> Ftl {
        let mut profile =
            ModuleProfile::from_min_rate("eager", ssdhammer_dram::DramGeneration::Ddr3, 2021, 1);
        profile.hc_first = 1000;
        profile.threshold_spread = 0.0;
        profile.row_vulnerable_prob = 1.0;
        profile.weak_cells_per_row = 8.0;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(profile)
            .mapping(MappingKind::Linear)
            .seed(5)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(flash, clock, 1);
        Ftl::new(dram, nand, config).unwrap()
    }

    /// FTL over mid-size flash and an eagerly vulnerable DRAM for attack
    /// tests.
    fn vulnerable_ftl(amplification: u32) -> Ftl {
        vulnerable_ftl_with(
            FlashGeometry::mib64(),
            FtlConfig {
                hammer_amplification: amplification,
                ..FtlConfig::default()
            },
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        ftl.write(Lba(5), &block(0xAA)).unwrap();
        let mut out = block(0);
        let outcome = ftl.read(Lba(5), &mut out).unwrap();
        assert!(matches!(outcome, ReadOutcome::Mapped { .. }));
        assert_eq!(out, block(0xAA));
    }

    #[test]
    fn unmapped_reads_zero_without_flash() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let mut out = block(7);
        let outcome = ftl.read(Lba(100), &mut out).unwrap();
        assert_eq!(outcome, ReadOutcome::Unmapped);
        assert_eq!(out, block(0));
        assert_eq!(counter(&ftl, "flash.reads"), 0);
    }

    #[test]
    fn overwrite_moves_to_new_page() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        ftl.write(Lba(3), &block(1)).unwrap();
        let p1 = ftl.peek_mapping(Lba(3)).unwrap().unwrap();
        ftl.write(Lba(3), &block(2)).unwrap();
        let p2 = ftl.peek_mapping(Lba(3)).unwrap().unwrap();
        assert_ne!(p1, p2, "out-of-place write must relocate");
        let mut out = block(0);
        ftl.read(Lba(3), &mut out).unwrap();
        assert_eq!(out, block(2));
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        ftl.write(Lba(9), &block(3)).unwrap();
        ftl.trim(Lba(9)).unwrap();
        assert_eq!(ftl.peek_mapping(Lba(9)).unwrap(), None);
        let mut out = block(9);
        assert_eq!(ftl.read(Lba(9), &mut out).unwrap(), ReadOutcome::Unmapped);
        assert_eq!(out, block(0));
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let cap = ftl.capacity_lbas();
        assert_eq!(
            ftl.write(Lba(cap), &block(0)),
            Err(FtlError::OutOfRange { lba: Lba(cap) })
        );
        let mut out = block(0);
        assert!(ftl.read(Lba(cap), &mut out).is_err());
        assert!(ftl.trim(Lba(cap)).is_err());
    }

    #[test]
    fn bad_buffer_len_rejected() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        assert_eq!(
            ftl.write(Lba(0), &[0u8; 100]),
            Err(FtlError::BadBufferLen { got: 100 })
        );
        // A read checks its buffer before it touches the device.
        ftl.write(Lba(0), &block(0xAB)).unwrap();
        let (host_reads, flash_reads) = (
            counter(&ftl, "ftl.host_reads"),
            counter(&ftl, "flash.reads"),
        );
        assert_eq!(
            ftl.read(Lba(0), &mut [0u8; 100]),
            Err(FtlError::BadBufferLen { got: 100 })
        );
        assert_eq!(counter(&ftl, "ftl.host_reads"), host_reads);
        assert_eq!(counter(&ftl, "flash.reads"), flash_reads);
    }

    #[test]
    fn capacity_reflects_overprovisioning() {
        let ftl = Ftl::tiny_for_tests(1).unwrap();
        // tiny flash: 16 blocks × 64 pages = 1024 pages; auto OP = 2 blocks.
        assert_eq!(ftl.capacity_lbas(), 896);
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let cap = ftl.capacity_lbas();
        // Overwrite a small working set far more times than raw capacity:
        // survives only if GC reclaims invalidated pages.
        for round in 0..20u64 {
            for lba in 0..cap / 4 {
                ftl.write(Lba(lba), &block((round % 251) as u8)).unwrap();
            }
        }
        assert!(counter(&ftl, "ftl.gc_runs") > 0, "GC must have run");
        // All data still correct.
        let mut out = block(0);
        for lba in 0..cap / 4 {
            ftl.read(Lba(lba), &mut out).unwrap();
            assert_eq!(out[0], 19);
        }
        assert!(ftl.write_amplification() >= 1.0);
        assert_eq!(
            ftl.write_amplification(),
            counter(&ftl, "flash.programs") as f64 / counter(&ftl, "ftl.host_writes") as f64
        );
    }

    #[test]
    fn filling_every_lba_succeeds_and_persists() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let cap = ftl.capacity_lbas();
        for lba in 0..cap {
            ftl.write(Lba(lba), &block((lba % 255) as u8)).unwrap();
        }
        let mut out = block(0);
        for lba in (0..cap).step_by(37) {
            ftl.read(Lba(lba), &mut out).unwrap();
            assert_eq!(out[0], (lba % 255) as u8);
        }
    }

    #[test]
    fn wear_leveling_prefers_low_pe_blocks() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let cap = ftl.capacity_lbas();
        for round in 0..30u64 {
            for lba in 0..cap / 8 {
                ftl.write(Lba(lba), &block((round & 0xFF) as u8)).unwrap();
            }
        }
        // Wear spread: max - min P/E among good blocks stays small under
        // min-wear allocation.
        let pes: Vec<u32> = ftl
            .nand()
            .good_blocks()
            .iter()
            .map(|&b| ftl.nand().pe_cycles(b).unwrap())
            .collect();
        let (min, max) = (pes.iter().min().unwrap(), pes.iter().max().unwrap());
        assert!(max - min <= 3, "wear spread too large: {pes:?}");
    }

    #[test]
    fn amplification_multiplies_activations() {
        let mut ftl1 = vulnerable_ftl(1);
        let mut ftl5 = vulnerable_ftl(5);
        let mut out = block(0);
        // Alternate two LBAs whose entries live in different rows.
        let lbas = [Lba(0), Lba(512)];
        for _ in 0..100 {
            for &l in &lbas {
                ftl1.read(l, &mut out).unwrap();
                ftl5.read(l, &mut out).unwrap();
            }
        }
        let a1 = counter(&ftl1, "dram.activations");
        let a5 = counter(&ftl5, "dram.activations");
        assert!(
            a5 > a1 * 4,
            "5x amplification should ~5x activations: {a1} vs {a5}"
        );
    }

    #[test]
    fn hammer_reads_flips_l2p_entries_and_redirects() {
        let mut ftl = vulnerable_ftl(1);
        // Locate a victim DRAM row holding L2P entries, with both neighbors
        // also holding entries.
        let table = *ftl.table();
        let victim_bank = 0u32;
        let victim_row = 5u32;
        let victim_lbas = table.lbas_in_row(ftl.dram(), victim_bank, victim_row);
        let above = table.lbas_in_row(ftl.dram(), victim_bank, victim_row - 1);
        let below = table.lbas_in_row(ftl.dram(), victim_bank, victim_row + 1);
        assert!(!victim_lbas.is_empty() && !above.is_empty() && !below.is_empty());

        // Materialize mappings for the victim row's LBAs.
        for &lba in &victim_lbas {
            ftl.write(lba, &block(0x11)).unwrap();
        }
        let before: Vec<_> = victim_lbas
            .iter()
            .map(|&l| ftl.peek_mapping(l).unwrap())
            .collect();

        // §3.1: alternating reads whose entries live in the two aggressor
        // rows. One representative LBA per row suffices to activate it.
        let pattern = [above[0], below[0]];
        let report = ftl
            .hammer_reads(&pattern, 300_000, 5_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(!report.flips.is_empty(), "hammering should flip L2P bits");

        let after: Vec<_> = victim_lbas
            .iter()
            .map(|&l| ftl.peek_mapping(l).unwrap())
            .collect();
        assert_ne!(before, after, "some victim mapping must have changed");
    }

    #[test]
    fn wild_mapping_reads_zeroes() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        ftl.write(Lba(0), &block(0xAB)).unwrap();
        // Corrupt the entry to an out-of-range page via the DRAM backdoor.
        let addr = ftl.table().entry_addr(Lba(0));
        ftl.dram_mut().write_u32(addr, 0x00FF_FFFF).unwrap();
        let mut out = block(1);
        let outcome = ftl.read(Lba(0), &mut out).unwrap();
        assert!(matches!(outcome, ReadOutcome::Wild { .. }));
        assert_eq!(out, block(0));
    }

    #[test]
    fn redirected_mapping_serves_other_users_data() {
        // The information-leak primitive (§3.2): entry of LBA A redirected
        // to the PPN backing LBA B returns B's data to a read of A.
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        ftl.write(Lba(1), &block(0x01)).unwrap();
        ftl.write(Lba(2), &block(0x02)).unwrap();
        let ppn_b = ftl.peek_mapping(Lba(2)).unwrap().unwrap();
        let addr_a = ftl.table().entry_addr(Lba(1));
        ftl.dram_mut()
            .write_u32(addr_a, u32::try_from(ppn_b.as_u64()).unwrap())
            .unwrap();
        let mut out = block(0);
        ftl.read(Lba(1), &mut out).unwrap();
        assert_eq!(out, block(0x02), "read of A must now leak B's data");
    }

    #[test]
    fn hashed_layout_round_trips_through_ftl() {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        use ssdhammer_flash::FlashGeometry;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
        let mut ftl = Ftl::new(
            dram,
            nand,
            FtlConfig {
                l2p_layout: L2pLayout::Hashed { key: 0xC0FFEE },
                ..FtlConfig::default()
            },
        )
        .unwrap();
        for lba in 0..64u64 {
            ftl.write(Lba(lba), &block(lba as u8)).unwrap();
        }
        let mut out = block(0);
        for lba in 0..64u64 {
            ftl.read(Lba(lba), &mut out).unwrap();
            assert_eq!(out[0], lba as u8);
        }
    }

    #[test]
    fn gc_itself_activates_dram_rows() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let before = counter(&ftl, "dram.activations");
        let cap = ftl.capacity_lbas();
        // Fill the device, then keep overwriting half of it: GC victims then
        // carry live data from the cold half interleaved by allocation order,
        // forcing relocations.
        for lba in 0..cap {
            ftl.write(Lba(lba), &block(1)).unwrap();
        }
        for round in 0..6u64 {
            for lba in (0..cap).step_by(2) {
                ftl.write(Lba(lba), &block(round as u8)).unwrap();
            }
        }
        assert!(counter(&ftl, "ftl.gc_relocated") > 0);
        assert!(counter(&ftl, "dram.activations") > before);
    }

    #[test]
    fn device_full_when_working_set_exceeds_capacity() {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let cap = ftl.capacity_lbas();
        let mut result = Ok(SimTime::ZERO);
        // Writing unique data to every LBA repeatedly is fine; but raw
        // capacity (including OP) cannot be exceeded in *valid* data. Filling
        // every exported LBA must succeed; the device is full only if we
        // somehow exceed physical valid capacity, which exporting prevents.
        for lba in 0..cap {
            result = ftl.write(Lba(lba), &block(1));
            if result.is_err() {
                break;
            }
        }
        assert!(result.is_ok(), "exported capacity is always writable");
    }

    fn dif_ftl() -> Ftl {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        use ssdhammer_flash::FlashGeometry;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
        Ftl::new(
            dram,
            nand,
            FtlConfig {
                dif: true,
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn dif_guard_blocks_misdirected_reads() {
        let mut ftl = dif_ftl();
        ftl.write(Lba(1), &block(0x01)).unwrap();
        ftl.write(Lba(2), &block(0x02)).unwrap();
        // Normal reads verify cleanly.
        let mut out = block(0);
        assert!(matches!(
            ftl.read(Lba(1), &mut out).unwrap(),
            ReadOutcome::Mapped { .. }
        ));
        assert_eq!(out, block(0x01));
        // Redirect LBA 1's entry to LBA 2's page (the attack's useful flip):
        // the guard was computed for LBA 2, so the read fails instead of
        // leaking LBA 2's data.
        let ppn2 = ftl.peek_mapping(Lba(2)).unwrap().unwrap();
        let addr1 = ftl.table().entry_addr(Lba(1));
        ftl.dram_mut()
            .write_u32(addr1, u32::try_from(ppn2.as_u64()).unwrap())
            .unwrap();
        let mut out = block(9);
        let outcome = ftl.read(Lba(1), &mut out).unwrap();
        assert!(
            matches!(outcome, ReadOutcome::GuardMismatch { .. }),
            "{outcome:?}"
        );
        assert_eq!(out, block(0), "nothing leaks");
        // The legitimate owner still reads its data fine.
        ftl.read(Lba(2), &mut out).unwrap();
        assert_eq!(out, block(0x02));
    }

    #[test]
    fn dif_guards_survive_gc_relocation() {
        let mut ftl = dif_ftl();
        let cap = ftl.capacity_lbas();
        // Fill once, then churn half the LBAs so GC victims carry live data
        // (the cold half) and must relocate it.
        for lba in 0..cap {
            ftl.write(Lba(lba), &block(7)).unwrap();
        }
        for round in 0..6u64 {
            for lba in (0..cap).step_by(2) {
                ftl.write(Lba(lba), &block((round % 251) as u8)).unwrap();
            }
        }
        assert!(
            counter(&ftl, "ftl.gc_relocated") > 0,
            "GC must have moved pages"
        );
        let mut out = block(0);
        for lba in (1..cap).step_by(16) {
            let outcome = ftl.read(Lba(lba), &mut out).unwrap();
            assert!(
                matches!(outcome, ReadOutcome::Mapped { .. }),
                "guards must verify after relocation: {outcome:?}"
            );
            assert_eq!(out[0], 7, "cold data intact at {lba}");
        }
    }

    #[test]
    fn oob_records_roundtrip_and_short_areas_decode_as_erased() {
        let record = encode_oob(Lba(77), 9, 0xDEAD_BEEF);
        assert_eq!(decode_oob(&record), (Lba(77), 9, 0xDEAD_BEEF));
        // The flash hands back its whole OOB area, padded after the record.
        let mut area = [0xA5; 32];
        area[..OOB_BYTES].copy_from_slice(&record);
        assert_eq!(decode_oob(&area), (Lba(77), 9, 0xDEAD_BEEF));
        let erased = (Lba(u64::MAX), u64::MAX, u32::MAX);
        assert_eq!(decode_oob(&[0xFF; 32]), erased);
        assert_eq!(decode_oob(&record[..OOB_BYTES - 1]), erased);
        assert_eq!(decode_oob(&[]), erased);
    }

    #[test]
    fn recover_rebuilds_mapping_from_oob() {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        // Writes including overwrites: recovery must pick the latest version.
        for lba in 0..100u64 {
            ftl.write(Lba(lba), &block((lba % 251) as u8)).unwrap();
        }
        for lba in (0..100u64).step_by(3) {
            ftl.write(Lba(lba), &block(0xEE)).unwrap();
        }
        let expected: Vec<_> = (0..100u64)
            .map(|l| if l % 3 == 0 { 0xEE } else { (l % 251) as u8 })
            .collect();
        // Power loss: DRAM contents (and the L2P table with them) are gone;
        // only flash survives.
        let (_lost_dram, nand) = ftl.into_parts();
        let clock = SimClock::new();
        let fresh_dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock);
        let mut recovered = Ftl::recover(fresh_dram, nand, FtlConfig::default()).unwrap();
        let mut out = block(0);
        for lba in 0..100u64 {
            recovered.read(Lba(lba), &mut out).unwrap();
            assert_eq!(out[0], expected[lba as usize], "lba {lba}");
        }
        // And the recovered device keeps working (writes allocate fresh
        // pages with higher sequence numbers).
        recovered.write(Lba(5), &block(0x77)).unwrap();
        recovered.read(Lba(5), &mut out).unwrap();
        assert_eq!(out[0], 0x77);
    }

    #[test]
    fn read_refresh_outruns_read_disturb() {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        use ssdhammer_flash::FlashGeometry;
        let build = |threshold: Option<u64>| {
            let clock = SimClock::new();
            let dram = DramModule::builder(DramGeometry::tiny_test())
                .profile(ModuleProfile::invulnerable())
                .mapping(MappingKind::Linear)
                .without_timing()
                .build(clock.clone());
            let mut nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
            nand.set_read_disturb_limit(500);
            Ftl::new(
                dram,
                nand,
                FtlConfig {
                    read_refresh_threshold: threshold,
                    ..FtlConfig::default()
                },
            )
            .unwrap()
        };
        // Without read-refresh, hot reads eventually return corrupted data.
        let mut unprotected = build(None);
        unprotected.write(Lba(0), &block(0x42)).unwrap();
        let mut saw_corruption = false;
        let mut out = block(0);
        for _ in 0..2_000 {
            unprotected.read(Lba(0), &mut out).unwrap();
            saw_corruption |= out.iter().any(|&b| b != 0x42);
        }
        assert!(
            saw_corruption,
            "read disturb should corrupt unprotected data"
        );

        // With read-refresh below the flash tolerance, data stays clean.
        let mut protected = build(Some(400));
        protected.write(Lba(0), &block(0x42)).unwrap();
        for _ in 0..2_000 {
            protected.read(Lba(0), &mut out).unwrap();
            assert!(
                out.iter().all(|&b| b == 0x42),
                "refresh must keep data clean"
            );
        }
        assert!(counter(&protected, "ftl.read_refreshes") > 0);
    }

    fn integrity_ftl(mode: IntegrityMode) -> Ftl {
        use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
        use ssdhammer_flash::FlashGeometry;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
        Ftl::new(
            dram,
            nand,
            FtlConfig {
                integrity: mode,
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    /// XORs `mask` into the entry word at `addr` through the DRAM backdoor
    /// (peek + rewrite), simulating rowhammer flips without the hammer.
    fn corrupt_u32(ftl: &mut Ftl, addr: DramAddr, mask: u32) {
        let mut buf = [0u8; 4];
        ftl.dram().peek(addr, &mut buf).unwrap();
        let raw = u32::from_le_bytes(buf) ^ mask;
        ftl.dram_mut().write_u32(addr, raw).unwrap();
    }

    #[test]
    fn integrity_detect_fails_corrupted_entries_loudly() {
        let mut ftl = integrity_ftl(IntegrityMode::Detect);
        ftl.write(Lba(1), &block(0x01)).unwrap();
        ftl.write(Lba(2), &block(0x02)).unwrap();
        // Redirect LBA 1's entry at LBA 2's page: without integrity this
        // leaks LBA 2's data (see `redirected_mapping_serves_other_users_data`).
        let ppn2 = ftl.peek_mapping(Lba(2)).unwrap().unwrap();
        let addr1 = ftl.table().entry_addr(Lba(1));
        ftl.dram_mut()
            .write_u32(addr1, u32::try_from(ppn2.as_u64()).unwrap())
            .unwrap();
        let mut out = block(0);
        assert_eq!(
            ftl.read(Lba(1), &mut out),
            Err(FtlError::L2pIntegrity { lba: Lba(1) })
        );
        assert_eq!(out, block(0), "nothing leaks");
        assert_eq!(counter(&ftl, "integrity.detected"), 1);
        assert_eq!(
            counter(&ftl, "integrity.repaired"),
            0,
            "Detect never repairs"
        );
        // The legitimate owner still reads its own data.
        ftl.read(Lba(2), &mut out).unwrap();
        assert_eq!(out, block(0x02));
    }

    #[test]
    fn host_writes_and_trims_replace_an_unreadable_entry() {
        let mut ftl = integrity_ftl(IntegrityMode::Detect);
        ftl.write(Lba(1), &block(0x01)).unwrap();
        ftl.write(Lba(2), &block(0x02)).unwrap();
        let old_ppn = ftl.peek_mapping(Lba(1)).unwrap().unwrap();
        let old_block = ftl.nand().geometry().block_of(old_ppn);
        // Fill the rest of that block, so that the rewrite lands elsewhere.
        let pages = u64::from(ftl.nand().geometry().pages_per_block);
        for lba in 3..=pages {
            ftl.write(Lba(lba), &block(0)).unwrap();
        }
        for lba in [Lba(1), Lba(2)] {
            let addr = ftl.table().entry_addr(lba);
            corrupt_u32(&mut ftl, addr, 1 << 3);
        }
        let mut out = block(0);
        assert_eq!(
            ftl.read(Lba(1), &mut out),
            Err(FtlError::L2pIntegrity { lba: Lba(1) })
        );
        // The host heals one block by rewriting it and drops the other by
        // trimming it: each new mapping goes in over the entry the device
        // cannot read.
        ftl.write(Lba(1), &block(0x11)).unwrap();
        ftl.trim(Lba(2)).unwrap();
        assert!(!ftl.is_read_only());
        ftl.read(Lba(1), &mut out).unwrap();
        assert_eq!(out, block(0x11));
        // Churn every other LBA until GC has erased the block holding the
        // replaced pages. Had either stayed valid, GC would have relocated
        // it under a fresh sequence and mapped its LBA back to it.
        let cap = ftl.capacity_lbas();
        let mut round = 0u8;
        while ftl.nand().pe_cycles(old_block).unwrap() == 0 {
            assert!(round < 8, "GC never reclaimed block {old_block:?}");
            for lba in 3..cap {
                ftl.write(Lba(lba), &block(round)).unwrap();
            }
            round += 1;
        }
        let healed = |ftl: &mut Ftl| {
            let mut out = block(0);
            ftl.read(Lba(1), &mut out).unwrap();
            assert!(out == block(0x11), "lba 1 reads {:#04x}, not 0x11", out[0]);
            assert_eq!(ftl.read(Lba(2), &mut out), Ok(ReadOutcome::Unmapped));
        };
        healed(&mut ftl);
        // The remount's OOB scan agrees.
        let config = *ftl.config();
        let (dram, nand) = ftl.into_parts();
        healed(&mut Ftl::recover(dram, nand, config).unwrap());

        // Correct mode's unrepairable divergence instead degrades the
        // device, and the write that finds it fails.
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        ftl.write(Lba(5), &block(0x55)).unwrap();
        let mirror_addr = ftl
            .integrity_plane()
            .unwrap()
            .mirror_addr(ftl.table().slot_of(Lba(5)));
        let entry_addr = ftl.table().entry_addr(Lba(5));
        corrupt_u32(&mut ftl, entry_addr, 0b11);
        corrupt_u32(&mut ftl, mirror_addr, 0b1100);
        assert_eq!(
            ftl.write(Lba(5), &block(0x56)),
            Err(FtlError::L2pIntegrity { lba: Lba(5) })
        );
        assert!(ftl.is_read_only());
    }

    #[test]
    fn integrity_correct_repairs_single_bit_flip_in_place() {
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        ftl.write(Lba(3), &block(0x33)).unwrap();
        let before = ftl.peek_mapping(Lba(3)).unwrap();
        let addr3 = ftl.table().entry_addr(Lba(3));
        corrupt_u32(&mut ftl, addr3, 1 << 7);
        let mut out = block(0);
        let outcome = ftl.read(Lba(3), &mut out).unwrap();
        assert!(matches!(outcome, ReadOutcome::Mapped { .. }), "{outcome:?}");
        assert_eq!(out, block(0x33));
        assert_eq!(counter(&ftl, "integrity.repaired"), 1);
        // The repair rewrote the primary entry: the flip is really gone.
        assert_eq!(ftl.peek_mapping(Lba(3)).unwrap(), before);
    }

    #[test]
    fn integrity_correct_restores_double_flip_from_mirror() {
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        ftl.write(Lba(4), &block(0x44)).unwrap();
        let before = ftl.peek_mapping(Lba(4)).unwrap();
        // Two flips exceed SEC-DED correction; the distant mirror steps in.
        let addr4 = ftl.table().entry_addr(Lba(4));
        corrupt_u32(&mut ftl, addr4, 0b101);
        let mut out = block(0);
        ftl.read(Lba(4), &mut out).unwrap();
        assert_eq!(out, block(0x44));
        assert_eq!(counter(&ftl, "integrity.mirror_repairs"), 1);
        assert_eq!(ftl.peek_mapping(Lba(4)).unwrap(), before);
    }

    #[test]
    fn integrity_unrepairable_divergence_degrades_read_only() {
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        ftl.write(Lba(5), &block(0x55)).unwrap();
        ftl.write(Lba(6), &block(0x66)).unwrap();
        let slot = ftl.table().slot_of(Lba(5));
        let entry_addr = ftl.table().entry_addr(Lba(5));
        let mirror_addr = ftl.integrity_plane().unwrap().mirror_addr(slot);
        // Primary and mirror both take double-bit hits: nothing trustworthy
        // remains, so the FTL must refuse service rather than guess.
        corrupt_u32(&mut ftl, entry_addr, 0b11);
        corrupt_u32(&mut ftl, mirror_addr, 0b1100);
        let mut out = block(0);
        assert_eq!(
            ftl.read(Lba(5), &mut out),
            Err(FtlError::L2pIntegrity { lba: Lba(5) })
        );
        assert!(ftl.is_read_only(), "unrepairable divergence degrades");
        assert_eq!(counter(&ftl, "integrity.unrepairable"), 1);
        // Degraded-mode contract: writes rejected, intact reads still served.
        assert_eq!(ftl.write(Lba(7), &block(0)), Err(FtlError::ReadOnly));
        ftl.read(Lba(6), &mut out).unwrap();
        assert_eq!(out, block(0x66));
    }

    #[test]
    fn integrity_survives_gc_and_overwrites() {
        // Every L2P update must keep code and mirror in sync, including the
        // GC relocation and journal-less recovery paths.
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        let cap = ftl.capacity_lbas();
        for round in 0..8u64 {
            for lba in 0..cap / 2 {
                ftl.write(Lba(lba), &block((round % 251) as u8)).unwrap();
            }
        }
        assert!(counter(&ftl, "ftl.gc_runs") > 0, "GC must have run");
        let mut out = block(0);
        for lba in (0..cap / 2).step_by(7) {
            let outcome = ftl.read(Lba(lba), &mut out).unwrap();
            assert!(matches!(outcome, ReadOutcome::Mapped { .. }), "{outcome:?}");
            assert_eq!(out[0], 7);
        }
        assert_eq!(counter(&ftl, "integrity.detected"), 0, "no false positives");
    }

    #[test]
    fn scrub_chunk_repairs_flipped_entries_before_the_host_reads_them() {
        let mut ftl = integrity_ftl(IntegrityMode::Correct);
        for lba in 0..32u64 {
            ftl.write(Lba(lba), &block(lba as u8)).unwrap();
        }
        let before: Vec<_> = (0..32u64)
            .map(|l| ftl.peek_mapping(Lba(l)).unwrap())
            .collect();
        for lba in [2u64, 9, 17] {
            let addr = ftl.table().entry_addr(Lba(lba));
            corrupt_u32(&mut ftl, addr, 1 << 3);
        }
        ftl.scrub_chunk(ftl.capacity_lbas(), 0).unwrap();
        assert_eq!(counter(&ftl, "scrub.entries_checked"), ftl.capacity_lbas());
        assert_eq!(
            counter(&ftl, "scrub.repairs"),
            3,
            "each flip repaired exactly once"
        );
        assert_eq!(counter(&ftl, "scrub.sweeps"), 1);
        for (lba, exp) in before.iter().enumerate() {
            assert_eq!(ftl.peek_mapping(Lba(lba as u64)).unwrap(), *exp);
        }
    }

    #[test]
    fn scrub_chunk_issues_flash_patrol_reads_over_mapped_pages() {
        let mut ftl = integrity_ftl(IntegrityMode::Off);
        for lba in 0..16u64 {
            ftl.write(Lba(lba), &block(1)).unwrap();
        }
        ftl.scrub_chunk(0, 5).unwrap();
        assert_eq!(counter(&ftl, "scrub.flash_reads"), 5);
        ftl.scrub_chunk(0, 100).unwrap();
        // Only 16 valid pages exist; the patrol never reads unmapped pages.
        assert_eq!(counter(&ftl, "scrub.flash_reads"), 5 + 16);
    }

    #[test]
    fn hammering_with_integrity_correct_never_redirects_silently() {
        use ssdhammer_flash::FlashGeometry;
        // 64-block flash: 4096 slots fit the Correct plane (24 KiB) beside
        // the 16 KiB table in the 128 KiB tiny DRAM.
        let flash = FlashGeometry {
            blocks_per_plane: 32,
            ..FlashGeometry::tiny_test()
        };
        let mut ftl = vulnerable_ftl_with(
            flash,
            FtlConfig {
                integrity: IntegrityMode::Correct,
                ..FtlConfig::default()
            },
        );
        let table = *ftl.table();
        let victim_lbas = table.lbas_in_row(ftl.dram(), 0, 5);
        let above = table.lbas_in_row(ftl.dram(), 0, 4);
        let below = table.lbas_in_row(ftl.dram(), 0, 6);
        assert!(!victim_lbas.is_empty() && !above.is_empty() && !below.is_empty());
        for &lba in &victim_lbas {
            ftl.write(lba, &block(0x11)).unwrap();
        }
        let before: Vec<_> = victim_lbas
            .iter()
            .map(|&l| ftl.peek_mapping(l).unwrap())
            .collect();
        let report = ftl
            .hammer_reads(
                &[above[0], below[0]],
                300_000,
                5_000_000.0,
                HammerOptions::default(),
            )
            .unwrap();
        assert!(!report.flips.is_empty(), "bits must still flip physically");
        // The acceptance property: no victim read resolves to a *different*
        // mapping. Each is either repaired back to its true page or fails
        // loudly — silent redirection is gone.
        for (i, &lba) in victim_lbas.iter().enumerate() {
            match ftl.entry_read(lba) {
                Ok(now) => assert_eq!(now, before[i], "lba {} redirected", lba.as_u64()),
                Err(FtlError::L2pIntegrity { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let repaired = counter(&ftl, "integrity.repaired");
        let mirror_repairs = counter(&ftl, "integrity.mirror_repairs");
        assert!(
            repaired + mirror_repairs > 0,
            "hammer flips must have been repaired: {repaired} in place, \
             {mirror_repairs} from the mirror"
        );
    }

    #[test]
    fn vulnerable_row_lbas_exist_for_row5() {
        // Sanity for the attack tests: rows 4..6 of bank 0 hold L2P entries
        // in the mid-size config.
        let ftl = vulnerable_ftl(1);
        for row in 4..=6 {
            assert!(
                !ftl.table().lbas_in_row(ftl.dram(), 0, row).is_empty(),
                "row {row} holds no entries"
            );
        }
    }
}
