//! The NAND array simulator: erase-before-program semantics, in-order page
//! programming, per-channel pipelining, wear, and bad blocks.

use std::sync::Arc;

use ssdhammer_simkit::faultplane::FaultPlane;
use ssdhammer_simkit::rng::{derive_seed, seeded, Rng};
use ssdhammer_simkit::telemetry::{CounterHandle, Telemetry};
use ssdhammer_simkit::{SimClock, SimDuration, SimTime};

use crate::geometry::{BlockId, FlashGeometry, FlashTiming, Ppn};

/// Errors surfaced by flash operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// Page or block index beyond the array.
    OutOfRange,
    /// Attempt to program a page that is not in the erased state (flash
    /// cannot overwrite in place — the physical constraint that forces FTLs
    /// to exist, §2.1).
    NotErased {
        /// The page that was already programmed.
        ppn: Ppn,
    },
    /// Pages within a block must be programmed in order (NAND constraint).
    OutOfOrderProgram {
        /// The out-of-order target.
        ppn: Ppn,
        /// The page index the block expects next.
        expected: u32,
    },
    /// The block is factory-bad or has worn out.
    BadBlock {
        /// The unusable block.
        block: BlockId,
    },
    /// Buffer length does not match the page or OOB size.
    BadBufferLen {
        /// Supplied length.
        got: usize,
        /// Required length.
        expected: usize,
    },
    /// A read failed at the media level (injected via the fault plane).
    /// `bits` is the deterministic count of flipped bits in the worst ECC
    /// word, which the FTL's recovery ladder feeds into
    /// `dram::ecc::EccOutcome::classify` after retries are exhausted.
    ReadFailed {
        /// The page whose read failed.
        ppn: Ppn,
        /// Flipped bits in the worst ECC word (1 = correctable, 2 =
        /// detectable, 3+ = silent corruption).
        bits: u32,
    },
    /// A program operation failed (injected via the fault plane). The
    /// target page is *burned*: it consumed its in-order slot but holds no
    /// data, so the FTL must re-issue the write elsewhere.
    ProgramFailed {
        /// The page whose program failed.
        ppn: Ppn,
    },
    /// An erase operation failed (injected via the fault plane). The block
    /// is marked grown-bad and must be retired by the FTL.
    EraseFailed {
        /// The block whose erase failed.
        block: BlockId,
    },
}

impl core::fmt::Display for FlashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlashError::OutOfRange => write!(f, "flash address out of range"),
            FlashError::NotErased { ppn } => write!(f, "{ppn} is not erased"),
            FlashError::OutOfOrderProgram { ppn, expected } => {
                write!(
                    f,
                    "{ppn} programmed out of order (expected page {expected})"
                )
            }
            FlashError::BadBlock { block } => write!(f, "{block} is bad"),
            FlashError::BadBufferLen { got, expected } => {
                write!(f, "buffer length {got}, expected {expected}")
            }
            FlashError::ReadFailed { ppn, bits } => {
                write!(f, "media read of {ppn} failed ({bits} flipped bits)")
            }
            FlashError::ProgramFailed { ppn } => write!(f, "program of {ppn} failed"),
            FlashError::EraseFailed { block } => write!(f, "erase of {block} failed"),
        }
    }
}

impl std::error::Error for FlashError {}

/// Handles into the shared registry, resolved once at bind time.
#[derive(Debug, Clone)]
struct FlashHandles {
    registry: Telemetry,
    reads: CounterHandle,
    programs: CounterHandle,
    erases: CounterHandle,
    wear_failures: CounterHandle,
    read_disturb_errors: CounterHandle,
    grown_bad: CounterHandle,
}

impl FlashHandles {
    fn bind(registry: Telemetry) -> Self {
        FlashHandles {
            reads: registry.counter("flash.reads"),
            programs: registry.counter("flash.programs"),
            erases: registry.counter("flash.erases"),
            wear_failures: registry.counter("flash.wear_failures"),
            read_disturb_errors: registry.counter("flash.read_disturb_errors"),
            grown_bad: registry.counter("flash.grown_bad"),
            registry,
        }
    }
}

/// A programmed page. Its bytes are never mutated once stored, so any
/// number of pages and readers may hold the same allocation: a program of
/// bytes equal to the previous page's, a program from a
/// [`PageBytes::Shared`] handle, and every clean [`FlashArray::read_page`]
/// share it. Read disturb flips bits in a private copy, and so must any
/// caller that models corruption of what it read.
#[derive(Debug)]
struct PageData {
    data: Arc<[u8]>,
    oob: Box<[u8]>,
}

/// The bytes handed to [`FlashArray::program_page`].
///
/// A reference to bytes (`&[u8]`, `&Vec<u8>`, `&[u8; N]`, anything
/// `AsRef<[u8]>`) converts into [`PageBytes::Borrowed`]; an `Arc<[u8]>` from
/// [`FlashArray::read_page`] converts into [`PageBytes::Shared`]. Both go
/// through the same validation, timing and fault-plane consult.
#[derive(Debug, Clone)]
pub enum PageBytes<'a> {
    /// The caller's bytes: stored as a copy, or as a share of the
    /// previously programmed page's storage when the bytes are equal.
    Borrowed(&'a [u8]),
    /// A page handle as [`FlashArray::read_page`] returns it: stored as is,
    /// with no copy and no compare (how the FTL relocates a page).
    Shared(Arc<[u8]>),
}

impl PageBytes<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            PageBytes::Borrowed(bytes) => bytes,
            PageBytes::Shared(stored) => stored,
        }
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for PageBytes<'a> {
    fn from(bytes: &'a T) -> Self {
        PageBytes::Borrowed(bytes.as_ref())
    }
}

impl From<Arc<[u8]>> for PageBytes<'_> {
    fn from(stored: Arc<[u8]>) -> Self {
        PageBytes::Shared(stored)
    }
}

#[derive(Debug, Clone, Default)]
struct BlockState {
    next_page: u32,
    pe_cycles: u32,
    reads_since_erase: u64,
    bad: bool,
}

/// The simulated NAND array.
///
/// Operation latencies do not block the global clock; instead each operation
/// is scheduled on its block's channel pipeline and returns the simulated
/// *completion time*, so callers (the FTL / NVMe layer) can model device
/// parallelism and queueing honestly.
///
/// # Examples
///
/// ```
/// use ssdhammer_flash::{FlashArray, FlashGeometry, Ppn};
/// use ssdhammer_simkit::SimClock;
///
/// # fn main() -> Result<(), ssdhammer_flash::FlashError> {
/// let mut nand = FlashArray::new(FlashGeometry::tiny_test(), SimClock::new(), 1);
/// let page = vec![7u8; 4096];
/// nand.program_page(Ppn(0), &page, b"meta")?;
/// let (out, _done) = nand.read_page(Ppn(0))?;
/// assert_eq!(out.as_ref(), page.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    timing: FlashTiming,
    clock: SimClock,
    /// Programmed-page store, directly indexed by PPN (`None` = erased).
    /// A flat slot table rather than an ordered map: page lookup is the
    /// single hottest operation in the simulator and O(1) indexing beats a
    /// tree walk over hundreds of thousands of programmed pages.
    pages: Vec<Option<PageData>>,
    /// What every erased page reads as: one all-`0xFF` page, shared.
    erased: Arc<[u8]>,
    /// What every erased page's OOB area reads as: all `0xFF`, shared.
    erased_oob: Box<[u8]>,
    /// The last page programmed: a new page with the same bytes shares its
    /// storage instead of holding a copy (fills of one payload are common).
    last_programmed: Option<Ppn>,
    blocks: Vec<BlockState>,
    channel_busy_until: Vec<SimTime>,
    tel: FlashHandles,
    /// Program/erase cycles a block survives before wearing out.
    max_pe_cycles: u32,
    /// Reads a block tolerates between erases before read disturb starts
    /// corrupting returned data.
    read_disturb_limit: u64,
    seed: u64,
    /// Fault-injection decisions for `flash.*` sites. Disabled by default.
    fault_plane: FaultPlane,
}

impl FlashArray {
    /// Creates an array with default timings and ~0.2% factory bad blocks
    /// drawn deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    #[must_use]
    pub fn new(geometry: FlashGeometry, clock: SimClock, seed: u64) -> Self {
        Self::with_timing(geometry, FlashTiming::default(), clock, seed)
    }

    /// Creates an array with explicit timings.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    #[must_use]
    pub fn with_timing(
        geometry: FlashGeometry,
        timing: FlashTiming,
        clock: SimClock,
        seed: u64,
    ) -> Self {
        geometry.validate().expect("invalid flash geometry"); // lint:allow(P1) -- documented `# Panics` constructor contract
        let total_blocks = geometry.total_blocks() as usize;
        let mut blocks = vec![BlockState::default(); total_blocks];
        let mut rng = seeded(derive_seed(seed, "factory-bad-blocks", 0));
        for b in blocks.iter_mut() {
            if rng.gen::<f64>() < 0.002 {
                b.bad = true;
            }
        }
        let mut pages = Vec::new();
        pages.resize_with(geometry.total_pages() as usize, || None);
        FlashArray {
            channel_busy_until: vec![SimTime::ZERO; geometry.channels as usize],
            geometry,
            timing,
            clock,
            pages,
            erased: vec![0xFF; geometry.page_bytes as usize].into(),
            erased_oob: vec![0xFF; geometry.oob_bytes as usize].into(),
            last_programmed: None,
            blocks,
            tel: FlashHandles::bind(Telemetry::new()),
            max_pe_cycles: 3000,
            read_disturb_limit: 100_000,
            seed,
            fault_plane: FaultPlane::disabled(),
        }
    }

    /// Installs a fault plane; `flash.read_fail`, `flash.program_fail`,
    /// and `flash.erase_fail` sites are consulted on the corresponding
    /// operations.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.fault_plane = plane;
    }

    /// The installed fault plane (a disabled one if none was set).
    #[must_use]
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.fault_plane
    }

    /// The array geometry.
    #[must_use]
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The shared registry this array records into.
    #[must_use]
    pub fn shared_telemetry(&self) -> Telemetry {
        self.tel.registry.clone()
    }

    /// Rebinds this array's metrics onto `telemetry` (e.g. an [`Ssd`]'s one
    /// shared registry). Counts recorded before the switch stay in the old
    /// registry, so attach before use.
    ///
    /// [`Ssd`]: https://docs.rs/ssdhammer-nvme
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tel = FlashHandles::bind(telemetry.clone());
    }

    /// Overrides the endurance limit (for wear tests).
    pub fn set_max_pe_cycles(&mut self, cycles: u32) {
        self.max_pe_cycles = cycles;
    }

    /// Overrides the read-disturb tolerance: the reads a block tolerates
    /// between erases before read disturb corrupts returned data (for tests
    /// and FTL tuning).
    pub fn set_read_disturb_limit(&mut self, limit: u64) {
        assert!(limit > 0, "limit must be positive");
        self.read_disturb_limit = limit;
    }

    /// Reads issued to `block` since its last erase.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] for invalid blocks.
    pub fn reads_since_erase(&self, block: BlockId) -> Result<u64, FlashError> {
        self.block_state(block).map(|b| b.reads_since_erase)
    }

    /// P/E cycles consumed by `block`.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] for invalid blocks.
    pub fn pe_cycles(&self, block: BlockId) -> Result<u32, FlashError> {
        self.block_state(block).map(|b| b.pe_cycles)
    }

    /// Whether `block` is usable.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] for invalid blocks.
    pub fn is_bad(&self, block: BlockId) -> Result<bool, FlashError> {
        self.block_state(block).map(|b| b.bad)
    }

    /// The next in-order programmable page index of `block`, or
    /// `pages_per_block` when full.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] for invalid blocks.
    pub fn next_page(&self, block: BlockId) -> Result<u32, FlashError> {
        self.block_state(block).map(|b| b.next_page)
    }

    fn block_state(&self, block: BlockId) -> Result<&BlockState, FlashError> {
        self.blocks
            .get(block.as_u64() as usize)
            .ok_or(FlashError::OutOfRange)
    }

    /// Schedules an operation of length `d` on `channel`, returning its
    /// completion time.
    fn schedule(&mut self, channel: u32, d: SimDuration) -> SimTime {
        let busy = &mut self.channel_busy_until[channel as usize];
        let start = (*busy).max(self.clock.now());
        let done = start + d;
        *busy = done;
        done
    }

    /// Reads a page. Erased pages read as all-`0xFF` (NAND convention).
    /// Returns the page data and the operation's completion time.
    ///
    /// The data is the stored page's own handle, not a copy: stored bytes
    /// are never mutated, so the caller may keep it, compare it, or program
    /// it into another page ([`PageBytes::Shared`]) at no cost.
    ///
    /// Each read disturbs the block slightly; past the read-disturb limit
    /// ([`FlashArray::set_read_disturb_limit`]) of reads since the last
    /// erase, the returned data is a private copy carrying deterministic bit
    /// errors whose count grows with the excess (the stored charge degrades
    /// — only an erase heals it).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`], [`FlashError::BadBlock`], or — with a
    /// fault plane installed — [`FlashError::ReadFailed`].
    pub fn read_page(&mut self, ppn: Ppn) -> Result<(Arc<[u8]>, SimTime), FlashError> {
        self.read(ppn, true)
    }

    /// Reads a page in *recovery-assisted* mode: the `flash.read_fail`
    /// fault site is not consulted, modeling the slower read-retry voltage
    /// sweep the FTL falls back to after normal reads keep failing. Data,
    /// timing and read-disturb accounting are identical to
    /// [`FlashArray::read_page`].
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] or [`FlashError::BadBlock`].
    pub fn read_page_assisted(&mut self, ppn: Ppn) -> Result<(Arc<[u8]>, SimTime), FlashError> {
        self.read(ppn, false)
    }

    /// Charges one read of `ppn` and returns the stored page, or a
    /// read-disturbed copy of it.
    fn read(&mut self, ppn: Ppn, inject: bool) -> Result<(Arc<[u8]>, SimTime), FlashError> {
        let block = self.checked_block(ppn)?;
        let done = self.schedule(
            self.geometry.channel_of(block),
            SimDuration::from_nanos(self.timing.t_read_ns + self.timing.t_xfer_ns),
        );
        self.tel.reads.incr();
        let state = &mut self.blocks[block.as_u64() as usize];
        state.reads_since_erase += 1;
        let excess = state
            .reads_since_erase
            .saturating_sub(self.read_disturb_limit);
        if inject {
            if let Some(draw) = self.fault_plane.consult("flash.read_fail") {
                // 1..=3 flipped bits: correctable / detectable / silent.
                let bits = 1 + (draw % 3) as u32;
                return Err(FlashError::ReadFailed { ppn, bits });
            }
        }
        let stored = match &self.pages[ppn.as_u64() as usize] {
            Some(p) => &p.data,
            None => &self.erased,
        };
        if excess == 0 {
            return Ok((Arc::clone(stored), done));
        }
        // One more flipped bit per further `limit/8` reads, up to 32.
        let errors = (1 + excess / (self.read_disturb_limit / 8).max(1)).min(32);
        self.tel.read_disturb_errors.add(errors);
        let mut data = stored.to_vec();
        disturb(self.seed, ppn, errors, &mut data);
        Ok((data.into(), done))
    }

    /// The OOB area of a page as stored, read in place; erased pages read
    /// as all-`0xFF`.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] or [`FlashError::BadBlock`].
    pub fn read_oob(&self, ppn: Ppn) -> Result<&[u8], FlashError> {
        let _ = self.checked_block(ppn)?;
        Ok(match &self.pages[ppn.as_u64() as usize] {
            Some(p) => &p.oob,
            None => &self.erased_oob,
        })
    }

    /// Programs a page with `data` and up to `oob_bytes` of OOB metadata.
    /// Returns the completion time.
    ///
    /// `data` is borrowed bytes or a shared page handle ([`PageBytes`]);
    /// which one changes only where the bytes are stored, never the
    /// checks, timing, fault-plane consult or counters.
    ///
    /// # Errors
    ///
    /// * [`FlashError::NotErased`] if the page was already programmed.
    /// * [`FlashError::OutOfOrderProgram`] if the page is not the block's
    ///   next in-order page.
    /// * [`FlashError::BadBlock`], [`FlashError::OutOfRange`],
    ///   [`FlashError::BadBufferLen`].
    /// * [`FlashError::ProgramFailed`] when the fault plane fires; the page
    ///   slot is burned (consumed but unwritten) and the operation's time
    ///   is still charged, as on real NAND.
    pub fn program_page<'a>(
        &mut self,
        ppn: Ppn,
        data: impl Into<PageBytes<'a>>,
        oob: &[u8],
    ) -> Result<SimTime, FlashError> {
        let data = data.into();
        let block = self.checked_block(ppn)?;
        if data.as_slice().len() != self.geometry.page_bytes as usize {
            return Err(FlashError::BadBufferLen {
                got: data.as_slice().len(),
                expected: self.geometry.page_bytes as usize,
            });
        }
        if oob.len() > self.geometry.oob_bytes as usize {
            return Err(FlashError::BadBufferLen {
                got: oob.len(),
                expected: self.geometry.oob_bytes as usize,
            });
        }
        if self.pages[ppn.as_u64() as usize].is_some() {
            return Err(FlashError::NotErased { ppn });
        }
        let page_idx = self.geometry.page_in_block(ppn);
        let state = &mut self.blocks[block.as_u64() as usize];
        if page_idx != state.next_page {
            return Err(FlashError::OutOfOrderProgram {
                ppn,
                expected: state.next_page,
            });
        }
        state.next_page += 1;
        if self.fault_plane.consult("flash.program_fail").is_some() {
            let done = self.schedule(
                self.geometry.channel_of(block),
                SimDuration::from_nanos(self.timing.t_program_ns + self.timing.t_xfer_ns),
            );
            let _ = done;
            return Err(FlashError::ProgramFailed { ppn });
        }
        let mut oob_buf = vec![0u8; self.geometry.oob_bytes as usize].into_boxed_slice();
        oob_buf[..oob.len()].copy_from_slice(oob);
        let data = match data {
            PageBytes::Shared(stored) => stored,
            PageBytes::Borrowed(bytes) => match self
                .last_programmed
                .and_then(|p| self.pages[p.as_u64() as usize].as_ref())
            {
                Some(prev) if *prev.data == *bytes => Arc::clone(&prev.data),
                _ => Arc::from(bytes),
            },
        };
        self.pages[ppn.as_u64() as usize] = Some(PageData { data, oob: oob_buf });
        self.last_programmed = Some(ppn);
        let done = self.schedule(
            self.geometry.channel_of(block),
            SimDuration::from_nanos(self.timing.t_program_ns + self.timing.t_xfer_ns),
        );
        self.tel.programs.incr();
        Ok(done)
    }

    /// Charges one page-read's worth of time on the channel selected by
    /// `hint` without touching any page — used by FTLs that perform a flash
    /// access even for unmapped reads (the slow path the paper's attacker
    /// avoids by reading trimmed blocks).
    pub fn charge_dummy_read(&mut self, hint: u64) -> SimTime {
        let channel = (hint % u64::from(self.geometry.channels)) as u32;
        self.tel.reads.incr();
        self.schedule(
            channel,
            SimDuration::from_nanos(self.timing.t_read_ns + self.timing.t_xfer_ns),
        )
    }

    /// Erases a whole block, returning the completion time. Consumes one P/E
    /// cycle; a block past its endurance becomes bad.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`], [`FlashError::BadBlock`], or — when the
    /// fault plane fires — [`FlashError::EraseFailed`], which marks the
    /// block grown-bad.
    pub fn erase_block(&mut self, block: BlockId) -> Result<SimTime, FlashError> {
        if block.as_u64() >= self.geometry.total_blocks() {
            return Err(FlashError::OutOfRange);
        }
        if self.blocks[block.as_u64() as usize].bad {
            return Err(FlashError::BadBlock { block });
        }
        if self.fault_plane.consult("flash.erase_fail").is_some() {
            self.blocks[block.as_u64() as usize].bad = true;
            self.tel.grown_bad.incr();
            return Err(FlashError::EraseFailed { block });
        }
        let max_pe = self.max_pe_cycles;
        let state = &mut self.blocks[block.as_u64() as usize];
        state.pe_cycles += 1;
        if state.pe_cycles > max_pe {
            state.bad = true;
            self.tel.wear_failures.incr();
            self.tel.grown_bad.incr();
            return Err(FlashError::BadBlock { block });
        }
        state.next_page = 0;
        state.reads_since_erase = 0;
        let first = self.geometry.first_page(block).as_u64();
        for p in first..first + u64::from(self.geometry.pages_per_block) {
            self.pages[p as usize] = None;
        }
        let done = self.schedule(
            self.geometry.channel_of(block),
            SimDuration::from_nanos(self.timing.t_erase_ns),
        );
        self.tel.erases.incr();
        Ok(done)
    }

    /// Retires `block`: marks it grown-bad so every further access fails
    /// with [`FlashError::BadBlock`]. Used by the FTL when remapping away
    /// from a block that failed a program.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] for invalid blocks.
    pub fn mark_bad(&mut self, block: BlockId) -> Result<(), FlashError> {
        let state = self
            .blocks
            .get_mut(block.as_u64() as usize)
            .ok_or(FlashError::OutOfRange)?;
        if !state.bad {
            state.bad = true;
            self.tel.grown_bad.incr();
        }
        Ok(())
    }

    fn checked_block(&self, ppn: Ppn) -> Result<BlockId, FlashError> {
        if ppn.as_u64() >= self.geometry.total_pages() {
            return Err(FlashError::OutOfRange);
        }
        let block = self.geometry.block_of(ppn);
        if self.blocks[block.as_u64() as usize].bad {
            return Err(FlashError::BadBlock { block });
        }
        Ok(block)
    }

    /// Blocks that are usable (not factory-bad, not worn out).
    #[must_use]
    pub fn good_blocks(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.bad)
            .map(|(i, _)| BlockId(i as u64))
            .collect()
    }
}

/// Flips `errors` deterministic bits of `ppn`'s read-disturbed copy.
fn disturb(seed: u64, ppn: Ppn, errors: u64, bytes: &mut [u8]) {
    let bits = bytes.len() as u64 * 8;
    for e in 0..errors {
        let bit = derive_seed(seed, "read-disturb", ppn.as_u64() ^ (e << 48)) % bits;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        // Seed 1 yields no factory-bad blocks in the tiny geometry.
        let a = FlashArray::new(FlashGeometry::tiny_test(), SimClock::new(), 1);
        assert_eq!(a.good_blocks().len() as u64, a.geometry().total_blocks());
        a
    }

    /// Counter `name` of `a`'s registry; an unregistered name fails the test.
    fn counter(a: &FlashArray, name: &str) -> u64 {
        a.shared_telemetry()
            .counter_value(name)
            .unwrap_or_else(|| panic!("counter {name} is not registered"))
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn program_read_roundtrip_with_oob() {
        let mut a = array();
        a.program_page(Ppn(0), &page(0xAB), b"lba=77").unwrap();
        let (data, _) = a.read_page(Ppn(0)).unwrap();
        assert!(data.iter().all(|&b| b == 0xAB));
        let oob = a.read_oob(Ppn(0)).unwrap();
        assert_eq!(&oob[..6], b"lba=77");
    }

    #[test]
    fn erased_pages_read_ff() {
        let mut a = array();
        let (data, _) = a.read_page(Ppn(5)).unwrap();
        assert!(data.iter().all(|&b| b == 0xFF));
        assert!(a.read_oob(Ppn(5)).unwrap().iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn no_overwrite_in_place() {
        let mut a = array();
        a.program_page(Ppn(0), &page(1), b"").unwrap();
        assert_eq!(
            a.program_page(Ppn(0), &page(2), b""),
            Err(FlashError::NotErased { ppn: Ppn(0) })
        );
    }

    #[test]
    fn in_order_programming_enforced() {
        let mut a = array();
        a.program_page(Ppn(0), &page(1), b"").unwrap();
        let err = a.program_page(Ppn(2), &page(1), b"").unwrap_err();
        assert_eq!(
            err,
            FlashError::OutOfOrderProgram {
                ppn: Ppn(2),
                expected: 1
            }
        );
        a.program_page(Ppn(1), &page(1), b"").unwrap();
    }

    #[test]
    fn erase_resets_block() {
        let mut a = array();
        for i in 0..3 {
            a.program_page(Ppn(i), &page(9), b"").unwrap();
        }
        a.erase_block(BlockId(0)).unwrap();
        assert_eq!(a.next_page(BlockId(0)).unwrap(), 0);
        let (data, _) = a.read_page(Ppn(0)).unwrap();
        assert!(data.iter().all(|&b| b == 0xFF));
        assert_eq!(a.pe_cycles(BlockId(0)).unwrap(), 1);
        // Programming restarts from page 0.
        a.program_page(Ppn(0), &page(3), b"").unwrap();
    }

    #[test]
    fn wear_out_marks_block_bad() {
        let mut a = array();
        a.set_max_pe_cycles(3);
        for _ in 0..3 {
            a.erase_block(BlockId(2)).unwrap();
        }
        assert_eq!(
            a.erase_block(BlockId(2)),
            Err(FlashError::BadBlock { block: BlockId(2) })
        );
        assert!(a.is_bad(BlockId(2)).unwrap());
        assert_eq!(
            a.read_page(a.geometry().first_page(BlockId(2))),
            Err(FlashError::BadBlock { block: BlockId(2) })
        );
        assert_eq!(counter(&a, "flash.wear_failures"), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut a = array();
        let beyond = Ppn(a.geometry().total_pages());
        assert_eq!(a.read_page(beyond).unwrap_err(), FlashError::OutOfRange);
        assert_eq!(
            a.erase_block(BlockId(a.geometry().total_blocks())),
            Err(FlashError::OutOfRange)
        );
    }

    #[test]
    fn bad_buffer_lengths_rejected() {
        let mut a = array();
        assert!(matches!(
            a.program_page(Ppn(0), &[0u8; 512], b""),
            Err(FlashError::BadBufferLen { .. })
        ));
        assert!(matches!(
            a.program_page(Ppn(0), &page(0), &[0u8; 99]),
            Err(FlashError::BadBufferLen { .. })
        ));
    }

    #[test]
    fn channel_pipelines_accumulate_latency() {
        let mut a = array();
        // Blocks 0 and 1 are on different channels; block 2 shares channel 0
        // with block 0.
        let t0 = a
            .program_page(a.geometry().first_page(BlockId(0)), &page(1), b"")
            .unwrap();
        let t1 = a
            .program_page(a.geometry().first_page(BlockId(1)), &page(1), b"")
            .unwrap();
        let t2 = a
            .program_page(a.geometry().first_page(BlockId(2)), &page(1), b"")
            .unwrap();
        assert_eq!(t0, t1, "parallel channels complete together");
        assert!(t2 > t0, "same channel serializes");
    }

    #[test]
    fn telemetry_counts_operations() {
        let mut a = array();
        a.program_page(Ppn(0), &page(1), b"").unwrap();
        a.read_page(Ppn(0)).unwrap();
        a.erase_block(BlockId(0)).unwrap();
        assert_eq!(
            (
                counter(&a, "flash.reads"),
                counter(&a, "flash.programs"),
                counter(&a, "flash.erases")
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn read_disturb_corrupts_past_the_limit_and_erase_heals() {
        let mut a = array();
        a.set_read_disturb_limit(100);
        a.program_page(Ppn(0), &page(0x00), b"").unwrap();
        // Below the limit: clean reads.
        for _ in 0..100 {
            let (d, _) = a.read_page(Ppn(0)).unwrap();
            assert!(d.iter().all(|&b| b == 0x00));
        }
        assert_eq!(a.reads_since_erase(BlockId(0)).unwrap(), 100);
        // Past the limit: corrupted data comes back.
        let mut corrupted = false;
        for _ in 0..50 {
            let (d, _) = a.read_page(Ppn(0)).unwrap();
            corrupted |= d.iter().any(|&b| b != 0x00);
        }
        assert!(corrupted, "read disturb should corrupt returned data");
        assert!(counter(&a, "flash.read_disturb_errors") > 0);
        // Erase resets the counter; fresh data reads clean again.
        a.erase_block(BlockId(0)).unwrap();
        assert_eq!(a.reads_since_erase(BlockId(0)).unwrap(), 0);
        a.program_page(Ppn(0), &page(0x11), b"").unwrap();
        let (d, _) = a.read_page(Ppn(0)).unwrap();
        assert!(d.iter().all(|&b| b == 0x11));
    }

    fn shares_storage(a: &FlashArray, x: Ppn, y: Ppn) -> bool {
        match (&a.pages[x.as_u64() as usize], &a.pages[y.as_u64() as usize]) {
            (Some(p), Some(q)) => Arc::ptr_eq(&p.data, &q.data),
            _ => false,
        }
    }

    #[test]
    fn consecutive_identical_programs_share_storage_and_read_back() {
        let mut a = array();
        a.program_page(Ppn(0), &page(0x3C), b"first").unwrap();
        a.program_page(Ppn(1), &page(0x3C), b"second").unwrap();
        assert!(shares_storage(&a, Ppn(0), Ppn(1)));
        for ppn in [Ppn(0), Ppn(1)] {
            assert_eq!(a.read_page(ppn).unwrap().0.as_ref(), page(0x3C).as_slice());
        }
        // Only the data is shared; each page keeps its own OOB.
        assert_eq!(&a.read_oob(Ppn(0)).unwrap()[..5], b"first");
        assert_eq!(&a.read_oob(Ppn(1)).unwrap()[..6], b"second");
    }

    #[test]
    fn erasing_one_shared_copy_leaves_the_other() {
        let mut a = array();
        let other = a.geometry().first_page(BlockId(1));
        a.program_page(Ppn(0), &page(0x77), b"").unwrap();
        a.program_page(other, &page(0x77), b"").unwrap();
        assert!(shares_storage(&a, Ppn(0), other));
        a.erase_block(BlockId(0)).unwrap();
        assert!(a.read_page(Ppn(0)).unwrap().0.iter().all(|&b| b == 0xFF));
        assert_eq!(
            a.read_page(other).unwrap().0.as_ref(),
            page(0x77).as_slice()
        );
        // The erased page is gone, so a later identical program stores anew.
        a.program_page(Ppn(0), &page(0x77), b"").unwrap();
        a.erase_block(BlockId(1)).unwrap();
        assert_eq!(
            a.read_page(Ppn(0)).unwrap().0.as_ref(),
            page(0x77).as_slice()
        );
    }

    #[test]
    fn read_disturb_on_one_shared_copy_spares_the_other() {
        let mut a = array();
        a.set_read_disturb_limit(8);
        let other = a.geometry().first_page(BlockId(1));
        a.program_page(Ppn(0), &page(0x00), b"").unwrap();
        a.program_page(other, &page(0x00), b"").unwrap();
        assert!(shares_storage(&a, Ppn(0), other));
        let mut disturbed = false;
        for _ in 0..16 {
            disturbed |= a.read_page(Ppn(0)).unwrap().0.iter().any(|&b| b != 0);
        }
        assert!(disturbed, "reads past the limit return flipped bits");
        assert!(a.read_page(other).unwrap().0.iter().all(|&b| b == 0));
    }

    #[test]
    fn a_page_programmed_from_a_shared_handle_outlives_its_disturbed_erased_source() {
        let mut a = array();
        a.set_read_disturb_limit(8);
        let moved = a.geometry().first_page(BlockId(1));
        a.program_page(Ppn(0), &page(0x00), b"src").unwrap();
        let (handle, _) = a.read_page(Ppn(0)).unwrap();
        a.program_page(moved, handle, b"dst").unwrap();
        assert!(shares_storage(&a, Ppn(0), moved));
        // Past the limit the source's reads come back as private copies
        // with flipped bits; the storage both pages share keeps its bytes.
        let mut disturbed = 0;
        for _ in 0..16 {
            let (data, _) = a.read_page(Ppn(0)).unwrap();
            let stored = &a.pages[0].as_ref().unwrap().data;
            if data.iter().any(|&b| b != 0) {
                disturbed += 1;
                assert!(!Arc::ptr_eq(&data, stored));
            } else {
                assert!(
                    Arc::ptr_eq(&data, stored),
                    "a clean read is the stored handle"
                );
            }
        }
        assert!(disturbed > 0, "reads past the limit return flipped bits");
        a.erase_block(BlockId(0)).unwrap();
        assert_eq!(
            a.read_page(moved).unwrap().0.as_ref(),
            page(0x00).as_slice()
        );
        assert_eq!(&a.read_oob(moved).unwrap()[..3], b"dst");
    }

    #[test]
    fn differing_content_is_never_shared() {
        let mut a = array();
        let mut near = page(0x10);
        near[4095] ^= 1;
        a.program_page(Ppn(0), &page(0x10), b"").unwrap();
        a.program_page(Ppn(1), &near, b"").unwrap();
        // Equal to page 0 but not to the page programmed just before it.
        a.program_page(Ppn(2), &page(0x10), b"").unwrap();
        assert!(!shares_storage(&a, Ppn(0), Ppn(1)));
        assert!(!shares_storage(&a, Ppn(1), Ppn(2)));
        assert!(!shares_storage(&a, Ppn(0), Ppn(2)));
        assert_eq!(a.read_page(Ppn(1)).unwrap().0.as_ref(), near.as_slice());
        assert_eq!(
            a.read_page(Ppn(2)).unwrap().0.as_ref(),
            page(0x10).as_slice()
        );
    }

    #[test]
    fn dummy_read_charges_channel_time_only() {
        let mut a = array();
        let before = counter(&a, "flash.reads");
        let t = a.charge_dummy_read(3);
        assert!(t > ssdhammer_simkit::SimTime::ZERO);
        assert_eq!(counter(&a, "flash.reads"), before + 1);
        // No page state was touched.
        assert_eq!(a.reads_since_erase(BlockId(1)).unwrap(), 0);
    }

    #[test]
    fn fault_plane_read_fail_fires_and_assisted_read_bypasses() {
        use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
        let mut a = array();
        a.program_page(Ppn(0), &page(0x5A), b"").unwrap();
        let cfg = FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always());
        a.set_fault_plane(FaultPlane::new(3, &cfg));
        let err = a.read_page(Ppn(0)).unwrap_err();
        assert!(
            matches!(err, FlashError::ReadFailed { ppn: Ppn(0), bits } if (1..=3).contains(&bits))
        );
        // The assisted (retry-ladder) read ignores the site and succeeds.
        let (data, _) = a.read_page_assisted(Ppn(0)).unwrap();
        assert!(data.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn fault_plane_program_fail_burns_the_page_slot() {
        use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
        let mut a = array();
        let cfg = FaultPlaneConfig::new()
            .with_site("flash.program_fail", FaultSpec::always().with_max_fires(1));
        a.set_fault_plane(FaultPlane::new(3, &cfg));
        assert_eq!(
            a.program_page(Ppn(0), &page(1), b""),
            Err(FlashError::ProgramFailed { ppn: Ppn(0) })
        );
        // Page 0's slot is consumed; the block expects page 1 next, and the
        // failed page reads back erased.
        assert_eq!(a.next_page(BlockId(0)).unwrap(), 1);
        a.program_page(Ppn(1), &page(2), b"").unwrap();
        let (data, _) = a.read_page(Ppn(0)).unwrap();
        assert!(data.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn fault_plane_erase_fail_grows_a_bad_block() {
        use ssdhammer_simkit::faultplane::{FaultPlaneConfig, FaultSpec};
        let mut a = array();
        let cfg = FaultPlaneConfig::new()
            .with_site("flash.erase_fail", FaultSpec::always().with_max_fires(1));
        a.set_fault_plane(FaultPlane::new(3, &cfg));
        assert_eq!(
            a.erase_block(BlockId(1)),
            Err(FlashError::EraseFailed { block: BlockId(1) })
        );
        assert!(a.is_bad(BlockId(1)).unwrap());
        assert_eq!(counter(&a, "flash.grown_bad"), 1);
        // Other blocks still work once the single fire is spent.
        a.erase_block(BlockId(0)).unwrap();
    }

    #[test]
    fn mark_bad_retires_a_block() {
        let mut a = array();
        a.mark_bad(BlockId(2)).unwrap();
        assert!(a.is_bad(BlockId(2)).unwrap());
        assert_eq!(counter(&a, "flash.grown_bad"), 1);
        // Idempotent: no double count.
        a.mark_bad(BlockId(2)).unwrap();
        assert_eq!(counter(&a, "flash.grown_bad"), 1);
        assert_eq!(a.mark_bad(BlockId(999_999)), Err(FlashError::OutOfRange));
    }

    #[test]
    fn factory_bad_blocks_are_deterministic() {
        let a1 = FlashArray::new(FlashGeometry::gib1(), SimClock::new(), 99);
        let a2 = FlashArray::new(FlashGeometry::gib1(), SimClock::new(), 99);
        assert_eq!(a1.good_blocks(), a2.good_blocks());
    }
}
