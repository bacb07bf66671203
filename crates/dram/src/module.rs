//! The DRAM module simulator: data storage, activation bookkeeping, refresh
//! windows, disturbance-error (rowhammer) evaluation, ECC, and TRR.
//!
//! ## Model
//!
//! * Every access decodes its physical address through the configured
//!   [`AddressMapping`] into `(bank, row, col)`.
//! * A *row-buffer miss* activates (ACT) the target row. Under the default
//!   open-page policy, consecutive accesses to the open row of a bank do not
//!   re-activate it — which is why single-address hammering achieves nothing
//!   and the attack must alternate between rows (§3.1's alternating read
//!   sequence).
//! * Activations are counted per row within the current *refresh window*
//!   (64 ms by default). An activation of row `r` adds disturbance pressure
//!   to physical neighbors `r±1` (and `r±2` scaled by
//!   [`ModuleProfile::distance2_factor`]) and *resets* pressure on `r`
//!   itself, because activating a row restores its cells' charge.
//! * A weak cell of a victim row flips once the accumulated pressure within
//!   one window reaches its threshold **and** the stored bit matches the
//!   cell's vulnerable orientation (true-cells flip 1→0, anti-cells 0→1).
//!   Flips persist until the row is rewritten.
//! * With [`TrrConfig`] active, aggressors the per-bank sampler tracks are
//!   neutralized: their contribution is capped at the detection threshold.
//!   Many-sided patterns overflow the sampler and escape (TRRespass).
//! * With [`EccConfig`] active, reads apply SEC-DED per 64-bit word.
//!
//! Rows never written are unobservable: disturbance there has no effect on
//! any read, exactly like scribbling on uninitialized memory.

use std::collections::BTreeSet;

use ssdhammer_simkit::telemetry::{CounterHandle, Telemetry};
use ssdhammer_simkit::{DramAddr, SimClock, SimDuration, SimTime};

use crate::ecc::{EccConfig, EccOutcome, ECC_WORD_BITS};
use crate::geometry::{DramGeometry, Location, RowKey};
use crate::mapping::AddressMapping;
use crate::para::ParaConfig;
use crate::profile::{ModuleProfile, RowPolicy};
use crate::trr::TrrConfig;
use crate::weakcells::{weak_cells_for_row, WeakCell};

/// Access latency when the row buffer already holds the row.
const T_ROW_HIT: SimDuration = SimDuration::from_nanos(15);

/// Access latency including precharge + activate on a row-buffer miss.
const T_ROW_MISS: SimDuration = SimDuration::from_nanos(45);

/// Errors surfaced by DRAM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// Address beyond the module's capacity.
    OutOfRange {
        /// The offending address.
        addr: DramAddr,
    },
    /// SEC-DED detected a double-bit error in the requested range.
    Uncorrectable {
        /// The address whose codeword failed.
        addr: DramAddr,
    },
}

impl core::fmt::Display for DramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DramError::OutOfRange { addr } => write!(f, "dram address {addr} out of range"),
            DramError::Uncorrectable { addr } => {
                write!(f, "uncorrectable ecc error at dram address {addr}")
            }
        }
    }
}

impl std::error::Error for DramError {}

/// Direction of an observed bitflip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipDirection {
    /// A charged true-cell leaked: 1 → 0.
    OneToZero,
    /// An anti-cell charged up: 0 → 1.
    ZeroToOne,
}

/// One disturbance error that corrupted stored data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipEvent {
    /// Simulated time of the flip.
    pub time: SimTime,
    /// The victim row.
    pub row: RowKey,
    /// Bit index within the row.
    pub bit: u64,
    /// Flip direction.
    pub direction: FlipDirection,
    /// Physical byte address containing the flipped bit.
    pub addr: DramAddr,
}

/// Handles into the shared registry, resolved once so the hot path is a
/// plain add per metric.
#[derive(Debug, Clone)]
struct DramHandles {
    registry: Telemetry,
    activations: CounterHandle,
    row_hits: CounterHandle,
    reads: CounterHandle,
    writes: CounterHandle,
    flips: CounterHandle,
    flips_one_to_zero: CounterHandle,
    flips_zero_to_one: CounterHandle,
    ecc_corrected: CounterHandle,
    ecc_uncorrectable: CounterHandle,
    ecc_silent: CounterHandle,
    refresh_windows: CounterHandle,
    trr_suppressions: CounterHandle,
    para_suppressions: CounterHandle,
}

impl DramHandles {
    fn bind(registry: Telemetry) -> Self {
        DramHandles {
            activations: registry.counter("dram.activations"),
            row_hits: registry.counter("dram.row_hits"),
            reads: registry.counter("dram.reads"),
            writes: registry.counter("dram.writes"),
            flips: registry.counter("dram.flips"),
            flips_one_to_zero: registry.counter("dram.flips.one_to_zero"),
            flips_zero_to_one: registry.counter("dram.flips.zero_to_one"),
            ecc_corrected: registry.counter("dram.ecc.corrected"),
            ecc_uncorrectable: registry.counter("dram.ecc.uncorrectable"),
            ecc_silent: registry.counter("dram.ecc.silent"),
            refresh_windows: registry.counter("dram.refresh_windows"),
            trr_suppressions: registry.counter("dram.trr_suppressions"),
            para_suppressions: registry.counter("dram.para_suppressions"),
            registry,
        }
    }
}

/// Per-run knobs for [`DramModule::run_hammer`].
///
/// The defaults are plain hammering: a dwell factor of `1.0` multiplies
/// every pressure contribution by one (bit-identical in IEEE-754), and an
/// empty label suppresses per-pattern telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerOptions {
    /// Open-row dwell multiplier (RowPress): each aggressor activation
    /// holds its row open `dwell_factor`× longer than a minimal ACT, which
    /// amplifies the per-activation disturbance on neighbors by the same
    /// factor (Luo et al., RowPress, ISCA '23). `1.0` models back-to-back
    /// ACTs with no extra dwell.
    pub dwell_factor: f64,
    /// Attack-pattern label for per-pattern activation telemetry
    /// (`dram.pattern.<label>.activations`). Empty = no pattern counter.
    pub label: &'static str,
}

impl Default for HammerOptions {
    fn default() -> Self {
        HammerOptions {
            dwell_factor: 1.0,
            label: "",
        }
    }
}

/// Result of a bulk hammering run (see [`DramModule::run_hammer`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HammerReport {
    /// Activations actually issued across all aggressors.
    pub activations: u64,
    /// Effective activation rate achieved, per second.
    pub achieved_rate: f64,
    /// Refresh windows the run spanned.
    pub windows: u64,
    /// Flips that occurred during the run.
    pub flips: Vec<FlipEvent>,
    /// Simulated time consumed.
    pub elapsed: SimDuration,
}

#[derive(Debug, Default)]
struct RowData {
    bytes: Box<[u8]>,
    /// Bits currently flipped relative to last written data (ECC's view).
    flipped_bits: BTreeSet<u64>,
}

/// The simulated DRAM module. See the module-level docs for the model.
///
/// # Examples
///
/// ```
/// use ssdhammer_dram::{DramGeometry, DramModule, MappingKind, ModuleProfile};
/// use ssdhammer_simkit::{DramAddr, SimClock};
///
/// let mut dram = DramModule::builder(DramGeometry::tiny_test())
///     .profile(ModuleProfile::ddr3_2016())
///     .mapping(MappingKind::Linear)
///     .seed(42)
///     .build(SimClock::new());
/// dram.write_u32(DramAddr(0x100), 0xDEAD_BEEF).unwrap();
/// assert_eq!(dram.read_u32(DramAddr(0x100)).unwrap(), 0xDEAD_BEEF);
/// ```
#[derive(Debug)]
pub struct DramModule {
    mapping: AddressMapping,
    profile: ModuleProfile,
    clock: SimClock,
    seed: u64,
    ecc: Option<EccConfig>,
    trr: Option<TrrConfig>,
    para: Option<ParaConfig>,
    timing_enabled: bool,

    /// Materialized row contents, dense by global row index (`None` =
    /// never written, reads as zero).
    rows: Vec<Option<Box<RowData>>>,
    /// Cached weak-cell lists, dense by global row index (`None` = not
    /// yet derived).
    remaining_weak: Vec<Option<Box<[WeakCell]>>>,
    /// End of the current refresh window: the first access at or after it
    /// rolls the window.
    window_end: SimTime,
    /// Per-row activation counts this refresh window (struct-of-arrays;
    /// `acts[i]`/`discount[i]` are only meaningful when `stamp[i] == gen`).
    acts: Vec<u64>,
    /// Pressure already "spent" on a row at its last self-refresh (ACT).
    discount: Vec<f64>,
    /// Generation stamp validating `acts`/`discount` lanes — bumping `gen`
    /// clears every per-window counter in O(1).
    stamp: Vec<u64>,
    gen: u64,
    /// Global row indices activated this window, insertion order, deduped.
    acted: Vec<u32>,
    /// Open row per bank (`u32::MAX` = none open).
    open_rows: Vec<u32>,
    /// Open-row dwell multiplier in effect (RowPress); `1.0` outside a
    /// [`DramModule::run_hammer`] call with a non-default factor.
    open_row_dwell: f64,
    tel: DramHandles,
    /// Flips of the [`DramModule::run_hammer`] burst in progress
    /// (`None` outside a burst): each burst reports its own flips.
    burst_flips: Option<Vec<FlipEvent>>,
}

/// Builder for [`DramModule`].
#[derive(Debug, Clone)]
pub struct DramModuleBuilder {
    geometry: DramGeometry,
    profile: ModuleProfile,
    mapping: crate::mapping::MappingKind,
    seed: u64,
    ecc: Option<EccConfig>,
    trr: Option<TrrConfig>,
    para: Option<ParaConfig>,
    timing_enabled: bool,
    telemetry: Option<Telemetry>,
}

impl DramModuleBuilder {
    /// Sets the vulnerability profile (default: the paper's testbed DDR3).
    #[must_use]
    pub fn profile(mut self, profile: ModuleProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the controller address mapping (default: XOR/swizzle).
    #[must_use]
    pub fn mapping(mut self, kind: crate::mapping::MappingKind) -> Self {
        self.mapping = kind;
        self
    }

    /// Sets the manufacturing-variation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables SEC-DED ECC.
    #[must_use]
    pub fn ecc(mut self, ecc: EccConfig) -> Self {
        self.ecc = Some(ecc);
        self
    }

    /// Enables sampler-based TRR.
    #[must_use]
    pub fn trr(mut self, trr: TrrConfig) -> Self {
        self.trr = Some(trr);
        self
    }

    /// Enables probabilistic adjacent-row refresh (PARA). Composes with
    /// TRR: TRR caps what tracked aggressors contribute, PARA caps what
    /// any refresh-free run can accumulate.
    #[must_use]
    pub fn para(mut self, para: ParaConfig) -> Self {
        self.para = Some(para);
        self
    }

    /// Disables clock advancement on accesses (pure functional mode, used by
    /// callers that account for time themselves).
    #[must_use]
    pub fn without_timing(mut self) -> Self {
        self.timing_enabled = false;
        self
    }

    /// Records metrics and trace events into `telemetry` (default: a fresh
    /// private registry).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Finalizes the module on the given clock.
    #[must_use]
    pub fn build(self, clock: SimClock) -> DramModule {
        let mapping = AddressMapping::new(self.geometry, self.mapping);
        let total_rows =
            self.geometry.total_banks() as usize * self.geometry.rows_per_bank as usize;
        let mut rows = Vec::new();
        rows.resize_with(total_rows, || None);
        let mut remaining_weak = Vec::new();
        remaining_weak.resize_with(total_rows, || None);
        let window_end = SimTime::ZERO + self.profile.refresh_interval;
        DramModule {
            mapping,
            profile: self.profile,
            clock,
            seed: self.seed,
            ecc: self.ecc,
            trr: self.trr,
            para: self.para,
            timing_enabled: self.timing_enabled,
            rows,
            remaining_weak,
            window_end,
            acts: vec![0; total_rows],
            discount: vec![0.0; total_rows],
            stamp: vec![0; total_rows],
            // Stamps start at zero, so generation 1 marks every lane stale.
            gen: 1,
            acted: Vec::new(),
            open_rows: vec![u32::MAX; self.geometry.total_banks() as usize],
            open_row_dwell: 1.0,
            tel: DramHandles::bind(self.telemetry.unwrap_or_default()),
            burst_flips: None,
        }
    }
}

impl DramModule {
    /// Starts building a module over `geometry`.
    #[must_use]
    pub fn builder(geometry: DramGeometry) -> DramModuleBuilder {
        DramModuleBuilder {
            geometry,
            profile: ModuleProfile::testbed_ddr3(),
            mapping: crate::mapping::MappingKind::default_xor(),
            seed: 0,
            ecc: None,
            trr: None,
            para: None,
            timing_enabled: true,
            telemetry: None,
        }
    }

    /// The address mapping in effect.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The vulnerability profile in effect.
    #[must_use]
    pub fn profile(&self) -> &ModuleProfile {
        &self.profile
    }

    /// The clock this module advances.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared registry this module records into.
    #[must_use]
    pub fn shared_telemetry(&self) -> Telemetry {
        self.tel.registry.clone()
    }

    /// Rebinds this module's metrics onto `telemetry` (e.g. the one shared
    /// registry of a full-stack [`Ssd`]). Counts recorded before the switch
    /// stay in the old registry, so attach before use.
    ///
    /// [`Ssd`]: https://docs.rs/ssdhammer-nvme
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tel = DramHandles::bind(telemetry.clone());
    }

    /// Offline profiling: the weak cells of `row` on this specific module.
    ///
    /// The paper assumes the attacker "can map out potential aggressor and
    /// victim rows in a given SSD model offline" (§4.2); this accessor plays
    /// that role for tests and experiment setup. It never mutates state.
    #[must_use]
    pub fn profile_row(&self, row: RowKey) -> Vec<WeakCell> {
        weak_cells_for_row(
            self.seed,
            &self.profile,
            u64::from(self.mapping.geometry().row_bytes) * 8,
            row,
        )
    }

    /// Scans `bank` for rows that are double-sided-hammerable: the row has
    /// weak cells and both physical neighbors exist. Returns up to `limit`
    /// row indices in ascending order.
    #[must_use]
    pub fn vulnerable_rows(&self, bank: u32, limit: usize) -> Vec<u32> {
        let rows = self.mapping.geometry().rows_per_bank;
        (1..rows.saturating_sub(1))
            .filter(|&r| !self.profile_row(RowKey { bank, row: r }).is_empty())
            .take(limit)
            .collect()
    }

    // ---- data path -------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr`. The range must not cross a
    /// row boundary.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfRange`] for bad addresses;
    /// [`DramError::Uncorrectable`] when ECC detects a double-bit error.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a row boundary.
    pub fn read(&mut self, addr: DramAddr, buf: &mut [u8]) -> Result<(), DramError> {
        let loc = self.checked_decode(addr, buf.len())?;
        self.tick_window();
        self.access(loc.row_key());
        self.serve(addr, loc, buf)
    }

    /// Writes `data` starting at `addr`. The range must not cross a row
    /// boundary. Writing recharges the covered cells (clears their flips).
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfRange`] for bad addresses.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a row boundary.
    pub fn write(&mut self, addr: DramAddr, data: &[u8]) -> Result<(), DramError> {
        let loc = self.checked_decode(addr, data.len())?;
        self.tick_window();
        let key = loc.row_key();
        self.access(key);
        self.tel.writes.incr();
        let row_bytes = self.mapping.geometry().row_bytes as usize;
        let i = self.row_index(key);
        let row_data = self.rows[i].get_or_insert_with(|| {
            Box::new(RowData {
                bytes: vec![0u8; row_bytes].into_boxed_slice(),
                flipped_bits: BTreeSet::new(),
            })
        });
        row_data.bytes[loc.col as usize..loc.col as usize + data.len()].copy_from_slice(data);
        let start_bit = u64::from(loc.col) * 8;
        let end_bit = start_bit + data.len() as u64 * 8;
        let cleared: Vec<u64> = row_data
            .flipped_bits
            .range(start_bit..end_bit)
            .copied()
            .collect();
        for b in cleared {
            row_data.flipped_bits.remove(&b);
        }
        Ok(())
    }

    /// Reads a little-endian `u32` (the size of one L2P entry).
    ///
    /// # Errors
    ///
    /// Same as [`DramModule::read`].
    pub fn read_u32(&mut self, addr: DramAddr) -> Result<u32, DramError> {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// One amplified lookup: reads the little-endian `u32` at `addr`, then
    /// forces `extra` activations of its row, in one pass.
    ///
    /// Equal in value, clock, counters and flips to [`DramModule::read_u32`]
    /// followed (when `extra > 0` and the read succeeded) by
    /// [`DramModule::force_activations`]`(addr, extra)` — the FTL's L2P
    /// lookup under the paper's 5× amplification (§4.1). The forced
    /// activations reuse the read's address decode and pressure: unless the
    /// read's own access time crossed a refresh-window boundary, the row's
    /// neighbours have not changed since the read evaluated it.
    ///
    /// # Errors
    ///
    /// Same as [`DramModule::read`].
    pub fn read_u32_amplified(&mut self, addr: DramAddr, extra: u64) -> Result<u32, DramError> {
        let mut buf = [0u8; 4];
        let loc = self.checked_decode(addr, buf.len())?;
        self.tick_window();
        let key = loc.row_key();
        let (hit, raw) = self.access(key);
        self.serve(addr, loc, &mut buf)?;
        if extra > 0 {
            if self.tick_window() {
                // A fresh window holds no pressure to evaluate.
                self.force(key, extra, None);
            } else {
                // A miss refreshed the row, so nothing is left to flip; a
                // hit left its pressure as the read found it, but ECC
                // scrubbing may have recharged a flipped cell.
                if hit {
                    self.apply_flips(key, raw);
                }
                self.force(key, extra, Some(raw));
            }
        }
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`DramModule::write`].
    pub fn write_u32(&mut self, addr: DramAddr, value: u32) -> Result<(), DramError> {
        self.write(addr, &value.to_le_bytes())
    }

    // ---- hammering -------------------------------------------------------

    /// Issues `total_accesses` round-robin accesses over `aggressors` at
    /// `rate_per_sec`, advancing the simulated clock, handling every refresh
    /// window boundary crossed, and applying any resulting flips.
    ///
    /// This is the fast path for experiments that hammer for simulated
    /// minutes or hours: cost is proportional to the number of refresh
    /// windows, not the number of accesses.
    ///
    /// With fewer than two aggressors under the open-page policy the row
    /// buffer absorbs every repeat access and (almost) no activations are
    /// generated — matching real hardware, where one-location hammering
    /// requires a closed-page controller.
    ///
    /// `opts` sets an open-row dwell multiplier (RowPress-style patterns
    /// trade activation rate for per-activation disturbance) and a pattern
    /// label for `dram.pattern.<label>.activations` telemetry; the defaults
    /// are plain hammering.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfRange`] if any aggressor address is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `aggressors` is empty, `rate_per_sec` is not positive, or
    /// `opts.dwell_factor` is not positive.
    pub fn run_hammer(
        &mut self,
        aggressors: &[DramAddr],
        total_accesses: u64,
        rate_per_sec: f64,
        opts: HammerOptions,
    ) -> Result<HammerReport, DramError> {
        assert!(!aggressors.is_empty(), "need at least one aggressor");
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(opts.dwell_factor > 0.0, "dwell factor must be positive");
        let keys: Vec<RowKey> = aggressors
            .iter()
            .map(|&a| self.checked_decode(a, 1).map(|l| l.row_key()))
            .collect::<Result<_, _>>()?;
        // Row-buffer absorption: single-aggressor open-page patterns generate
        // one ACT per window, not one per access.
        let absorbed = keys.len() == 1 && self.profile.row_policy == RowPolicy::OpenPage;

        self.open_row_dwell = opts.dwell_factor;
        let start = self.clock.now();
        self.burst_flips = Some(Vec::new());
        let mut issued = 0u64;
        let mut activations = 0u64;
        let window = self.profile.refresh_interval;
        while issued < total_accesses {
            self.tick_window();
            let now = self.clock.now();
            let window_end = now.window_start(window) + window;
            let span = window_end - now;
            let span_accesses =
                ((rate_per_sec * span.as_secs_f64()).floor() as u64).min(total_accesses - issued);
            if span_accesses == 0 {
                if span >= window {
                    // Rate below one access per whole window: issue a single
                    // access and idle out its period.
                    self.apply_bulk_accesses(&keys, 1, absorbed, &mut activations);
                    issued += 1;
                    self.clock
                        .advance(SimDuration::from_rate_per_sec(rate_per_sec));
                    continue;
                }
                // Less than one access period left in this window: settle and
                // cross the boundary, then continue in the next window.
                self.settle_window();
                self.clock.advance_to(window_end);
                continue;
            }
            self.apply_bulk_accesses(&keys, span_accesses, absorbed, &mut activations);
            issued += span_accesses;
            let used = SimDuration::from_secs_f64(span_accesses as f64 / rate_per_sec);
            // Settle this window's flips before the boundary clears counters.
            self.settle_window();
            self.clock
                .advance(used.min(span).max(SimDuration::from_nanos(1)));
            if self.clock.now() >= window_end {
                self.clock.advance_to(window_end);
            }
        }
        self.settle_window();
        self.open_row_dwell = 1.0;
        if !opts.label.is_empty() {
            self.tel
                .registry
                .counter(&format!("dram.pattern.{}.activations", opts.label))
                .add(activations);
        }
        let elapsed = self.clock.elapsed_since(start);
        let windows = elapsed.as_nanos() / window.as_nanos().max(1) + 1;
        Ok(HammerReport {
            activations,
            achieved_rate: if elapsed.is_zero() {
                0.0
            } else {
                activations as f64 / elapsed.as_secs_f64()
            },
            windows,
            flips: self.burst_flips.take().unwrap_or_default(),
            elapsed,
        })
    }

    /// Distributes `n` accesses round-robin over `keys` in the current
    /// window, counting activations and pressure (but not advancing time —
    /// the caller owns pacing).
    fn apply_bulk_accesses(
        &mut self,
        keys: &[RowKey],
        n: u64,
        absorbed: bool,
        activations: &mut u64,
    ) {
        if absorbed {
            // Open-page single row: at most one ACT (if the row was not
            // already open).
            let key = keys[0];
            self.activate(key, None);
            *activations += 1;
            return;
        }
        let per = n / keys.len() as u64;
        let extra = (n % keys.len() as u64) as usize;
        for (i, &key) in keys.iter().enumerate() {
            let acts = per + u64::from(i < extra);
            if acts == 0 {
                continue;
            }
            let lane = self.row_index(key);
            self.touch_lane(lane);
            self.acts[lane] += acts;
            self.tel.activations.add(acts);
            *activations += acts;
            // The aggressor itself is refreshed by its own activations.
            self.discount[lane] = self.raw_pressure(key);
            self.open_rows[key.bank as usize] = key.row;
        }
    }

    /// Diagnostic backdoor: reads stored bytes without activating the row,
    /// without advancing time, and without ECC — the view a lab analyzer
    /// would have of the array contents. Experiments use it to verify flips
    /// without disturbing the system under test. Unwritten rows read as zero.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfRange`] for bad addresses.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a row boundary.
    pub fn peek(&self, addr: DramAddr, buf: &mut [u8]) -> Result<(), DramError> {
        let loc = self.checked_decode(addr, buf.len())?;
        match self.rows[self.row_index(loc.row_key())].as_deref() {
            Some(row) => {
                buf.copy_from_slice(&row.bytes[loc.col as usize..loc.col as usize + buf.len()])
            }
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Forces `n` activations of the row containing `addr`, regardless of
    /// row-buffer state, without transferring data.
    ///
    /// This models access amplification where intervening traffic closes the
    /// row between touches — the paper "manually amplified each L2P row
    /// activation (5 hammers per I/O request)" in its SPDK prototype (§4.1);
    /// the FTL layer exposes the same knob through this method.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfRange`] for bad addresses.
    pub fn force_activations(&mut self, addr: DramAddr, n: u64) -> Result<(), DramError> {
        let loc = self.checked_decode(addr, 1)?;
        self.tick_window();
        let key = loc.row_key();
        self.evaluate_victim(key);
        self.force(key, n, None);
        Ok(())
    }

    // ---- internals ---------------------------------------------------------

    /// Dense index of `key` into the per-row arrays.
    #[inline]
    fn row_index(&self, key: RowKey) -> usize {
        key.bank as usize * self.mapping.geometry().rows_per_bank as usize + key.row as usize
    }

    /// Inverse of [`DramModule::row_index`].
    #[inline]
    fn key_of_index(&self, i: u32) -> RowKey {
        let rows = self.mapping.geometry().rows_per_bank;
        RowKey {
            bank: i / rows,
            row: i % rows,
        }
    }

    /// This window's activation count for the row at dense index `i`.
    #[inline]
    fn acts_at(&self, i: usize) -> u64 {
        if self.stamp[i] == self.gen {
            self.acts[i]
        } else {
            0
        }
    }

    /// Validates lane `i` for the current window (zeroing stale counters)
    /// and registers the row in `acted` the first time it is touched.
    #[inline]
    fn touch_lane(&mut self, i: usize) {
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.acts[i] = 0;
            self.discount[i] = 0.0;
            self.acted.push(i as u32);
        }
    }

    fn checked_decode(&self, addr: DramAddr, len: usize) -> Result<Location, DramError> {
        let Some(end) = addr.as_u64().checked_add(len as u64) else {
            return Err(DramError::OutOfRange { addr });
        };
        if end > self.mapping.total_bytes() {
            return Err(DramError::OutOfRange { addr });
        }
        let loc = self.mapping.decode(addr);
        assert!(
            loc.col as usize + len <= self.mapping.geometry().row_bytes as usize,
            "access at {addr} (+{len}) crosses a row boundary"
        );
        Ok(loc)
    }

    /// Rolls the refresh window forward if the clock has crossed a boundary,
    /// settling outstanding disturbance first. Returns whether it rolled.
    fn tick_window(&mut self) -> bool {
        let now = self.clock.now();
        if now < self.window_end {
            return false;
        }
        self.settle_window();
        self.count_mitigations();
        // Bumping the generation invalidates every `acts`/`discount`
        // lane at once — the O(1) equivalent of clearing both maps.
        self.gen += 1;
        self.acted.clear();
        let window = self.profile.refresh_interval;
        self.window_end = now.window_start(window) + window;
        self.tel.refresh_windows.incr();
        true
    }

    /// One timed access to `key` in the current window: pressure
    /// accumulated up to now may flip cells an instant before the
    /// activation refreshes the row, then the row is activated (on a
    /// row-buffer miss) and the access time charged. Returns whether the
    /// access hit the row buffer, and the row's raw pressure before it.
    fn access(&mut self, key: RowKey) -> (bool, f64) {
        // With no row acted on this window, no lane holds pressure.
        let raw = if self.acted.is_empty() {
            0.0
        } else {
            self.raw_pressure(key)
        };
        self.apply_flips(key, raw);
        let hit = self.activate(key, Some(raw));
        self.charge_access_time(hit);
        (hit, raw)
    }

    /// Serves a read of `buf.len()` bytes at `loc` (already activated):
    /// unwritten rows read as zero, and ECC applies when configured.
    fn serve(&mut self, addr: DramAddr, loc: Location, buf: &mut [u8]) -> Result<(), DramError> {
        self.tel.reads.incr();
        let key = loc.row_key();
        let Some(row_data) = self.rows[self.row_index(key)].as_deref() else {
            buf.fill(0);
            return Ok(());
        };
        buf.copy_from_slice(&row_data.bytes[loc.col as usize..loc.col as usize + buf.len()]);
        if self.ecc.is_some() {
            let start_bit = u64::from(loc.col) * 8;
            let end_bit = start_bit + buf.len() as u64 * 8;
            self.apply_ecc(addr, key, start_bit, end_bit, buf)?;
        }
        Ok(())
    }

    /// Forces `n` activations of `key` without a victim evaluation (the
    /// caller has done it). `raw`, when given, is the row's raw pressure in
    /// the current window, taken with no other row activated since.
    fn force(&mut self, key: RowKey, n: u64, raw: Option<f64>) {
        let lane = self.row_index(key);
        self.touch_lane(lane);
        self.acts[lane] += n;
        self.tel.activations.add(n);
        self.set_discount(key, lane, raw);
        self.open_rows[key.bank as usize] = key.row;
        if self.timing_enabled {
            self.clock.advance(T_ROW_MISS * n);
        }
    }

    /// Records the pressure `key`'s activation just refreshed away, so only
    /// *future* pressure counts. Without TRR a row's raw pressure sums its
    /// neighbours' activations only, so its own activation leaves a known
    /// `raw` valid; TRR's tracked set counts the row's own activations, so
    /// under TRR it is always recomputed.
    fn set_discount(&mut self, key: RowKey, lane: usize, raw: Option<f64>) {
        self.discount[lane] = match raw {
            Some(p) if self.trr.is_none() => p,
            _ => self.raw_pressure(key),
        };
    }

    /// Activates `key` if a row-buffer miss, counting pressure on neighbors.
    /// `raw` is as for [`DramModule::force`]. Returns true on a row-buffer
    /// hit.
    fn activate(&mut self, key: RowKey, raw: Option<f64>) -> bool {
        let hit = self.profile.row_policy == RowPolicy::OpenPage
            && self.open_rows[key.bank as usize] == key.row;
        if hit {
            self.tel.row_hits.incr();
            return true;
        }
        self.open_rows[key.bank as usize] = key.row;
        let lane = self.row_index(key);
        self.touch_lane(lane);
        self.acts[lane] += 1;
        self.tel.activations.incr();
        self.set_discount(key, lane, raw);
        false
    }

    /// Advances the clock by the access latency, when timing is enabled.
    fn charge_access_time(&mut self, row_hit: bool) {
        if self.timing_enabled {
            self.clock
                .advance(if row_hit { T_ROW_HIT } else { T_ROW_MISS });
        }
    }

    /// This window's `(row, activations)` for every row of `bank` acted
    /// on, ordered by row to match the former sorted-map iteration the TRR
    /// sampler was tuned against.
    fn bank_acts(&self, bank: u32) -> Vec<(u32, u64)> {
        let mut acts: Vec<(u32, u64)> = self
            .acted
            .iter()
            .map(|&i| self.key_of_index(i))
            .filter(|k| k.bank == bank)
            .map(|k| (k.row, self.acts[self.row_index(k)]))
            .collect();
        acts.sort_unstable_by_key(|&(row, _)| row);
        acts
    }

    /// Charges the closing window's mitigation work to telemetry, once per
    /// window: TRR neutralizes each tracked aggressor's activations above
    /// the detection threshold, and PARA issues ⌊n·p⌋ neighbor refreshes
    /// for each row activated `n` times.
    fn count_mitigations(&self) {
        if let Some(trr) = self.trr {
            let mut banks: Vec<u32> = self
                .acted
                .iter()
                .map(|&i| self.key_of_index(i).bank)
                .collect();
            banks.sort_unstable();
            banks.dedup();
            for bank in banks {
                let acts = self.bank_acts(bank);
                let tracked = trr.tracked_rows(&acts);
                let neutralized: u64 = acts
                    .iter()
                    .filter(|(row, _)| tracked.contains(row))
                    .map(|&(_, n)| n.saturating_sub(trr.detection_threshold))
                    .sum();
                self.tel.trr_suppressions.add(neutralized);
            }
        }
        if let Some(para) = self.para {
            let refreshes: u64 = self
                .acted
                .iter()
                .map(|&i| (self.acts[i as usize] as f64 * para.refresh_probability).floor() as u64)
                .sum();
            self.tel.para_suppressions.add(refreshes);
        }
    }

    /// Pressure accumulated on `victim` this window, before self-refresh
    /// discounting and after TRR suppression.
    fn raw_pressure(&self, victim: RowKey) -> f64 {
        let rows = self.mapping.geometry().rows_per_bank;
        let tracked: Option<Vec<u32>> = self
            .trr
            .map(|trr| trr.tracked_rows(&self.bank_acts(victim.bank)));
        // Open-row dwell scales per-ACT disturbance *after* TRR capping: the
        // sampler counts activations, not row-open time, which is exactly
        // the blind spot RowPress exploits. A factor of 1.0 is a bit-exact
        // no-op.
        let dwell = self.open_row_dwell;
        let contribution = |key: RowKey| -> f64 {
            let n = self.acts_at(self.row_index(key));
            if n == 0 {
                return 0.0;
            }
            match (&self.trr, &tracked) {
                (Some(trr), Some(t)) if t.contains(&key.row) => {
                    n.min(trr.detection_threshold) as f64 * dwell
                }
                _ => n as f64 * dwell,
            }
        };
        let mut p = 0.0;
        for delta in [-1i64, 1] {
            if let Some(n) = victim.neighbor(delta, rows) {
                p += contribution(n);
            }
        }
        if self.profile.distance2_factor > 0.0 {
            for delta in [-2i64, 2] {
                if let Some(n) = victim.neighbor(delta, rows) {
                    p += contribution(n) * self.profile.distance2_factor;
                }
            }
        }
        if let Some(para) = self.para {
            // PARA interrupts the aggressors' activation stream with
            // neighbor refreshes: the victim only accumulates the longest
            // refresh-free run. Applied after TRR so the defenses compose.
            p = para.effective_pressure(p);
        }
        p
    }

    /// Applies any flips that current pressure causes on `victim`.
    fn evaluate_victim(&mut self, victim: RowKey) {
        if self.acted.is_empty() {
            return;
        }
        let raw = self.raw_pressure(victim);
        self.apply_flips(victim, raw);
    }

    /// Applies the flips that raw pressure `raw` causes on `victim`, less
    /// what the row's own last activation already refreshed away.
    fn apply_flips(&mut self, victim: RowKey, raw: f64) {
        let vi = self.row_index(victim);
        let discount = if self.stamp[vi] == self.gen {
            self.discount[vi]
        } else {
            0.0
        };
        let pressure = (raw - discount).max(0.0);
        if pressure <= 0.0 {
            return;
        }
        // Only materialized rows hold observable data.
        if self.rows[vi].is_none() {
            return;
        }
        let row_bits = u64::from(self.mapping.geometry().row_bytes) * 8;
        if self.remaining_weak[vi].is_none() {
            self.remaining_weak[vi] =
                Some(weak_cells_for_row(self.seed, &self.profile, row_bits, victim).into());
        }
        let cells = self.remaining_weak[vi].as_deref().unwrap_or(&[]);
        if cells.is_empty() {
            return;
        }
        let now = self.clock.now();
        let mut flipped = 0u64;
        {
            let Some(row_data) = self.rows[vi].as_deref_mut() else {
                return;
            };
            for cell in cells {
                if (cell.threshold as f64) > pressure {
                    break; // cells are sorted by threshold
                }
                let byte = (cell.bit / 8) as usize;
                let mask = 1u8 << (cell.bit % 8);
                let stored_one = row_data.bytes[byte] & mask != 0;
                if stored_one != cell.orientation.vulnerable_value() {
                    continue; // safe charge state; cell cannot flip now
                }
                row_data.bytes[byte] ^= mask;
                row_data.flipped_bits.insert(cell.bit);
                flipped += 1;
                let direction = if stored_one {
                    FlipDirection::OneToZero
                } else {
                    FlipDirection::ZeroToOne
                };
                let addr = self.mapping.encode(Location {
                    bank: victim.bank,
                    row: victim.row,
                    col: (cell.bit / 8) as u32,
                });
                match direction {
                    FlipDirection::OneToZero => self.tel.flips_one_to_zero.incr(),
                    FlipDirection::ZeroToOne => self.tel.flips_zero_to_one.incr(),
                }
                self.tel.registry.trace(
                    now,
                    "dram.flip",
                    format!(
                        "bank {} row {} bit {} {} at {addr}",
                        victim.bank,
                        victim.row,
                        cell.bit,
                        match direction {
                            FlipDirection::OneToZero => "1->0",
                            FlipDirection::ZeroToOne => "0->1",
                        }
                    ),
                );
                if let Some(flips) = self.burst_flips.as_mut() {
                    flips.push(FlipEvent {
                        time: now,
                        row: victim,
                        bit: cell.bit,
                        direction,
                        addr,
                    });
                }
            }
        }
        // A flipped cell stays in the list: its stored bit is now the safe
        // value, so the orientation check keeps it from flipping again until
        // a rewrite recharges it.
        self.tel.flips.add(flipped);
    }

    /// Evaluates every victim adjacent to any aggressor acted on this window.
    fn settle_window(&mut self) {
        if self.acted.is_empty() {
            return;
        }
        let rows = self.mapping.geometry().rows_per_bank;
        let reach = if self.profile.distance2_factor > 0.0 {
            2
        } else {
            1
        };
        let mut victims = BTreeSet::new();
        for &i in &self.acted {
            let key = self.key_of_index(i);
            for delta in 1..=reach {
                if let Some(v) = key.neighbor(-delta, rows) {
                    victims.insert(v);
                }
                if let Some(v) = key.neighbor(delta, rows) {
                    victims.insert(v);
                }
            }
        }
        let mut victims: Vec<RowKey> = victims.into_iter().collect();
        victims.sort();
        for v in victims {
            self.evaluate_victim(v);
        }
    }

    /// SEC-DED over the words overlapping `[start_bit, end_bit)` of `key`;
    /// corrects/flags `buf` (which holds the stored bytes for that range).
    fn apply_ecc(
        &mut self,
        addr: DramAddr,
        key: RowKey,
        start_bit: u64,
        end_bit: u64,
        buf: &mut [u8],
    ) -> Result<(), DramError> {
        let Some(ecc) = self.ecc else {
            return Ok(());
        };
        let word_lo = start_bit / ECC_WORD_BITS;
        let word_hi = end_bit.div_ceil(ECC_WORD_BITS);
        let i = self.row_index(key);
        let row_data = match self.rows[i].as_deref_mut() {
            Some(r) => r,
            None => return Ok(()),
        };
        let mut corrected = 0u64;
        let mut silent = 0u64;
        for word in word_lo..word_hi {
            let w_start = word * ECC_WORD_BITS;
            let w_end = w_start + ECC_WORD_BITS;
            let flips: Vec<u64> = row_data
                .flipped_bits
                .range(w_start..w_end)
                .copied()
                .collect();
            match EccOutcome::classify(flips.len()) {
                EccOutcome::Clean => {}
                EccOutcome::Corrected => {
                    corrected += 1;
                    let bit = flips[0];
                    // Return the original value.
                    if bit >= start_bit && bit < end_bit {
                        let rel = bit - start_bit;
                        buf[(rel / 8) as usize] ^= 1 << (rel % 8);
                    }
                    if ecc.scrub_on_correct {
                        let byte = (bit / 8) as usize;
                        row_data.bytes[byte] ^= 1 << (bit % 8);
                        row_data.flipped_bits.remove(&bit);
                    }
                }
                EccOutcome::DetectedUncorrectable => {
                    self.tel.ecc_corrected.add(corrected);
                    self.tel.ecc_uncorrectable.incr();
                    return Err(DramError::Uncorrectable { addr });
                }
                EccOutcome::SilentCorruption => {
                    silent += 1;
                }
            }
        }
        self.tel.ecc_corrected.add(corrected);
        self.tel.ecc_silent.add(silent);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingKind;

    fn tiny(profile: ModuleProfile) -> DramModule {
        DramModule::builder(DramGeometry::tiny_test())
            .profile(profile)
            .mapping(MappingKind::Linear)
            .seed(7)
            .build(SimClock::new())
    }

    /// A profile whose weak cells flip after exactly 1000 aggregate
    /// activations and where every row is vulnerable with several cells.
    fn eager_profile() -> ModuleProfile {
        let mut p = ModuleProfile::from_min_rate("eager", crate::DramGeneration::Ddr3, 2021, 1);
        p.hc_first = 1000;
        p.threshold_spread = 0.0;
        p.row_vulnerable_prob = 1.0;
        p.weak_cells_per_row = 4.0;
        p
    }

    /// Counter `name` of `m`'s registry; an unregistered name fails the test.
    fn counter(m: &DramModule, name: &str) -> u64 {
        m.shared_telemetry()
            .counter_value(name)
            .unwrap_or_else(|| panic!("counter {name} is not registered"))
    }

    /// Address of column 0 of (bank, row) under the module's mapping.
    fn row_addr(m: &DramModule, bank: u32, row: u32) -> DramAddr {
        m.mapping()
            .encode(crate::geometry::Location { bank, row, col: 0 })
    }

    /// Moves `m` into the next refresh window, closing the current one.
    fn close_window(m: &mut DramModule) {
        m.clock().advance(m.profile().refresh_interval);
        m.read(DramAddr(0), &mut [0u8; 4]).unwrap();
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = tiny(ModuleProfile::invulnerable());
        m.write(DramAddr(100), b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(DramAddr(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let mut buf = [9u8; 8];
        m.read(DramAddr(2048), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let cap = DramGeometry::tiny_test().total_bytes().as_u64();
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.read(DramAddr(cap), &mut buf),
            Err(DramError::OutOfRange { .. })
        ));
    }

    #[test]
    fn open_page_absorbs_same_row_accesses() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let mut buf = [0u8; 4];
        for _ in 0..10 {
            m.read(DramAddr(0), &mut buf).unwrap();
        }
        assert_eq!(counter(&m, "dram.activations"), 1);
        assert_eq!(counter(&m, "dram.row_hits"), 9);
    }

    #[test]
    fn closed_page_activates_every_access() {
        let mut m = tiny(ModuleProfile {
            row_policy: RowPolicy::ClosedPage,
            ..ModuleProfile::invulnerable()
        });
        let mut buf = [0u8; 4];
        for _ in 0..10 {
            m.read(DramAddr(0), &mut buf).unwrap();
        }
        assert_eq!(counter(&m, "dram.activations"), 10);
    }

    #[test]
    fn alternating_rows_activate_every_access() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let a = row_addr(&m, 0, 4);
        let b = row_addr(&m, 0, 6);
        let mut buf = [0u8; 4];
        for _ in 0..5 {
            m.read(a, &mut buf).unwrap();
            m.read(b, &mut buf).unwrap();
        }
        assert_eq!(counter(&m, "dram.activations"), 10);
    }

    #[test]
    fn double_sided_hammer_flips_victim() {
        let mut m = tiny(eager_profile());
        // Victim row 5 between aggressors 4 and 6; write known data so flips
        // are observable.
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        let report = m
            .run_hammer(&aggr, 200_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            report
                .flips
                .iter()
                .any(|f| f.row == RowKey { bank: 0, row: 5 }),
            "expected a flip on the victim row; report: {report:?}"
        );
        assert!(counter(&m, "dram.flips") > 0);
    }

    #[test]
    fn hammering_below_threshold_rate_does_not_flip() {
        let mut m = tiny(eager_profile());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        // 1000 ACTs needed per 64ms window => rate floor ~15.6K/s. Hammer at
        // 10K/s: never enough within any window.
        let report = m
            .run_hammer(&aggr, 5_000, 10_000.0, HammerOptions::default())
            .unwrap();
        assert!(report.flips.is_empty(), "no flips expected: {report:?}");
    }

    #[test]
    fn single_aggressor_open_page_is_absorbed() {
        let mut m = tiny(eager_profile());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4)];
        let report = m
            .run_hammer(&aggr, 500_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(report.flips.is_empty());
        assert!(report.activations < 100, "row buffer should absorb repeats");
    }

    #[test]
    fn one_location_works_under_closed_page() {
        let mut m = tiny(ModuleProfile {
            row_policy: RowPolicy::ClosedPage,
            ..eager_profile()
        });
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4)];
        let report = m
            .run_hammer(&aggr, 500_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            !report.flips.is_empty(),
            "closed-page one-location should flip"
        );
    }

    #[test]
    fn victim_accesses_refresh_and_protect_it() {
        let mut m = tiny(eager_profile());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let a = row_addr(&m, 0, 4);
        let b = row_addr(&m, 0, 6);
        let mut buf = [0u8; 4];
        // Interleave aggressor accesses with frequent victim reads: the
        // victim's self-refresh keeps effective pressure near zero.
        for _ in 0..2000 {
            m.read(a, &mut buf).unwrap();
            m.read(b, &mut buf).unwrap();
            m.read(victim, &mut buf).unwrap();
        }
        assert_eq!(counter(&m, "dram.flips"), 0);
    }

    #[test]
    fn flips_persist_across_windows_until_rewrite() {
        // Seed chosen so the victim row carries a weak cell matching the
        // stored pattern's orientation.
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(1)
            .build(SimClock::new());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 1024]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        m.run_hammer(&aggr, 200_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(counter(&m, "dram.flips") > 0);
        // Jump far ahead: data stays corrupted.
        m.clock().advance(SimDuration::from_secs(10));
        let mut buf = vec![0u8; 1024];
        m.read(victim, &mut buf).unwrap();
        assert!(buf.iter().any(|&b| b != 0xFF), "corruption persists");
        // Rewrite recharges the cells.
        m.write(victim, &[0xFFu8; 1024]).unwrap();
        let mut buf2 = vec![0u8; 1024];
        m.read(victim, &mut buf2).unwrap();
        assert!(buf2.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn refresh_window_rollover_clears_pressure() {
        let mut m = tiny(eager_profile());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let a = row_addr(&m, 0, 4);
        let b = row_addr(&m, 0, 6);
        let mut buf = [0u8; 4];
        // 400 ACTs per window (threshold 1000), spread over many windows:
        // rate too low, never flips.
        for _ in 0..10 {
            for _ in 0..200 {
                m.read(a, &mut buf).unwrap();
                m.read(b, &mut buf).unwrap();
            }
            m.clock().advance(SimDuration::from_millis(64));
        }
        assert_eq!(counter(&m, "dram.flips"), 0);
    }

    #[test]
    fn refresh_window_rolls_once_at_each_boundary() {
        let w = ModuleProfile::invulnerable().refresh_interval.as_nanos();
        // Built on a clock already halfway through its fourth window.
        let clock = SimClock::new();
        clock.advance_to(SimTime::from_nanos(w * 7 / 2));
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock.clone());
        let mut buf = [0u8; 4];
        let mut windows_after = |t: u64| {
            clock.advance_to(SimTime::from_nanos(t));
            m.read(DramAddr(0), &mut buf).unwrap();
            counter(&m, "dram.refresh_windows")
        };
        assert_eq!(
            windows_after(w * 7 / 2),
            1,
            "a jump over windows rolls once"
        );
        assert_eq!(windows_after(w * 4 - 1), 1);
        assert_eq!(
            windows_after(w * 4),
            2,
            "the boundary opens the next window"
        );
        assert_eq!(windows_after(w * 9), 3);
    }

    #[test]
    fn trr_defeats_double_sided() {
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(7)
            .trr(TrrConfig {
                sampler_size: 4,
                detection_threshold: 100,
            })
            .build(SimClock::new());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        let report = m
            .run_hammer(&aggr, 500_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(report.flips.is_empty(), "TRR should absorb double-sided");
    }

    #[test]
    fn many_sided_defeats_trr() {
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(7)
            .trr(TrrConfig {
                sampler_size: 4,
                detection_threshold: 100,
            })
            .build(SimClock::new());
        // 9 aggressor pairs around 9 victims; sampler capacity 4 is
        // overwhelmed by 18 hot rows.
        let mut aggr = Vec::new();
        let mut victims = Vec::new();
        for i in 0..9u32 {
            let v = 5 + i * 3;
            victims.push(v);
            m.write(row_addr(&m, 0, v), &[0xFFu8; 64]).unwrap();
            aggr.push(row_addr(&m, 0, v - 1));
            aggr.push(row_addr(&m, 0, v + 1));
        }
        let report = m
            .run_hammer(&aggr, 4_000_000, 20_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            !report.flips.is_empty(),
            "many-sided should overwhelm the sampler: {:?}",
            m.shared_telemetry().snapshot().counters
        );
    }

    #[test]
    fn para_defeats_double_sided() {
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(7)
            .para(ParaConfig {
                refresh_probability: 0.05,
            })
            .build(SimClock::new());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        let report = m
            .run_hammer(&aggr, 500_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(report.flips.is_empty(), "PARA should cap the pressure");
        close_window(&mut m);
        // 250,000 activations per aggressor in one window: ⌊250,000 · 0.05⌋
        // refreshes each; the victim's one write activation earns none.
        assert_eq!(counter(&m, "dram.para_suppressions"), 2 * 12_500);
    }

    #[test]
    fn mitigation_counts_are_per_window_not_per_burst() {
        // One window's 200,000 double-sided accesses, as one burst or as
        // two, give the same counts once the window closes: TRR neutralizes
        // each tracked aggressor's 100,000 - 2,000 activations above its
        // detection threshold, and PARA issues ⌊100,000 · 0.05⌋ refreshes
        // per aggressor.
        let counts = |bursts: u64| {
            let mut m = DramModule::builder(DramGeometry::tiny_test())
                .profile(eager_profile())
                .mapping(MappingKind::Linear)
                .seed(7)
                .trr(TrrConfig::default())
                .para(ParaConfig {
                    refresh_probability: 0.05,
                })
                .build(SimClock::new());
            m.write(row_addr(&m, 0, 5), &[0xFFu8; 64]).unwrap();
            let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
            for _ in 0..bursts {
                m.run_hammer(
                    &aggr,
                    200_000 / bursts,
                    10_000_000.0,
                    HammerOptions::default(),
                )
                .unwrap();
            }
            close_window(&mut m);
            (
                counter(&m, "dram.trr_suppressions"),
                counter(&m, "dram.para_suppressions"),
            )
        };
        assert_eq!(counts(1), (2 * 98_000, 2 * 5_000));
        assert_eq!(counts(2), (2 * 98_000, 2 * 5_000));
    }

    #[test]
    fn weak_para_is_overwhelmed_by_rate() {
        // p far too low for a threshold-1000 module: the expected
        // refresh-free run still clears the threshold.
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(7)
            .para(ParaConfig {
                refresh_probability: 0.0005,
            })
            .build(SimClock::new());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 64]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        let report = m
            .run_hammer(&aggr, 2_000_000, 30_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            !report.flips.is_empty(),
            "under-provisioned PARA is overwhelmed: {:?}",
            m.shared_telemetry().snapshot().counters
        );
    }

    #[test]
    fn para_composes_with_trr_against_many_sided() {
        // The many-sided pattern from `many_sided_defeats_trr` overflows the
        // TRR sampler, but PARA has no tracking table to overflow: with both
        // enabled the drive stays clean.
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(7)
            .trr(TrrConfig {
                sampler_size: 4,
                detection_threshold: 100,
            })
            .para(ParaConfig {
                refresh_probability: 0.05,
            })
            .build(SimClock::new());
        let mut aggr = Vec::new();
        for i in 0..9u32 {
            let v = 5 + i * 3;
            m.write(row_addr(&m, 0, v), &[0xFFu8; 64]).unwrap();
            aggr.push(row_addr(&m, 0, v - 1));
            aggr.push(row_addr(&m, 0, v + 1));
        }
        let report = m
            .run_hammer(&aggr, 4_000_000, 20_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            report.flips.is_empty(),
            "PARA backstops TRR against many-sided: {:?}",
            m.shared_telemetry().snapshot().counters
        );
    }

    #[test]
    fn ecc_corrects_single_flip() {
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(eager_profile())
            .mapping(MappingKind::Linear)
            .seed(1)
            .ecc(EccConfig::default())
            .build(SimClock::new());
        let victim = row_addr(&m, 0, 5);
        m.write(victim, &[0xFFu8; 1024]).unwrap();
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        m.run_hammer(&aggr, 200_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        assert!(
            counter(&m, "dram.flips") > 0,
            "cells should still flip physically"
        );
        // Reads see corrected data (flips on this seed land in distinct words).
        let mut buf = vec![0u8; 1024];
        m.read(victim, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF), "ECC should hide the flips");
        assert!(counter(&m, "dram.ecc.corrected") > 0);
    }

    #[test]
    fn hammer_report_rates_are_consistent() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        let report = m
            .run_hammer(&aggr, 100_000, 1_000_000.0, HammerOptions::default())
            .unwrap();
        assert_eq!(report.activations, 100_000);
        assert!((report.achieved_rate - 1_000_000.0).abs() / 1_000_000.0 < 0.05);
        assert!((report.elapsed.as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn u32_roundtrip_and_flip_visibility() {
        let mut m = tiny(eager_profile());
        let victim = row_addr(&m, 0, 5);
        m.write_u32(victim, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.read_u32(victim).unwrap(), 0xFFFF_FFFF);
        let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
        m.run_hammer(&aggr, 400_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        // Some flip may or may not land inside the first 4 bytes, but the
        // value must still be readable.
        let _ = m.read_u32(victim).unwrap();
    }

    #[test]
    fn vulnerable_rows_listing_matches_profiling() {
        let m = tiny(ModuleProfile::ddr3_2016());
        let rows = m.vulnerable_rows(0, 10);
        for r in &rows {
            assert!(!m.profile_row(RowKey { bank: 0, row: *r }).is_empty());
        }
    }

    #[test]
    fn timing_advances_clock_by_hit_and_miss_latency() {
        let mut m = tiny(ModuleProfile::invulnerable());
        let mut buf = [0u8; 4];
        m.read(DramAddr(0), &mut buf).unwrap(); // miss: 45ns
        m.read(DramAddr(0), &mut buf).unwrap(); // hit: 15ns
        assert_eq!(m.clock().now().as_nanos(), 60);

        let mut m2 = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(SimClock::new());
        m2.read(DramAddr(0), &mut buf).unwrap();
        assert_eq!(m2.clock().now().as_nanos(), 0);
    }
}
