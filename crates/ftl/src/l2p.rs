//! The logical-to-physical (L2P) mapping table, resident in simulated DRAM.
//!
//! "The SPDK FTL library, like most flash-based storage devices, stores a
//! large L2P table in memory as a linear array" (§4.1). Every entry is a
//! 32-bit physical page number; every lookup and update is a real access to
//! the [`DramModule`], which is precisely how host I/O turns into DRAM row
//! activations.
//!
//! Two layouts are provided:
//!
//! * [`L2pLayout::Linear`] — `addr = base + 4·LBA`, the SPDK layout. The
//!   attacker can compute which DRAM row holds which LBA's entry offline.
//! * [`L2pLayout::Hashed`] — entries are scattered by a keyed bijection
//!   (§5's mitigation: "randomize the FTL-internal structures … most easily
//!   accomplished with a hashed L2P table that uses a device-specific key").

use ssdhammer_dram::{DramError, DramModule};
use ssdhammer_flash::Ppn;
use ssdhammer_simkit::rng::splitmix64;
use ssdhammer_simkit::{DramAddr, Lba};

/// Sentinel entry value meaning "unmapped".
pub const INVALID_ENTRY: u32 = 0xFFFF_FFFF;

/// The raw 32-bit entry for a mapping: [`INVALID_ENTRY`] when unmapped,
/// else the page number's low 32 bits (a checked store goes through
/// [`L2pTable::set`]).
pub(crate) fn encode_entry(ppn: Option<Ppn>) -> u32 {
    ppn.map_or(INVALID_ENTRY, |p| p.as_u64() as u32)
}

/// The mapping a raw 32-bit entry represents: `None` for [`INVALID_ENTRY`].
/// A bit-flipped entry decodes to whatever page number it now holds.
pub(crate) fn decode_entry(raw: u32) -> Option<Ppn> {
    (raw != INVALID_ENTRY).then(|| Ppn(u64::from(raw)))
}

/// Placement policy of L2P entries in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2pLayout {
    /// Linear array: entry of LBA *n* at `base + 4n` (SPDK-style).
    Linear,
    /// Keyed scattering: entry of LBA *n* at `base + 4·π_k(n)` for a
    /// device-secret bijection `π_k` over the slot space.
    Hashed {
        /// The device-specific secret key.
        key: u64,
    },
}

/// The L2P table: location arithmetic plus typed access through DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2pTable {
    base: DramAddr,
    /// Number of mappable LBAs.
    capacity: u64,
    /// Slot count (next power of two ≥ capacity, so keyed permutations are
    /// clean bijections).
    slots: u64,
    layout: L2pLayout,
}

impl L2pTable {
    /// Creates a table for `capacity` LBAs at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(base: DramAddr, capacity: u64, layout: L2pLayout) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        L2pTable {
            base,
            capacity,
            slots: capacity.next_power_of_two(),
            layout,
        }
    }

    /// Number of mappable LBAs.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Table footprint in bytes (4 bytes per slot).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.slots * 4
    }

    /// DRAM byte address where the table starts.
    #[must_use]
    pub fn base(&self) -> DramAddr {
        self.base
    }

    /// Keyed affine bijection over the slot space (odd multiplier mod 2^k).
    fn permute(&self, key: u64, index: u64) -> u64 {
        let a = splitmix64(key) | 1;
        let b = splitmix64(key ^ 0xD1B5_4A32_D192_ED03);
        a.wrapping_mul(index).wrapping_add(b) & (self.slots - 1)
    }

    fn permute_inv(&self, key: u64, slot: u64) -> u64 {
        let a = splitmix64(key) | 1;
        let b = splitmix64(key ^ 0xD1B5_4A32_D192_ED03);
        // Inverse of odd multiplier mod 2^64 via Newton iteration.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
        }
        inv.wrapping_mul(slot.wrapping_sub(b)) & (self.slots - 1)
    }

    /// The slot index holding `lba`'s entry.
    ///
    /// # Panics
    ///
    /// Panics if `lba` exceeds the table capacity.
    #[must_use]
    pub fn slot_of(&self, lba: Lba) -> u64 {
        assert!(lba.as_u64() < self.capacity, "{lba} beyond L2P capacity");
        match self.layout {
            L2pLayout::Linear => lba.as_u64(),
            L2pLayout::Hashed { key } => self.permute(key, lba.as_u64()),
        }
    }

    /// The LBA whose entry occupies `slot`, if any.
    #[must_use]
    pub fn lba_of_slot(&self, slot: u64) -> Option<Lba> {
        if slot >= self.slots {
            return None;
        }
        let lba = match self.layout {
            L2pLayout::Linear => slot,
            L2pLayout::Hashed { key } => self.permute_inv(key, slot),
        };
        (lba < self.capacity).then_some(Lba(lba))
    }

    /// DRAM byte address of `lba`'s entry.
    ///
    /// # Panics
    ///
    /// Panics if `lba` exceeds the table capacity.
    #[must_use]
    pub fn entry_addr(&self, lba: Lba) -> DramAddr {
        self.base.offset(self.slot_of(lba) * 4)
    }

    /// Initializes every slot to [`INVALID_ENTRY`], writing whole DRAM rows
    /// at a time.
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors (e.g. the table does not fit).
    pub fn init(&self, dram: &mut DramModule) -> Result<(), DramError> {
        let row_bytes = u64::from(dram.mapping().geometry().row_bytes);
        let total = self.size_bytes();
        let fill = vec![0xFFu8; row_bytes as usize];
        let mut off = 0u64;
        while off < total {
            let chunk_start = self.base.as_u64() + off;
            // Stay within one row per write.
            let row_off = chunk_start % row_bytes;
            let len = (row_bytes - row_off).min(total - off);
            dram.write(DramAddr(chunk_start), &fill[..len as usize])?;
            off += len;
        }
        Ok(())
    }

    /// Reads `lba`'s entry. Returns `None` for the unmapped sentinel.
    ///
    /// Note: a bit-flipped entry is *not* `None` — it reads back as whatever
    /// physical page number the corruption produced, exactly the confusion
    /// the attack engineers.
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors (including ECC-uncorrectable reads).
    pub fn get(&self, dram: &mut DramModule, lba: Lba) -> Result<Option<Ppn>, DramError> {
        self.get_amplified(dram, lba, 0)
    }

    /// Reads `lba`'s entry like [`L2pTable::get`], then activates its DRAM
    /// row `extra` more times, in one DRAM pass
    /// ([`DramModule::read_u32_amplified`]). A failed read forces nothing.
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors (including ECC-uncorrectable reads).
    pub(crate) fn get_amplified(
        &self,
        dram: &mut DramModule,
        lba: Lba,
        extra: u64,
    ) -> Result<Option<Ppn>, DramError> {
        Ok(decode_entry(
            dram.read_u32_amplified(self.entry_addr(lba), extra)?,
        ))
    }

    /// Reads many entries through the non-disturbing DRAM backdoor: no row
    /// activations, no simulated time. For observers only — snapshots,
    /// diagnostics, integrity audits — never for the timed host path.
    ///
    /// Results are appended to `out` (cleared first), one raw little-endian
    /// entry per input LBA ([`INVALID_ENTRY`] = unmapped).
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn peek_batch(
        &self,
        dram: &DramModule,
        lbas: impl IntoIterator<Item = Lba>,
        out: &mut Vec<u32>,
    ) -> Result<(), DramError> {
        out.clear();
        let mut buf = [0u8; 4];
        for lba in lbas {
            dram.peek(self.entry_addr(lba), &mut buf)?;
            out.push(u32::from_le_bytes(buf));
        }
        Ok(())
    }

    /// Writes `lba`'s entry.
    ///
    /// # Errors
    ///
    /// [`FtlError::EntryOverflow`] when a mapped `ppn` does not fit the
    /// 32-bit entry (or collides with the unmapped sentinel); otherwise
    /// propagates DRAM errors.
    ///
    /// [`FtlError::EntryOverflow`]: crate::FtlError::EntryOverflow
    pub fn set(
        &self,
        dram: &mut DramModule,
        lba: Lba,
        ppn: Option<Ppn>,
    ) -> Result<(), crate::FtlError> {
        let raw = match ppn {
            None => INVALID_ENTRY,
            Some(p) => {
                let v = u32::try_from(p.as_u64())
                    .map_err(|_| crate::FtlError::EntryOverflow { ppn: p })?;
                if v == INVALID_ENTRY {
                    return Err(crate::FtlError::EntryOverflow { ppn: p });
                }
                v
            }
        };
        Ok(dram.write_u32(self.entry_addr(lba), raw)?)
    }

    /// All LBAs whose entries live in the DRAM row containing `row_addr`
    /// (column 0 of the row of interest), ascending.
    ///
    /// This is the aggressor-selection primitive: given a target DRAM row,
    /// it answers "which LBAs must I read to activate this row?" (§3.1's
    /// workload construction).
    #[must_use]
    pub fn lbas_in_row(&self, dram: &DramModule, bank: u32, row: u32) -> Vec<Lba> {
        let mapping = dram.mapping();
        let row_bytes = mapping.geometry().row_bytes;
        let mut out = Vec::new();
        for col in (0..row_bytes).step_by(4) {
            let addr = mapping.encode(ssdhammer_dram::Location { bank, row, col });
            let a = addr.as_u64();
            if a < self.base.as_u64() {
                continue;
            }
            let off = a - self.base.as_u64();
            if !off.is_multiple_of(4) || off / 4 >= self.slots {
                continue;
            }
            if let Some(lba) = self.lba_of_slot(off / 4) {
                out.push(lba);
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_dram::{DramGeometry, MappingKind, ModuleProfile};
    use ssdhammer_simkit::SimClock;

    fn dram() -> DramModule {
        DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(SimClock::new())
    }

    #[test]
    fn linear_layout_is_contiguous() {
        let t = L2pTable::new(DramAddr(0), 1000, L2pLayout::Linear);
        assert_eq!(t.entry_addr(Lba(0)), DramAddr(0));
        assert_eq!(t.entry_addr(Lba(10)), DramAddr(40));
        assert_eq!(t.slots, 1024);
        assert_eq!(t.size_bytes(), 4096);
    }

    #[test]
    fn hashed_layout_is_a_bijection() {
        let t = L2pTable::new(DramAddr(0), 1024, L2pLayout::Hashed { key: 0xfeed });
        let mut seen = std::collections::HashSet::new();
        for lba in 0..1024 {
            let slot = t.slot_of(Lba(lba));
            assert!(seen.insert(slot), "slot collision at {lba}");
            assert_eq!(t.lba_of_slot(slot), Some(Lba(lba)));
        }
    }

    #[test]
    fn hashed_layout_depends_on_key() {
        let a = L2pTable::new(DramAddr(0), 1024, L2pLayout::Hashed { key: 1 });
        let b = L2pTable::new(DramAddr(0), 1024, L2pLayout::Hashed { key: 2 });
        let differs = (0..1024).any(|l| a.slot_of(Lba(l)) != b.slot_of(Lba(l)));
        assert!(differs);
    }

    #[test]
    fn hashed_scatters_adjacent_lbas() {
        let t = L2pTable::new(DramAddr(0), 1 << 16, L2pLayout::Hashed { key: 9 });
        // Consecutive LBAs should not land in consecutive slots.
        let s0 = t.slot_of(Lba(100));
        let s1 = t.slot_of(Lba(101));
        assert_ne!(s1, s0 + 1);
    }

    #[test]
    fn init_then_get_is_unmapped() {
        let mut d = dram();
        let t = L2pTable::new(DramAddr(0), 2048, L2pLayout::Linear);
        t.init(&mut d).unwrap();
        for lba in [0u64, 1, 999, 2047] {
            assert_eq!(t.get(&mut d, Lba(lba)).unwrap(), None);
        }
    }

    #[test]
    fn set_get_roundtrip_both_layouts() {
        for layout in [L2pLayout::Linear, L2pLayout::Hashed { key: 7 }] {
            let mut d = dram();
            let t = L2pTable::new(DramAddr(0), 2048, layout);
            t.init(&mut d).unwrap();
            t.set(&mut d, Lba(37), Some(Ppn(1234))).unwrap();
            assert_eq!(t.get(&mut d, Lba(37)).unwrap(), Some(Ppn(1234)));
            t.set(&mut d, Lba(37), None).unwrap();
            assert_eq!(t.get(&mut d, Lba(37)).unwrap(), None);
        }
    }

    #[test]
    fn lbas_in_row_inverts_entry_addr() {
        for layout in [L2pLayout::Linear, L2pLayout::Hashed { key: 3 }] {
            let d = dram();
            let t = L2pTable::new(DramAddr(0), 4096, layout);
            // Collect all LBAs reported for every row and verify each one's
            // entry really decodes into that row.
            let mut total = 0usize;
            for bank in 0..2 {
                for row in 0..16 {
                    for lba in t.lbas_in_row(&d, bank, row) {
                        let loc = d.mapping().decode(t.entry_addr(lba));
                        assert_eq!((loc.bank, loc.row), (bank, row));
                        total += 1;
                    }
                }
            }
            // 4096 entries × 4 B = 16 KiB = 16 rows of 1 KiB; all entries
            // must be found exactly once.
            assert_eq!(total, 4096);
        }
    }

    #[test]
    fn set_rejects_unrepresentable_ppns_without_panicking() {
        let mut d = dram();
        let t = L2pTable::new(DramAddr(0), 2048, L2pLayout::Linear);
        t.init(&mut d).unwrap();
        assert_eq!(
            t.set(&mut d, Lba(0), Some(Ppn(1 << 40))),
            Err(crate::FtlError::EntryOverflow { ppn: Ppn(1 << 40) })
        );
        assert_eq!(
            t.set(&mut d, Lba(0), Some(Ppn(u64::from(INVALID_ENTRY)))),
            Err(crate::FtlError::EntryOverflow {
                ppn: Ppn(u64::from(INVALID_ENTRY))
            })
        );
        // The entry is untouched by the rejected writes.
        assert_eq!(t.get(&mut d, Lba(0)).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "beyond L2P capacity")]
    fn slot_of_rejects_out_of_range() {
        let t = L2pTable::new(DramAddr(0), 100, L2pLayout::Linear);
        let _ = t.slot_of(Lba(100));
    }
}
