//! L2P entry integrity protection: per-entry SEC-DED codes plus a distant
//! mirror copy.
//!
//! The paper's exploit chain rests on one unprotected asset — the in-DRAM
//! L2P table, whose flipped entries silently redirect logical blocks. This
//! module is the victim-side answer (per the defense taxonomy in *SoK:
//! Rowhammer on Commodity Operating Systems* and the Mutlu et al.
//! retrospective): every 32-bit entry carries an extended-Hamming(39,32)
//! SEC-DED code byte, and (in [`IntegrityMode::Correct`]) a mirrored copy —
//! with its own code — placed at the far end of DRAM, many rows away from
//! the primary table, so a hammer pattern tuned to the table's rows does
//! not also disturb the mirror.
//!
//! Verification runs on the firmware's read path:
//!
//! * **Detect** — a mismatching code fails the lookup loudly; the host sees
//!   an integrity error instead of another block's data.
//! * **Correct** — a single-bit flip (in the entry *or* its code) is fixed
//!   in place; a multi-bit flip is repaired from the verified mirror; if
//!   the mirror has diverged too, the device degrades to read-only rather
//!   than serve a redirected block.

use ssdhammer_dram::{DramError, DramModule};
use ssdhammer_simkit::DramAddr;

/// L2P entry protection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No protection: flipped entries redirect silently (the paper's
    /// attack surface).
    #[default]
    Off,
    /// Per-entry SEC-DED code, verified on read; mismatches fail the
    /// lookup but are not repaired.
    Detect,
    /// Detect plus repair: single-bit errors fixed in place, multi-bit
    /// errors restored from a distant mirror copy; unrepairable divergence
    /// degrades the device to read-only.
    Correct,
}

/// Codeword span of the extended Hamming(39,32) code: data and parity bits
/// occupy positions `1..=38`; the 7th stored bit is overall parity.
const CODE_SPAN: u64 = 38;

/// Scatters a 32-bit value into Hamming codeword positions `1..=38`,
/// skipping the power-of-two parity positions.
fn spread(value: u32) -> u64 {
    let mut cw = 0u64;
    let mut pos = 1u64;
    for bit in 0..32 {
        while pos & (pos - 1) == 0 {
            pos += 1; // parity lives at powers of two
        }
        if (value >> bit) & 1 == 1 {
            cw |= 1 << pos;
        }
        pos += 1;
    }
    cw
}

/// The data-bit index stored at codeword position `pos`, if any.
fn data_bit_at(pos: u64) -> Option<u32> {
    if pos == 0 || pos > CODE_SPAN || pos & (pos - 1) == 0 {
        return None;
    }
    let mut idx = 0u32;
    let mut p = 1u64;
    loop {
        while p & (p - 1) == 0 {
            p += 1;
        }
        if p == pos {
            return Some(idx);
        }
        idx += 1;
        p += 1;
    }
}

/// The six Hamming parity bits over the spread codeword.
fn parities(cw: u64) -> u8 {
    let mut out = 0u8;
    for k in 0..6u32 {
        let mut p = 0u64;
        for i in 1..=CODE_SPAN {
            if i & (1 << k) != 0 {
                p ^= (cw >> i) & 1;
            }
        }
        out |= (p as u8) << k;
    }
    out
}

/// Encodes the 7-bit SEC-DED code for a 32-bit entry: six Hamming parity
/// bits plus overall parity over the whole codeword.
#[must_use]
pub fn secded_encode(value: u32) -> u8 {
    let cw = spread(value);
    let syn = parities(cw);
    let overall = ((cw.count_ones() + u32::from(syn.count_ones() as u8)) & 1) as u8;
    syn | (overall << 6)
}

/// Result of checking a (value, code) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedOutcome {
    /// Value and code agree.
    Clean,
    /// Exactly one bit flipped (in the value or the code); `value` is the
    /// corrected entry. When the flip hit a parity bit the value is
    /// unchanged but the code must be rewritten.
    Corrected {
        /// The repaired 32-bit entry.
        value: u32,
    },
    /// Two or more flips: detected but beyond single-error correction.
    Uncorrectable,
}

/// Checks `value` against its stored SEC-DED `code`.
#[must_use]
pub fn secded_check(value: u32, code: u8) -> SecdedOutcome {
    let cw = spread(value);
    let stored_syn = code & 0x3F;
    let stored_overall = (code >> 6) & 1;
    let syndrome = stored_syn ^ parities(cw);
    let overall_now = ((cw.count_ones() + u32::from(stored_syn.count_ones() as u8)) & 1) as u8;
    let overall_mismatch = overall_now != stored_overall;
    match (syndrome, overall_mismatch) {
        (0, false) => SecdedOutcome::Clean,
        // The overall-parity bit itself flipped; data is intact.
        (0, true) => SecdedOutcome::Corrected { value },
        (s, true) => match data_bit_at(u64::from(s)) {
            Some(bit) => SecdedOutcome::Corrected {
                value: value ^ (1 << bit),
            },
            // A parity bit flipped (power-of-two position): data intact.
            None if u64::from(s) <= CODE_SPAN => SecdedOutcome::Corrected { value },
            // Syndrome outside the codeword: aliased multi-bit error.
            None => SecdedOutcome::Uncorrectable,
        },
        (_, false) => SecdedOutcome::Uncorrectable,
    }
}

/// What one entry verification concluded (and did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Entry matched its code.
    Clean,
    /// Mismatch found in [`IntegrityMode::Detect`]: not repaired.
    Detected,
    /// Single-bit error fixed in place; carries the repaired entry.
    Repaired(u32),
    /// Multi-bit error restored from the mirror; carries the restored
    /// entry.
    MirrorRepaired(u32),
    /// Primary and mirror have both diverged beyond repair.
    Unrepairable,
}

/// DRAM placement and mechanics of the protection plane. One instance per
/// FTL; all counters and policy (read-only degradation) stay with the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityPlane {
    mode: IntegrityMode,
    /// One SEC-DED code byte per slot, adjacent to nothing the attacker
    /// targets directly.
    code_base: DramAddr,
    /// Full 32-bit mirror per slot ([`IntegrityMode::Correct`] only).
    mirror_base: DramAddr,
    /// One code byte per mirror slot.
    mirror_code_base: DramAddr,
    slots: u64,
}

impl IntegrityPlane {
    /// Lays the plane out at the top of DRAM, as far from `primary_end`
    /// (the end of the L2P table) as the module allows. Returns `None`
    /// when the regions would not fit or would overlap the primary table.
    #[must_use]
    pub fn plan(
        mode: IntegrityMode,
        slots: u64,
        primary_end: u64,
        dram_bytes: u64,
    ) -> Option<Self> {
        if mode == IntegrityMode::Off {
            return None;
        }
        let mirror_bytes = if mode == IntegrityMode::Correct {
            slots * 5 // 4-byte mirror + 1 code byte
        } else {
            0
        };
        let need = slots + mirror_bytes;
        if dram_bytes < need || dram_bytes - need < primary_end {
            return None;
        }
        let mirror_base = dram_bytes - slots * 4; // unused (== dram_bytes) in Detect
        let mirror_code_base = mirror_base - (mirror_bytes.saturating_sub(slots * 4));
        let code_base = dram_bytes - need;
        Some(IntegrityPlane {
            mode,
            code_base: DramAddr(code_base),
            mirror_base: DramAddr(mirror_base),
            mirror_code_base: DramAddr(mirror_code_base),
            slots,
        })
    }

    /// The protection level this plane implements.
    #[must_use]
    pub fn mode(&self) -> IntegrityMode {
        self.mode
    }

    /// First byte of the plane's DRAM footprint (diagnostics).
    #[must_use]
    pub fn region_start(&self) -> DramAddr {
        self.code_base
    }

    /// DRAM address of `slot`'s mirror entry (experiments and tests; only
    /// meaningful in [`IntegrityMode::Correct`]).
    #[must_use]
    pub fn mirror_addr(&self, slot: u64) -> DramAddr {
        self.mirror_base.offset(slot * 4)
    }

    /// Initializes codes (and mirror, in Correct mode) for a table whose
    /// every slot holds `fill_entry`, writing whole DRAM rows at a time.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn init(&self, dram: &mut DramModule, fill_entry: u32) -> Result<(), DramError> {
        let code = secded_encode(fill_entry);
        fill_region(dram, self.code_base, self.slots, &[code])?;
        if self.mode == IntegrityMode::Correct {
            fill_region(
                dram,
                self.mirror_base,
                self.slots * 4,
                &fill_entry.to_le_bytes(),
            )?;
            fill_region(dram, self.mirror_code_base, self.slots, &[code])?;
        }
        Ok(())
    }

    /// Records a fresh entry value: rewrites the code byte and (in Correct
    /// mode) the mirror. Called on every L2P update.
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors.
    pub fn record(&self, dram: &mut DramModule, slot: u64, raw: u32) -> Result<(), DramError> {
        let code = secded_encode(raw);
        dram.write(self.code_base.offset(slot), &[code])?;
        if self.mode == IntegrityMode::Correct {
            dram.write_u32(self.mirror_base.offset(slot * 4), raw)?;
            dram.write(self.mirror_code_base.offset(slot), &[code])?;
        }
        Ok(())
    }

    /// Verifies (and in Correct mode repairs) the entry at `slot`, whose
    /// primary copy lives at `entry_addr` and currently reads back as
    /// `raw`. Repairs rewrite the primary (recharging the flipped cells).
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors from the plane's own accesses.
    pub fn verify(
        &self,
        dram: &mut DramModule,
        slot: u64,
        entry_addr: DramAddr,
        raw: u32,
    ) -> Result<VerifyOutcome, DramError> {
        let mut code_buf = [0u8; 1];
        dram.read(self.code_base.offset(slot), &mut code_buf)?;
        match secded_check(raw, code_buf[0]) {
            SecdedOutcome::Clean => Ok(VerifyOutcome::Clean),
            _ if self.mode == IntegrityMode::Detect => Ok(VerifyOutcome::Detected),
            SecdedOutcome::Corrected { value } => {
                // Rewrite both primary and code: the flip may be in either.
                dram.write_u32(entry_addr, value)?;
                dram.write(self.code_base.offset(slot), &[secded_encode(value)])?;
                Ok(VerifyOutcome::Repaired(value))
            }
            SecdedOutcome::Uncorrectable => self.repair_from_mirror(dram, slot, entry_addr),
        }
    }

    /// Restores a primary entry that could not even be read (e.g. DRAM ECC
    /// declared the word uncorrectable) from the mirror. Returns
    /// [`VerifyOutcome::Unrepairable`] outside [`IntegrityMode::Correct`].
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors from the plane's own accesses.
    pub fn restore(
        &self,
        dram: &mut DramModule,
        slot: u64,
        entry_addr: DramAddr,
    ) -> Result<VerifyOutcome, DramError> {
        if self.mode != IntegrityMode::Correct {
            return Ok(VerifyOutcome::Unrepairable);
        }
        self.repair_from_mirror(dram, slot, entry_addr)
    }

    /// Restores the primary entry from the mirror, provided the mirror
    /// itself verifies (clean or single-bit-correctable).
    fn repair_from_mirror(
        &self,
        dram: &mut DramModule,
        slot: u64,
        entry_addr: DramAddr,
    ) -> Result<VerifyOutcome, DramError> {
        let mirror = match dram.read_u32(self.mirror_base.offset(slot * 4)) {
            Ok(v) => v,
            // DRAM-level ECC already gave up on the mirror word.
            Err(DramError::Uncorrectable { .. }) => return Ok(VerifyOutcome::Unrepairable),
            Err(e) => return Err(e),
        };
        let mut code_buf = [0u8; 1];
        dram.read(self.mirror_code_base.offset(slot), &mut code_buf)?;
        let good = match secded_check(mirror, code_buf[0]) {
            SecdedOutcome::Clean => mirror,
            SecdedOutcome::Corrected { value } => value,
            SecdedOutcome::Uncorrectable => return Ok(VerifyOutcome::Unrepairable),
        };
        dram.write_u32(entry_addr, good)?;
        let code = secded_encode(good);
        dram.write(self.code_base.offset(slot), &[code])?;
        dram.write_u32(self.mirror_base.offset(slot * 4), good)?;
        dram.write(self.mirror_code_base.offset(slot), &[code])?;
        Ok(VerifyOutcome::MirrorRepaired(good))
    }
}

/// Fills `len` bytes starting at `base` with a repeating `pattern`,
/// splitting writes at DRAM row boundaries.
fn fill_region(
    dram: &mut DramModule,
    base: DramAddr,
    len: u64,
    pattern: &[u8],
) -> Result<(), DramError> {
    let row_bytes = u64::from(dram.mapping().geometry().row_bytes);
    let mut fill = vec![0u8; row_bytes as usize];
    for (i, b) in fill.iter_mut().enumerate() {
        *b = pattern[i % pattern.len()];
    }
    let mut off = 0u64;
    while off < len {
        let start = base.as_u64() + off;
        let row_off = start % row_bytes;
        let chunk = (row_bytes - row_off).min(len - off);
        // Keep the repeating pattern phase-aligned to the region start.
        let phase = (off % pattern.len() as u64) as usize;
        let mut piece = Vec::with_capacity(chunk as usize);
        for i in 0..chunk as usize {
            piece.push(pattern[(phase + i) % pattern.len()]);
        }
        dram.write(DramAddr(start), &piece)?;
        off += chunk;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_check_roundtrip_is_clean() {
        for v in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001, 12345] {
            assert_eq!(secded_check(v, secded_encode(v)), SecdedOutcome::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        for v in [0u32, 0xFFFF_FFFF, 0xA5A5_5A5A] {
            let code = secded_encode(v);
            for bit in 0..32 {
                let corrupted = v ^ (1 << bit);
                assert_eq!(
                    secded_check(corrupted, code),
                    SecdedOutcome::Corrected { value: v },
                    "value {v:#x} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn every_single_code_bit_flip_preserves_data() {
        let v = 0xCAFE_F00Du32;
        let code = secded_encode(v);
        for bit in 0..7 {
            let outcome = secded_check(v, code ^ (1 << bit));
            assert_eq!(
                outcome,
                SecdedOutcome::Corrected { value: v },
                "code bit {bit}"
            );
        }
    }

    #[test]
    fn double_bit_flips_are_detected_not_miscorrected() {
        let v = 0x1234_5678u32;
        let code = secded_encode(v);
        for a in 0..32 {
            for b in (a + 1)..32 {
                let corrupted = v ^ (1 << a) ^ (1 << b);
                assert_eq!(
                    secded_check(corrupted, code),
                    SecdedOutcome::Uncorrectable,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn data_positions_cover_exactly_32_bits() {
        let covered: Vec<u32> = (1..=CODE_SPAN).filter_map(data_bit_at).collect();
        assert_eq!(covered.len(), 32);
        let mut sorted = covered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "each data bit maps to one position");
    }

    #[test]
    fn plan_rejects_overlap_with_primary_table() {
        // 1024 slots of protection need 1024 (codes) + 5120 (mirror) bytes.
        assert!(IntegrityPlane::plan(IntegrityMode::Correct, 1024, 4096, 8192).is_none());
        assert!(IntegrityPlane::plan(IntegrityMode::Correct, 1024, 4096, 16384).is_some());
        assert!(IntegrityPlane::plan(IntegrityMode::Off, 1024, 0, 1 << 30).is_none());
    }

    #[test]
    fn detect_mode_plans_without_a_mirror() {
        let plane = IntegrityPlane::plan(IntegrityMode::Detect, 1024, 4096, 8192).unwrap();
        assert_eq!(plane.region_start().as_u64(), 8192 - 1024);
    }
}
