//! Panic-free little-endian field readers for fixed on-media layouts.
//!
//! The filesystem decodes superblocks, inodes and dirents from fixed byte
//! offsets. Spelled with slice indexing plus
//! `try_into().unwrap()`, every such read is a latent panic on the library
//! path — exactly what lint rule P1 forbids. These helpers express the
//! same reads without a panic: bytes past the end of the buffer read as
//! zero, so a short buffer decodes to a value that then fails the caller's
//! magic/checksum validation instead of aborting the whole simulation.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::bytes::{le_u16, le_u32, le_u64};
//!
//! let buf = [0x34, 0x12, 0xff, 0xee, 0xdd, 0xcc, 0, 0, 0, 0, 0, 0];
//! assert_eq!(le_u16(&buf, 0), 0x1234);
//! assert_eq!(le_u32(&buf, 2), 0xccdd_eeff);
//! assert_eq!(le_u64(&buf, 4), 0xccdd);
//! assert_eq!(le_u32(&buf, 100), 0, "out of range reads as zero");
//! ```

/// Reads a little-endian `u16` at byte offset `off`; missing bytes are zero.
#[must_use]
pub fn le_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(field(buf, off))
}

/// Reads a little-endian `u32` at byte offset `off`; missing bytes are zero.
#[must_use]
pub fn le_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(field(buf, off))
}

/// Reads a little-endian `u64` at byte offset `off`; missing bytes are zero.
#[must_use]
pub fn le_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(field(buf, off))
}

/// Copies up to `N` bytes starting at `off` into a zero-filled array.
fn field<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    if off < buf.len() {
        let avail = (buf.len() - off).min(N);
        out[..avail].copy_from_slice(&buf[off..off + avail]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_match_from_le_bytes() {
        let buf: Vec<u8> = (1..=16).collect();
        assert_eq!(le_u16(&buf, 3), u16::from_le_bytes([4, 5]));
        assert_eq!(le_u32(&buf, 0), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(
            le_u64(&buf, 8),
            u64::from_le_bytes([9, 10, 11, 12, 13, 14, 15, 16])
        );
    }

    #[test]
    fn short_and_out_of_range_reads_zero_fill() {
        let buf = [0xAA, 0xBB];
        assert_eq!(le_u32(&buf, 0), 0x0000_BBAA);
        assert_eq!(le_u32(&buf, 1), 0x0000_00BB);
        assert_eq!(le_u32(&buf, 2), 0);
        assert_eq!(le_u64(&[], 0), 0);
        assert_eq!(le_u16(&buf, usize::MAX), 0);
    }
}
