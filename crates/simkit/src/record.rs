//! Little-endian fields of fixed-width on-media records.
//!
//! Journal entries, OOB areas, inodes, superblocks and directory blocks
//! are read as fixed-size byte arrays, so a decoder checks a record's
//! length once, when it takes the record (`first_chunk`, `as_chunks`),
//! not once per field. Fields are addressed in 4-byte words: `word(r, i)`
//! is bytes `4i..4i + 4` and `dword(r, i)` bytes `4i..4i + 8`, so a record
//! laid out in words names each field by one index.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::record::{dword, word};
//!
//! let record = [0x34, 0x12, 0, 0, 0xff, 0xee, 0xdd, 0xcc, 1, 0, 0, 0];
//! assert_eq!(word(&record, 0), 0x1234);
//! assert_eq!(word(&record, 1), 0xccdd_eeff);
//! assert_eq!(dword(&record, 1), 0x1_ccdd_eeff);
//! ```

/// Little-endian `u32` word `i` (bytes `4i..4i + 4`) of `record`.
///
/// # Panics
///
/// Panics if the word extends past the record; with constant indices into
/// a record of fixed type, that is a compile-time layout fact.
#[must_use]
pub fn word<const N: usize>(record: &[u8; N], i: usize) -> u32 {
    u32::from_le_bytes([
        record[4 * i],
        record[4 * i + 1],
        record[4 * i + 2],
        record[4 * i + 3],
    ])
}

/// Little-endian `u64` starting at word `i` (bytes `4i..4i + 8`) of
/// `record`.
///
/// # Panics
///
/// Panics if the field extends past the record, as [`word`] does.
#[must_use]
pub fn dword<const N: usize>(record: &[u8; N], i: usize) -> u64 {
    u64::from(word(record, i)) | u64::from(word(record, i + 1)) << 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_match_from_le_bytes() {
        let record: [u8; 16] = core::array::from_fn(|i| i as u8 + 1);
        assert_eq!(word(&record, 0), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(word(&record, 3), u32::from_le_bytes([13, 14, 15, 16]));
        assert_eq!(
            dword(&record, 1),
            u64::from_le_bytes([5, 6, 7, 8, 9, 10, 11, 12])
        );
    }
}
