//! On-flash L2P change journal.
//!
//! The OOB scan in [`Ftl::recover`] reconstructs mappings from page
//! metadata, but it cannot see operations that leave no page behind —
//! TRIMs above all come back mapped after a crash. The journal closes that
//! gap: every host mutation appends a fixed-size entry to an in-memory
//! buffer which is checkpointed to a reserved region of flash blocks every
//! [`FtlConfig::journal_checkpoint_every`] entries. On remount, replaying
//! the journal over the OOB-scan winners (ordered by write sequence)
//! restores the exact pre-crash table.
//!
//! Journal pages are distinguished from data pages by a sentinel LBA in
//! their OOB ([`JOURNAL_LBA_MARKER`]), far above any exportable capacity,
//! so the normal OOB scan skips them automatically.
//!
//! Every record carries its own CRC-32C, so a page torn by a mid-append
//! power cut — the final record only partially written — is detected and
//! truncated at the first bad record ([`DecodedPage::torn`]) instead of
//! being replayed as garbage or aborting recovery.
//!
//! [`Ftl::recover`]: crate::Ftl::recover
//! [`FtlConfig::journal_checkpoint_every`]: crate::FtlConfig::journal_checkpoint_every

use ssdhammer_simkit::crc32c;
use ssdhammer_simkit::record::{dword, word};

/// Sentinel OOB LBA marking a page as journal payload rather than data.
pub(crate) const JOURNAL_LBA_MARKER: u64 = u64::MAX - 1;

/// Magic number opening every journal page.
const PAGE_MAGIC: u32 = 0x4A4E_4C31; // "JNL1"

/// Serialized size of one entry: LBA (8) + sequence (8) + PPN (4) +
/// CRC-32C over the preceding 20 bytes (4).
pub(crate) const ENTRY_BYTES: usize = 24;

/// Bytes of an entry covered by its trailing CRC.
const ENTRY_PAYLOAD_BYTES: usize = 20;

/// Page header: magic (4) + entry count (4).
const HEADER_BYTES: usize = 8;

/// One logged L2P mutation. `ppn == u32::MAX` (the table's invalid
/// sentinel) encodes a TRIM; anything else is a write or relocation
/// mapping `lba → ppn`, ordered against the OOB scan by `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalEntry {
    pub lba: u64,
    pub seq: u64,
    pub ppn: u32,
}

/// A decoded journal page: the records whose CRCs verified, and whether
/// the page ended in a torn (CRC-failing) record that was truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodedPage {
    pub entries: Vec<JournalEntry>,
    pub torn: bool,
}

/// Entries that fit one journal page of `page_bytes`.
pub(crate) fn entries_per_page(page_bytes: usize) -> usize {
    page_bytes.saturating_sub(HEADER_BYTES) / ENTRY_BYTES
}

/// Serializes `entries` into one full flash page (zero-padded).
pub(crate) fn encode_page(entries: &[JournalEntry], page_bytes: usize) -> Vec<u8> {
    debug_assert!(entries.len() <= entries_per_page(page_bytes));
    let mut page = vec![0u8; page_bytes];
    page[..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    page[4..8].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    for (i, e) in entries.iter().enumerate() {
        let at = HEADER_BYTES + i * ENTRY_BYTES;
        page[at..at + 8].copy_from_slice(&e.lba.to_le_bytes());
        page[at + 8..at + 16].copy_from_slice(&e.seq.to_le_bytes());
        page[at + 16..at + 20].copy_from_slice(&e.ppn.to_le_bytes());
        let crc = crc32c(&page[at..at + ENTRY_PAYLOAD_BYTES]);
        page[at + 20..at + 24].copy_from_slice(&crc.to_le_bytes());
    }
    page
}

/// Serializes `entries` like [`encode_page`], then tears the final record
/// as a mid-append power cut would: its trailing bytes (second half of the
/// payload plus the CRC) never reach the cells and read back as zeroes.
/// Decoding such a page yields all but the final record, with
/// [`DecodedPage::torn`] set.
pub(crate) fn encode_page_torn(entries: &[JournalEntry], page_bytes: usize) -> Vec<u8> {
    let mut page = encode_page(entries, page_bytes);
    if let Some(last) = entries.len().checked_sub(1) {
        let at = HEADER_BYTES + last * ENTRY_BYTES;
        for b in &mut page[at + ENTRY_PAYLOAD_BYTES / 2..at + ENTRY_BYTES] {
            *b = 0;
        }
    }
    page
}

/// Deserializes a journal page; returns no entries for pages that do not
/// carry the magic (burned or torn pages read back as `0xFF` / zeroes).
/// Records are verified front-to-back against their CRCs; the first bad
/// record truncates the page and marks it torn. A count claiming more
/// records than fit is itself corruption and marks the page torn.
#[cfg(test)]
pub(crate) fn decode_page(page: &[u8]) -> DecodedPage {
    decode_page_with(page, true)
}

/// `decode_page` with per-record CRC verification made optional.
///
/// `verify_crc = false` trusts the claimed count and replays every record
/// as-is — including a torn tail whose zeroed trailing bytes decode as a
/// live `lba → ppn 0` mapping. That is exactly the wrong-mapping bug the
/// CRCs exist to prevent; the knob exists (via
/// [`FtlConfig::journal_verify_crc`]) so the fuzz oracle's
/// planted-bug test can prove it catches the corruption when the defense
/// is off. Never disable it outside such a test.
///
/// [`FtlConfig::journal_verify_crc`]: crate::FtlConfig::journal_verify_crc
pub(crate) fn decode_page_with(page: &[u8], verify_crc: bool) -> DecodedPage {
    let Some((header, body)) = page
        .split_first_chunk::<HEADER_BYTES>()
        .filter(|(header, _)| word(header, 0) == PAGE_MAGIC)
    else {
        return DecodedPage {
            entries: Vec::new(),
            torn: false,
        };
    };
    let count = word(header, 1) as usize;
    let (records, _) = body.as_chunks::<ENTRY_BYTES>();
    let claimed = count.min(records.len());
    let mut entries = Vec::with_capacity(claimed);
    let mut torn = count > records.len();
    for record in &records[..claimed] {
        if verify_crc && crc32c(&record[..ENTRY_PAYLOAD_BYTES]) != word(record, 5) {
            torn = true;
            break;
        }
        entries.push(JournalEntry {
            lba: dword(record, 0),
            seq: dword(record, 2),
            ppn: word(record, 4),
        });
    }
    DecodedPage { entries, torn }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_full_page() {
        let page_bytes = 4096;
        let n = entries_per_page(page_bytes);
        assert_eq!(n, (4096 - 8) / 24);
        let entries: Vec<JournalEntry> = (0..n as u64)
            .map(|i| JournalEntry {
                lba: i,
                seq: 1000 + i,
                ppn: (i * 3) as u32,
            })
            .collect();
        let page = encode_page(&entries, page_bytes);
        assert_eq!(page.len(), page_bytes);
        let decoded = decode_page(&page);
        assert_eq!(decoded.entries, entries);
        assert!(!decoded.torn);
    }

    #[test]
    fn roundtrip_partial_page() {
        let entries = vec![
            JournalEntry {
                lba: 7,
                seq: 9,
                ppn: 42,
            },
            JournalEntry {
                lba: 8,
                seq: 10,
                ppn: u32::MAX, // TRIM
            },
        ];
        let page = encode_page(&entries, 4096);
        let decoded = decode_page(&page);
        assert_eq!(decoded.entries, entries);
        assert!(!decoded.torn);
    }

    #[test]
    fn erased_and_garbage_pages_decode_empty() {
        assert!(decode_page(&vec![0xFFu8; 4096]).entries.is_empty());
        assert!(decode_page(&vec![0u8; 4096]).entries.is_empty());
        assert!(decode_page(&[1, 2, 3]).entries.is_empty());
        // Truncated inside the header: the magic alone is not a page.
        assert_eq!(
            decode_page(&PAGE_MAGIC.to_le_bytes()),
            DecodedPage {
                entries: Vec::new(),
                torn: false
            }
        );
    }

    #[test]
    fn corrupt_count_is_clamped_and_flagged() {
        // An all-records page whose count field was blasted to MAX: the
        // claimed count clamps to capacity and the lie marks the page torn,
        // but every intact record still replays.
        let n = entries_per_page(4096);
        let entries: Vec<JournalEntry> = (0..n as u64)
            .map(|i| JournalEntry {
                lba: i,
                seq: i,
                ppn: i as u32,
            })
            .collect();
        let mut page = encode_page(&entries, 4096);
        page[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let decoded = decode_page(&page);
        assert_eq!(decoded.entries, entries);
        assert!(decoded.torn);
        // A page cut short mid-record claims more than it holds the same
        // way: the whole records before the cut replay.
        let cut = &encode_page(&entries, 4096)[..HEADER_BYTES + 2 * ENTRY_BYTES + 5];
        let decoded = decode_page(cut);
        assert_eq!(decoded.entries, entries[..2]);
        assert!(decoded.torn);
    }

    #[test]
    fn torn_tail_is_truncated_never_replayed() {
        let entries: Vec<JournalEntry> = (0..5u64)
            .map(|i| JournalEntry {
                lba: 10 + i,
                seq: 100 + i,
                ppn: 7 + i as u32,
            })
            .collect();
        let page = encode_page_torn(&entries, 4096);
        let decoded = decode_page(&page);
        assert!(decoded.torn);
        assert_eq!(decoded.entries, entries[..4]);
    }

    #[test]
    fn unverified_decode_replays_the_torn_tail_as_a_wild_mapping() {
        // What the CRC defends against: without verification the torn
        // final record decodes as a live mapping with its trailing bytes
        // zeroed (ppn 0), ready to corrupt the L2P table on replay.
        let entries: Vec<JournalEntry> = (0..3u64)
            .map(|i| JournalEntry {
                lba: 10 + i,
                seq: 100 + i,
                ppn: 7 + i as u32,
            })
            .collect();
        let page = encode_page_torn(&entries, 4096);
        let decoded = decode_page_with(&page, false);
        assert!(!decoded.torn, "nothing flags the tear");
        assert_eq!(decoded.entries.len(), 3);
        assert_eq!(decoded.entries[..2], entries[..2]);
        assert_eq!(decoded.entries[2].lba, 12, "lba bytes survive the tear");
        assert_eq!(decoded.entries[2].ppn, 0, "ppn bytes zeroed by the tear");
    }

    #[test]
    fn torn_single_record_page_decodes_empty_and_torn() {
        let entries = vec![JournalEntry {
            lba: 1,
            seq: 2,
            ppn: 3,
        }];
        let decoded = decode_page(&encode_page_torn(&entries, 4096));
        assert!(decoded.torn);
        assert!(decoded.entries.is_empty());
    }

    #[test]
    fn mid_page_corruption_truncates_at_first_bad_record() {
        let entries: Vec<JournalEntry> = (0..6u64)
            .map(|i| JournalEntry {
                lba: i,
                seq: i,
                ppn: i as u32,
            })
            .collect();
        let mut page = encode_page(&entries, 4096);
        // Flip one payload bit in record 2; its CRC no longer matches.
        let at = HEADER_BYTES + 2 * ENTRY_BYTES;
        page[at + 3] ^= 0x10;
        let decoded = decode_page(&page);
        assert!(decoded.torn);
        assert_eq!(decoded.entries, entries[..2]);
    }
}
