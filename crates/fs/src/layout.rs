//! On-disk structures: superblock, inodes, directory entries and indexes,
//! extent trees.
//!
//! The design mirrors the two ext4 file-mapping mechanisms the paper
//! contrasts (§4.2):
//!
//! * **Extent trees** — "protected by CRC-32C checksum". Our inline extent
//!   area and every extent-leaf block carry a CRC-32C that readers verify.
//! * **Direct/indirect blocks** — the backward-compatible mechanism:
//!   "critically, indirect blocks are not verified against any checksum."
//!   Our indirect blocks are raw arrays of block pointers with no integrity
//!   protection whatsoever, faithfully reproducing the exploited weakness.

use ssdhammer_simkit::record::{dword, word};
use ssdhammer_simkit::{crc32c, BLOCK_SIZE};

use crate::error::{FsError, FsResult};

/// Inode number. `0` is invalid; the root directory is inode 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u32);

impl core::fmt::Display for Ino {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ino{}", self.0)
    }
}

/// The root directory's inode number.
pub const ROOT_INO: Ino = Ino(1);

/// Filesystem-relative block number (u32, like ext4 block pointers). `0` is
/// the superblock and therefore doubles as the "hole" sentinel in file maps.
pub type FsBlock = u32;

/// Magic number in the superblock.
pub const FS_MAGIC: u32 = 0x5348_4654; // "SHFT"

/// Magic in extent headers (same value as ext4's).
pub const EXTENT_MAGIC: u16 = 0xF30A;

/// Pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;

/// Direct pointers per inode (as in ext2/3/4).
pub const DIRECT_PTRS: usize = 12;

/// Inline extent slots in an inode (as in ext4's 60-byte i_block area).
pub const INLINE_EXTENTS: usize = 4;

/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 256;

/// Inodes per block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;

/// Bytes per directory entry.
pub const DIRENT_SIZE: usize = 64;

/// Maximum file-name length.
pub const MAX_NAME: usize = DIRENT_SIZE - 6;

/// Magic of a directory's hash-index block.
pub const DIR_INDEX_MAGIC: u32 = 0x5844_4944; // "DIDX"

/// Index-block header: magic(4) count(2) limit(2).
const DIR_INDEX_HEADER: usize = 8;

/// `(hash, leaf)` entries one index block holds: the most leaves a
/// directory can have.
pub const DIR_INDEX_LIMIT: usize = (BLOCK_SIZE - DIR_INDEX_HEADER) / 8;

/// File type bits (stored in the inode mode's high nibble).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

impl FileType {
    fn to_bits(self) -> u16 {
        match self {
            FileType::Regular => 0x8000,
            FileType::Directory => 0x4000,
        }
    }

    fn from_bits(mode: u16) -> FsResult<FileType> {
        match mode & 0xF000 {
            0x8000 => Ok(FileType::Regular),
            0x4000 => Ok(FileType::Directory),
            other => Err(FsError::Corrupted(format!("bad file type bits {other:#x}"))),
        }
    }
}

/// How a file maps logical blocks to filesystem blocks — ext4's per-inode
/// choice. "Users may also select the direct/indirect block mechanism on
/// files they have write access to" (§4.2), which is exactly what the
/// attacker's spray files do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressingMode {
    /// Checksummed extent tree (ext4 default).
    Extents,
    /// Legacy direct/indirect pointers (no checksums).
    Indirect,
}

/// One extent: `len` contiguous blocks of the file starting at file-logical
/// `logical`, stored at filesystem block `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file-logical block covered.
    pub logical: u32,
    /// Number of blocks covered.
    pub len: u32,
    /// First filesystem block backing the range.
    pub start: FsBlock,
}

/// The per-inode mapping state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeMap {
    /// Inline extent tree of depth 0 (up to [`INLINE_EXTENTS`] extents) or,
    /// when `leaf` is set, depth 1 with one checksummed leaf block.
    Extents {
        /// Inline extents (depth 0), sorted by `logical`.
        inline: Vec<Extent>,
        /// Optional extent-leaf block for files with many extents (depth 1).
        leaf: Option<FsBlock>,
    },
    /// Legacy pointers: 12 direct, one single-indirect, one double-indirect.
    /// `0` means hole.
    Indirect {
        /// Direct block pointers.
        direct: [FsBlock; DIRECT_PTRS],
        /// Single-indirect block (holds [`PTRS_PER_BLOCK`] pointers).
        single: FsBlock,
        /// Double-indirect block.
        double: FsBlock,
    },
}

impl InodeMap {
    /// An empty map in the given mode.
    #[must_use]
    pub fn empty(mode: AddressingMode) -> InodeMap {
        match mode {
            AddressingMode::Extents => InodeMap::Extents {
                inline: Vec::new(),
                leaf: None,
            },
            AddressingMode::Indirect => InodeMap::Indirect {
                direct: [0; DIRECT_PTRS],
                single: 0,
                double: 0,
            },
        }
    }
}

/// An in-memory inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File type.
    pub ftype: FileType,
    /// Permission bits `0oXYZ`-style: owner rwx in bits 6..9, other rwx in
    /// bits 0..3 (group omitted for simplicity).
    pub perms: u16,
    /// Owning user id.
    pub uid: u32,
    /// Link count.
    pub links: u16,
    /// File size in bytes.
    pub size: u64,
    /// Block map.
    pub map: InodeMap,
}

impl Inode {
    /// A fresh inode of the given type/mode.
    #[must_use]
    pub fn new(ftype: FileType, perms: u16, uid: u32, addressing: AddressingMode) -> Inode {
        Inode {
            ftype,
            perms,
            uid,
            links: 1,
            size: 0,
            map: InodeMap::empty(addressing),
        }
    }

    /// Serializes to [`INODE_SIZE`] bytes.
    ///
    /// Layout: mode(2) perms(2) uid(4) links(2) pad(2) size(8) map_tag(4)
    /// then the map area. The *extent* map area ends with a CRC-32C over the
    /// preceding map bytes (ext4's `ext4_extent_tail`); the *indirect* area
    /// has no checksum, by design.
    #[must_use]
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut buf = [0u8; INODE_SIZE];
        buf[0..2].copy_from_slice(&self.ftype.to_bits().to_le_bytes());
        buf[2..4].copy_from_slice(&self.perms.to_le_bytes());
        buf[4..8].copy_from_slice(&self.uid.to_le_bytes());
        buf[8..10].copy_from_slice(&self.links.to_le_bytes());
        buf[12..20].copy_from_slice(&self.size.to_le_bytes());
        match &self.map {
            InodeMap::Extents { inline, leaf } => {
                buf[20..24].copy_from_slice(&1u32.to_le_bytes());
                // Extent header: magic, entries, max, depth.
                let area = &mut buf[24..];
                area[0..2].copy_from_slice(&EXTENT_MAGIC.to_le_bytes());
                area[2..4].copy_from_slice(&(inline.len() as u16).to_le_bytes());
                area[4..6].copy_from_slice(&(INLINE_EXTENTS as u16).to_le_bytes());
                let depth: u16 = u16::from(leaf.is_some());
                area[6..8].copy_from_slice(&depth.to_le_bytes());
                area[8..12].copy_from_slice(&leaf.unwrap_or(0).to_le_bytes());
                let mut off = 12;
                for e in inline {
                    area[off..off + 4].copy_from_slice(&e.logical.to_le_bytes());
                    area[off + 4..off + 8].copy_from_slice(&e.len.to_le_bytes());
                    area[off + 8..off + 12].copy_from_slice(&e.start.to_le_bytes());
                    off += 12;
                }
                // ext4_extent_tail: checksum over the whole extent area.
                let crc = crc32c(&area[..12 + INLINE_EXTENTS * 12]);
                let tail = 12 + INLINE_EXTENTS * 12;
                area[tail..tail + 4].copy_from_slice(&crc.to_le_bytes());
            }
            InodeMap::Indirect {
                direct,
                single,
                double,
            } => {
                buf[20..24].copy_from_slice(&2u32.to_le_bytes());
                let area = &mut buf[24..];
                for (i, d) in direct.iter().enumerate() {
                    area[i * 4..i * 4 + 4].copy_from_slice(&d.to_le_bytes());
                }
                area[48..52].copy_from_slice(&single.to_le_bytes());
                area[52..56].copy_from_slice(&double.to_le_bytes());
                // Deliberately no checksum (§4.2).
            }
        }
        buf
    }

    /// Deserializes from [`INODE_SIZE`] bytes, verifying structure and — for
    /// extent maps — the CRC-32C.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on bad magic, bad type bits, impossible
    /// extent counts, or extent checksum mismatch.
    pub fn decode(buf: &[u8; INODE_SIZE]) -> FsResult<Inode> {
        // The map area starts at byte 24: word 6 of the inode.
        const AREA: usize = 6;
        let mode = u16::from_le_bytes([buf[0], buf[1]]);
        let ftype = FileType::from_bits(mode)?;
        let perms = u16::from_le_bytes([buf[2], buf[3]]);
        let uid = word(buf, 1);
        let links = u16::from_le_bytes([buf[8], buf[9]]);
        let size = dword(buf, 3);
        let tag = word(buf, 5);
        let area = &buf[4 * AREA..];
        let map = match tag {
            1 => {
                let magic = u16::from_le_bytes([area[0], area[1]]);
                if magic != EXTENT_MAGIC {
                    return Err(FsError::Corrupted(format!("bad extent magic {magic:#06x}")));
                }
                let entries = u16::from_le_bytes([area[2], area[3]]) as usize;
                if entries > INLINE_EXTENTS {
                    return Err(FsError::Corrupted(format!(
                        "inline extent count {entries} exceeds max"
                    )));
                }
                let depth = u16::from_le_bytes([area[6], area[7]]);
                let leaf_raw = word(buf, AREA + 2);
                let tail = 12 + INLINE_EXTENTS * 12;
                let stored = word(buf, AREA + tail / 4);
                let computed = crc32c(&area[..tail]);
                if stored != computed {
                    return Err(FsError::Corrupted(
                        "extent area checksum mismatch".to_owned(),
                    ));
                }
                let mut inline = Vec::with_capacity(entries);
                for k in 0..entries {
                    let w = AREA + 3 + 3 * k;
                    inline.push(Extent {
                        logical: word(buf, w),
                        len: word(buf, w + 1),
                        start: word(buf, w + 2),
                    });
                }
                InodeMap::Extents {
                    inline,
                    leaf: (depth == 1).then_some(leaf_raw),
                }
            }
            2 => {
                let mut direct = [0u32; DIRECT_PTRS];
                for (i, d) in direct.iter_mut().enumerate() {
                    *d = word(buf, AREA + i);
                }
                InodeMap::Indirect {
                    direct,
                    single: word(buf, AREA + 12),
                    double: word(buf, AREA + 13),
                }
            }
            other => {
                return Err(FsError::Corrupted(format!("bad inode map tag {other}")));
            }
        };
        Ok(Inode {
            ftype,
            perms,
            uid,
            links,
            size,
            map,
        })
    }
}

/// The superblock (block 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// Total filesystem blocks (= device blocks).
    pub total_blocks: u32,
    /// Number of inodes.
    pub inode_count: u32,
    /// First block of the block bitmap.
    pub block_bitmap_start: u32,
    /// Blocks in the block bitmap.
    pub block_bitmap_len: u32,
    /// First block of the inode bitmap (always 1 block).
    pub inode_bitmap_start: u32,
    /// First block of the inode table.
    pub inode_table_start: u32,
    /// Blocks in the inode table.
    pub inode_table_len: u32,
    /// First data block.
    pub data_start: u32,
    /// When set, the filesystem refuses to create indirect-addressed files —
    /// §5's "enforcing extent tree addressing" mitigation.
    pub extents_only: bool,
}

impl SuperBlock {
    /// Computes a layout for a device of `total_blocks`, with one inode per
    /// four data blocks (bounded to the inode-bitmap capacity).
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if the device is too small to hold metadata.
    pub fn compute(total_blocks: u32) -> FsResult<SuperBlock> {
        if total_blocks < 16 {
            return Err(FsError::NoSpace);
        }
        let block_bitmap_len = total_blocks.div_ceil((BLOCK_SIZE * 8) as u32);
        let inode_count = (total_blocks / 4).clamp(16, (BLOCK_SIZE * 8) as u32);
        let inode_table_len = inode_count.div_ceil(INODES_PER_BLOCK as u32);
        let block_bitmap_start = 1;
        let inode_bitmap_start = block_bitmap_start + block_bitmap_len;
        let inode_table_start = inode_bitmap_start + 1;
        let data_start = inode_table_start + inode_table_len;
        if data_start >= total_blocks {
            return Err(FsError::NoSpace);
        }
        Ok(SuperBlock {
            total_blocks,
            inode_count,
            block_bitmap_start,
            block_bitmap_len,
            inode_bitmap_start,
            inode_table_start,
            inode_table_len,
            data_start,
            extents_only: false,
        })
    }

    /// Serializes into a 4 KiB block (with magic and CRC-32C).
    #[must_use]
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        let mut buf = [0u8; BLOCK_SIZE];
        buf[0..4].copy_from_slice(&FS_MAGIC.to_le_bytes());
        let fields = [
            self.total_blocks,
            self.inode_count,
            self.block_bitmap_start,
            self.block_bitmap_len,
            self.inode_bitmap_start,
            self.inode_table_start,
            self.inode_table_len,
            self.data_start,
            u32::from(self.extents_only),
        ];
        for (i, f) in fields.iter().enumerate() {
            buf[4 + i * 4..8 + i * 4].copy_from_slice(&f.to_le_bytes());
        }
        let crc = crc32c(&buf[..4 + fields.len() * 4]);
        buf[60..64].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserializes and verifies a superblock.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on bad magic or checksum.
    pub fn decode(buf: &[u8; BLOCK_SIZE]) -> FsResult<SuperBlock> {
        let magic = word(buf, 0);
        if magic != FS_MAGIC {
            return Err(FsError::Corrupted(format!("bad fs magic {magic:#x}")));
        }
        let stored = word(buf, 15);
        if crc32c(&buf[..40]) != stored {
            return Err(FsError::Corrupted("superblock checksum mismatch".into()));
        }
        let f = |i: usize| word(buf, 1 + i);
        Ok(SuperBlock {
            total_blocks: f(0),
            inode_count: f(1),
            block_bitmap_start: f(2),
            block_bitmap_len: f(3),
            inode_bitmap_start: f(4),
            inode_table_start: f(5),
            inode_table_len: f(6),
            data_start: f(7),
            extents_only: f(8) != 0,
        })
    }
}

/// A directory entry (fixed [`DIRENT_SIZE`] bytes on disk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Target inode (0 = free slot).
    pub ino: Ino,
    /// Entry type.
    pub ftype: FileType,
    /// File name.
    pub name: String,
}

impl Dirent {
    /// Serializes to [`DIRENT_SIZE`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds [`MAX_NAME`] bytes (validated at create).
    #[must_use]
    pub fn encode(&self) -> [u8; DIRENT_SIZE] {
        let mut buf = [0u8; DIRENT_SIZE];
        assert!(self.name.len() <= MAX_NAME, "dirent name too long");
        buf[0..4].copy_from_slice(&self.ino.0.to_le_bytes());
        buf[4] = self.name.len() as u8;
        buf[5] = match self.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
        };
        buf[6..6 + self.name.len()].copy_from_slice(self.name.as_bytes());
        buf
    }

    /// Deserializes from [`DIRENT_SIZE`] bytes. A zero inode yields `None`
    /// (free slot).
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on malformed entries.
    pub fn decode(buf: &[u8]) -> FsResult<Option<Dirent>> {
        Ok(DirentRef::decode(buf)?.map(|d| d.to_dirent()))
    }
}

/// A borrowed view of an on-disk directory entry: the allocation-free
/// counterpart of [`Dirent`] for streaming directory scans. Validation is
/// identical to [`Dirent::decode`]; only the name copy is deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirentRef<'a> {
    /// Target inode (never 0; free slots decode to `None`).
    pub ino: Ino,
    /// Entry type.
    pub ftype: FileType,
    /// File name, borrowed from the block buffer.
    pub name: &'a str,
}

impl<'a> DirentRef<'a> {
    /// Deserializes from the first [`DIRENT_SIZE`] bytes of `buf` without
    /// allocating. A zero inode yields `None` (free slot).
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on malformed entries or a buffer shorter than
    /// one entry.
    pub fn decode(buf: &'a [u8]) -> FsResult<Option<DirentRef<'a>>> {
        let Some(buf) = buf.first_chunk::<DIRENT_SIZE>() else {
            return Err(FsError::Corrupted(format!("dirent of {} bytes", buf.len())));
        };
        let ino = word(buf, 0);
        if ino == 0 {
            return Ok(None);
        }
        let len = buf[4] as usize;
        if len == 0 || len > MAX_NAME {
            return Err(FsError::Corrupted(format!("bad dirent name length {len}")));
        }
        let ftype = match buf[5] {
            1 => FileType::Regular,
            2 => FileType::Directory,
            other => {
                return Err(FsError::Corrupted(format!("bad dirent type {other}")));
            }
        };
        let name = core::str::from_utf8(&buf[6..6 + len])
            .map_err(|_| FsError::Corrupted("dirent name not utf-8".into()))?;
        Ok(Some(DirentRef {
            ino: Ino(ino),
            ftype,
            name,
        }))
    }

    /// Copies into an owned [`Dirent`].
    #[must_use]
    pub fn to_dirent(self) -> Dirent {
        Dirent {
            ino: self.ino,
            ftype: self.ftype,
            name: self.name.to_owned(),
        }
    }
}

/// The hash that places `name` in its directory's index: the CRC-32C of
/// its bytes.
pub(crate) fn name_hash(name: &str) -> u32 {
    crc32c(name.as_bytes())
}

/// A directory's one-level hash index (ext4's `dx_root`), stored in the
/// directory's logical block 0. Every other block is a leaf of
/// [`DIRENT_SIZE`]-byte entries. Entry `i` sends every name whose hash (the
/// CRC-32C of its bytes) lies in `entries[i].0..entries[i + 1].0` to leaf
/// `entries[i].1`; the first hash is 0, so each name has exactly one leaf.
///
/// On disk: magic(4) count(2) limit(2), then `count` pairs of
/// hash(4) leaf(4). Like the directory entries, the block carries no
/// checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirIndex {
    /// `(lowest hash, leaf logical block)` pairs, hashes strictly
    /// increasing from 0.
    pub entries: Vec<(u32, u32)>,
}

impl DirIndex {
    /// A fresh directory's index: every hash goes to leaf 1.
    pub(crate) fn fresh() -> DirIndex {
        DirIndex {
            entries: vec![(0, 1)],
        }
    }

    /// Position of the entry whose hash range covers `hash`.
    #[must_use]
    pub fn position(&self, hash: u32) -> usize {
        self.entries
            .partition_point(|&(h, _)| h <= hash)
            .saturating_sub(1)
    }

    /// Serializes into an index block.
    ///
    /// # Panics
    ///
    /// Panics with more than [`DIR_INDEX_LIMIT`] entries (splits check the
    /// limit first).
    #[must_use]
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        assert!(
            self.entries.len() <= DIR_INDEX_LIMIT,
            "directory index overflow"
        );
        let mut buf = [0u8; BLOCK_SIZE];
        buf[0..4].copy_from_slice(&DIR_INDEX_MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[6..8].copy_from_slice(&(DIR_INDEX_LIMIT as u16).to_le_bytes());
        for (i, (hash, leaf)) in self.entries.iter().enumerate() {
            let off = DIR_INDEX_HEADER + i * 8;
            buf[off..off + 4].copy_from_slice(&hash.to_le_bytes());
            buf[off + 4..off + 8].copy_from_slice(&leaf.to_le_bytes());
        }
        buf
    }

    /// Deserializes and validates the index of a directory of `blocks`
    /// blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on a bad magic or limit, a count of zero or
    /// above the limit, hashes that do not start at 0 and strictly
    /// increase, or a leaf outside the directory's blocks `1..blocks`.
    pub fn decode(buf: &[u8; BLOCK_SIZE], blocks: u32) -> FsResult<DirIndex> {
        let magic = word(buf, 0);
        if magic != DIR_INDEX_MAGIC {
            return Err(FsError::Corrupted(format!(
                "bad directory index magic {magic:#x}"
            )));
        }
        let count = u16::from_le_bytes([buf[4], buf[5]]) as usize;
        let limit = u16::from_le_bytes([buf[6], buf[7]]) as usize;
        if limit != DIR_INDEX_LIMIT || count == 0 || count > limit {
            return Err(FsError::Corrupted(format!(
                "directory index count {count}, limit {limit}"
            )));
        }
        let mut entries: Vec<(u32, u32)> = Vec::with_capacity(count);
        let (pairs, _) = buf[DIR_INDEX_HEADER..DIR_INDEX_HEADER + count * 8].as_chunks::<8>();
        for (i, pair) in pairs.iter().enumerate() {
            let (hash, leaf) = (word(pair, 0), word(pair, 1));
            let in_order = match entries.last() {
                None => hash == 0,
                Some(&(prev, _)) => hash > prev,
            };
            if !in_order {
                return Err(FsError::Corrupted(format!(
                    "directory index hash {hash:#010x} out of order at entry {i}"
                )));
            }
            if leaf == 0 || leaf >= blocks {
                return Err(FsError::Corrupted(format!(
                    "directory index leaf {leaf} outside the directory's {blocks} blocks"
                )));
            }
            entries.push((hash, leaf));
        }
        Ok(DirIndex { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_extents_roundtrip() {
        let mut ino = Inode::new(FileType::Regular, 0o644, 1000, AddressingMode::Extents);
        ino.size = 8192;
        ino.map = InodeMap::Extents {
            inline: vec![
                Extent {
                    logical: 0,
                    len: 2,
                    start: 100,
                },
                Extent {
                    logical: 5,
                    len: 1,
                    start: 200,
                },
            ],
            leaf: None,
        };
        let enc = ino.encode();
        assert_eq!(Inode::decode(&enc).unwrap(), ino);
    }

    #[test]
    fn inode_indirect_roundtrip() {
        let mut ino = Inode::new(FileType::Regular, 0o600, 0, AddressingMode::Indirect);
        ino.size = 13 * 4096;
        let mut direct = [0u32; DIRECT_PTRS];
        direct[0] = 55;
        ino.map = InodeMap::Indirect {
            direct,
            single: 99,
            double: 0,
        };
        let enc = ino.encode();
        assert_eq!(Inode::decode(&enc).unwrap(), ino);
    }

    #[test]
    fn extent_checksum_detects_pointer_tampering() {
        let mut ino = Inode::new(FileType::Regular, 0o644, 0, AddressingMode::Extents);
        ino.map = InodeMap::Extents {
            inline: vec![Extent {
                logical: 0,
                len: 1,
                start: 123,
            }],
            leaf: None,
        };
        let mut enc = ino.encode();
        // Flip one bit in the extent start pointer.
        enc[24 + 12 + 8] ^= 0x01;
        assert!(matches!(
            Inode::decode(&enc),
            Err(FsError::Corrupted(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn indirect_pointers_have_no_integrity() {
        // The vulnerability: the same single-bit tamper goes UNDETECTED on
        // an indirect-addressed inode.
        let mut ino = Inode::new(FileType::Regular, 0o644, 0, AddressingMode::Indirect);
        ino.map = InodeMap::Indirect {
            direct: [7; DIRECT_PTRS],
            single: 42,
            double: 0,
        };
        let mut enc = ino.encode();
        enc[24] ^= 0x01; // tamper with direct[0]
        let decoded = Inode::decode(&enc).unwrap();
        let InodeMap::Indirect { direct, .. } = decoded.map else {
            panic!("mode changed");
        };
        assert_eq!(direct[0], 6, "tampered pointer accepted silently");
    }

    #[test]
    fn superblock_roundtrip_and_layout() {
        let sb = SuperBlock::compute(16384).unwrap();
        assert_eq!(sb.block_bitmap_len, 1); // 16384 bits < 32768
        assert!(sb.data_start > sb.inode_table_start);
        let enc = sb.encode();
        assert_eq!(SuperBlock::decode(&enc).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_corruption() {
        let sb = SuperBlock::compute(1024).unwrap();
        let mut enc = sb.encode();
        enc[5] ^= 0xFF;
        assert!(Inode::decode(&[0u8; INODE_SIZE]).is_err());
        assert!(matches!(
            SuperBlock::decode(&enc),
            Err(FsError::Corrupted(_))
        ));
    }

    #[test]
    fn superblock_too_small_device() {
        assert_eq!(SuperBlock::compute(4).unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn dirent_roundtrip_and_free_slot() {
        let d = Dirent {
            ino: Ino(7),
            ftype: FileType::Directory,
            name: "home".into(),
        };
        let enc = d.encode();
        assert_eq!(Dirent::decode(&enc).unwrap(), Some(d));
        assert_eq!(Dirent::decode(&[0u8; DIRENT_SIZE]).unwrap(), None);
    }

    #[test]
    fn dirent_rejects_garbage() {
        let mut buf = [0u8; DIRENT_SIZE];
        buf[0] = 1; // ino 1
        buf[4] = 200; // absurd name length
        assert!(Dirent::decode(&buf).is_err());
    }

    #[test]
    fn dir_index_roundtrip_and_position() {
        let index = DirIndex {
            entries: vec![(0, 1), (0x4000_0000, 3), (0x9000_0000, 2)],
        };
        assert_eq!(DirIndex::decode(&index.encode(), 4).unwrap(), index);
        assert_eq!(index.position(0), 0);
        assert_eq!(index.position(0x3FFF_FFFF), 0);
        assert_eq!(index.position(0x4000_0000), 1);
        assert_eq!(index.position(u32::MAX), 2);
        assert_eq!(DirIndex::fresh().position(u32::MAX), 0);
    }

    #[test]
    fn dir_index_rejects_malformed_blocks() {
        let corrupted = |index: &DirIndex, blocks: u32, edit: &dyn Fn(&mut [u8; BLOCK_SIZE])| {
            let mut buf = index.encode();
            edit(&mut buf);
            matches!(DirIndex::decode(&buf, blocks), Err(FsError::Corrupted(_)))
        };
        let two = DirIndex {
            entries: vec![(0, 1), (7, 2)],
        };
        assert!(corrupted(&two, 3, &|b| b[0] ^= 1), "magic");
        assert!(corrupted(&two, 3, &|b| b[6] ^= 1), "limit");
        assert!(corrupted(&two, 3, &|b| b[4..6].fill(0)), "empty");
        assert!(corrupted(&two, 3, &|b| b[4..6].fill(0xFF)), "count > limit");
        assert!(corrupted(&two, 3, &|b| b[8] = 1), "first hash not 0");
        assert!(corrupted(&two, 3, &|b| b[16..20].fill(0)), "equal hashes");
        assert!(corrupted(&two, 2, &|_| {}), "leaf past the end");
        assert!(
            corrupted(&two, 3, &|b| b[20..24].fill(0)),
            "leaf 0 is the index"
        );
        assert!(!corrupted(&two, 3, &|_| {}));
    }

    #[test]
    fn extent_magic_matches_ext4() {
        assert_eq!(EXTENT_MAGIC, 0xF30A);
    }
}
