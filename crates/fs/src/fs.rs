//! The filesystem proper: formatting, mounting, path operations, and
//! block-granular file I/O over any [`BlockDevice`].
//!
//! Design notes:
//!
//! * All file I/O is block-granular (4 KiB), matching the paper's
//!   block-level exploit; `size` still tracks bytes.
//! * **No caching**: every metadata and data access goes to the device, so
//!   when the FTL under the device redirects an LBA, the filesystem
//!   faithfully follows the corrupted pointer chain — the behaviour §4.2
//!   exploits. Within one operation each metadata block is read once: an
//!   allocation reads each bitmap block once, and a directory operation
//!   resolves the extent map once. A read returns the device's page
//!   ([`BlockDevice::read`]); read-only uses index it in place, and a
//!   read-modify-write copies it once into the block it writes.
//! * **The last verified extent leaf is remembered** with its page: when a
//!   read of a leaf returns that same page (`Arc::ptr_eq`), its bytes are
//!   the ones already verified (devices never mutate a page they handed
//!   out), so the checksum and decode are skipped. The device read itself
//!   still happens, and any other page (a rewrite, a redirection, a
//!   read-disturbed or decrypted copy) is verified in full.
//! * **Hash-indexed directories** (ext4's `dir_index`, one level deep). A
//!   directory's logical block 0 is a [`DirIndex`]: `(hash, leaf)` pairs
//!   sorted by hash, the hash being the CRC-32C of a name. Every other
//!   block is a leaf of 64-byte entries, and each entry lives in the leaf
//!   whose hash range covers its name; a fresh directory is an index and
//!   one empty leaf. `lookup`, `create`, `mkdir` and `unlink` read the
//!   index and that one leaf, so their cost does not grow with the
//!   directory. An insert takes the leaf's first free slot; a full leaf
//!   first splits at its median hash into a newly appended block (entries
//!   with equal hashes stay together); an unlink clears its slot and never
//!   merges leaves. `readdir` and fsck walk the leaves in index order. The
//!   index and the leaf are read and validated on every operation, not
//!   cached, so a redirected LBA under either is still followed or
//!   reported as corrupted. A directory grows until its index holds
//!   [`DIR_INDEX_LIMIT`] leaves or its extent map holds
//!   [`EXTENTS_PER_LEAF`] extents, whichever comes first, and then returns
//!   [`FsError::NoSpace`].
//! * Directories always use extent addressing; regular files choose
//!   per-inode between checksummed extents and unchecksummed indirect
//!   blocks, as in ext4.

use std::sync::Arc;

use ssdhammer_simkit::record::word;
use ssdhammer_simkit::telemetry::{CounterHandle, Telemetry};
use ssdhammer_simkit::{BlockDevice, Lba, StorageError, BLOCK_SIZE};

use crate::error::{FsError, FsResult};
use crate::layout::{
    name_hash, AddressingMode, DirIndex, Dirent, DirentRef, Extent, FileType, FsBlock, Ino, Inode,
    InodeMap, SuperBlock, DIRECT_PTRS, DIRENT_SIZE, DIR_INDEX_LIMIT, EXTENT_MAGIC, INLINE_EXTENTS,
    INODES_PER_BLOCK, INODE_SIZE, MAX_NAME, PTRS_PER_BLOCK, ROOT_INO,
};

/// Extents per depth-1 leaf block: header(12) + n·12 + crc(4) ≤ 4096.
pub const EXTENTS_PER_LEAF: usize = (BLOCK_SIZE - 12 - 4) / 12;

/// Entry slots per directory leaf.
const DIRENTS_PER_LEAF: usize = BLOCK_SIZE / DIRENT_SIZE;

/// A block as the device returned it: a shared page nothing mutates.
type Page = Arc<[u8; BLOCK_SIZE]>;

/// Who is performing an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credentials {
    /// User id; 0 is root.
    pub uid: u32,
}

impl Credentials {
    /// The superuser.
    #[must_use]
    pub const fn root() -> Credentials {
        Credentials { uid: 0 }
    }

    /// An ordinary user.
    #[must_use]
    pub const fn user(uid: u32) -> Credentials {
        Credentials { uid }
    }

    /// True for the superuser.
    #[must_use]
    pub const fn is_root(&self) -> bool {
        self.uid == 0
    }
}

/// An ext4-like filesystem over a block device.
///
/// # Examples
///
/// ```
/// use ssdhammer_fs::{AddressingMode, Credentials, FileSystem};
/// use ssdhammer_simkit::RamDisk;
///
/// # fn main() -> Result<(), ssdhammer_fs::FsError> {
/// let mut fs = FileSystem::format(RamDisk::new(256))?;
/// let root = Credentials::root();
/// let ino = fs.create("/hello.txt", root, 0o644, AddressingMode::Extents)?;
/// fs.write_file_block(ino, root, 0, &[b'h'; 4096])?;
/// let data = fs.read_file_block(ino, root, 0)?;
/// assert_eq!(data[0], b'h');
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileSystem<S: BlockDevice> {
    dev: S,
    sb: SuperBlock,
    pub(crate) tel: FsHandles,
    /// The block a read-modify-write builds ([`FileSystem::rewrite`]):
    /// bitmap updates, inode writes and indirect-pointer updates copy the
    /// page they read into it once, change it and write it back. Reads that
    /// only inspect a block index the device's page instead.
    scratch: Box<[u8; BLOCK_SIZE]>,
    /// The last extent leaf that passed verification: its page and its
    /// extents.
    leaf_memo: Option<(Page, Arc<[Extent]>)>,
}

/// Handles into the shared [`Telemetry`] registry (metric names `fs.*`).
#[derive(Debug, Clone)]
pub(crate) struct FsHandles {
    pub(crate) registry: Telemetry,
    pub(crate) block_reads: CounterHandle,
    pub(crate) block_writes: CounterHandle,
    pub(crate) fsck_runs: CounterHandle,
    pub(crate) fsck_findings: CounterHandle,
}

impl FsHandles {
    pub(crate) fn bind(registry: Telemetry) -> Self {
        FsHandles {
            block_reads: registry.counter("fs.block_reads"),
            block_writes: registry.counter("fs.block_writes"),
            fsck_runs: registry.counter("fs.fsck_runs"),
            fsck_findings: registry.counter("fs.fsck_findings"),
            registry,
        }
    }
}

impl<S: BlockDevice> FileSystem<S> {
    // ---- lifecycle ---------------------------------------------------------

    /// Formats `dev` and mounts the fresh filesystem.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] for devices too small for metadata, plus I/O
    /// errors.
    pub fn format(mut dev: S) -> FsResult<Self> {
        let total = u32::try_from(dev.capacity_blocks()).map_err(|_| FsError::NoSpace)?;
        let sb = SuperBlock::compute(total)?;
        dev.write(Lba(0), &sb.encode())?;
        // Zero the bitmaps and inode table.
        let zero = [0u8; BLOCK_SIZE];
        for b in sb.block_bitmap_start..sb.data_start {
            dev.write(Lba(u64::from(b)), &zero)?;
        }
        let mut fs = FileSystem {
            dev,
            sb,
            tel: FsHandles::bind(Telemetry::new()),
            scratch: Box::new([0u8; BLOCK_SIZE]),
            leaf_memo: None,
        };
        // Reserve the metadata blocks in the block bitmap.
        for b in 0..sb.data_start {
            fs.bitmap_set(sb.block_bitmap_start, &[b], true)?;
        }
        // Inode 0 is reserved (invalid).
        fs.bitmap_set(sb.inode_bitmap_start, &[0], true)?;
        // Root directory.
        let root_ino = fs.alloc_ino()?;
        debug_assert_eq!(root_ino, ROOT_INO);
        let mut root = Inode::new(FileType::Directory, 0o755, 0, AddressingMode::Extents);
        fs.dir_init(&mut root)?;
        fs.write_inode(root_ino, &root)?;
        Ok(fs)
    }

    /// Mounts an existing filesystem, verifying the superblock.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] when the superblock fails validation.
    pub fn mount(mut dev: S) -> FsResult<Self> {
        let page = read_page(&mut dev, 0)?;
        let sb = SuperBlock::decode(&page)?;
        if u64::from(sb.total_blocks) != dev.capacity_blocks() {
            return Err(FsError::Corrupted(
                "superblock size does not match device".into(),
            ));
        }
        Ok(FileSystem {
            dev,
            sb,
            tel: FsHandles::bind(Telemetry::new()),
            scratch: Box::new([0u8; BLOCK_SIZE]),
            leaf_memo: None,
        })
    }

    /// The shared registry this filesystem records into.
    #[must_use]
    pub fn shared_telemetry(&self) -> Telemetry {
        self.tel.registry.clone()
    }

    /// Rebinds this filesystem's metrics onto `telemetry` (e.g. the shared
    /// registry of the `Ssd` it is mounted on). Counts recorded before the
    /// switch stay in the old registry, so attach right after mount.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tel = FsHandles::bind(telemetry.clone());
    }

    /// Consumes the filesystem, returning the device.
    #[must_use]
    pub fn into_device(self) -> S {
        self.dev
    }

    /// The underlying device (e.g. to inspect FTL state in experiments).
    pub fn device_mut(&mut self) -> &mut S {
        &mut self.dev
    }

    /// The superblock (read-only).
    #[must_use]
    pub fn superblock(&self) -> &SuperBlock {
        &self.sb
    }

    /// Enables or disables §5's extents-only policy: when on, creating
    /// indirect-addressed files fails with [`FsError::PermissionDenied`].
    ///
    /// # Errors
    ///
    /// I/O errors persisting the superblock.
    pub fn set_extents_only(&mut self, on: bool) -> FsResult<()> {
        self.sb.extents_only = on;
        self.dev.write(Lba(0), &self.sb.encode())?;
        Ok(())
    }

    // ---- low-level device access -------------------------------------------

    /// Reads `block`: the device's page, not a copy.
    fn read_block(&mut self, block: FsBlock) -> FsResult<Page> {
        self.tel.block_reads.incr();
        read_page(&mut self.dev, block)
    }

    fn write_raw(&mut self, block: FsBlock, buf: &[u8; BLOCK_SIZE]) -> FsResult<()> {
        self.tel.block_writes.incr();
        self.dev.write(Lba(u64::from(block)), buf)?;
        Ok(())
    }

    /// Writes `page`, as read from `block`, back to it with `edit` applied:
    /// the one copy a read-modify-write makes, into the scratch block.
    fn rewrite(
        &mut self,
        block: FsBlock,
        page: &[u8; BLOCK_SIZE],
        edit: impl FnOnce(&mut [u8; BLOCK_SIZE]),
    ) -> FsResult<()> {
        *self.scratch = *page;
        edit(&mut self.scratch);
        self.tel.block_writes.incr();
        self.dev.write(Lba(u64::from(block)), &self.scratch[..])?;
        Ok(())
    }

    // ---- bitmaps -----------------------------------------------------------

    fn bitmap_get(&mut self, start: u32, index: u32) -> FsResult<bool> {
        let block = start + index / (BLOCK_SIZE as u32 * 8);
        let bit = index % (BLOCK_SIZE as u32 * 8);
        let page = self.read_block(block)?;
        Ok(page[(bit / 8) as usize] & (1 << (bit % 8)) != 0)
    }

    /// Sets or clears the bits `indices` of the bitmap starting at block
    /// `start`, reading and writing each bitmap block once.
    fn bitmap_set(&mut self, start: u32, indices: &[u32], value: bool) -> FsResult<()> {
        const BITS: u32 = BLOCK_SIZE as u32 * 8;
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        for run in sorted.chunk_by(|a, b| a / BITS == b / BITS) {
            let block = start + run[0] / BITS;
            let page = self.read_block(block)?;
            self.rewrite(block, &page, |bitmap| {
                for &index in run {
                    let bit = index % BITS;
                    let byte = &mut bitmap[(bit / 8) as usize];
                    if value {
                        *byte |= 1 << (bit % 8);
                    } else {
                        *byte &= !(1 << (bit % 8));
                    }
                }
            })?;
        }
        Ok(())
    }

    /// Sets and returns the lowest clear bit in `first..limit` of the bitmap
    /// starting at block `start`, reading each bitmap block at most once.
    fn alloc_bit(&mut self, start: u32, first: u32, limit: u32) -> FsResult<u32> {
        const BITS: u32 = BLOCK_SIZE as u32 * 8;
        for bb in first / BITS..limit.div_ceil(BITS) {
            let page = self.read_block(start + bb)?;
            // Bits below `first` count as taken.
            let Some(bit) = lowest_clear_bit(&page, first.saturating_sub(bb * BITS)) else {
                continue;
            };
            if bb * BITS + bit >= limit {
                return Err(FsError::NoSpace);
            }
            self.rewrite(start + bb, &page, |bitmap| {
                bitmap[(bit / 8) as usize] |= 1 << (bit % 8);
            })?;
            return Ok(bb * BITS + bit);
        }
        Err(FsError::NoSpace)
    }

    /// Allocates the first free data block.
    fn alloc_block(&mut self) -> FsResult<FsBlock> {
        self.alloc_bit(self.sb.block_bitmap_start, 0, self.sb.total_blocks)
    }

    /// Frees the data blocks `blocks`, reading and writing each bitmap
    /// block once.
    fn free_blocks(&mut self, blocks: &[FsBlock]) -> FsResult<()> {
        let (data_start, total) = (self.sb.data_start, self.sb.total_blocks);
        if let Some(b) = blocks.iter().find(|&&b| b < data_start || b >= total) {
            return Err(FsError::Corrupted(format!("freeing non-data block {b}")));
        }
        self.bitmap_set(self.sb.block_bitmap_start, blocks, false)?;
        // TRIM the freed blocks so the FTL can drop the mappings (gives the
        // attacker the fast unmapped-read path the paper mentions).
        for &b in blocks {
            self.dev.trim(Lba(u64::from(b)))?;
        }
        Ok(())
    }

    /// Allocates the lowest free inode; inode 0 is never handed out.
    fn alloc_ino(&mut self) -> FsResult<Ino> {
        self.alloc_bit(self.sb.inode_bitmap_start, 1, self.sb.inode_count)
            .map(Ino)
    }

    fn free_ino(&mut self, ino: Ino) -> FsResult<()> {
        self.bitmap_set(self.sb.inode_bitmap_start, &[ino.0], false)
    }

    /// True when `ino` is allocated.
    fn ino_allocated(&mut self, ino: Ino) -> FsResult<bool> {
        if ino.0 == 0 || ino.0 >= self.sb.inode_count {
            return Ok(false);
        }
        self.bitmap_get(self.sb.inode_bitmap_start, ino.0)
    }

    // ---- inode table -------------------------------------------------------

    /// Reads an inode from the table.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for unallocated inodes; [`FsError::Corrupted`]
    /// when the stored inode fails validation.
    pub fn read_inode(&mut self, ino: Ino) -> FsResult<Inode> {
        if !self.ino_allocated(ino)? {
            return Err(FsError::NotFound);
        }
        let block = self.sb.inode_table_start + ino.0 / INODES_PER_BLOCK as u32;
        let page = self.read_block(block)?;
        let (inodes, _) = page.as_chunks::<INODE_SIZE>();
        Inode::decode(&inodes[ino.0 as usize % INODES_PER_BLOCK])
    }

    fn write_inode(&mut self, ino: Ino, inode: &Inode) -> FsResult<()> {
        let block = self.sb.inode_table_start + ino.0 / INODES_PER_BLOCK as u32;
        let offset = (ino.0 as usize % INODES_PER_BLOCK) * INODE_SIZE;
        let page = self.read_block(block)?;
        self.rewrite(block, &page, |table| {
            table[offset..offset + INODE_SIZE].copy_from_slice(&inode.encode());
        })
    }

    // ---- permissions -------------------------------------------------------

    fn can_read(inode: &Inode, cred: Credentials) -> bool {
        cred.is_root()
            || (cred.uid == inode.uid && inode.perms & 0o400 != 0)
            || (cred.uid != inode.uid && inode.perms & 0o004 != 0)
    }

    fn can_write(inode: &Inode, cred: Credentials) -> bool {
        cred.is_root()
            || (cred.uid == inode.uid && inode.perms & 0o200 != 0)
            || (cred.uid != inode.uid && inode.perms & 0o002 != 0)
    }

    // ---- block mapping -----------------------------------------------------

    /// Resolves file-logical `logical` to a filesystem block, without
    /// allocating. `None` = hole.
    fn map_block(&mut self, inode: &Inode, logical: u32) -> FsResult<Option<FsBlock>> {
        match &inode.map {
            InodeMap::Extents { inline, leaf } => {
                if let Some(b) = extent_find(inline, logical) {
                    return Ok(Some(b));
                }
                match leaf {
                    Some(leaf_block) => {
                        Ok(extent_find(&self.read_extent_leaf(*leaf_block)?, logical))
                    }
                    None => Ok(None),
                }
            }
            InodeMap::Indirect {
                direct,
                single,
                double,
            } => {
                let l = logical as usize;
                if l < DIRECT_PTRS {
                    return Ok(nonzero(direct[l]));
                }
                let l = l - DIRECT_PTRS;
                if l < PTRS_PER_BLOCK {
                    if *single == 0 {
                        return Ok(None);
                    }
                    // No checksum verification — the indirect block's
                    // pointers are trusted as read (§4.2).
                    let ptrs = self.read_block(*single)?;
                    return Ok(nonzero(read_ptr(&ptrs, l)));
                }
                let l = l - PTRS_PER_BLOCK;
                if l < PTRS_PER_BLOCK * PTRS_PER_BLOCK {
                    if *double == 0 {
                        return Ok(None);
                    }
                    let outer = self.read_block(*double)?;
                    let mid = read_ptr(&outer, l / PTRS_PER_BLOCK);
                    if mid == 0 {
                        return Ok(None);
                    }
                    let ptrs = self.read_block(mid)?;
                    return Ok(nonzero(read_ptr(&ptrs, l % PTRS_PER_BLOCK)));
                }
                Err(FsError::FileTooLarge)
            }
        }
    }

    /// Like [`FileSystem::map_block`] but allocates the backing block (and
    /// any needed indirect/leaf blocks), updating `inode` in place.
    fn map_block_alloc(&mut self, inode: &mut Inode, logical: u32) -> FsResult<FsBlock> {
        if let Some(b) = self.map_block(inode, logical)? {
            return Ok(b);
        }
        let data = self.alloc_block()?;
        match &mut inode.map {
            InodeMap::Extents { .. } => {
                if let Err(e) = self.extent_insert(inode, logical, data) {
                    self.free_blocks(&[data])?;
                    return Err(e);
                }
            }
            InodeMap::Indirect {
                direct,
                single,
                double,
            } => {
                let l = logical as usize;
                if l < DIRECT_PTRS {
                    direct[l] = data;
                } else if l - DIRECT_PTRS < PTRS_PER_BLOCK {
                    let li = l - DIRECT_PTRS;
                    let single_block = if *single == 0 {
                        let nb = self.alloc_block()?;
                        self.write_raw(nb, &[0u8; BLOCK_SIZE])?;
                        *single = nb;
                        nb
                    } else {
                        *single
                    };
                    let ptrs = self.read_block(single_block)?;
                    self.rewrite(single_block, &ptrs, |p| write_ptr(p, li, data))?;
                } else if l - DIRECT_PTRS - PTRS_PER_BLOCK < PTRS_PER_BLOCK * PTRS_PER_BLOCK {
                    let li = l - DIRECT_PTRS - PTRS_PER_BLOCK;
                    let double_block = if *double == 0 {
                        let nb = self.alloc_block()?;
                        self.write_raw(nb, &[0u8; BLOCK_SIZE])?;
                        *double = nb;
                        nb
                    } else {
                        *double
                    };
                    let outer = self.read_block(double_block)?;
                    let mut mid = read_ptr(&outer, li / PTRS_PER_BLOCK);
                    if mid == 0 {
                        mid = self.alloc_block()?;
                        self.write_raw(mid, &[0u8; BLOCK_SIZE])?;
                        self.rewrite(double_block, &outer, |p| {
                            write_ptr(p, li / PTRS_PER_BLOCK, mid);
                        })?;
                    }
                    let inner = self.read_block(mid)?;
                    self.rewrite(mid, &inner, |p| write_ptr(p, li % PTRS_PER_BLOCK, data))?;
                } else {
                    self.free_blocks(&[data])?;
                    return Err(FsError::FileTooLarge);
                }
            }
        }
        Ok(data)
    }

    /// Inserts `(logical → data)` into an extent map, merging with an
    /// adjacent extent when possible and spilling to a leaf block when the
    /// inline area fills.
    fn extent_insert(&mut self, inode: &mut Inode, logical: u32, data: FsBlock) -> FsResult<()> {
        let InodeMap::Extents { inline, leaf } = &mut inode.map else {
            unreachable!("caller matched extents");
        };
        // Try to extend the extent ending right before `logical`.
        for e in inline.iter_mut() {
            if e.logical + e.len == logical && e.start + e.len == data {
                e.len += 1;
                return Ok(());
            }
        }
        if inline.len() < INLINE_EXTENTS && leaf.is_none() {
            inline.push(Extent {
                logical,
                len: 1,
                start: data,
            });
            inline.sort_by_key(|e| e.logical);
            return Ok(());
        }
        // Spill path: move everything into (or append to) the leaf block.
        let leaf_block = match *leaf {
            Some(b) => b,
            None => {
                let b = self.alloc_block()?;
                let moved = std::mem::take(inline);
                *leaf = Some(b);
                self.write_extent_leaf(b, &moved)?;
                b
            }
        };
        let mut extents = self.read_extent_leaf(leaf_block)?.to_vec();
        for e in extents.iter_mut() {
            if e.logical + e.len == logical && e.start + e.len == data {
                e.len += 1;
                self.write_extent_leaf(leaf_block, &extents)?;
                return Ok(());
            }
        }
        if extents.len() >= EXTENTS_PER_LEAF {
            return Err(FsError::FileTooLarge);
        }
        extents.push(Extent {
            logical,
            len: 1,
            start: data,
        });
        extents.sort_by_key(|e| e.logical);
        self.write_extent_leaf(leaf_block, &extents)
    }

    /// Validates an extent leaf block's magic, checksum, and entry count,
    /// returning the number of stored extents.
    fn check_extent_leaf(buf: &[u8; BLOCK_SIZE]) -> FsResult<usize> {
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != EXTENT_MAGIC {
            return Err(FsError::Corrupted(format!(
                "extent leaf magic {magic:#06x}"
            )));
        }
        let stored = word(buf, BLOCK_SIZE / 4 - 1);
        if ssdhammer_simkit::crc32c(&buf[..BLOCK_SIZE - 4]) != stored {
            return Err(FsError::Corrupted("extent leaf checksum mismatch".into()));
        }
        let entries = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        if entries > EXTENTS_PER_LEAF {
            return Err(FsError::Corrupted(format!(
                "extent leaf entry count {entries}"
            )));
        }
        Ok(entries)
    }

    /// Reads and verifies a depth-1 extent leaf block (checksummed like
    /// ext4's). The block is always read; a page that is the last verified
    /// leaf's page has the same bytes, so it reuses that leaf's extents.
    fn read_extent_leaf(&mut self, block: FsBlock) -> FsResult<Arc<[Extent]>> {
        let page = self.read_block(block)?;
        if let Some((seen, extents)) = &self.leaf_memo {
            if Arc::ptr_eq(seen, &page) {
                return Ok(Arc::clone(extents));
            }
        }
        let entries = Self::check_extent_leaf(&page)?;
        let (records, _) = page[12..12 + entries * 12].as_chunks::<12>();
        let extents: Arc<[Extent]> = records
            .iter()
            .map(|e| Extent {
                logical: word(e, 0),
                len: word(e, 1),
                start: word(e, 2),
            })
            .collect();
        self.leaf_memo = Some((page, Arc::clone(&extents)));
        Ok(extents)
    }

    /// An extent map's whole extent list: the inline extents, then the
    /// leaf's, read and verified once.
    fn all_extents(&mut self, inline: &[Extent], leaf: Option<FsBlock>) -> FsResult<Vec<Extent>> {
        let mut all = inline.to_vec();
        if let Some(leaf_block) = leaf {
            all.extend_from_slice(&self.read_extent_leaf(leaf_block)?);
        }
        Ok(all)
    }

    fn write_extent_leaf(&mut self, block: FsBlock, extents: &[Extent]) -> FsResult<()> {
        let mut buf = [0u8; BLOCK_SIZE];
        buf[0..2].copy_from_slice(&EXTENT_MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&(extents.len() as u16).to_le_bytes());
        buf[4..6].copy_from_slice(&(EXTENTS_PER_LEAF as u16).to_le_bytes());
        for (i, e) in extents.iter().enumerate() {
            let off = 12 + i * 12;
            buf[off..off + 4].copy_from_slice(&e.logical.to_le_bytes());
            buf[off + 4..off + 8].copy_from_slice(&e.len.to_le_bytes());
            buf[off + 8..off + 12].copy_from_slice(&e.start.to_le_bytes());
        }
        let crc = ssdhammer_simkit::crc32c(&buf[..BLOCK_SIZE - 4]);
        buf[BLOCK_SIZE - 4..].copy_from_slice(&crc.to_le_bytes());
        self.write_raw(block, &buf)
    }

    // ---- directories -------------------------------------------------------

    /// A directory's extent list, resolved once per operation: one
    /// extent-leaf read, not one per block. `None` for a directory whose
    /// inode decodes with indirect pointers; its blocks resolve one by one.
    fn dir_extents(&mut self, dir: &Inode) -> FsResult<Option<Vec<Extent>>> {
        match &dir.map {
            InodeMap::Extents { inline, leaf } => Ok(Some(self.all_extents(inline, *leaf)?)),
            InodeMap::Indirect { .. } => Ok(None),
        }
    }

    /// The filesystem block behind directory-logical block `logical`.
    fn dir_block(
        &mut self,
        dir: &Inode,
        extents: Option<&[Extent]>,
        logical: u32,
    ) -> FsResult<FsBlock> {
        let fsb = match extents {
            Some(extents) => extent_find(extents, logical),
            None => self.map_block(dir, logical)?,
        };
        fsb.ok_or_else(|| FsError::Corrupted(format!("directory block {logical} is a hole")))
    }

    /// Reads and validates `dir`'s index, with the block it is stored in.
    fn dir_index(
        &mut self,
        dir: &Inode,
        extents: Option<&[Extent]>,
    ) -> FsResult<(FsBlock, DirIndex)> {
        let fsb = self.dir_block(dir, extents, 0)?;
        let page = self.read_block(fsb)?;
        let blocks = u32::try_from(dir.size / BLOCK_SIZE as u64).unwrap_or(u32::MAX);
        Ok((fsb, DirIndex::decode(&page, blocks)?))
    }

    /// Reads `dir`'s index and the one leaf `name` hashes to, finding the
    /// named entry or, before it, the leaf's first free slot.
    fn dir_leaf(&mut self, dir: &Inode, name: &str) -> FsResult<DirLeaf> {
        let extents = self.dir_extents(dir)?;
        let (index_fsb, index) = self.dir_index(dir, extents.as_deref())?;
        let hash = name_hash(name);
        let pos = index.position(hash);
        let fsb = self.dir_block(dir, extents.as_deref(), index.entries[pos].1)?;
        let mut leaf = DirLeaf {
            index_fsb,
            index,
            hash,
            pos,
            fsb,
            block: self.read_block(fsb)?,
            hit: None,
            free: None,
        };
        for slot in 0..DIRENTS_PER_LEAF {
            match DirentRef::decode(leaf.slot(slot))? {
                Some(d) if d.name == name => {
                    leaf.hit = Some((slot, d.to_dirent()));
                    break;
                }
                None if leaf.free.is_none() => leaf.free = Some(slot),
                _ => {}
            }
        }
        Ok(leaf)
    }

    /// Walks `dir`'s leaves in index order, handing `visit` each live entry
    /// in slot order with its leaf's position in the index; `visit` stops
    /// the walk by returning `true`. Returns the index.
    pub(crate) fn dir_walk(
        &mut self,
        dir: &Inode,
        mut visit: impl FnMut(usize, DirentRef<'_>) -> bool,
    ) -> FsResult<DirIndex> {
        let extents = self.dir_extents(dir)?;
        let (_, index) = self.dir_index(dir, extents.as_deref())?;
        for pos in 0..index.entries.len() {
            let fsb = self.dir_block(dir, extents.as_deref(), index.entries[pos].1)?;
            let page = self.read_block(fsb)?;
            for slot in page.chunks_exact(DIRENT_SIZE) {
                if let Some(d) = DirentRef::decode(slot)? {
                    if visit(pos, d) {
                        return Ok(index);
                    }
                }
            }
        }
        Ok(index)
    }

    /// Gives a fresh directory inode its index (logical block 0) and one
    /// empty leaf (logical block 1).
    fn dir_init(&mut self, dir: &mut Inode) -> FsResult<()> {
        let index = self.map_block_alloc(dir, 0)?;
        let leaf = self.map_block_alloc(dir, 1)?;
        self.write_raw(index, &DirIndex::fresh().encode())?;
        self.write_raw(leaf, &[0u8; BLOCK_SIZE])?;
        dir.size = 2 * BLOCK_SIZE as u64;
        Ok(())
    }

    /// The slot a new entry takes in `leaf`: its first free one. A full
    /// leaf first splits at its median hash into a block appended to the
    /// directory, and `leaf` becomes the half the new name's hash selects.
    /// Entries with equal hashes stay together: when the median's run of
    /// equal hashes reaches down to the leaf's lowest hash, the split moves
    /// up to the next larger hash. Entries at or above the split hash move,
    /// in slot order, to the front of the new leaf; the rest keep their
    /// slots.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when the index is full, every entry in the leaf
    /// has the same hash, or the directory cannot grow by a block.
    fn dir_make_room(
        &mut self,
        dir_ino: Ino,
        dir: &mut Inode,
        leaf: &mut DirLeaf,
    ) -> FsResult<usize> {
        if let Some(slot) = leaf.free {
            return Ok(slot);
        }
        if leaf.index.entries.len() >= DIR_INDEX_LIMIT {
            return Err(FsError::NoSpace);
        }
        let mut hashes = [0u32; DIRENTS_PER_LEAF];
        for (slot, hash) in hashes.iter_mut().enumerate() {
            match DirentRef::decode(leaf.slot(slot))? {
                Some(d) => *hash = name_hash(d.name),
                None => return Ok(slot),
            }
        }
        let mut sorted = hashes;
        sorted.sort_unstable();
        let median = sorted[DIRENTS_PER_LEAF / 2];
        let split = if median > sorted[0] {
            median
        } else {
            *sorted
                .iter()
                .find(|&&h| h > median)
                .ok_or(FsError::NoSpace)?
        };
        let logical = u32::try_from(dir.size / BLOCK_SIZE as u64).map_err(|_| FsError::NoSpace)?;
        // A full extent map ends the directory's growth like a full index.
        let fsb = self.map_block_alloc(dir, logical).map_err(|e| match e {
            FsError::FileTooLarge => FsError::NoSpace,
            e => e,
        })?;
        let mut moved = [0u8; BLOCK_SIZE];
        let mut count = 0;
        let mut first_moved = DIRENTS_PER_LEAF;
        for (slot, &hash) in hashes.iter().enumerate() {
            if hash >= split {
                let entry = leaf.slot_mut(slot);
                moved[count * DIRENT_SIZE..(count + 1) * DIRENT_SIZE].copy_from_slice(entry);
                entry.fill(0);
                first_moved = first_moved.min(slot);
                count += 1;
            }
        }
        self.write_raw(fsb, &moved)?;
        self.write_raw(leaf.fsb, &leaf.block)?;
        leaf.index.entries.insert(leaf.pos + 1, (split, logical));
        self.write_raw(leaf.index_fsb, &leaf.index.encode())?;
        dir.size += BLOCK_SIZE as u64;
        self.write_inode(dir_ino, dir)?;
        if leaf.hash < split {
            return Ok(first_moved);
        }
        leaf.pos += 1;
        leaf.fsb = fsb;
        leaf.block = Arc::new(moved);
        Ok(count)
    }

    // ---- path resolution ---------------------------------------------------

    fn split_path(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidName);
        }
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        for p in &parts {
            if p.len() > MAX_NAME {
                return Err(FsError::InvalidName);
            }
        }
        Ok(parts)
    }

    /// Follows `parts` down from the root, reading one index and one leaf
    /// per component.
    fn walk(&mut self, parts: &[&str]) -> FsResult<Ino> {
        let mut cur = ROOT_INO;
        for part in parts {
            let inode = self.read_inode(cur)?;
            if inode.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            match self.dir_leaf(&inode, part)?.hit {
                Some((_, d)) => cur = d.ino,
                None => return Err(FsError::NotFound),
            }
        }
        Ok(cur)
    }

    /// Resolves an absolute path to its inode number.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::NotADirectory`], or corruption/IO
    /// errors.
    pub fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        let parts = Self::split_path(path)?;
        self.walk(&parts)
    }

    /// Resolves the parent directory of `path`, returning `(parent_ino,
    /// final_name)`.
    fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let parts = Self::split_path(path)?;
        let Some((&name, ancestors)) = parts.split_last() else {
            return Err(FsError::InvalidName);
        };
        Ok((self.walk(ancestors)?, name))
    }

    /// Links a fresh inode at `path`: the parent's index and the one leaf
    /// the name hashes to both reject an existing name and give the slot
    /// for the new entry. A new directory gets its index and first leaf.
    fn add_entry(&mut self, path: &str, cred: Credentials, mut inode: Inode) -> FsResult<Ino> {
        let (parent_ino, name) = self.resolve_parent(path)?;
        let mut parent = self.read_inode(parent_ino)?;
        if parent.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !Self::can_write(&parent, cred) {
            return Err(FsError::PermissionDenied);
        }
        let mut leaf = self.dir_leaf(&parent, name)?;
        if leaf.hit.is_some() {
            return Err(FsError::Exists);
        }
        let slot = self.dir_make_room(parent_ino, &mut parent, &mut leaf)?;
        let ino = self.alloc_ino()?;
        if inode.ftype == FileType::Directory {
            if let Err(e) = self.dir_init(&mut inode) {
                // Out of space part-way: give back what was taken.
                self.release_blocks(&inode)?;
                self.free_ino(ino)?;
                return Err(e);
            }
        }
        self.write_inode(ino, &inode)?;
        let entry = Dirent {
            ino,
            ftype: inode.ftype,
            name: name.to_owned(),
        };
        leaf.slot_mut(slot).copy_from_slice(&entry.encode());
        self.write_raw(leaf.fsb, &leaf.block)?;
        Ok(ino)
    }

    // ---- public operations -------------------------------------------------

    /// Creates a regular file. Returns its inode number.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::PermissionDenied`] (including when
    /// the extents-only policy rejects `Indirect`), path errors, and I/O
    /// errors.
    pub fn create(
        &mut self,
        path: &str,
        cred: Credentials,
        perms: u16,
        addressing: AddressingMode,
    ) -> FsResult<Ino> {
        if self.sb.extents_only && addressing == AddressingMode::Indirect {
            return Err(FsError::PermissionDenied);
        }
        let inode = Inode::new(FileType::Regular, perms, cred.uid, addressing);
        self.add_entry(path, cred, inode)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// Same classes as [`FileSystem::create`].
    pub fn mkdir(&mut self, path: &str, cred: Credentials, perms: u16) -> FsResult<Ino> {
        let inode = Inode::new(
            FileType::Directory,
            perms,
            cred.uid,
            AddressingMode::Extents,
        );
        self.add_entry(path, cred, inode)
    }

    /// Lists a directory: its leaves in index order, each in slot order.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`], permission, and I/O errors.
    pub fn readdir(&mut self, path: &str, cred: Credentials) -> FsResult<Vec<Dirent>> {
        let ino = self.lookup(path)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !Self::can_read(&inode, cred) {
            return Err(FsError::PermissionDenied);
        }
        let mut out = Vec::new();
        self.dir_walk(&inode, |_, d| {
            out.push(d.to_dirent());
            false
        })?;
        Ok(out)
    }

    /// Writes the 4 KiB block at file-logical index `logical`, allocating as
    /// needed (sparse files supported: unwritten lower blocks remain holes).
    ///
    /// # Errors
    ///
    /// Permission, space, and I/O errors; [`FsError::IsADirectory`] for
    /// directories.
    pub fn write_file_block(
        &mut self,
        ino: Ino,
        cred: Credentials,
        logical: u32,
        data: &[u8; BLOCK_SIZE],
    ) -> FsResult<()> {
        let mut inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        if !Self::can_write(&inode, cred) {
            return Err(FsError::PermissionDenied);
        }
        let fsb = self.map_block_alloc(&mut inode, logical)?;
        self.write_raw(fsb, data)?;
        inode.size = inode.size.max((u64::from(logical) + 1) * BLOCK_SIZE as u64);
        self.write_inode(ino, &inode)
    }

    /// Reads the 4 KiB block at file-logical index `logical`. Holes read as
    /// zeroes.
    ///
    /// # Errors
    ///
    /// Permission and I/O errors; [`FsError::Corrupted`] when extent
    /// metadata fails its checksum.
    pub fn read_file_block(
        &mut self,
        ino: Ino,
        cred: Credentials,
        logical: u32,
    ) -> FsResult<[u8; BLOCK_SIZE]> {
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        if !Self::can_read(&inode, cred) {
            return Err(FsError::PermissionDenied);
        }
        match self.map_block(&inode, logical)? {
            None => Ok([0u8; BLOCK_SIZE]),
            Some(fsb) => Ok(*self.read_block(fsb)?),
        }
    }

    /// Removes a regular file, freeing its inode and blocks: clears its
    /// slot in the leaf its name hashes to.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories, permission and I/O errors.
    pub fn unlink(&mut self, path: &str, cred: Credentials) -> FsResult<()> {
        let (parent_ino, name) = self.resolve_parent(path)?;
        let parent = self.read_inode(parent_ino)?;
        if !Self::can_write(&parent, cred) {
            return Err(FsError::PermissionDenied);
        }
        let mut leaf = self.dir_leaf(&parent, name)?;
        let Some((slot, entry)) = leaf.hit.take() else {
            return Err(FsError::NotFound);
        };
        if entry.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let inode = self.read_inode(entry.ino)?;
        leaf.slot_mut(slot).fill(0);
        self.write_raw(leaf.fsb, &leaf.block)?;
        self.release_blocks(&inode)?;
        self.free_ino(entry.ino)
    }

    /// All filesystem blocks a file references (data + its metadata blocks:
    /// indirect blocks and extent leaves). Used by unlink and fsck.
    pub(crate) fn referenced_blocks(&mut self, inode: &Inode) -> FsResult<Vec<FsBlock>> {
        let mut out = Vec::new();
        match &inode.map {
            InodeMap::Extents { inline, leaf } => {
                out.extend(*leaf);
                for e in &self.all_extents(inline, *leaf)? {
                    for i in 0..e.len {
                        out.push(e.start + i);
                    }
                }
            }
            InodeMap::Indirect {
                direct,
                single,
                double,
            } => {
                out.extend(direct.iter().copied().filter(|&b| b != 0));
                if *single != 0 {
                    out.push(*single);
                    let ptrs = self.read_block(*single)?;
                    out.extend(nonzero_ptrs(&ptrs));
                }
                if *double != 0 {
                    out.push(*double);
                    let outer = self.read_block(*double)?;
                    for mid in nonzero_ptrs(&outer) {
                        out.push(mid);
                        let ptrs = self.read_block(mid)?;
                        out.extend(nonzero_ptrs(&ptrs));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether `b` is marked allocated in the block bitmap (fsck helper).
    pub(crate) fn block_allocated(&mut self, b: FsBlock) -> FsResult<bool> {
        self.bitmap_get(self.sb.block_bitmap_start, b)
    }

    /// Inode allocation state (fsck helper).
    pub(crate) fn ino_allocated_for_fsck(&mut self, ino: Ino) -> FsResult<bool> {
        self.ino_allocated(ino)
    }

    fn release_blocks(&mut self, inode: &Inode) -> FsResult<()> {
        let mut blocks = self.referenced_blocks(inode)?;
        // A corrupted map may reference out-of-range or metadata blocks;
        // skip those rather than cascading the damage.
        let (data_start, total) = (self.sb.data_start, self.sb.total_blocks);
        blocks.retain(|&b| b >= data_start && b < total);
        self.free_blocks(&blocks)
    }
}

/// Resolves file-logical `logical` through `extents`, first match wins.
fn extent_find(extents: &[Extent], logical: u32) -> Option<FsBlock> {
    extents
        .iter()
        .find(|e| e.logical <= logical && logical < e.logical + e.len)
        .map(|e| e.start + (logical - e.logical))
}

/// What one directory operation read: the index, and the leaf a name
/// hashes to with its bytes as read, so the operation writes back the
/// block it read. The leaf is the device's page until its first slot
/// change, which copies it.
struct DirLeaf {
    index_fsb: FsBlock,
    index: DirIndex,
    /// The name's hash.
    hash: u32,
    /// Position of the leaf's entry in `index`.
    pos: usize,
    fsb: FsBlock,
    block: Page,
    /// The named entry and its slot.
    hit: Option<(usize, Dirent)>,
    /// The leaf's first free slot (before the entry, with one).
    free: Option<usize>,
}

impl DirLeaf {
    fn slot(&self, slot: usize) -> &[u8] {
        &self.block[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE]
    }

    fn slot_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.block)[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE]
    }
}

/// Reads `block` of `dev` as one block-sized page.
fn read_page<S: BlockDevice>(dev: &mut S, block: FsBlock) -> FsResult<Page> {
    let page = dev.read(Lba(u64::from(block)))?;
    Page::try_from(page).map_err(|page| {
        FsError::Io(StorageError::BadBufferLen {
            got: page.len(),
            expected: BLOCK_SIZE,
        })
    })
}

/// The lowest clear bit at or above `from` in one bitmap block, testing 64
/// bits at a time. Bit `i` is bit `i % 8` of byte `i / 8`.
fn lowest_clear_bit(bitmap: &[u8; BLOCK_SIZE], from: u32) -> Option<u32> {
    let (words, _) = bitmap.as_chunks::<8>();
    let first = (from / 64) as usize;
    words.iter().enumerate().skip(first).find_map(|(i, word)| {
        let mut taken = u64::from_le_bytes(*word);
        if i == first {
            taken |= (1u64 << (from % 64)) - 1;
        }
        (taken != u64::MAX).then(|| i as u32 * 64 + taken.trailing_ones())
    })
}

fn nonzero(b: FsBlock) -> Option<FsBlock> {
    (b != 0).then_some(b)
}

fn read_ptr(buf: &[u8; BLOCK_SIZE], index: usize) -> FsBlock {
    word(buf, index)
}

/// The nonzero pointers of an indirect block, in order.
fn nonzero_ptrs(buf: &[u8; BLOCK_SIZE]) -> impl Iterator<Item = FsBlock> + '_ {
    let (ptrs, _) = buf.as_chunks::<4>();
    ptrs.iter().map(|p| word(p, 0)).filter(|&p| p != 0)
}

fn write_ptr(buf: &mut [u8; BLOCK_SIZE], index: usize, value: FsBlock) {
    buf[index * 4..index * 4 + 4].copy_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsck::FsckIssue;
    use ssdhammer_simkit::RamDisk;

    fn fs() -> FileSystem<RamDisk> {
        FileSystem::format(RamDisk::new(2048)).unwrap()
    }

    fn block_of(byte: u8) -> [u8; BLOCK_SIZE] {
        [byte; BLOCK_SIZE]
    }

    const ROOT: Credentials = Credentials::root();
    const ALICE: Credentials = Credentials::user(1000);
    const BOB: Credentials = Credentials::user(1001);

    #[test]
    fn format_mount_roundtrip() {
        let fs1 = fs();
        let dev = fs1.into_device();
        let fs2 = FileSystem::mount(dev).unwrap();
        assert_eq!(fs2.superblock().total_blocks, 2048);
    }

    #[test]
    fn mount_rejects_garbage() {
        assert!(matches!(
            FileSystem::mount(RamDisk::new(64)),
            Err(FsError::Corrupted(_))
        ));
    }

    /// A device whose pages are not one block long breaks the read
    /// contract; the filesystem reports it as an I/O error.
    #[test]
    fn a_short_page_is_an_io_error() {
        #[derive(Debug)]
        struct ShortPages(RamDisk);
        impl BlockDevice for ShortPages {
            fn capacity_blocks(&self) -> u64 {
                self.0.capacity_blocks()
            }
            fn read(&mut self, lba: Lba) -> ssdhammer_simkit::StorageResult<Arc<[u8]>> {
                Ok(self.0.read(lba)?[..512].into())
            }
            fn write(&mut self, lba: Lba, buf: &[u8]) -> ssdhammer_simkit::StorageResult<()> {
                self.0.write(lba, buf)
            }
            fn trim(&mut self, lba: Lba) -> ssdhammer_simkit::StorageResult<()> {
                self.0.trim(lba)
            }
        }
        assert_eq!(
            FileSystem::mount(ShortPages(fs().into_device())).unwrap_err(),
            FsError::Io(StorageError::BadBufferLen {
                got: 512,
                expected: BLOCK_SIZE
            })
        );
    }

    #[test]
    fn create_write_read_extents() {
        let mut f = fs();
        let ino = f
            .create("/a", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        for i in 0..20u32 {
            f.write_file_block(ino, ROOT, i, &block_of(i as u8))
                .unwrap();
        }
        for i in 0..20u32 {
            assert_eq!(f.read_file_block(ino, ROOT, i).unwrap()[0], i as u8);
        }
        let inode = f.read_inode(ino).unwrap();
        assert_eq!(inode.size, 20 * 4096);
        assert!(matches!(inode.map, InodeMap::Extents { .. }));
    }

    #[test]
    fn create_write_read_indirect() {
        let mut f = fs();
        let ino = f
            .create("/b", ROOT, 0o644, AddressingMode::Indirect)
            .unwrap();
        // Cover direct, single-indirect ranges.
        for i in [0u32, 11, 12, 13, 100] {
            f.write_file_block(ino, ROOT, i, &block_of((i % 251) as u8))
                .unwrap();
        }
        for i in [0u32, 11, 12, 13, 100] {
            assert_eq!(f.read_file_block(ino, ROOT, i).unwrap()[0], (i % 251) as u8);
        }
    }

    #[test]
    fn double_indirect_range_works() {
        let mut f = FileSystem::format(RamDisk::new(4096)).unwrap();
        let ino = f
            .create("/big", ROOT, 0o644, AddressingMode::Indirect)
            .unwrap();
        let logical = (DIRECT_PTRS + PTRS_PER_BLOCK + 5) as u32;
        f.write_file_block(ino, ROOT, logical, &block_of(0xEE))
            .unwrap();
        assert_eq!(f.read_file_block(ino, ROOT, logical).unwrap()[0], 0xEE);
        // Neighboring unwritten block is a hole.
        assert_eq!(f.read_file_block(ino, ROOT, logical + 1).unwrap()[0], 0);
    }

    #[test]
    fn holes_read_zero_both_modes() {
        let mut f = fs();
        for (path, mode) in [
            ("/he", AddressingMode::Extents),
            ("/hi", AddressingMode::Indirect),
        ] {
            let ino = f.create(path, ROOT, 0o644, mode).unwrap();
            // Write only block 12 (like the paper's spray files).
            f.write_file_block(ino, ROOT, 12, &block_of(9)).unwrap();
            for i in 0..12u32 {
                assert_eq!(f.read_file_block(ino, ROOT, i).unwrap(), block_of(0));
            }
            assert_eq!(f.read_file_block(ino, ROOT, 12).unwrap(), block_of(9));
        }
    }

    #[test]
    fn spray_shape_uses_one_indirect_and_one_data_block() {
        // "The attacker creates each file with a hole of 12 blocks … and then
        // stores a single data block mapped using an indirect block" (§4.2).
        let mut f = fs();
        let ino = f
            .create("/spray", ROOT, 0o644, AddressingMode::Indirect)
            .unwrap();
        f.write_file_block(ino, ROOT, 12, &block_of(1)).unwrap();
        let inode = f.read_inode(ino).unwrap();
        let InodeMap::Indirect {
            direct,
            single,
            double,
        } = inode.map
        else {
            panic!("expected indirect map");
        };
        assert!(direct.iter().all(|&d| d == 0), "12-block hole");
        assert_ne!(single, 0, "single-indirect block allocated");
        assert_eq!(double, 0);
    }

    #[test]
    fn directories_nest_and_list() {
        let mut f = fs();
        f.mkdir("/home", ROOT, 0o755).unwrap();
        f.mkdir("/home/alice", ROOT, 0o755).unwrap();
        f.create("/home/alice/notes", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        let entries = f.readdir("/home/alice", ROOT).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "notes");
        assert!(f.lookup("/home/alice/notes").is_ok());
        assert_eq!(f.lookup("/home/bob").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn many_files_in_one_directory() {
        let mut f = FileSystem::format(RamDisk::new(8192)).unwrap();
        for i in 0..200 {
            f.create(&format!("/f{i}"), ROOT, 0o644, AddressingMode::Extents)
                .unwrap();
        }
        assert_eq!(f.readdir("/", ROOT).unwrap().len(), 200);
    }

    #[test]
    fn permissions_enforced() {
        let mut f = fs();
        f.mkdir("/secret", ROOT, 0o700).unwrap();
        let ino = f
            .create("/secret/key", ROOT, 0o600, AddressingMode::Extents)
            .unwrap();
        f.write_file_block(ino, ROOT, 0, &block_of(0x55)).unwrap();
        // Alice cannot read root's 0600 file.
        assert_eq!(
            f.read_file_block(ino, ALICE, 0).unwrap_err(),
            FsError::PermissionDenied
        );
        // Alice cannot create in a 0700 root-owned dir.
        assert_eq!(
            f.create("/secret/mine", ALICE, 0o644, AddressingMode::Extents)
                .unwrap_err(),
            FsError::PermissionDenied
        );
        // World-readable works.
        let pub_ino = f
            .create("/pub", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        f.write_file_block(pub_ino, ROOT, 0, &block_of(1)).unwrap();
        assert!(f.read_file_block(pub_ino, ALICE, 0).is_ok());
        // Alice's own file: Bob can't write it.
        f.mkdir("/home", ROOT, 0o777).unwrap();
        let a_ino = f
            .create("/home/a", ALICE, 0o600, AddressingMode::Extents)
            .unwrap();
        assert_eq!(
            f.write_file_block(a_ino, BOB, 0, &block_of(2)).unwrap_err(),
            FsError::PermissionDenied
        );
    }

    #[test]
    fn unlink_frees_space() {
        let mut f = fs();
        let ino = f
            .create("/t", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        for i in 0..50u32 {
            f.write_file_block(ino, ROOT, i, &block_of(1)).unwrap();
        }
        f.unlink("/t", ROOT).unwrap();
        assert_eq!(f.lookup("/t").unwrap_err(), FsError::NotFound);
        // Space is reusable: create a file of the same size again.
        let ino2 = f
            .create("/t2", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        for i in 0..50u32 {
            f.write_file_block(ino2, ROOT, i, &block_of(2)).unwrap();
        }
    }

    #[test]
    fn extents_only_policy_blocks_indirect_creation() {
        let mut f = fs();
        f.set_extents_only(true).unwrap();
        assert_eq!(
            f.create("/x", ROOT, 0o644, AddressingMode::Indirect)
                .unwrap_err(),
            FsError::PermissionDenied
        );
        assert!(f.create("/y", ROOT, 0o644, AddressingMode::Extents).is_ok());
        // The policy survives a remount.
        let dev = f.into_device();
        let f2 = FileSystem::mount(dev).unwrap();
        assert!(f2.superblock().extents_only);
    }

    #[test]
    fn extent_spill_to_leaf_and_checksum_protection() {
        let mut f = FileSystem::format(RamDisk::new(8192)).unwrap();
        let ino = f
            .create("/frag", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        // Force fragmentation: interleave writes to two files so extents
        // cannot merge, spilling past the 4 inline slots.
        let other = f
            .create("/other", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        for i in 0..40u32 {
            f.write_file_block(ino, ROOT, i, &block_of(3)).unwrap();
            f.write_file_block(other, ROOT, i, &block_of(4)).unwrap();
        }
        let inode = f.read_inode(ino).unwrap();
        let InodeMap::Extents { leaf, .. } = inode.map else {
            panic!()
        };
        let leaf = leaf.expect("should have spilled to a leaf");
        for i in 0..40u32 {
            assert_eq!(f.read_file_block(ino, ROOT, i).unwrap()[0], 3);
        }
        // The lookups verified the leaf and remember its page.
        let page = f.read_block(leaf).unwrap();
        let memo = f.leaf_memo.as_ref().map(|(seen, _)| Arc::clone(seen));
        assert!(memo.is_some_and(|seen| Arc::ptr_eq(&seen, &page)));
        // Corrupt one pointer inside the leaf: reads must now fail loudly,
        // every time, although the leaf was verified just before.
        let mut buf = *page;
        buf[20] ^= 0x04;
        f.write_raw(leaf, &buf).unwrap();
        for _ in 0..2 {
            let err = f.read_file_block(ino, ROOT, 39).unwrap_err();
            assert!(matches!(err, FsError::Corrupted(_)), "got {err:?}");
        }
    }

    /// An unchanged extent leaf is decoded once; a leaf rewritten because
    /// its directory grew shows the new extents on the next read.
    #[test]
    fn a_rewritten_extent_leaf_shows_its_new_extents() {
        let mut f = fs();
        f.mkdir("/d", ROOT, 0o755).unwrap();
        let dir = f.lookup("/d").unwrap();
        let pad = f
            .create("/pad", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        // A pad block after each entry keeps the directory's blocks apart.
        let mut entries = 0u32;
        let mut add = |f: &mut FileSystem<RamDisk>| {
            f.create(
                &format!("/d/e{entries}"),
                ROOT,
                0o644,
                AddressingMode::Extents,
            )
            .unwrap();
            f.write_file_block(pad, ROOT, entries, &block_of(1))
                .unwrap();
            entries += 1;
        };
        let leaf = loop {
            add(&mut f);
            if let InodeMap::Extents {
                leaf: Some(leaf), ..
            } = f.read_inode(dir).unwrap().map
            {
                break leaf;
            }
        };
        let blocks = |f: &mut FileSystem<RamDisk>| {
            (f.read_inode(dir).unwrap().size / BLOCK_SIZE as u64) as u32
        };
        let grown = blocks(&mut f);
        let before = f.read_extent_leaf(leaf).unwrap();
        assert!(Arc::ptr_eq(&before, &f.read_extent_leaf(leaf).unwrap()));
        assert_eq!(extent_find(&before, grown), None);
        while blocks(&mut f) == grown {
            add(&mut f);
        }
        let after = f.read_extent_leaf(leaf).unwrap();
        assert!(extent_find(&after, grown).is_some(), "{after:?}");
        for i in 0..entries {
            assert!(f.lookup(&format!("/d/e{i}")).is_ok(), "e{i}");
        }
    }

    /// `alloc_bit` returns what a bit-by-bit scan finds, the lowest clear
    /// bit in `first..limit`, or `NoSpace`, and sets that one bit.
    #[test]
    fn alloc_bit_matches_a_bitwise_scan() {
        use ssdhammer_simkit::rng::{seeded, Rng};
        const BITS: u32 = BLOCK_SIZE as u32 * 8;
        // Two otherwise unused data blocks of a fresh filesystem.
        const START: FsBlock = 1024;
        let mut f = fs();
        let mut check = |bitmap: &[u8], first: u32, limit: u32| {
            for (i, block) in bitmap.as_chunks::<BLOCK_SIZE>().0.iter().enumerate() {
                f.write_raw(START + i as u32, block).unwrap();
            }
            let taken = |i: u32| bitmap[(i / 8) as usize] & (1 << (i % 8)) != 0;
            let want = (first..limit).find(|&i| !taken(i));
            let got = f.alloc_bit(START, first, limit);
            assert_eq!(
                got,
                want.ok_or(FsError::NoSpace),
                "first {first} limit {limit}"
            );
            let mut after = bitmap.to_vec();
            if let Some(i) = want {
                after[(i / 8) as usize] |= 1 << (i % 8);
            }
            for (i, block) in after.chunks_exact(BLOCK_SIZE).enumerate() {
                assert_eq!(f.read_block(START + i as u32).unwrap()[..], *block);
            }
        };
        let mut bitmap = vec![0u8; 2 * BLOCK_SIZE];
        // `first` inside a word: inode 0 is reserved, so bit 0 stays clear.
        check(&bitmap, 1, BITS);
        check(&bitmap, 70, BITS);
        // `limit` ends mid-word: bits 0..100 taken, bit 100 clear.
        for i in 0..100 {
            bitmap[i / 8] |= 1 << (i % 8);
        }
        check(&bitmap, 0, 100);
        check(&bitmap, 0, 101);
        // The scan runs on into the next bitmap block.
        bitmap[..BLOCK_SIZE].fill(0xFF);
        bitmap[BLOCK_SIZE] = 0b0001_1111;
        check(&bitmap, 3, 2 * BITS);
        check(&bitmap, 3, BITS + 5);
        // Seeded random bitmaps: every bit below a random mark taken, the
        // rest three-quarters taken; `limit` near the answer or far from it.
        let mut rng = seeded(0xB17);
        for _ in 0..500 {
            let mark = rng.gen_range(0..2 * BITS);
            for (i, byte) in bitmap.iter_mut().enumerate() {
                let below_mark = mark.saturating_sub(i as u32 * 8).min(8);
                *byte = rng.gen::<u8>() | rng.gen::<u8>() | ((1u16 << below_mark) - 1) as u8;
            }
            let first = rng.gen_range(0..2 * BITS);
            let near = first.max(mark) + rng.gen_range(1..130);
            let limit = if rng.gen_bool(0.5) {
                near.min(2 * BITS)
            } else {
                rng.gen_range(first + 1..2 * BITS + 1)
            };
            check(&bitmap, first, limit);
        }
    }

    #[test]
    fn indirect_block_tampering_goes_undetected() {
        // The exploited asymmetry (§4.2): redirecting an indirect block's
        // pointer is accepted silently.
        let mut f = fs();
        let victim = f
            .create("/v", ROOT, 0o666, AddressingMode::Indirect)
            .unwrap();
        f.write_file_block(victim, ROOT, 12, &block_of(0xAA))
            .unwrap();
        let secret = f
            .create("/s", ROOT, 0o600, AddressingMode::Extents)
            .unwrap();
        f.write_file_block(secret, ROOT, 0, &block_of(0x5E))
            .unwrap();
        // Find the secret's data block and the victim's indirect block.
        let s_inode = f.read_inode(secret).unwrap();
        let secret_block = f.map_block(&s_inode, 0).unwrap().unwrap();
        let v_inode = f.read_inode(victim).unwrap();
        let InodeMap::Indirect { single, .. } = v_inode.map else {
            panic!()
        };
        // Tamper: point the victim's 13th block at the secret.
        let mut ptrs = *f.read_block(single).unwrap();
        write_ptr(&mut ptrs, 0, secret_block);
        f.write_raw(single, &ptrs).unwrap();
        // Alice reads the (0666) victim file and receives root's 0600 data:
        // block-level pointers bypass the permission check.
        let leaked = f.read_file_block(victim, ALICE, 12).unwrap();
        assert_eq!(leaked, block_of(0x5E));
    }

    #[test]
    fn path_validation() {
        let mut f = fs();
        assert_eq!(
            f.create("relative", ROOT, 0o644, AddressingMode::Extents)
                .unwrap_err(),
            FsError::InvalidName
        );
        let long = format!("/{}", "x".repeat(MAX_NAME + 1));
        assert_eq!(
            f.create(&long, ROOT, 0o644, AddressingMode::Extents)
                .unwrap_err(),
            FsError::InvalidName
        );
        assert_eq!(
            f.create("/a/b", ROOT, 0o644, AddressingMode::Extents)
                .unwrap_err(),
            FsError::NotFound
        );
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut f = fs();
        for name in ["/a", "/b", "/dup"] {
            f.create(name, ROOT, 0o644, AddressingMode::Extents)
                .unwrap();
        }
        f.unlink("/a", ROOT).unwrap();
        // The pass meets the freed slot first but must go on to "/dup".
        assert_eq!(
            f.create("/dup", ROOT, 0o644, AddressingMode::Extents)
                .unwrap_err(),
            FsError::Exists
        );
        let names = |f: &mut FileSystem<RamDisk>| -> Vec<String> {
            f.readdir("/", ROOT)
                .unwrap()
                .into_iter()
                .map(|d| d.name)
                .collect()
        };
        // A new name takes the freed slot, ahead of the older entries.
        f.create("/d", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        assert_eq!(names(&mut f), ["d", "b", "dup"]);
        assert!(f.fsck().unwrap().is_clean());
    }

    /// A create and an unlink read the index and the one leaf the name
    /// hashes to, so in a 3,000-entry directory they read no more blocks
    /// than in a 10-entry one.
    #[test]
    fn create_and_unlink_cost_does_not_grow_with_the_directory() {
        let mut f = FileSystem::format(RamDisk::new(16384)).unwrap();
        for (dir, entries) in [("/small", 10), ("/big", 3000)] {
            f.mkdir(dir, ROOT, 0o755).unwrap();
            for i in 0..entries {
                f.create(&format!("{dir}/f{i}"), ROOT, 0o644, AddressingMode::Extents)
                    .unwrap();
            }
        }
        let big = f.lookup("/big").unwrap();
        let blocks = f.read_inode(big).unwrap().size / BLOCK_SIZE as u64;
        assert!(blocks >= 40, "3,000 entries in {blocks} blocks");
        let reads = f.shared_telemetry().counter("fs.block_reads");
        let mut cost = |dir: &str| {
            let before = reads.get();
            f.create(&format!("{dir}/new"), ROOT, 0o644, AddressingMode::Extents)
                .unwrap();
            let create = reads.get() - before;
            let before = reads.get();
            f.unlink(&format!("{dir}/new"), ROOT).unwrap();
            (create, reads.get() - before)
        };
        let small = cost("/small");
        let large = cost("/big");
        assert!(
            large.0 <= small.0 && large.1 <= small.1,
            "(create, unlink) reads: {large:?} in 3,000 entries vs {small:?} in 10"
        );
    }

    /// A tampered index fails validation on the next lookup, and fsck
    /// reports it.
    #[test]
    fn tampered_index_is_corrupted_for_lookup_and_fsck() {
        type Tamper = fn(&mut DirIndex, u32);
        let tampers: [(&str, Tamper); 2] = [
            ("unsorted hashes", |index, _| index.entries.swap(1, 2)),
            ("leaf past the end", |index, blocks| {
                index.entries[1].1 = blocks;
            }),
        ];
        for (what, tamper) in tampers {
            let mut f = fs();
            f.mkdir("/d", ROOT, 0o755).unwrap();
            for i in 0..200 {
                f.create(&format!("/d/f{i}"), ROOT, 0o644, AddressingMode::Extents)
                    .unwrap();
            }
            let ino = f.lookup("/d").unwrap();
            let dir = f.read_inode(ino).unwrap();
            let blocks = (dir.size / BLOCK_SIZE as u64) as u32;
            let at = f.map_block(&dir, 0).unwrap().unwrap();
            let page = f.read_block(at).unwrap();
            let mut index = DirIndex::decode(&page, blocks).unwrap();
            assert!(index.entries.len() >= 3, "{what}: {index:?}");
            tamper(&mut index, blocks);
            f.write_raw(at, &index.encode()).unwrap();
            assert!(
                matches!(f.lookup("/d/f0"), Err(FsError::Corrupted(_))),
                "{what}"
            );
            let report = f.fsck().unwrap();
            assert!(
                report
                    .issues
                    .iter()
                    .any(|i| matches!(i, FsckIssue::BadDirectory { dir, .. } if *dir == ino)),
                "{what}: {:?}",
                report.issues
            );
        }
    }

    /// Leaves split as entries arrive; every name stays reachable, and
    /// unlinking all of them leaves the leaves in place, empty. A data
    /// block written after each create keeps the directory's blocks apart,
    /// so its extent map spills to a leaf block as the spray directory's
    /// does.
    #[test]
    fn splits_keep_every_name_reachable() {
        let mut f = fs();
        f.mkdir("/d", ROOT, 0o755).unwrap();
        let pad = f
            .create("/pad", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        let names: Vec<String> = (0..300).map(|i| format!("entry-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            f.create(&format!("/d/{name}"), ROOT, 0o644, AddressingMode::Extents)
                .unwrap();
            f.write_file_block(pad, ROOT, i as u32, &block_of(1))
                .unwrap();
        }
        let ino = f.lookup("/d").unwrap();
        let dir = f.read_inode(ino).unwrap();
        assert!(matches!(dir.map, InodeMap::Extents { leaf: Some(_), .. }));
        let blocks = dir.size / BLOCK_SIZE as u64;
        assert!((6..=11).contains(&blocks), "300 entries in {blocks} blocks");
        for name in &names {
            assert!(f.lookup(&format!("/d/{name}")).is_ok(), "{name}");
        }
        assert_eq!(f.readdir("/d", ROOT).unwrap().len(), names.len());
        assert!(f.fsck().unwrap().is_clean());
        for name in &names {
            f.unlink(&format!("/d/{name}"), ROOT).unwrap();
        }
        assert_eq!(f.read_inode(ino).unwrap().size / BLOCK_SIZE as u64, blocks);
        assert!(f.fsck().unwrap().is_clean());
    }

    #[test]
    fn no_space_is_reported() {
        let mut f = FileSystem::format(RamDisk::new(32)).unwrap();
        let ino = f
            .create("/fill", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        let mut result = Ok(());
        for i in 0..64u32 {
            result = f.write_file_block(ino, ROOT, i, &block_of(1));
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn freed_blocks_are_trimmed() {
        let mut f = fs();
        let ino = f
            .create("/tr", ROOT, 0o644, AddressingMode::Extents)
            .unwrap();
        f.write_file_block(ino, ROOT, 0, &block_of(1)).unwrap();
        let populated_before = f.device_mut().populated_blocks();
        f.unlink("/tr", ROOT).unwrap();
        assert!(
            f.device_mut().populated_blocks() < populated_before,
            "unlink should trim freed blocks"
        );
    }
}
