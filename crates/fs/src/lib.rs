//! # ssdhammer-fs
//!
//! An ext4-like filesystem reproducing the metadata asymmetry that
//! *Rowhammering Storage Devices* (HotStorage '21) exploits end to end
//! (§4.2):
//!
//! * **Extent trees** (the ext4 default) are protected by CRC-32C — both the
//!   inline extent area in each inode and depth-1 extent-leaf blocks carry
//!   verified checksums, so pointer corruption is *detected*.
//! * **Direct/indirect block addressing** (the backward-compatible
//!   mechanism) has **no checksums**: indirect blocks are bare pointer
//!   arrays read from disk and trusted, and "users may also select the
//!   direct/indirect block mechanism on files they have write access to."
//!
//! Combined with hole-aware allocation (a file can have a 12-block hole and
//! a single data block reached through its indirect block — the paper's
//! spray-file shape) and a uid permission model, this provides everything
//! the cloud case study needs from the victim filesystem.
//!
//! The filesystem performs **no caching**: every metadata access re-reads
//! the device, so an FTL-level redirection beneath it takes effect
//! immediately — the property the attack depends on. Directories are
//! hash-indexed like ext4's `dir_index` (a one-level [`DirIndex`] in each
//! directory's first block), so a path operation reads the index and one
//! leaf however large the directory grows.
//!
//! [`FileSystem::fsck`] quantifies §3.2's data-corruption outcome: wild
//! pointers, references to free blocks, double references, and dangling
//! directory entries.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_fs::{AddressingMode, Credentials, FileSystem};
//! use ssdhammer_simkit::RamDisk;
//!
//! # fn main() -> Result<(), ssdhammer_fs::FsError> {
//! let mut fs = FileSystem::format(RamDisk::new(512))?;
//! let root = Credentials::root();
//! // The paper's spray-file shape: a 12-block hole, then one data block
//! // mapped through an (unchecksummed) indirect block.
//! let ino = fs.create("/spray0", root, 0o644, AddressingMode::Indirect)?;
//! fs.write_file_block(ino, root, 12, &[0xAB; 4096])?;
//! assert_eq!(fs.read_file_block(ino, root, 0)?, [0u8; 4096]); // hole
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
#[allow(clippy::module_inception)]
mod fs;
mod fsck;
mod layout;

pub use error::{FsError, FsResult};
pub use fs::{Credentials, FileSystem, EXTENTS_PER_LEAF};
pub use fsck::{FsckIssue, FsckReport};
pub use layout::{
    AddressingMode, DirIndex, Dirent, DirentRef, Extent, FileType, FsBlock, Ino, Inode, InodeMap,
    SuperBlock, DIRECT_PTRS, DIRENT_SIZE, DIR_INDEX_LIMIT, DIR_INDEX_MAGIC, INLINE_EXTENTS,
    INODES_PER_BLOCK, INODE_SIZE, MAX_NAME, PTRS_PER_BLOCK, ROOT_INO,
};
