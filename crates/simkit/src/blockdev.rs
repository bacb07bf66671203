//! The block-device abstraction shared by the NVMe namespace model, the
//! filesystem, and test doubles.

use core::fmt;
use std::sync::Arc;

use crate::units::{Lba, BLOCK_SIZE};

/// Errors returned by [`BlockDevice`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The LBA is outside the device or namespace capacity.
    OutOfRange {
        /// The offending address.
        lba: Lba,
        /// Number of blocks the device exposes.
        capacity: u64,
    },
    /// The buffer length does not match the device block size.
    BadBufferLen {
        /// Length the caller supplied.
        got: usize,
        /// Length the device requires.
        expected: usize,
    },
    /// The device detected an uncorrectable error (e.g. ECC double-bit) while
    /// serving the request.
    Uncorrectable {
        /// The address whose data could not be returned.
        lba: Lba,
    },
    /// The device rejected the request (e.g. rate limiter, failed namespace).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfRange { lba, capacity } => {
                write!(f, "{lba} out of range (capacity {capacity} blocks)")
            }
            StorageError::BadBufferLen { got, expected } => {
                write!(
                    f,
                    "buffer length {got} does not match block size {expected}"
                )
            }
            StorageError::Uncorrectable { lba } => {
                write!(f, "uncorrectable device error at {lba}")
            }
            StorageError::Rejected { reason } => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for block-device operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// A 4 KiB-block random-access storage device.
///
/// This is the composition seam of the stack: filesystems, workload
/// replayers, and attack spray phases are generic over `&mut impl
/// BlockDevice`, so the same code runs against an NVMe [`Namespace`] of the
/// simulated SSD, a tenant partition view over one, or the in-memory
/// [`RamDisk`] test double. All blocks are [`BLOCK_SIZE`] bytes.
///
/// A read returns the block as a shared page rather than filling a
/// caller's buffer, so a reader that only inspects a block copies nothing;
/// a caller copies the page only to modify it.
///
/// [`Namespace`]: https://docs.rs/ssdhammer-nvme
pub trait BlockDevice {
    /// Number of addressable blocks.
    fn capacity_blocks(&self) -> u64;

    /// Reads the block at `lba`: a page of exactly [`BLOCK_SIZE`] bytes.
    ///
    /// The page is a snapshot. A later write or trim of `lba` does not
    /// change it, so the caller may keep it as long as it likes. A device
    /// that stores its blocks as shared pages hands out the stored page
    /// itself, and those pages are never mutated in place.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] if `lba` exceeds capacity,
    /// [`StorageError::Uncorrectable`] if the device cannot return the data.
    fn read(&mut self, lba: Lba) -> StorageResult<Arc<[u8]>>;

    /// Writes `buf` to the block at `lba`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockDevice::read`], plus
    /// [`StorageError::BadBufferLen`] if `buf` is not exactly one block.
    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()>;

    /// Discards the mapping of the block at `lba` (NVMe deallocate / TRIM).
    /// Subsequent reads return zeroes.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] if `lba` exceeds capacity.
    fn trim(&mut self, lba: Lba) -> StorageResult<()>;

    /// Validates an `(lba, buf)` pair against capacity and block size.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] or [`StorageError::BadBufferLen`].
    fn check_access(&self, lba: Lba, buf_len: usize) -> StorageResult<()> {
        if lba.as_u64() >= self.capacity_blocks() {
            return Err(StorageError::OutOfRange {
                lba,
                capacity: self.capacity_blocks(),
            });
        }
        if buf_len != BLOCK_SIZE {
            return Err(StorageError::BadBufferLen {
                got: buf_len,
                expected: BLOCK_SIZE,
            });
        }
        Ok(())
    }
}

/// A plain in-memory block device, sparse until written.
///
/// # Examples
///
/// ```
/// use ssdhammer_simkit::{BlockDevice, Lba, RamDisk, BLOCK_SIZE};
///
/// # fn main() -> Result<(), ssdhammer_simkit::StorageError> {
/// let mut disk = RamDisk::new(128);
/// disk.write(Lba(3), &[0xABu8; BLOCK_SIZE])?;
/// let page = disk.read(Lba(3))?;
/// // The page is a snapshot: rewriting the block leaves it as it was read.
/// disk.write(Lba(3), &[0u8; BLOCK_SIZE])?;
/// assert_eq!(page[..], [0xABu8; BLOCK_SIZE]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RamDisk {
    blocks: std::collections::BTreeMap<u64, Arc<[u8]>>,
    capacity: u64,
    /// What every unwritten block reads as: one all-zero page, shared
    /// (empty in the zero-capacity `Default` disk, which serves no read).
    zeroes: Arc<[u8]>,
}

impl RamDisk {
    /// Creates a disk with `capacity` 4 KiB blocks, all reading as zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        RamDisk {
            blocks: std::collections::BTreeMap::new(),
            capacity,
            zeroes: vec![0u8; BLOCK_SIZE].into(),
        }
    }

    /// Number of blocks that have been written (and not trimmed).
    #[must_use]
    pub fn populated_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn check_lba(&self, lba: Lba) -> StorageResult<()> {
        if lba.as_u64() >= self.capacity {
            return Err(StorageError::OutOfRange {
                lba,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

impl BlockDevice for RamDisk {
    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn read(&mut self, lba: Lba) -> StorageResult<Arc<[u8]>> {
        self.check_lba(lba)?;
        let page = self.blocks.get(&lba.as_u64()).unwrap_or(&self.zeroes);
        Ok(Arc::clone(page))
    }

    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()> {
        self.check_access(lba, buf.len())?;
        self.blocks.insert(lba.as_u64(), buf.into());
        Ok(())
    }

    fn trim(&mut self, lba: Lba) -> StorageResult<()> {
        self.check_lba(lba)?;
        self.blocks.remove(&lba.as_u64());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut d = RamDisk::new(4);
        let page = d.read(Lba(0)).unwrap();
        assert_eq!(page.len(), BLOCK_SIZE);
        assert!(page.iter().all(|&b| b == 0));
        assert!(Arc::ptr_eq(&page, &d.read(Lba(3)).unwrap()));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = RamDisk::new(4);
        let mut block = [0u8; BLOCK_SIZE];
        block[100] = 42;
        d.write(Lba(2), &block).unwrap();
        assert_eq!(d.read(Lba(2)).unwrap()[100], 42);
    }

    #[test]
    fn trim_restores_zero() {
        let mut d = RamDisk::new(4);
        d.write(Lba(1), &[1u8; BLOCK_SIZE]).unwrap();
        let before = d.read(Lba(1)).unwrap();
        d.trim(Lba(1)).unwrap();
        assert!(d.read(Lba(1)).unwrap().iter().all(|&b| b == 0));
        assert_eq!(d.populated_blocks(), 0);
        assert!(before.iter().all(|&b| b == 1), "a read page is a snapshot");
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut d = RamDisk::new(4);
        let err = d.read(Lba(4)).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }));
        assert!(matches!(
            d.trim(Lba(99)),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn short_buffer_is_rejected() {
        let mut d = RamDisk::new(4);
        let small = [0u8; 512];
        let err = d.write(Lba(0), &small).unwrap_err();
        assert_eq!(
            err,
            StorageError::BadBufferLen {
                got: 512,
                expected: BLOCK_SIZE
            }
        );
    }

    #[test]
    fn errors_display() {
        let e = StorageError::OutOfRange {
            lba: Lba(9),
            capacity: 4,
        };
        assert_eq!(e.to_string(), "LBA#9 out of range (capacity 4 blocks)");
    }
}
