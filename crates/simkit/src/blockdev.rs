//! The block-device abstraction shared by the NVMe namespace model, the
//! filesystem, and test doubles.

use core::fmt;

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
/// BlockDevice`, so the same code runs against the full simulated [`Ssd`],
/// a single NVMe [`Namespace`], a tenant partition view, or the in-memory
/// [`RamDisk`] test double. All blocks are [`BLOCK_SIZE`] bytes.
///
/// [`Ssd`]: https://docs.rs/ssdhammer-nvme
/// [`Namespace`]: https://docs.rs/ssdhammer-nvme
pub trait BlockDevice {
    /// Number of addressable blocks.
    fn capacity_blocks(&self) -> u64;

    /// Reads the block at `lba` into `buf`.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] if `lba` exceeds capacity,
    /// [`StorageError::BadBufferLen`] if `buf` is not exactly one block,
    /// [`StorageError::Uncorrectable`] if the device cannot return the data.
    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> StorageResult<()>;

    /// Writes `buf` to the block at `lba`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockDevice::read`].
    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()>;

    /// Discards the mapping of the block at `lba` (NVMe deallocate / TRIM).
    /// Subsequent reads return zeroes.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] if `lba` exceeds capacity.
    fn trim(&mut self, lba: Lba) -> StorageResult<()>;

    /// Persists outstanding state. A no-op for most simulated devices.
    ///
    /// # Errors
    ///
    /// Devices with failure injection may report errors here.
    fn flush(&mut self) -> StorageResult<()> {
        Ok(())
    }

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
/// let block = [0xABu8; BLOCK_SIZE];
/// disk.write(Lba(3), &block)?;
/// let mut out = [0u8; BLOCK_SIZE];
/// disk.read(Lba(3), &mut out)?;
/// assert_eq!(out, block);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RamDisk {
    blocks: std::collections::BTreeMap<u64, Box<[u8]>>,
    capacity: u64,
}

impl RamDisk {
    /// Creates a disk with `capacity` 4 KiB blocks, all reading as zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        RamDisk {
            blocks: std::collections::BTreeMap::new(),
            capacity,
        }
    }

    /// Number of blocks that have been written (and not trimmed).
    #[must_use]
    pub fn populated_blocks(&self) -> usize {
        self.blocks.len()
    }
}

impl BlockDevice for RamDisk {
    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> StorageResult<()> {
        self.check_access(lba, buf.len())?;
        match self.blocks.get(&lba.as_u64()) {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()> {
        self.check_access(lba, buf.len())?;
        self.blocks.insert(lba.as_u64(), buf.into());
        Ok(())
    }

    fn trim(&mut self, lba: Lba) -> StorageResult<()> {
        if lba.as_u64() >= self.capacity {
            return Err(StorageError::OutOfRange {
                lba,
                capacity: self.capacity,
            });
        }
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
        let mut buf = [7u8; BLOCK_SIZE];
        d.read(Lba(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = RamDisk::new(4);
        let mut block = [0u8; BLOCK_SIZE];
        block[100] = 42;
        d.write(Lba(2), &block).unwrap();
        let mut out = [0u8; BLOCK_SIZE];
        d.read(Lba(2), &mut out).unwrap();
        assert_eq!(out[100], 42);
    }

    #[test]
    fn trim_restores_zero() {
        let mut d = RamDisk::new(4);
        d.write(Lba(1), &[1u8; BLOCK_SIZE]).unwrap();
        d.trim(Lba(1)).unwrap();
        let mut out = [9u8; BLOCK_SIZE];
        d.read(Lba(1), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(d.populated_blocks(), 0);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut d = RamDisk::new(4);
        let mut buf = [0u8; BLOCK_SIZE];
        let err = d.read(Lba(4), &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }));
        assert!(matches!(
            d.trim(Lba(99)),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn short_buffer_is_rejected() {
        let mut d = RamDisk::new(4);
        let mut small = [0u8; 512];
        let err = d.read(Lba(0), &mut small).unwrap_err();
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
