//! Byte-size and address newtypes shared across the stack.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A number of bytes, with binary-unit constructors and display.
///
/// # Examples
///
/// ```
/// use ssdhammer_simkit::ByteSize;
///
/// let l2p = ByteSize::mib(1);
/// assert_eq!(l2p.as_u64(), 1 << 20);
/// assert_eq!(l2p.to_string(), "1.00 MiB");
/// assert_eq!(ByteSize::gib(1) / ByteSize::mib(1), 1024);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// `n` bytes.
    #[must_use]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// `n` kibibytes.
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n << 10)
    }

    /// `n` mebibytes.
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n << 20)
    }

    /// `n` gibibytes.
    #[must_use]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n << 30)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// True when this size is an exact multiple of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    #[must_use]
    pub fn is_multiple_of(self, unit: ByteSize) -> bool {
        assert!(unit.0 > 0, "unit must be non-zero");
        self.0.is_multiple_of(unit.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2} GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2} MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2} KiB", b as f64 / (1u64 << 10) as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl core::ops::Div for ByteSize {
    type Output = u64;
    fn div(self, rhs: ByteSize) -> u64 {
        self.0 / rhs.0
    }
}

/// A logical block address as seen by a host on some block device or
/// namespace. The unit is one logical block (4 KiB throughout this workspace).
///
/// `Lba` is deliberately distinct from physical page numbers (`ssdhammer-flash`
/// defines those) so the type system catches logical/physical mix-ups — the
/// very confusion the paper's attack induces in the FTL.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lba(pub u64);

impl Lba {
    /// The raw index.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The LBA `n` blocks after this one.
    #[must_use]
    pub const fn offset(self, n: u64) -> Lba {
        Lba(self.0 + n)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LBA#{}", self.0)
    }
}

impl From<u64> for Lba {
    fn from(v: u64) -> Self {
        Lba(v)
    }
}

/// A byte address in the SSD-internal DRAM physical address space.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DramAddr(pub u64);

impl DramAddr {
    /// The raw byte address.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The address `n` bytes after this one.
    #[must_use]
    pub const fn offset(self, n: u64) -> DramAddr {
        DramAddr(self.0 + n)
    }
}

impl fmt::Display for DramAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::LowerHex for DramAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for DramAddr {
    fn from(v: u64) -> Self {
        DramAddr(v)
    }
}

/// The logical block size used uniformly across the workspace: 4 KiB, matching
/// the paper's 4 KiB-based NVMe I/O and SPDK FTL configuration.
pub const BLOCK_SIZE: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(ByteSize::kib(2).as_u64(), 2048);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(3).as_u64(), 3 << 30);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ByteSize::bytes(5).to_string(), "5 B");
        assert_eq!(ByteSize::kib(1).to_string(), "1.00 KiB");
        assert_eq!(ByteSize::gib(16).to_string(), "16.00 GiB");
    }

    #[test]
    fn division_counts_units() {
        assert_eq!(ByteSize::gib(1) / ByteSize::bytes(4096), 262_144);
    }

    #[test]
    fn multiple_check() {
        assert!(ByteSize::mib(1).is_multiple_of(ByteSize::kib(4)));
        assert!(!ByteSize::bytes(4097).is_multiple_of(ByteSize::kib(4)));
    }

    #[test]
    fn lba_offset() {
        assert_eq!(Lba(10).offset(5), Lba(15));
        assert_eq!(Lba(10).to_string(), "LBA#10");
    }

    #[test]
    fn dram_addr_hex_display() {
        assert_eq!(DramAddr(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", DramAddr(255)), "ff");
    }
}
