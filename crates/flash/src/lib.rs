//! # ssdhammer-flash
//!
//! A NAND flash array simulator: the storage substrate under the FTL in the
//! `ssdhammer` reproduction of *Rowhammering Storage Devices* (HotStorage
//! '21).
//!
//! Flash "lacks support for in-place writes and performs accesses in large
//! units due to physical limitations of flash cell technology" (§2.1) — the
//! reason FTLs, and therefore the attack's target L2P table, exist at all.
//! This crate enforces those physics:
//!
//! * [`FlashGeometry`] — channels × dies × planes × blocks × pages.
//! * [`FlashArray`] — erase-before-program, strict in-order programming
//!   within a block, whole-block erases, OOB metadata for the FTL's reverse
//!   map, P/E-cycle wear with bad-block retirement, and per-channel
//!   operation pipelining that returns completion *times* on the simulated
//!   clock (so the NVMe layer can model realistic IOPS).
//!
//! # Examples
//!
//! ```
//! use ssdhammer_flash::{BlockId, FlashArray, FlashGeometry, Ppn};
//! use ssdhammer_simkit::SimClock;
//!
//! # fn main() -> Result<(), ssdhammer_flash::FlashError> {
//! let mut nand = FlashArray::new(FlashGeometry::tiny_test(), SimClock::new(), 1);
//! nand.program_page(Ppn(0), &vec![1u8; 4096], b"lba:42")?;
//! // In-place update is physically impossible:
//! assert!(nand.program_page(Ppn(0), &vec![2u8; 4096], b"").is_err());
//! // Only a whole-block erase frees the page again:
//! nand.erase_block(BlockId(0))?;
//! nand.program_page(Ppn(0), &vec![2u8; 4096], b"")?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod geometry;

pub use array::{FlashArray, FlashError, PageBytes};
pub use geometry::{BlockId, FlashGeometry, FlashTiming, Ppn};
