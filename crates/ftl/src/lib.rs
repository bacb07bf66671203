//! # ssdhammer-ftl
//!
//! A page-mapped flash translation layer whose L2P table lives in simulated
//! DRAM — the attack surface of *Rowhammering Storage Devices* (HotStorage
//! '21).
//!
//! The crate mirrors the SPDK FTL the paper prototyped against (§4.1):
//!
//! * a **linear L2P array** in DRAM (one 32-bit PPN per LBA), with a
//!   **keyed-hash** alternative implementing §5's randomization mitigation;
//! * out-of-place writes with an append point, greedy garbage collection,
//!   and wear-aware block allocation on an [`ssdhammer_flash::FlashArray`];
//! * **uncached** L2P accesses — every host I/O activates DRAM rows, which
//!   is what makes NVMe-rate read workloads a hammer (§2.3 argues SSD
//!   firmware DRAM is not cached);
//! * a configurable per-I/O activation amplification
//!   ([`FtlConfig::hammer_amplification`]), the knob the paper set to 5 to
//!   compensate for its slow testbed;
//! * a bulk [`Ftl::hammer_reads`] path that aggregates attack workloads into
//!   refresh-window-sized batches so experiments can span simulated hours;
//! * the unmapped-read fast path (reads of trimmed blocks skip flash), which
//!   the paper notes lets attackers reach higher request rates.
//!
//! # Examples
//!
//! The mechanism of Figure 1 — reads alternating between two aggressor rows
//! of the L2P table flip a bit in the victim row between them:
//!
//! ```
//! use ssdhammer_ftl::Ftl;
//! use ssdhammer_simkit::Lba;
//!
//! # fn main() -> Result<(), ssdhammer_ftl::FtlError> {
//! let mut ftl = Ftl::tiny_for_tests(1)?;
//! // Which LBAs' entries share DRAM row 1 of bank 0?
//! let victims = ftl.table().lbas_in_row(ftl.dram(), 0, 1);
//! assert!(!victims.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[allow(clippy::module_inception)]
mod ftl;
pub mod integrity;
mod journal;
mod l2p;
pub mod meta;

pub use ftl::{error_is_legal, Ftl, FtlConfig, FtlError, HostOp, ReadOutcome, CRASH_SITES};
pub use integrity::{IntegrityMode, SecdedOutcome};
pub use l2p::{L2pLayout, L2pTable, INVALID_ENTRY};
pub use meta::{MetaKind, MetaPlane};
