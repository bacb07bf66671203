//! # ssdhammer-nvme
//!
//! An NVMe-ish front end over the simulated FTL: the host-visible surface of
//! the `ssdhammer` reproduction of *Rowhammering Storage Devices*
//! (HotStorage '21).
//!
//! The attack's feasibility argument (§2.3) is about *rates*: "NVMe
//! interfaces easily allow sufficiently high 4 KiB-based I/O rates necessary
//! for a successful rowhammering attack." This crate makes those rates
//! first-class:
//!
//! * [`Ssd`] assembles DRAM + flash + FTL from an [`SsdConfig`] and exposes
//!   queue pairs, a command set (read/write/trim/flush/identify), and
//!   namespaces. Namespaces are partitions of one shared FTL — the
//!   multi-tenant arrangement the cloud case study exploits (§4.1).
//! * [`InterfaceGen`] encodes PCIe 3/4/5-era controller overheads, so
//!   achievable IOPS land where the paper cites (~1.5 M on PCIe 4.0, >2 M
//!   on PCIe 5.0).
//! * [`ControllerConfig::rate_limit_iops`] implements §5's rate-limiting
//!   mitigation (delaying, not rejecting, commands).
//! * [`Ssd::submit_batch`] / [`Ssd::process_all`] /
//!   [`Ssd::drain_completions`] form the batched multi-queue path: commands
//!   are enqueued in bulk, serviced round-robin across queue pairs (one
//!   command per active queue per round), and drained per queue.
//!   [`Ssd::max_iops`] reports the multi-queue ceiling this unlocks.
//! * [`Ssd::hammer_reads`] is the aggregated attack path; it rides the same
//!   batch machinery as a [`Command::VendorHammer`] burst and honours the
//!   same service-rate bounds as per-command submission.
//! * [`Ssd`] and [`Namespace`] implement
//!   [`ssdhammer_simkit::BlockDevice`], so the ext4-like filesystem mounts
//!   directly on the whole drive or on one namespace.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_nvme::{Command, Ssd, SsdConfig};
//! use ssdhammer_simkit::Lba;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ssd = Ssd::build(SsdConfig::test_small(7));
//! let ns = ssd.create_namespace(128)?;
//! let qp = ssd.create_queue_pair(32);
//! let batch: Vec<Command> = (0..4).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
//! ssd.submit_batch(qp, &batch)?;
//! ssd.process_all();
//! let completions = ssd.drain_completions(qp)?;
//! assert!(completions.iter().all(|c| c.is_ok()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod ssd;

pub use command::{
    CmdResult, Command, Completion, ControllerConfig, HealthLog, IdentifyData, InterfaceGen, NsId,
    NvmeError, QpId, QueuePairHandle, RetryPolicy,
};
pub use ssd::{Namespace, ScrubberConfig, Ssd, SsdConfig};
