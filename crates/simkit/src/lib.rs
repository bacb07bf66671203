//! # ssdhammer-simkit
//!
//! The deterministic simulation substrate underneath the `ssdhammer`
//! workspace, a reproduction of *Rowhammering Storage Devices* (HotStorage
//! '21). This crate provides the shared vocabulary every other crate builds
//! on:
//!
//! * [`SimClock`] / [`SimTime`] / [`SimDuration`] — the simulated timeline.
//!   All rates reported by experiments (IOPS, DRAM activations per second)
//!   are measured against this clock, never the host wall clock.
//! * [`ByteSize`], [`Lba`], [`DramAddr`], [`BLOCK_SIZE`] — units and address
//!   newtypes that keep logical, physical, and DRAM address spaces apart in
//!   the type system.
//! * [`BlockDevice`] and the in-memory [`RamDisk`] — the 4 KiB block-device
//!   contract implemented by the full SSD, NVMe namespaces, and partition
//!   views.
//! * [`rng`] — seed-derivation helpers making every stochastic component
//!   reproducible.
//! * [`crc32c`] — the checksum ext4 applies to extent-tree metadata (and
//!   pointedly does *not* apply to legacy indirect blocks, which is what the
//!   paper's end-to-end exploit rides on).
//! * [`stats`] — the log-bucketed latency histogram telemetry records into.
//! * [`telemetry`] — the shared, stack-wide metrics registry and bounded
//!   event trace every layer records into.
//! * [`faultplane`] — the seeded fault-injection plane device crates
//!   consult at their failure points; identical seeds replay identical
//!   fault sequences.
//! * [`torture`] — deterministic crash-point enumeration over fault-plane
//!   sites: census a workload's site crossings, then cut power at every
//!   one (or a seeded-stratified sample) and check recovery (in the bench
//!   crate, through the fuzz executor).
//! * [`supervisor`] — the one campaign runner behind `repro --threads N`:
//!   deterministic sharding (results are bit-identical for any thread
//!   count), a sim-time budget watchdog, `catch_unwind` panic isolation
//!   with seeded retry, and checkpoint/resume of long campaigns.
//! * [`fuzz`] — seeded model-based fuzzing: generate op interleavings,
//!   differentially check them against a shadow model (the one oracle
//!   state both the fuzz and torture campaigns use), auto-shrink
//!   divergences with delta debugging, and bucket failures by signature.
//! * [`json`] — a dependency-free JSON document model used to export
//!   telemetry snapshots and experiment results.
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::{SimClock, SimDuration, ByteSize};
//!
//! let clock = SimClock::new();
//! clock.advance(SimDuration::from_micros(100));
//! assert_eq!(clock.now().as_secs_f64(), 1e-4);
//! assert_eq!(ByteSize::gib(1) / ByteSize::mib(1), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockdev;
pub mod bytes;
mod clock;
mod crc32c;
pub mod faultplane;
pub mod fuzz;
pub mod json;
pub mod rng;
pub mod stats;
pub mod supervisor;
pub mod telemetry;
mod time;
pub mod torture;
mod units;

pub use blockdev::{BlockDevice, RamDisk, StorageError, StorageResult};
pub use clock::SimClock;
pub use crc32c::{crc32c, update as crc32c_update};
pub use time::{SimDuration, SimTime};
pub use units::{ByteSize, DramAddr, Lba, BLOCK_SIZE};
