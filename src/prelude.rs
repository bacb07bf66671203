//! The one-line import for application code.
//!
//! `use ssdhammer::prelude::*;` brings in the types nearly every program
//! built on this workspace touches: the device (`Ssd`, `SsdConfig`), the
//! layers underneath it (`Ftl`, `DramModule`, `FileSystem`), the attack
//! pipeline (`AttackPipeline` with its `Hammerer`/`Victim`/`Placement`
//! stages, `find_attack_sites`, `AttackParams`), the simulation substrate
//! (`SimClock`, `SimDuration`,
//! `Lba`), the batched multi-queue front end (`Command`, `Completion`,
//! `QueuePairHandle`, `Arbiter`), the deterministic campaign runner
//! (`Supervisor`), the storage seam (`BlockDevice`, `RamDisk`), the
//! shared observability layer (`Telemetry`, `TelemetrySnapshot`), and the
//! unified [`Error`]/[`Result`] pair.
//!
//! # Examples
//!
//! ```
//! use ssdhammer::prelude::*;
//!
//! fn demo() -> Result<()> {
//!     let mut ssd = Ssd::build(SsdConfig::test_small(7));
//!     let mut buf = [0u8; BLOCK_SIZE];
//!     ssd.ftl_mut().read(Lba(0), &mut buf)?;
//!     let snapshot: TelemetrySnapshot = ssd.snapshot_telemetry();
//!     assert!(snapshot.counter("ftl.l2p_reads").is_some());
//!     Ok(())
//! }
//! demo().unwrap();
//! ```

pub use crate::error::{Error, Result};

pub use ssdhammer_simkit::supervisor::Supervisor;
pub use ssdhammer_simkit::telemetry::{Telemetry, TelemetrySnapshot, TraceEvent};
pub use ssdhammer_simkit::{
    BlockDevice, ByteSize, Lba, RamDisk, SimClock, SimDuration, SimTime, BLOCK_SIZE,
};

pub use ssdhammer_dram::{
    DramGeometry, DramModule, EccConfig, MappingKind, ModuleProfile, TrrConfig,
};
pub use ssdhammer_flash::{FlashArray, FlashGeometry};
pub use ssdhammer_ftl::{Ftl, FtlConfig, L2pLayout};
pub use ssdhammer_nvme::{
    Arbiter, CmdResult, Command, Completion, QueuePairHandle, Ssd, SsdConfig,
};

pub use ssdhammer_core::{
    find_attack_sites, probe_sites, setup_entries, AttackError, AttackOutcome, AttackParams,
    AttackPipeline, AttackSite, BadBlockTable, ChangeKind, CrossBank, Hammerer, JournalCache,
    L2pEntries, ManySided, MappingState, Observation, OneLocation, OneSided, Placement,
    Redirection, RowPress, SameBank, TwoSided, Victim, VictimChange, WearCounters,
};
pub use ssdhammer_fs::{AddressingMode, Credentials, FileSystem};

pub use ssdhammer_cloud::{run_case_study, CaseStudyConfig};
