//! # ssdhammer-dram
//!
//! A DRAM simulator with a rowhammer disturbance model, built as the memory
//! substrate for reproducing *Rowhammering Storage Devices* (HotStorage '21).
//!
//! The paper's attack flips bits in the SSD-internal DRAM that holds the
//! FTL's logical-to-physical table. This crate supplies everything that
//! physics needs:
//!
//! * [`DramGeometry`] — channels × DIMMs × ranks × banks × rows (including
//!   the paper's i7-2600 testbed geometry).
//! * [`AddressMapping`] — linear and XOR/swizzled controller mappings, so
//!   physical-address adjacency and row adjacency can be decoupled exactly
//!   as DRAMA-style reverse engineering shows on real parts (§4.2).
//! * [`ModuleProfile`] — per-module vulnerability calibration for **every
//!   row of Table 1** (minimal access rate to trigger bitflips).
//! * [`DramModule`] — the simulator: open-/closed-page row buffers, 64 ms
//!   refresh windows, per-row activation counting, weak-cell flips with
//!   true-/anti-cell orientation, SEC-DED [`EccConfig`], sampler-based
//!   [`TrrConfig`] (defeated by many-sided patterns), probabilistic
//!   adjacent-row refresh [`ParaConfig`] (overwhelmed only by raw rate),
//!   and a bulk [`DramModule::run_hammer`] fast path for hours-long
//!   experiments.
//! * [`hammer`] — online rowhammerability probing and the minimal-flip-rate
//!   search used by the Table 1 harness.
//!
//! # Examples
//!
//! Flip a bit with a double-sided pattern:
//!
//! ```
//! use ssdhammer_dram::{DramGeometry, DramModule, HammerOptions, MappingKind, ModuleProfile, RowKey};
//! use ssdhammer_simkit::SimClock;
//!
//! # fn main() -> Result<(), ssdhammer_dram::DramError> {
//! let mut dram = DramModule::builder(DramGeometry::tiny_test())
//!     .profile(ModuleProfile::lpddr4_new_2020()) // most vulnerable in Table 1
//!     .mapping(MappingKind::Linear)
//!     .seed(3)
//!     .build(SimClock::new());
//!
//! // Pick a hammerable victim and fill it with data.
//! let victim = ssdhammer_dram::hammer::find_weakest_victim(&dram, 2, 64).unwrap();
//! dram.write(victim.triple[1], &[0xFF; 64])?;
//!
//! // Hammer the two adjacent rows fast enough and bits flip.
//! let report = dram.run_hammer(
//!     &[victim.triple[0], victim.triple[2]],
//!     2_000_000,
//!     1_000_000.0,
//!     HammerOptions::default(),
//! )?;
//! assert!(!report.flips.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ecc;
mod geometry;
pub mod hammer;
mod mapping;
mod module;
mod para;
mod profile;
mod trr;
mod weakcells;

pub use ecc::{EccConfig, EccOutcome, ECC_WORD_BITS};
pub use geometry::{DramGeometry, Location, RowKey};
pub use mapping::{AddressMapping, MappingKind};
pub use module::{
    DramError, DramModule, DramModuleBuilder, FlipDirection, FlipEvent, HammerOptions, HammerReport,
};
pub use para::ParaConfig;
pub use profile::{DramGeneration, ModuleProfile, RowPolicy};
pub use trr::TrrConfig;
pub use weakcells::{weak_cells_for_row, CellOrientation, WeakCell};
