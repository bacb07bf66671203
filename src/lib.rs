//! # ssdhammer
//!
//! A full reproduction of *Rowhammering Storage Devices* (Zhang, Pismenny,
//! Porter, Tsafrir, Zuck — HotStorage '21) as a Rust workspace: a simulated
//! SSD stack (DRAM with a rowhammer disturbance model, NAND flash, an FTL
//! whose L2P table lives in that DRAM, an NVMe-ish front end, an ext4-like
//! filesystem) plus the attack library and the multi-tenant cloud case
//! study built on top of it.
//!
//! This facade crate re-exports every workspace crate under one roof; the
//! `examples/` directory shows the main flows:
//!
//! * `quickstart` — Figure 1's mechanism in ~50 lines;
//! * `info_leak` — the end-to-end §4 cloud case study;
//! * `mitigations` — §5's defenses switched on one at a time;
//! * `probability` — the §4.3 success model;
//! * `mapping_explorer` — DRAM mapping and cross-partition triple census.
//!
//! Application code usually starts from [`prelude`] (`use
//! ssdhammer::prelude::*;`) and the unified [`Error`]/[`Result`] pair
//! instead of spelling out per-crate paths and `Box<dyn Error>`.
//!
//! # Examples
//!
//! ```
//! use ssdhammer::core::AttackParams;
//!
//! // §4.3: ~7% per attack cycle, >50% after ten cycles.
//! let params = AttackParams::paper_example(1 << 18);
//! assert!(params.cumulative_success(10) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod prelude;

pub use error::{Error, Result};

pub use ssdhammer_cloud as cloud;
pub use ssdhammer_core as core;
pub use ssdhammer_dram as dram;
pub use ssdhammer_flash as flash;
pub use ssdhammer_fs as fs;
pub use ssdhammer_ftl as ftl;
pub use ssdhammer_nvme as nvme;
pub use ssdhammer_simkit as simkit;

/// The README's Rust examples, compiled and run as doctests so they cannot
/// drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
