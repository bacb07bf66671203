//! # ssdhammer-core
//!
//! The primary contribution of *Rowhammering Storage Devices* (HotStorage
//! '21), as a library: everything an unprivileged host workload needs to
//! rowhammer an SSD's FTL *through the intended I/O interface* — on the
//! simulated stack built by the sibling crates.
//!
//! The attack pipeline (§3–§4):
//!
//! 1. **Recon** ([`recon`]): enumerate aggressor/victim DRAM-row triples of
//!    the L2P table from offline model knowledge, including the
//!    cross-partition triples that swizzled memory-controller mappings
//!    create (§4.2's "32 sets of three vulnerable rows").
//! 2. **Primitive** ([`attack`]): prepare L2P entries with sequential
//!    writes, issue the alternating read workload of Figure 1, and detect
//!    the resulting mapping redirections.
//! 3. **Spray & scan** ([`spray`]): fill the victim filesystem with
//!    hole-punched indirect-addressed files whose lone data blocks are
//!    maliciously formed indirect blocks; after hammering, scan for content
//!    changes and dump privileged blocks through the corrupted pointer
//!    chain (Figure 3).
//! 4. **Escalation** ([`polyglot`]): §3.2's *write-something-somewhere*
//!    primitive via blocks simultaneously valid as pointer arrays, file
//!    data, and (toy) executables.
//! 5. **Probability** ([`probability`]): the §4.3 closed-form success model
//!    (7 % per cycle, >50 % after 10 cycles under the paper's parameters)
//!    plus a Monte-Carlo cross-check.
//!
//! # Examples
//!
//! The §4.3 arithmetic:
//!
//! ```
//! use ssdhammer_core::AttackParams;
//!
//! let params = AttackParams::paper_example(1 << 18);
//! let p = params.useful_flip_probability();
//! assert!((p - 0.07).abs() < 0.005);           // ~7% per cycle
//! assert!(params.cumulative_success(10) > 0.5); // >50% after 10 cycles
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod polyglot;
pub mod probability;
pub mod recon;
pub mod spray;

pub use attack::{
    expected_time_to_success, make_hammerer, make_placement, make_victim, pattern_names,
    placement_names, probe_sites, setup_entries, victim_names, AttackError, AttackOutcome,
    AttackPipeline, BadBlockTable, ChangeKind, CrossBank, HammerPlan, Hammerer, JournalCache,
    L2pEntries, ManySided, MappingState, Observation, OneLocation, OneSided, Placement,
    Redirection, RowPress, SameBank, TwoSided, Victim, VictimChange, WearCounters,
};
pub use polyglot::{executable_payload, is_valid_executable, polyglot_block};
pub use probability::AttackParams;
pub use recon::{
    cross_partition_sites, find_attack_sites, AttackSite, CrossPartitionSite, LbaRange,
};
pub use spray::{
    clear_spray, dump_through_hit, malicious_indirect_payload, scan_for_leaks, spray_filesystem,
    LeakHit, SprayPlan, SprayReport, SprayedFile, SPRAY_BLOCK_INDEX,
};
