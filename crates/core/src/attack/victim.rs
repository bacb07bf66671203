//! [`Victim`] — which DRAM-resident FTL state is attacked and how its
//! corruption is observed.

use std::collections::BTreeSet;

use ssdhammer_dram::RowKey;
use ssdhammer_ftl::{Ftl, FtlError, MetaKind};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::Lba;

use crate::attack::{setup_entries, snapshot_host_mappings, AttackError, MappingState};
use crate::recon::AttackSite;

/// One observation of a victim state unit through the device path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A host-visible L2P mapping.
    Mapping(MappingState),
    /// A raw metadata word (bad-block table, wear counter, journal cache).
    Word(u32),
    /// The device could not read the unit at all.
    Unreadable,
}

/// How a changed unit fails: silently (wrong state served as if good — the
/// paper's dangerous case) or loudly (the device reports an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The corruption is invisible to the host until consumed.
    Silent,
    /// The host observes an error.
    Loud,
}

/// A DRAM-resident FTL structure targeted by the attack. Implementations
/// know where their state lives, how to materialize it, how to observe it
/// through the device path, and how a change classifies.
pub trait Victim {
    /// Registry name (`l2p`, `bad_block`, `journal`, `wear`).
    fn name(&self) -> &'static str;

    /// Adjusts the device build so this victim's state actually resides in
    /// DRAM (e.g. enables [`ssdhammer_ftl::FtlConfig::meta_resident`]).
    /// Called before `Ssd::build` by grid drivers; no-op by default.
    fn configure(&self, config: &mut SsdConfig) {
        let _ = config;
    }

    /// DRAM rows holding this victim's state (placement chooses aggressors
    /// around these).
    fn target_rows(&self, ftl: &Ftl) -> Vec<RowKey>;

    /// Materializes victim state for the chosen sites (§3.1's setup phase).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    fn setup(&self, ssd: &mut Ssd, sites: &[AttackSite]) -> Result<(), AttackError>;

    /// Observes every state unit in the sites' victim rows through the
    /// device path, as `(unit id, observation)` pairs in a stable order.
    ///
    /// # Errors
    ///
    /// Propagates device errors; per-unit read failures become
    /// [`Observation::Unreadable`].
    fn observe(
        &self,
        ssd: &mut Ssd,
        sites: &[AttackSite],
    ) -> Result<Vec<(u64, Observation)>, AttackError>;

    /// Classifies one changed unit. The default implements the PR 5
    /// semantics: a unit that became unreadable fails loudly; anything else
    /// (redirected mapping, altered word) is silent corruption.
    fn classify(&self, before: &Observation, after: &Observation) -> ChangeKind {
        let _ = before;
        match after {
            Observation::Unreadable | Observation::Mapping(MappingState::Unreadable) => {
                ChangeKind::Loud
            }
            _ => ChangeKind::Silent,
        }
    }
}

/// The paper's victim: L2P entries, observed as host-visible mappings.
#[derive(Debug, Clone, Copy)]
pub struct L2pEntries {
    /// Write the victim LBAs during setup (on by default). Turn off when
    /// the caller already staged the entries and must not disturb their
    /// mappings (e.g. after capturing ground truth for a recovery check).
    pub setup_victims: bool,
    /// Also write the first above/below aggressor LBA of each site during
    /// setup (the Figure 1 demonstration maps its aggressors too).
    pub setup_aggressors: bool,
}

impl Default for L2pEntries {
    fn default() -> Self {
        L2pEntries {
            setup_victims: true,
            setup_aggressors: false,
        }
    }
}

impl Victim for L2pEntries {
    fn name(&self) -> &'static str {
        "l2p"
    }

    fn target_rows(&self, ftl: &Ftl) -> Vec<RowKey> {
        let dram = ftl.dram();
        let mapping = dram.mapping();
        let row_bytes = u64::from(mapping.geometry().row_bytes);
        let base = ftl.table().base().as_u64();
        let end = base + ftl.table().size_bytes();
        let mut rows = BTreeSet::new();
        let mut addr = base - base % row_bytes;
        while addr < end {
            rows.insert(mapping.decode(ssdhammer_simkit::DramAddr(addr)).row_key());
            addr += row_bytes;
        }
        rows.into_iter()
            .filter(|k| !ftl.table().lbas_in_row(dram, k.bank, k.row).is_empty())
            .collect()
    }

    fn setup(&self, ssd: &mut Ssd, sites: &[AttackSite]) -> Result<(), AttackError> {
        for site in sites {
            if self.setup_victims {
                setup_entries(ssd.ftl_mut(), &site.victim_lbas)?;
            }
            if self.setup_aggressors {
                setup_entries(ssd.ftl_mut(), &[site.above_lbas[0], site.below_lbas[0]])?;
            }
        }
        Ok(())
    }

    fn observe(
        &self,
        ssd: &mut Ssd,
        sites: &[AttackSite],
    ) -> Result<Vec<(u64, Observation)>, AttackError> {
        let lbas: Vec<Lba> = sites.iter().flat_map(|s| s.victim_lbas.clone()).collect();
        let states = snapshot_host_mappings(ssd.ftl_mut(), &lbas)?;
        Ok(lbas
            .into_iter()
            .zip(states)
            .map(|(l, s)| (l.as_u64(), Observation::Mapping(s)))
            .collect())
    }
}

/// DRAM rows of metadata mirror `kind` (empty when the plane is disabled).
fn meta_rows(ftl: &Ftl, kind: MetaKind) -> Vec<RowKey> {
    let Some(plane) = ftl.meta().copied() else {
        return Vec::new();
    };
    let mapping = ftl.dram().mapping();
    let rows: BTreeSet<RowKey> = (0..plane.words(kind))
        .filter_map(|i| plane.word_addr(kind, i))
        .map(|addr| mapping.decode(addr).row_key())
        .collect();
    rows.into_iter().collect()
}

/// Reads every word of mirror `kind` that lives in the sites' victim rows,
/// through the device's timed DRAM path.
fn observe_meta_words(
    ssd: &mut Ssd,
    kind: MetaKind,
    sites: &[AttackSite],
) -> Result<Vec<(u64, Observation)>, AttackError> {
    let rows: BTreeSet<RowKey> = sites.iter().map(|s| s.victim).collect();
    let Some(plane) = ssd.ftl().meta().copied() else {
        return Ok(Vec::new());
    };
    let indices: Vec<u64> = {
        let mapping = ssd.ftl().dram().mapping();
        (0..plane.words(kind))
            .filter(|&i| {
                plane
                    .word_addr(kind, i)
                    .is_some_and(|addr| rows.contains(&mapping.decode(addr).row_key()))
            })
            .collect()
    };
    indices
        .into_iter()
        .map(|i| match ssd.ftl_mut().meta_word_read(kind, i) {
            Ok(w) => Ok((i, Observation::Word(w))),
            Err(FtlError::Dram(_)) => Ok((i, Observation::Unreadable)),
            Err(e) => Err(e.into()),
        })
        .collect()
}

/// The grown-bad-block table: a flipped bit silently retires a good block
/// or resurrects a bad one.
#[derive(Debug, Clone, Copy, Default)]
pub struct BadBlockTable;

impl Victim for BadBlockTable {
    fn name(&self) -> &'static str {
        "bad_block"
    }

    fn configure(&self, config: &mut SsdConfig) {
        config.ftl.meta_resident = true;
    }

    fn target_rows(&self, ftl: &Ftl) -> Vec<RowKey> {
        meta_rows(ftl, MetaKind::BadBlock)
    }

    fn setup(&self, _ssd: &mut Ssd, _sites: &[AttackSite]) -> Result<(), AttackError> {
        // The plane's init pattern already materialized the table rows.
        Ok(())
    }

    fn observe(
        &self,
        ssd: &mut Ssd,
        sites: &[AttackSite],
    ) -> Result<Vec<(u64, Observation)>, AttackError> {
        observe_meta_words(ssd, MetaKind::BadBlock, sites)
    }
}

/// The L2P journal write cache: a flipped cached entry replays a wrong
/// mapping after the next power cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalCache;

impl Victim for JournalCache {
    fn name(&self) -> &'static str {
        "journal"
    }

    fn configure(&self, config: &mut SsdConfig) {
        config.ftl.meta_resident = true;
        if config.ftl.journal_checkpoint_every == 0 {
            config.ftl.journal_checkpoint_every = 64;
        }
    }

    fn target_rows(&self, ftl: &Ftl) -> Vec<RowKey> {
        meta_rows(ftl, MetaKind::Journal)
    }

    fn setup(&self, ssd: &mut Ssd, _sites: &[AttackSite]) -> Result<(), AttackError> {
        // Populate the ring through real journaled writes.
        let lbas: Vec<Lba> = (0..8).map(Lba).collect();
        setup_entries(ssd.ftl_mut(), &lbas)?;
        Ok(())
    }

    fn observe(
        &self,
        ssd: &mut Ssd,
        sites: &[AttackSite],
    ) -> Result<Vec<(u64, Observation)>, AttackError> {
        observe_meta_words(ssd, MetaKind::Journal, sites)
    }
}

/// The wear-level counters: a flipped count silently skews block allocation
/// toward worn-out flash.
#[derive(Debug, Clone, Copy, Default)]
pub struct WearCounters;

impl Victim for WearCounters {
    fn name(&self) -> &'static str {
        "wear"
    }

    fn configure(&self, config: &mut SsdConfig) {
        config.ftl.meta_resident = true;
    }

    fn target_rows(&self, ftl: &Ftl) -> Vec<RowKey> {
        meta_rows(ftl, MetaKind::Wear)
    }

    fn setup(&self, _ssd: &mut Ssd, _sites: &[AttackSite]) -> Result<(), AttackError> {
        Ok(())
    }

    fn observe(
        &self,
        ssd: &mut Ssd,
        sites: &[AttackSite],
    ) -> Result<Vec<(u64, Observation)>, AttackError> {
        observe_meta_words(ssd, MetaKind::Wear, sites)
    }
}
