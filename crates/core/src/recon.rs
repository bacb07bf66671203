//! Reconnaissance: locating aggressor/victim row triples in the L2P table.
//!
//! The paper's attacker "identifies the aggressor rows using a combination
//! of prior device DRAM structure knowledge and trial and error" (§3.1) and
//! "can map out potential aggressor and victim rows in a given SSD model
//! offline; the row-level adjacency should be consistent among instances of
//! the same model" (§4.2). These functions implement that knowledge: given
//! the FTL's L2P layout and the DRAM mapping, they enumerate physical row
//! triples, the LBAs whose entries populate them, and — for the cloud case —
//! which triples place the victim row's entries in the *victim* partition
//! while both aggressor rows are reachable from the *attacker* partition.

use std::collections::BTreeSet;

use ssdhammer_dram::RowKey;
use ssdhammer_ftl::Ftl;
use ssdhammer_simkit::{DramAddr, Lba};

use crate::attack::enumerate_sites;

/// A device-LBA range (a partition's slice of the shared FTL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbaRange {
    /// First device LBA.
    pub start: Lba,
    /// Number of blocks.
    pub blocks: u64,
}

impl LbaRange {
    /// True when `lba` falls inside the range.
    #[must_use]
    pub fn contains(&self, lba: Lba) -> bool {
        lba.as_u64() >= self.start.as_u64() && lba.as_u64() < self.start.as_u64() + self.blocks
    }

    /// Converts a device LBA to a range-relative LBA.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is outside the range.
    #[must_use]
    pub fn to_relative(&self, lba: Lba) -> Lba {
        assert!(self.contains(lba), "{lba} outside range");
        Lba(lba.as_u64() - self.start.as_u64())
    }
}

/// One double-sided hammering opportunity on the L2P table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSite {
    /// The victim DRAM row (its L2P entries get corrupted).
    pub victim: RowKey,
    /// The physically adjacent aggressor rows.
    pub above: RowKey,
    /// The physically adjacent aggressor rows.
    pub below: RowKey,
    /// Device LBAs whose L2P entries live in the victim row.
    pub victim_lbas: Vec<Lba>,
    /// Device LBAs whose entries live in the `above` aggressor row.
    pub above_lbas: Vec<Lba>,
    /// Device LBAs whose entries live in the `below` aggressor row.
    pub below_lbas: Vec<Lba>,
    /// Hammer count of the victim row's weakest cell within one refresh
    /// window (from offline module profiling).
    pub weakest_threshold: u64,
}

/// Enumerates up to `max_sites` attack sites, weakest victims first.
///
/// Only rows that (a) contain weak cells, (b) have both physical neighbors,
/// and (c) whose triple rows all hold L2P entries qualify. This is
/// [`enumerate_sites`] over every DRAM row the L2P table occupies (derived
/// from the table's address range through the controller mapping, not the
/// whole module), keeping the sites whose victim row holds entries.
#[must_use]
pub fn find_attack_sites(ftl: &Ftl, max_sites: usize) -> Vec<AttackSite> {
    let rows: Vec<RowKey> = l2p_rows(ftl).into_iter().collect();
    let mut sites = enumerate_sites(ftl, &rows);
    sites.retain(|s| !s.victim_lbas.is_empty());
    sites.truncate(max_sites);
    sites
}

/// The DRAM rows the L2P table occupies: the row of every row-sized step
/// through the table's address range, decoded by the controller mapping.
pub(crate) fn l2p_rows(ftl: &Ftl) -> BTreeSet<RowKey> {
    let mapping = ftl.dram().mapping();
    let row_bytes = u64::from(mapping.geometry().row_bytes);
    let base = ftl.config().l2p_base.as_u64();
    let end = base + ftl.table().size_bytes();
    (base - base % row_bytes..end)
        .step_by(row_bytes as usize)
        .map(|addr| mapping.decode(DramAddr(addr)).row_key())
        .collect()
}

/// An attack site usable across a partition boundary: the aggressor rows can
/// be activated from the attacker's partition while the victim row holds
/// entries of the victim's partition — §4.2's observation that swizzled
/// controller mappings yield such "sets of three vulnerable rows" (32 on the
/// paper's example system).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossPartitionSite {
    /// The underlying site.
    pub site: AttackSite,
    /// An attacker-partition LBA activating the `above` row.
    pub aggressor_above: Lba,
    /// An attacker-partition LBA activating the `below` row.
    pub aggressor_below: Lba,
    /// The victim-partition LBAs exposed to corruption.
    pub exposed_victim_lbas: Vec<Lba>,
}

/// Filters `sites` to those usable from `attacker` against `victim`.
#[must_use]
pub fn cross_partition_sites(
    sites: &[AttackSite],
    attacker: LbaRange,
    victim: LbaRange,
) -> Vec<CrossPartitionSite> {
    sites
        .iter()
        .filter_map(|site| {
            let aggressor_above = site
                .above_lbas
                .iter()
                .copied()
                .find(|&l| attacker.contains(l))?;
            let aggressor_below = site
                .below_lbas
                .iter()
                .copied()
                .find(|&l| attacker.contains(l))?;
            let exposed: Vec<Lba> = site
                .victim_lbas
                .iter()
                .copied()
                .filter(|&l| victim.contains(l))
                .collect();
            if exposed.is_empty() {
                return None;
            }
            Some(CrossPartitionSite {
                site: site.clone(),
                aggressor_above,
                aggressor_below,
                exposed_victim_lbas: exposed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_dram::{DramGeometry, DramModule, MappingKind, ModuleProfile};
    use ssdhammer_flash::{FlashArray, FlashGeometry};
    use ssdhammer_ftl::FtlConfig;
    use ssdhammer_simkit::SimClock;

    fn ftl(mapping: MappingKind) -> Ftl {
        let mut profile =
            ModuleProfile::from_min_rate("eager", ssdhammer_dram::DramGeneration::Ddr3, 2021, 1);
        profile.hc_first = 1000;
        profile.row_vulnerable_prob = 0.5;
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(profile)
            .mapping(mapping)
            // Seed picked so the 50%-vulnerable draw leaves cross-partition
            // triples intact under both mappings.
            .seed(2)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::mib64(), clock, 1);
        Ftl::new(dram, nand, FtlConfig::default()).unwrap()
    }

    #[test]
    fn sites_are_sorted_by_threshold_and_consistent() {
        let f = ftl(MappingKind::Linear);
        let sites = find_attack_sites(&f, 16);
        assert!(!sites.is_empty());
        assert!(sites
            .windows(2)
            .all(|w| w[0].weakest_threshold <= w[1].weakest_threshold));
        for s in &sites {
            assert_eq!(s.above.row + 1, s.victim.row);
            assert_eq!(s.victim.row + 1, s.below.row);
            assert_eq!(s.above.bank, s.victim.bank);
            // Entries really decode into the stated rows.
            let dram = f.dram();
            for &l in s.victim_lbas.iter().take(3) {
                let loc = dram.mapping().decode(f.table().entry_addr(l));
                assert_eq!((loc.bank, loc.row), (s.victim.bank, s.victim.row));
            }
        }
    }

    #[test]
    fn lba_range_membership() {
        let r = LbaRange {
            start: Lba(100),
            blocks: 50,
        };
        assert!(r.contains(Lba(100)) && r.contains(Lba(149)));
        assert!(!r.contains(Lba(99)) && !r.contains(Lba(150)));
        assert_eq!(r.to_relative(Lba(120)), Lba(20));
    }

    #[test]
    fn linear_mapping_has_no_cross_partition_sites_off_boundary() {
        // With a linear controller mapping and a linear L2P, LBA order and
        // row order coincide: aggressor rows around a victim-partition row
        // hold victim-partition entries too (except at the boundary), so
        // interior cross-partition sites must not exist.
        let f = ftl(MappingKind::Linear);
        let sites = find_attack_sites(&f, 1024);
        let cap = f.capacity_lbas();
        // Leave a guard band around the partition boundary.
        let attacker = LbaRange {
            start: Lba(0),
            blocks: cap / 2 - 4096,
        };
        let victim = LbaRange {
            start: Lba(cap / 2 + 4096),
            blocks: cap / 2 - 4096,
        };
        let cross = cross_partition_sites(&sites, attacker, victim);
        assert!(
            cross.is_empty(),
            "linear mapping should not interleave partitions: {} sites",
            cross.len()
        );
    }

    #[test]
    fn swizzled_mapping_yields_cross_partition_sites() {
        // §4.2: the controller's mapping function lets triples straddle the
        // partition boundary — "32 sets of three vulnerable rows" on the
        // paper's system.
        let f = ftl(MappingKind::default_xor());
        let sites = find_attack_sites(&f, 4096);
        let cap = f.capacity_lbas();
        let attacker = LbaRange {
            start: Lba(0),
            blocks: cap / 2,
        };
        let victim = LbaRange {
            start: Lba(cap / 2),
            blocks: cap / 2,
        };
        let cross = cross_partition_sites(&sites, attacker, victim);
        assert!(
            !cross.is_empty(),
            "swizzled mapping should create cross-partition triples"
        );
        for c in &cross {
            assert!(attacker.contains(c.aggressor_above));
            assert!(attacker.contains(c.aggressor_below));
            assert!(c.exposed_victim_lbas.iter().all(|&l| victim.contains(l)));
        }
    }
}
