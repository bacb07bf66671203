//! [`Placement`] — where aggressor rows are chosen.

use std::collections::{BTreeMap, BTreeSet};

use ssdhammer_dram::RowKey;
use ssdhammer_ftl::Ftl;

use crate::recon::{l2p_rows, AttackSite};

/// An aggressor-row selection policy. Given the victim's target rows, find
/// row triples whose aggressors the attacker can activate through host
/// reads (their rows must hold L2P entries), ordered weakest victim first.
pub trait Placement {
    /// Registry name (`cross_bank`, `same_bank`).
    fn name(&self) -> &'static str;

    /// Selects up to `limit` sites around `targets` on this device.
    fn place(&self, ftl: &Ftl, targets: &[RowKey], limit: usize) -> Vec<AttackSite>;
}

/// Enumerates every usable aggressor site around `targets`: the victim row
/// must carry weak cells and both physical neighbors must hold L2P entries
/// (the attacker's only lever is host reads of mapped LBAs). Sites are
/// sorted weakest victim first, then by bank and row;
/// [`crate::recon::find_attack_sites`] is this search over every L2P row.
#[must_use]
pub fn enumerate_sites(ftl: &Ftl, targets: &[RowKey]) -> Vec<AttackSite> {
    let dram = ftl.dram();
    let geometry = *dram.mapping().geometry();
    let table = ftl.table();
    // Rows holding L2P entries — the aggressor candidates.
    let l2p_rows = l2p_rows(ftl);
    let unique: BTreeSet<RowKey> = targets.iter().copied().collect();
    let mut sites = Vec::new();
    for &victim in &unique {
        if victim.row == 0 || victim.row + 1 >= geometry.rows_per_bank {
            continue;
        }
        let above = RowKey {
            bank: victim.bank,
            row: victim.row - 1,
        };
        let below = RowKey {
            bank: victim.bank,
            row: victim.row + 1,
        };
        if !l2p_rows.contains(&above) || !l2p_rows.contains(&below) {
            continue;
        }
        let cells = dram.profile_row(victim);
        let Some(weakest) = cells.first() else {
            continue;
        };
        let above_lbas = table.lbas_in_row(dram, above.bank, above.row);
        let below_lbas = table.lbas_in_row(dram, below.bank, below.row);
        if above_lbas.is_empty() || below_lbas.is_empty() {
            continue;
        }
        // Victim LBAs may be empty when the target is a metadata row.
        let victim_lbas = table.lbas_in_row(dram, victim.bank, victim.row);
        sites.push(AttackSite {
            victim,
            above,
            below,
            victim_lbas,
            above_lbas,
            below_lbas,
            weakest_threshold: weakest.threshold,
        });
    }
    sites.sort_by_key(|s| (s.weakest_threshold, s.victim.bank, s.victim.row));
    sites
}

/// The default policy: the globally weakest sites, wherever they fall.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossBank;

impl Placement for CrossBank {
    fn name(&self) -> &'static str {
        "cross_bank"
    }

    fn place(&self, ftl: &Ftl, targets: &[RowKey], limit: usize) -> Vec<AttackSite> {
        let mut sites = enumerate_sites(ftl, targets);
        sites.truncate(limit);
        sites
    }
}

/// Packs the selection into the single bank holding the most sites — the
/// raw material for many-sided patterns, which must flood one bank's TRR
/// sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct SameBank;

impl Placement for SameBank {
    fn name(&self) -> &'static str {
        "same_bank"
    }

    fn place(&self, ftl: &Ftl, targets: &[RowKey], limit: usize) -> Vec<AttackSite> {
        let sites = enumerate_sites(ftl, targets);
        let mut by_bank: BTreeMap<u32, Vec<AttackSite>> = BTreeMap::new();
        for s in sites {
            by_bank.entry(s.victim.bank).or_default().push(s);
        }
        let Some((_, mut best)) = by_bank
            .into_iter()
            .max_by_key(|(bank, v)| (v.len(), u32::MAX - bank))
        else {
            return Vec::new();
        };
        best.truncate(limit);
        best
    }
}
