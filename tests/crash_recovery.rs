//! Power-cycle semantics of the attack: the L2P table lives in *volatile*
//! DRAM, so corruption that never reaches flash heals on reboot — and what
//! has reached flash does not.

use ssdhammer::core::{
    find_attack_sites, setup_entries, AttackPipeline, CrossBank, L2pEntries, TwoSided,
};
use ssdhammer::dram::{DramGeneration, DramGeometry, DramModule, MappingKind, ModuleProfile};
use ssdhammer::ftl::{Ftl, FtlConfig};
use ssdhammer::nvme::{Ssd, SsdConfig};
use ssdhammer::simkit::{Lba, SimClock, SimDuration, BLOCK_SIZE};

fn eager_config(seed: u64) -> SsdConfig {
    let mut profile = ModuleProfile::from_min_rate("eager", DramGeneration::Ddr3, 2021, 1);
    profile.hc_first = 1000;
    profile.row_vulnerable_prob = 1.0;
    profile.weak_cells_per_row = 8.0;
    SsdConfig {
        dram_profile: profile,
        ..SsdConfig::test_small(seed)
    }
}

fn fresh_dram() -> DramModule {
    DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .without_timing()
        .build(SimClock::new())
}

/// Rowhammer corruption of the L2P table is volatile: a power cycle plus
/// OOB-based rebuild restores every mapping the attack had redirected —
/// unless the corrupted state was acted upon before the crash.
#[test]
fn reboot_heals_hammered_l2p_entries() {
    let mut ssd = Ssd::build(eager_config(5));
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    setup_entries(ssd.ftl_mut(), &site.victim_lbas).unwrap();
    // Record pre-attack ground truth.
    let truth: Vec<_> = site
        .victim_lbas
        .iter()
        .map(|&l| ssd.ftl().peek_mapping(l).unwrap())
        .collect();
    // Victims were staged above so the ground truth could be captured;
    // skip the pipeline's own victim rewrite to keep it valid.
    let outcome = AttackPipeline::new(
        TwoSided,
        L2pEntries {
            setup_victims: false,
            ..L2pEntries::default()
        },
        CrossBank,
    )
    .with_rate(5_000_000.0)
    .with_duration(SimDuration::from_millis(200))
    .with_sites(vec![site.clone()])
    .run(&mut ssd)
    .unwrap();
    assert!(
        !outcome.redirections().is_empty(),
        "attack must corrupt mappings"
    );

    // Power loss: DRAM gone, flash survives. Rebuild from OOB.
    let (_lost_dram, nand) = ssd.into_ftl().into_parts();
    let mut ftl_owned = Ftl::recover(fresh_dram(), nand, FtlConfig::default()).unwrap();

    // Every victim mapping reads back to its pre-attack truth.
    for (&lba, expected) in site.victim_lbas.iter().zip(&truth) {
        let recovered = ftl_owned.peek_mapping(lba).unwrap();
        assert_eq!(
            &recovered, expected,
            "{lba}: reboot should heal volatile L2P corruption"
        );
    }
    // And the data still reads correctly.
    let mut buf = [0u8; BLOCK_SIZE];
    for &lba in site.victim_lbas.iter().take(8) {
        ftl_owned.read(lba, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf[..8].try_into().unwrap()),
            lba.as_u64()
        );
    }
}

/// Damage that reached flash before the crash persists: overwriting a
/// *redirected* LBA invalidates the wrong physical page's bookkeeping and
/// writes a newer version; recovery keeps the newest version per LBA, so
/// the overwrite survives the reboot (as it should), while the hijacked
/// read path is gone.
#[test]
fn writes_through_corruption_persist_across_reboot() {
    let mut ftl = {
        let config = eager_config(5);
        // Build at FTL level directly for clean teardown.
        let clock = SimClock::new();
        let dram = DramModule::builder(config.dram_geometry)
            .profile(config.dram_profile.clone())
            .mapping(config.dram_mapping)
            .seed(config.seed)
            .without_timing()
            .build(clock.clone());
        let nand = ssdhammer::flash::FlashArray::new(config.flash_geometry, clock, config.seed);
        Ftl::new(dram, nand, config.ftl).unwrap()
    };
    ftl.write(Lba(1), &[0x11; BLOCK_SIZE]).unwrap();
    ftl.write(Lba(2), &[0x22; BLOCK_SIZE]).unwrap();
    // Corrupt: LBA 1 now points at LBA 2's page (simulated useful flip).
    let ppn2 = ftl.peek_mapping(Lba(2)).unwrap().unwrap();
    let addr1 = ftl.table().entry_addr(Lba(1));
    ftl.dram_mut()
        .write_u32(addr1, u32::try_from(ppn2.as_u64()).unwrap())
        .unwrap();
    // The victim overwrites LBA 1 while corrupted: the FTL invalidates what
    // it *believes* is LBA 1's old page — actually LBA 2's.
    ftl.write(Lba(1), &[0x33; BLOCK_SIZE]).unwrap();

    // Crash + rebuild.
    let (_dram, nand) = ftl.into_parts();
    let mut recovered = Ftl::recover(fresh_dram(), nand, FtlConfig::default()).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    // LBA 1's newest version (0x33) survives.
    recovered.read(Lba(1), &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x33));
    // LBA 2's page was never really overwritten (flash is copy-on-write), so
    // recovery finds it intact — the paper's note that redirection "does not
    // provide attackers with the ability to directly write victim LBAs, as
    // flash writes are copy-on-write" (§3.2).
    recovered.read(Lba(2), &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x22));
}
