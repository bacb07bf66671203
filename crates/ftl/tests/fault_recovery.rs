//! Integration tests for the FTL recovery stack under deterministic fault
//! injection: the read-retry ladder with ECC escalation, grown-bad-block
//! remapping, journal checkpoint + power-loss replay, and graceful
//! degradation to read-only mode.

use ssdhammer_dram::{DramGeometry, DramModule, MappingKind, ModuleProfile};
use ssdhammer_flash::{FlashArray, FlashGeometry};
use ssdhammer_ftl::{Ftl, FtlConfig, FtlError, ReadOutcome};
use ssdhammer_simkit::faultplane::{FaultPlane, FaultPlaneConfig, FaultSpec};
use ssdhammer_simkit::{Lba, SimClock, BLOCK_SIZE};

fn block(fill: u8) -> Vec<u8> {
    vec![fill; BLOCK_SIZE]
}

fn fresh_dram(seed: u64) -> DramModule {
    DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(SimClock::new())
}

/// Counter `name` of the FTL's registry; an unregistered name fails the
/// test.
fn counter(ftl: &Ftl, name: &str) -> u64 {
    ftl.shared_telemetry()
        .counter_value(name)
        .unwrap_or_else(|| panic!("counter {name} is not registered"))
}

/// A tiny FTL whose NAND consults the given fault sites.
fn faulty_ftl(seed: u64, config: FtlConfig, faults: FaultPlaneConfig) -> Ftl {
    let clock = SimClock::new();
    let dram = DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(clock.clone());
    // Seed 1 yields no factory-bad blocks in the tiny geometry.
    let mut nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
    nand.set_fault_plane(FaultPlane::new(seed, &faults));
    Ftl::new(dram, nand, config).unwrap()
}

#[test]
fn transient_read_failures_recover_through_retries() {
    // Half of all media reads fail; 8 retries make an unrecovered read
    // astronomically unlikely (and the fixed seed makes it impossible).
    let faults =
        FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::with_probability(0.5));
    let mut ftl = faulty_ftl(
        7,
        FtlConfig {
            read_retry_max: 8,
            ..FtlConfig::default()
        },
        faults,
    );
    for lba in 0..50u64 {
        ftl.write(Lba(lba), &block(lba as u8)).unwrap();
    }
    let mut out = block(0);
    for lba in 0..50u64 {
        let outcome = ftl.read(Lba(lba), &mut out).unwrap();
        assert!(matches!(outcome, ReadOutcome::Mapped { .. }));
        assert_eq!(out[0], lba as u8, "lba {lba}");
    }
    assert!(
        counter(&ftl, "recovery.read_retries") > 0,
        "retries must have fired"
    );
    assert_eq!(counter(&ftl, "recovery.uncorrectable_reads"), 0);
}

#[test]
fn exhausted_ladder_escalates_into_ecc_classification() {
    // Every read fails, no retries: each read goes straight to SEC-DED
    // classification of its 1-3 flipped bits.
    let faults = FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always());
    let mut ftl = faulty_ftl(
        7,
        FtlConfig {
            read_retry_max: 0,
            ..FtlConfig::default()
        },
        faults,
    );
    for lba in 0..60u64 {
        ftl.write(Lba(lba), &block(0x3C)).unwrap();
    }
    let mut corrected = 0u64;
    let mut uncorrectable = 0u64;
    let mut out = block(0);
    for lba in 0..60u64 {
        match ftl.read(Lba(lba), &mut out) {
            Ok(_) => corrected += 1,
            Err(FtlError::Uncorrectable { .. }) => uncorrectable += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(corrected > 0, "some reads must be ECC-served");
    assert!(uncorrectable > 0, "some reads must stay unreadable");
    assert_eq!(
        counter(&ftl, "recovery.ecc_corrected") + counter(&ftl, "recovery.silent_corruptions"),
        corrected
    );
    assert_eq!(counter(&ftl, "recovery.uncorrectable_reads"), uncorrectable);
}

#[test]
fn silent_corruption_is_caught_by_dif_but_not_without_it() {
    let faults = || FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always());
    // Without DIF: silently corrupted data is served as a normal read, by
    // the copying read and by the shared one alike.
    let mut out = block(0);
    for shared in [false, true] {
        let mut plain = faulty_ftl(
            9,
            FtlConfig {
                read_retry_max: 0,
                ..FtlConfig::default()
            },
            faults(),
        );
        for lba in 0..60u64 {
            plain.write(Lba(lba), &block(0x3C)).unwrap();
        }
        let mut silently_wrong = 0u64;
        for lba in 0..60u64 {
            let read = if shared {
                plain.read_shared(Lba(lba)).map(|(outcome, page)| {
                    out.copy_from_slice(&page);
                    outcome
                })
            } else {
                plain.read(Lba(lba), &mut out)
            };
            if let Ok(ReadOutcome::Mapped { .. }) = read {
                if out != block(0x3C) {
                    silently_wrong += 1;
                }
            }
        }
        assert!(counter(&plain, "recovery.silent_corruptions") > 0);
        assert_eq!(
            silently_wrong,
            counter(&plain, "recovery.silent_corruptions"),
            "every silent corruption serves wrong data undetected (shared: {shared})"
        );
    }

    // With DIF: the same fault stream turns silent corruptions into loud
    // guard mismatches; no wrong data reaches the host.
    let mut guarded = faulty_ftl(
        9,
        FtlConfig {
            read_retry_max: 0,
            dif: true,
            ..FtlConfig::default()
        },
        faults(),
    );
    for lba in 0..60u64 {
        guarded.write(Lba(lba), &block(0x3C)).unwrap();
    }
    let mut mismatches = 0u64;
    for lba in 0..60u64 {
        match guarded.read(Lba(lba), &mut out) {
            Ok(ReadOutcome::GuardMismatch { .. }) => mismatches += 1,
            Ok(ReadOutcome::Mapped { .. }) => assert_eq!(out, block(0x3C)),
            Ok(other) => panic!("unexpected outcome {other:?}"),
            Err(FtlError::Uncorrectable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(counter(&guarded, "recovery.silent_corruptions") > 0);
    assert_eq!(mismatches, counter(&guarded, "recovery.silent_corruptions"));
}

#[test]
fn gc_relocation_moves_pages_intact_except_where_the_ecc_ladder_says() {
    // Every media read fails and nothing retries, so each page the first
    // GC run relocates is classified by ECC: corrected (moved intact),
    // silent (moved with one flipped bit) or uncorrectable (dropped).
    let faults = FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always());
    let mut ftl = faulty_ftl(
        7,
        FtlConfig {
            read_retry_max: 0,
            ..FtlConfig::default()
        },
        faults,
    );
    let lbas = ftl.capacity_lbas();
    let mut written: Vec<Vec<u8>> = (0..lbas).map(|lba| block(lba as u8)).collect();
    for (lba, data) in written.iter().enumerate() {
        ftl.write(Lba(lba as u64), data).unwrap();
    }
    assert_eq!(counter(&ftl, "ftl.gc_runs"), 0);
    // Overwrite every other LBA until GC runs: the victim is half valid.
    for lba in (0..lbas).step_by(2) {
        written[lba as usize] = block(!(lba as u8));
        ftl.write(Lba(lba), &written[lba as usize]).unwrap();
        if counter(&ftl, "ftl.gc_runs") > 0 {
            break;
        }
    }
    let silent = counter(&ftl, "recovery.silent_corruptions");
    let uncorrectable = counter(&ftl, "recovery.uncorrectable_reads");
    assert_eq!(counter(&ftl, "ftl.gc_runs"), 1);
    assert!(counter(&ftl, "ftl.gc_relocated") > 0 && counter(&ftl, "recovery.ecc_corrected") > 0);
    assert!(silent > 0 && uncorrectable > 0);
    let mappings: Vec<_> = (0..lbas)
        .map(|lba| ftl.peek_mapping(Lba(lba)).unwrap())
        .collect();
    let (_, mut nand) = ftl.into_parts();
    let (mut flipped, mut unmapped) = (0, 0);
    for (lba, mapping) in mappings.into_iter().enumerate() {
        let Some(ppn) = mapping else {
            unmapped += 1;
            continue;
        };
        let (data, _) = nand.read_page_assisted(ppn).unwrap();
        let bits: u32 = data
            .iter()
            .zip(&written[lba])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(
            bits <= 1,
            "lba {lba}: {bits} bits differ from what was written"
        );
        flipped += u64::from(bits);
    }
    assert_eq!(flipped, silent);
    assert_eq!(unmapped, uncorrectable);
}

#[test]
fn program_failure_remaps_to_another_block() {
    let faults = FaultPlaneConfig::new()
        .with_site("flash.program_fail", FaultSpec::always().with_max_fires(1));
    let mut ftl = faulty_ftl(5, FtlConfig::default(), faults);
    // The very first program fails; the write must still succeed elsewhere.
    ftl.write(Lba(0), &block(0xAA)).unwrap();
    let mut out = block(0);
    ftl.read(Lba(0), &mut out).unwrap();
    assert_eq!(out, block(0xAA));
    assert_eq!(counter(&ftl, "recovery.bad_block_remaps"), 1);
    assert_eq!(ftl.remap_events(), 1);
    assert!(!ftl.is_read_only());
    assert_eq!(counter(&ftl, "flash.grown_bad"), 1);
}

#[test]
fn remap_preserves_valid_data_in_the_failing_block() {
    // Fill several pages of the active block, then fail the next program:
    // retirement must evacuate the live pages before marking it bad.
    let faults = FaultPlaneConfig::new().with_site(
        "flash.program_fail",
        FaultSpec::always().with_window(10, 11),
    );
    let mut ftl = faulty_ftl(5, FtlConfig::default(), faults);
    for lba in 0..30u64 {
        ftl.write(Lba(lba), &block(lba as u8 + 1)).unwrap();
    }
    let mut out = block(0);
    for lba in 0..30u64 {
        let outcome = ftl.read(Lba(lba), &mut out).unwrap();
        assert!(matches!(outcome, ReadOutcome::Mapped { .. }), "lba {lba}");
        assert_eq!(out, block(lba as u8 + 1), "lba {lba}");
    }
    assert_eq!(counter(&ftl, "recovery.bad_block_remaps"), 1);
    assert!(
        counter(&ftl, "ftl.gc_relocated") > 0,
        "live pages were evacuated"
    );
}

#[test]
fn remap_budget_exhaustion_degrades_to_read_only() {
    let faults = FaultPlaneConfig::new()
        .with_site("flash.program_fail", FaultSpec::always().with_max_fires(1));
    let mut ftl = faulty_ftl(
        5,
        FtlConfig {
            remap_budget: 0,
            ..FtlConfig::default()
        },
        faults,
    );
    // The triggering write completes (in-flight operations finish)...
    ftl.write(Lba(0), &block(0x11)).unwrap();
    assert!(ftl.is_read_only());
    assert_eq!(
        ftl.shared_telemetry()
            .snapshot()
            .gauge("recovery.read_only"),
        Some(1.0)
    );
    // ...but subsequent mutations are rejected while reads keep working.
    assert_eq!(ftl.write(Lba(1), &block(0x22)), Err(FtlError::ReadOnly));
    assert_eq!(ftl.trim(Lba(0)), Err(FtlError::ReadOnly));
    let mut out = block(0);
    ftl.read(Lba(0), &mut out).unwrap();
    assert_eq!(out, block(0x11));
}

#[test]
fn journal_reservation_reduces_exported_capacity() {
    let plain = faulty_ftl(1, FtlConfig::default(), FaultPlaneConfig::new());
    let journaled = faulty_ftl(
        1,
        FtlConfig {
            journal_checkpoint_every: 1,
            journal_blocks: 2,
            ..FtlConfig::default()
        },
        FaultPlaneConfig::new(),
    );
    // tiny flash: 16 blocks x 64 pages; auto OP = 2 blocks; journal = 2.
    assert_eq!(plain.capacity_lbas(), 896);
    assert_eq!(journaled.capacity_lbas(), 768);
}

#[test]
fn journal_replay_restores_trims_and_mappings_exactly() {
    let config = FtlConfig {
        journal_checkpoint_every: 8,
        journal_blocks: 2,
        ..FtlConfig::default()
    };
    let mut ftl = faulty_ftl(1, config, FaultPlaneConfig::new());
    for lba in 0..100u64 {
        ftl.write(Lba(lba), &block((lba % 251) as u8)).unwrap();
    }
    for lba in (0..100u64).step_by(3) {
        ftl.write(Lba(lba), &block(0xEE)).unwrap();
    }
    for lba in (0..100u64).step_by(7) {
        ftl.trim(Lba(lba)).unwrap();
    }
    // An orderly shutdown flushes the buffered journal tail; after that the
    // on-flash journal covers every mutation.
    ftl.flush().unwrap();
    assert!(counter(&ftl, "recovery.journal_checkpoints") > 0);
    assert_eq!(ftl.journal_pending(), 0, "flush leaves no buffered tail");
    let table_before = ftl.l2p_snapshot().unwrap();

    // Power cut: DRAM (and the in-memory table) is lost; flash survives.
    let (_lost_dram, nand) = ftl.into_parts();
    let recovered = Ftl::recover(fresh_dram(2), nand, config).unwrap();
    assert!(counter(&recovered, "recovery.journal_replayed") > 0);
    assert_eq!(
        recovered.l2p_snapshot().unwrap(),
        table_before,
        "replayed L2P table must be byte-identical"
    );

    // Spot-check semantics: trimmed LBAs stay trimmed (the journal's whole
    // point), and surviving data reads back.
    let mut recovered = recovered;
    let mut out = block(0);
    for lba in 0..100u64 {
        if lba % 7 == 0 {
            assert_eq!(recovered.peek_mapping(Lba(lba)).unwrap(), None, "lba {lba}");
        } else {
            let expected = if lba % 3 == 0 {
                0xEE
            } else {
                (lba % 251) as u8
            };
            recovered.read(Lba(lba), &mut out).unwrap();
            assert_eq!(out[0], expected, "lba {lba}");
        }
    }
}

#[test]
fn without_journal_trims_resurrect_after_crash() {
    // The contrast case documenting why the journal exists.
    let config = FtlConfig::default();
    let mut ftl = faulty_ftl(1, config, FaultPlaneConfig::new());
    ftl.write(Lba(4), &block(0x44)).unwrap();
    ftl.trim(Lba(4)).unwrap();
    assert_eq!(ftl.peek_mapping(Lba(4)).unwrap(), None);
    let (_lost, nand) = ftl.into_parts();
    let recovered = Ftl::recover(fresh_dram(2), nand, config).unwrap();
    assert!(
        recovered.peek_mapping(Lba(4)).unwrap().is_some(),
        "journal-less recovery resurrects trimmed data"
    );
}

#[test]
fn power_loss_fault_takes_device_offline_until_remount() {
    let config = FtlConfig {
        journal_checkpoint_every: 1,
        journal_blocks: 2,
        ..FtlConfig::default()
    };
    // The 21st mutation attempt hits the power cut.
    let faults = FaultPlaneConfig::new()
        .with_site("ftl.power_loss", FaultSpec::always().with_window(20, 21));
    let mut ftl = faulty_ftl(3, config, faults);
    let mut cut_at = None;
    for lba in 0..40u64 {
        match ftl.write(Lba(lba), &block(0x77)) {
            Ok(_) => {}
            Err(FtlError::PowerLoss) => {
                cut_at = Some(lba);
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(cut_at, Some(20), "power cut fires at the configured tick");
    assert_eq!(counter(&ftl, "recovery.power_losses"), 1);
    // Everything fails while offline.
    let mut out = block(0);
    assert_eq!(ftl.read(Lba(0), &mut out), Err(FtlError::PowerLoss));
    assert_eq!(ftl.write(Lba(0), &block(1)), Err(FtlError::PowerLoss));
    assert_eq!(ftl.trim(Lba(0)), Err(FtlError::PowerLoss));
    assert_eq!(ftl.flush(), Err(FtlError::PowerLoss));
    // Remount: the 20 completed writes are all there.
    let (_lost, nand) = ftl.into_parts();
    let mut recovered = Ftl::recover(fresh_dram(4), nand, config).unwrap();
    for lba in 0..20u64 {
        recovered.read(Lba(lba), &mut out).unwrap();
        assert_eq!(out, block(0x77), "lba {lba}");
    }
    assert_eq!(recovered.peek_mapping(Lba(20)).unwrap(), None);
    // And the remounted device accepts new writes.
    recovered.write(Lba(20), &block(0x78)).unwrap();
}

#[test]
fn journal_region_exhaustion_degrades_to_read_only() {
    // One journal block of 64 pages, one entry per checkpoint: the 64
    // mutations fill the region; the 65th finds it full and degrades.
    let config = FtlConfig {
        journal_checkpoint_every: 1,
        journal_blocks: 1,
        ..FtlConfig::default()
    };
    let mut ftl = faulty_ftl(1, config, FaultPlaneConfig::new());
    for lba in 0..64u64 {
        ftl.write(Lba(lba), &block(1)).unwrap();
        assert!(!ftl.is_read_only(), "lba {lba}");
    }
    ftl.write(Lba(64), &block(1)).unwrap();
    assert!(ftl.is_read_only());
    assert_eq!(ftl.write(Lba(65), &block(1)), Err(FtlError::ReadOnly));
    // Reads are unaffected by the degradation.
    let mut out = block(0);
    ftl.read(Lba(0), &mut out).unwrap();
    assert_eq!(out, block(1));
}

#[test]
fn flush_checkpoints_buffered_entries() {
    let config = FtlConfig {
        journal_checkpoint_every: 1000,
        journal_blocks: 2,
        ..FtlConfig::default()
    };
    let mut ftl = faulty_ftl(1, config, FaultPlaneConfig::new());
    for lba in 0..10u64 {
        ftl.write(Lba(lba), &block(2)).unwrap();
    }
    ftl.trim(Lba(3)).unwrap();
    assert_eq!(ftl.journal_pending(), 11);
    assert_eq!(counter(&ftl, "recovery.journal_checkpoints"), 0);
    ftl.flush().unwrap();
    assert_eq!(ftl.journal_pending(), 0);
    assert_eq!(counter(&ftl, "recovery.journal_checkpoints"), 1);
    // The flushed trim survives a crash even though the interval (1000)
    // was never reached.
    let (_lost, nand) = ftl.into_parts();
    let recovered = Ftl::recover(fresh_dram(2), nand, config).unwrap();
    assert_eq!(recovered.peek_mapping(Lba(3)).unwrap(), None);
}

#[test]
fn identical_seeds_replay_identical_fault_streams() {
    let run = |seed: u64| {
        let faults = FaultPlaneConfig::new()
            .with_site("flash.read_fail", FaultSpec::with_probability(0.3))
            .with_site("flash.program_fail", FaultSpec::with_probability(0.02));
        let mut ftl = faulty_ftl(seed, FtlConfig::default(), faults);
        let mut out = block(0);
        for round in 0..4u64 {
            for lba in 0..40u64 {
                let _ = ftl.write(Lba(lba), &block((round * 40 + lba) as u8));
            }
            for lba in 0..40u64 {
                let _ = ftl.read(Lba(lba), &mut out);
            }
        }
        ftl.shared_telemetry().snapshot().to_json().to_string()
    };
    assert_eq!(run(11), run(11), "same seed, same telemetry");
    assert_ne!(run(11), run(12), "different seed diverges");
}
