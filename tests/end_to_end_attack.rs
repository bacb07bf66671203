//! Cross-crate integration: the attack exercised through the *literal* NVMe
//! command interface — no bulk fast paths — plus the full pipeline at the
//! prototype scale.

use std::sync::Arc;

use ssdhammer::core::{find_attack_sites, setup_entries, snapshot_mappings};
use ssdhammer::dram::{DramGeneration, DramGeometry, MappingKind, ModuleProfile};
use ssdhammer::flash::FlashGeometry;
use ssdhammer::ftl::FtlConfig;
use ssdhammer::nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer::simkit::Lba;

fn eager_config(seed: u64) -> SsdConfig {
    let profile = ModuleProfile::from_min_rate("eager", DramGeneration::Ddr3, 2021, 1)
        .with_hc_first(1000)
        .with_threshold_spread(0.0)
        .with_row_vulnerable_prob(1.0)
        .with_weak_cells_per_row(8.0);
    SsdConfig::test_small(seed)
        .with_dram_geometry(DramGeometry::tiny_test())
        .with_dram_profile(profile)
        .with_dram_mapping(MappingKind::Linear)
        .with_flash_geometry(FlashGeometry::mib64())
}

/// Figure 1, driven exclusively by individual NVMe read commands: the
/// per-command path (queue pair → controller → FTL → DRAM) must flip bits
/// just like the aggregated experiment path does.
#[test]
fn per_command_nvme_reads_flip_l2p_bits() {
    let mut ssd = Ssd::build(eager_config(5));
    let ns = ssd
        .create_namespace(ssd.ftl().capacity_lbas())
        .expect("one namespace over the whole device");
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    setup_entries(ssd.ftl_mut(), &site.victim_lbas).unwrap();
    let before = snapshot_mappings(ssd.ftl(), &site.victim_lbas).unwrap();

    let qp = ssd.create_queue_pair(64);
    let aggressors = [site.above_lbas[0], site.below_lbas[0]];
    // ~1.7M IOPS interface: ~150K commands ≈ 88 ms ≈ 1.4 refresh windows,
    // >40K activations per aggressor per window — far beyond the 1K
    // threshold. Submitted queue-depth-sized batches at a time, the way a
    // real driver rings the doorbell once per burst.
    for _ in 0..(150_000u64 / 64) {
        let batch: Vec<Command> = (0..64)
            .map(|i| Command::Read {
                ns,
                lba: aggressors[(i % 2) as usize],
            })
            .collect();
        ssd.submit_batch(qp, &batch).unwrap();
        ssd.process_all();
        for c in ssd.drain_completions(qp).unwrap() {
            assert!(c.is_ok());
        }
    }

    let after = snapshot_mappings(ssd.ftl(), &site.victim_lbas).unwrap();
    assert_ne!(
        before, after,
        "per-command reads should corrupt the victim row's L2P entries"
    );
    assert!(ssd.ftl().dram().telemetry().flips > 0);
}

/// A redirected mapping is observable through ordinary NVMe reads: the
/// victim LBA returns different data after the attack than before it.
#[test]
fn redirection_changes_data_served_over_nvme() {
    let mut ssd = Ssd::build(eager_config(7));
    let ns = ssd.create_namespace(ssd.ftl().capacity_lbas()).unwrap();
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    setup_entries(ssd.ftl_mut(), &site.victim_lbas).unwrap();

    let qp = ssd.create_queue_pair(8);
    // Completions drain in submission order, so batched reads come back in
    // the same order the per-command loop produced them.
    let read_all = |ssd: &mut Ssd| -> Vec<Arc<[u8]>> {
        let mut out = Vec::new();
        for chunk in site.victim_lbas.chunks(qp.depth()) {
            let batch: Vec<Command> = chunk.iter().map(|&lba| Command::Read { ns, lba }).collect();
            ssd.submit_batch(qp, &batch).unwrap();
            ssd.process_all();
            for c in ssd.drain_completions(qp).unwrap() {
                let CmdResult::Read { data, .. } = c.result else {
                    panic!("expected read data");
                };
                out.push(data);
            }
        }
        out
    };
    let before = read_all(&mut ssd);
    ssd.hammer_device_reads(
        &[site.above_lbas[0], site.below_lbas[0]],
        400_000,
        1_500_000.0,
    )
    .unwrap();
    let after = read_all(&mut ssd);
    assert_ne!(before, after, "host-visible data must change");
}

/// The paper-prototype scale assembles and the recon pipeline finds sites
/// on it (1 GiB flash, 512 MiB DRAM, XOR-swizzled mapping, 5× amplified
/// FTL).
#[test]
fn paper_prototype_scale_assembles_and_has_sites() {
    let config =
        SsdConfig::paper_prototype(11).with_ftl(FtlConfig::default().with_hammer_amplification(5));
    let ssd = Ssd::build(config);
    assert_eq!(
        ssd.ftl().table().size_bytes(),
        1 << 20,
        "1 MiB L2P for 1 GiB SSD"
    );
    let sites = find_attack_sites(ssd.ftl(), 1024);
    assert!(
        !sites.is_empty(),
        "the 1 MiB table must expose hammerable triples"
    );
    // An 8 KiB row holds 2048 entries. Overprovisioning makes the exported
    // capacity non-row-aligned, so the table's tail row is partially filled;
    // every other victim row must be full.
    let full_row = 2048;
    let tail = ssd.ftl().table().capacity() as usize % full_row;
    let mut partial_rows = 0;
    for s in &sites {
        assert!(!s.victim_lbas.is_empty());
        if s.victim_lbas.len() == tail {
            partial_rows += 1;
        } else {
            assert_eq!(s.victim_lbas.len(), full_row, "8 KiB row = 2048 entries");
        }
    }
    assert!(partial_rows <= 1, "at most one boundary row");
}

/// Amplification is worth exactly its factor in activation rate — the §4.1
/// compensation the paper applied (5 hammers per I/O request).
#[test]
fn amplification_scales_activation_rate() {
    let measure = |amp: u32| -> f64 {
        let config = eager_config(3)
            .with_ftl(FtlConfig::default().with_hammer_amplification(amp))
            .with_dram_profile(ModuleProfile::invulnerable());
        let mut ssd = Ssd::build(config);
        let report = ssd
            .hammer_device_reads(&[Lba(0), Lba(512)], 100_000, 1_000_000.0)
            .unwrap();
        report.achieved_rate
    };
    let base = measure(1);
    let amped = measure(5);
    let ratio = amped / base;
    assert!(
        (4.5..5.5).contains(&ratio),
        "5x amplification should deliver ~5x activation rate, got {ratio}"
    );
}
