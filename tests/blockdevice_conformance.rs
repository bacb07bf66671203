//! One conformance suite, three devices: the `BlockDevice` trait contract
//! checked against every implementor — an NVMe namespace view of the
//! simulated [`Ssd`], a tenant's [`PartitionView`] (the disk the victim
//! filesystem mounts in every case study), and the in-memory [`RamDisk`]
//! test double. Code written against `&mut impl BlockDevice` (the
//! filesystem, the workload replayers, the spray phase) may rely on exactly
//! these behaviors.

use std::sync::Arc;

use ssdhammer::cloud::{PartitionView, SharedSsd};
use ssdhammer::dram::ModuleProfile;
use ssdhammer::nvme::{CmdResult, Command, Ssd, SsdConfig};
use ssdhammer::prelude::{BlockDevice, Lba, RamDisk, BLOCK_SIZE};
use ssdhammer::simkit::StorageError;

/// The contract every [`BlockDevice`] must satisfy.
fn conformance(dev: &mut impl BlockDevice) {
    let cap = dev.capacity_blocks();
    assert!(cap >= 4, "conformance needs at least 4 blocks, got {cap}");
    let last = Lba(cap - 1);

    // Fresh (never-written) blocks read as zero, one block long.
    let page = dev.read(Lba(0)).unwrap();
    assert_eq!(page.len(), BLOCK_SIZE);
    assert!(
        page.iter().all(|&b| b == 0),
        "unwritten blocks must read zero"
    );

    // Write/read round-trips, including the last addressable block.
    let mut block = [0u8; BLOCK_SIZE];
    block[0] = 0xC4;
    block[BLOCK_SIZE - 1] = 0x7E;
    for lba in [Lba(0), last] {
        dev.write(lba, &block).unwrap();
        assert_eq!(dev.read(lba).unwrap()[..], block, "round-trip at {lba}");
    }

    // A page that was read is a snapshot: rewriting the block leaves it as
    // it was read.
    let page = dev.read(Lba(0)).unwrap();
    let rewrite = [0x5Au8; BLOCK_SIZE];
    dev.write(Lba(0), &rewrite).unwrap();
    assert_eq!(dev.read(Lba(0)).unwrap()[..], rewrite);
    assert_eq!(page[..], block, "a rewrite changed a page already read");

    // Trim discards the mapping; the block reads as zero again, and a page
    // read before the trim keeps its bytes.
    let page = dev.read(Lba(0)).unwrap();
    dev.trim(Lba(0)).unwrap();
    let trimmed = dev.read(Lba(0)).unwrap();
    assert!(
        trimmed.iter().all(|&b| b == 0),
        "trimmed blocks must read zero"
    );
    assert_eq!(page[..], rewrite, "a trim changed a page already read");

    // Every operation rejects addresses at or beyond capacity.
    let block = [0u8; BLOCK_SIZE];
    assert!(matches!(
        dev.read(Lba(cap)),
        Err(StorageError::OutOfRange { .. })
    ));
    assert!(matches!(
        dev.write(Lba(cap), &block),
        Err(StorageError::OutOfRange { .. })
    ));
    assert!(matches!(
        dev.trim(Lba(cap)),
        Err(StorageError::OutOfRange { .. })
    ));

    // Writes reject buffers that are not exactly one block.
    let small = [0u8; 512];
    assert!(matches!(
        dev.write(Lba(1), &small),
        Err(StorageError::BadBufferLen { .. })
    ));
}

fn quiet_ssd(seed: u64) -> Ssd {
    // Invulnerable DRAM: the conformance suite checks the storage contract,
    // not the disturbance model.
    Ssd::build(SsdConfig {
        dram_profile: ModuleProfile::invulnerable(),
        ..SsdConfig::test_small(seed)
    })
}

#[test]
fn ramdisk_conforms() {
    conformance(&mut RamDisk::new(64));
}

#[test]
fn namespace_view_conforms() {
    let mut ssd = quiet_ssd(9);
    let ns = ssd.create_namespace(64).unwrap();
    let mut view = ssd.namespace(ns).unwrap();
    conformance(&mut view);
}

/// The namespace view hands out the stored page: two reads of an
/// unchanged mapped block are the same page, holding what a read command
/// returns.
#[test]
fn namespace_view_reads_the_stored_page() {
    let mut ssd = quiet_ssd(9);
    let ns = ssd.create_namespace(64).unwrap();
    let block = [0x3Cu8; BLOCK_SIZE];
    let (first, second) = {
        let mut view = ssd.namespace(ns).unwrap();
        view.write(Lba(7), &block).unwrap();
        (view.read(Lba(7)).unwrap(), view.read(Lba(7)).unwrap())
    };
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(first[..], block);
    let qp = ssd.create_queue_pair(1);
    let done = ssd
        .roundtrip(qp, Command::Read { ns, lba: Lba(7) })
        .unwrap();
    let CmdResult::Read { data, mapped } = done.result else {
        panic!("read command failed: {:?}", done.result);
    };
    assert!(mapped);
    assert_eq!(data[..], first[..]);
}

/// On an encrypted namespace the view decrypts into a copy of its own: it
/// returns the plaintext, and the stored page keeps the ciphertext.
#[test]
fn encrypted_namespace_view_decrypts_a_copy() {
    let mut ssd = quiet_ssd(9);
    let ns = ssd.create_encrypted_namespace(64, 0x5EC2E7).unwrap();
    let block = [0x3Cu8; BLOCK_SIZE];
    ssd.namespace(ns).unwrap().write(Lba(7), &block).unwrap();
    let device_lba = ssd.translate(ns, Lba(7)).unwrap();
    let (_, stored) = ssd.ftl_mut().read_shared(device_lba).unwrap();
    let ciphertext = stored.to_vec();
    assert_ne!(ciphertext[..], block);
    let page = ssd.namespace(ns).unwrap().read(Lba(7)).unwrap();
    assert_eq!(page[..], block);
    assert_eq!(stored[..], ciphertext[..], "the view decrypted in place");
    let (_, again) = ssd.ftl_mut().read_shared(device_lba).unwrap();
    assert!(Arc::ptr_eq(&again, &stored));
}

/// A partition that does not start at device LBA 0, so the view's
/// namespace translation is exercised, not the identity.
#[test]
fn partition_view_conforms() {
    let shared = SharedSsd::new(quiet_ssd(9));
    shared.create_partition(100).unwrap();
    let (ns, range) = shared.create_partition(64).unwrap();
    assert_eq!(range.start, Lba(100));
    conformance(&mut PartitionView::new(shared, ns));
}

// ---- error-path conformance: fault-induced failures through the trait ------

use ssdhammer::ftl::FtlConfig;
use ssdhammer::simkit::faultplane::{FaultPlaneConfig, FaultSpec};

/// A device degraded to read-only keeps serving reads and rejects
/// mutations with `StorageError::Rejected` (not a panic, not `OutOfRange`).
#[test]
fn ssd_read_only_degradation_rejects_writes_but_serves_reads() {
    let mut ssd = Ssd::build(SsdConfig {
        dram_profile: ModuleProfile::invulnerable(),
        ftl: FtlConfig {
            remap_budget: 0,
            ..FtlConfig::default()
        },
        fault_plane: FaultPlaneConfig::new()
            .with_site("flash.program_fail", FaultSpec::always().with_max_fires(1)),
        ..SsdConfig::test_small(9)
    });
    let ns = ssd.create_namespace(32).unwrap();
    let mut block = [0u8; BLOCK_SIZE];
    block[0] = 0x42;
    // The triggering write completes (its program was relocated), but the
    // remap exceeded the zero budget and degraded the device.
    ssd.namespace(ns).unwrap().write(Lba(0), &block).unwrap();
    assert!(ssd.ftl().is_read_only());
    let mut view = ssd.namespace(ns).unwrap();
    assert!(matches!(
        view.write(Lba(1), &block),
        Err(StorageError::Rejected { .. })
    ));
    assert!(matches!(
        view.trim(Lba(0)),
        Err(StorageError::Rejected { .. })
    ));
    assert_eq!(
        view.read(Lba(0)).unwrap()[0],
        0x42,
        "reads keep working after degradation"
    );
}

/// Unrecoverable media reads surface as `StorageError::Uncorrectable` with
/// the failing view-relative LBA — through both views a tenant mounts: the
/// namespace view and the partition view over it.
#[test]
fn fault_induced_uncorrectable_reads_propagate_through_both_views() {
    let config = SsdConfig {
        dram_profile: ModuleProfile::invulnerable(),
        ftl: FtlConfig {
            read_retry_max: 0,
            ..FtlConfig::default()
        },
        fault_plane: FaultPlaneConfig::new().with_site("flash.read_fail", FaultSpec::always()),
        ..SsdConfig::test_small(9)
    };

    // Namespace view.
    let mut ssd = Ssd::build(config.clone());
    let ns = ssd.create_namespace(32).unwrap();
    assert_uncorrectable_reads(&mut ssd.namespace(ns).unwrap());

    // Partition view of a second partition, so view-relative and device
    // LBAs differ.
    let shared = SharedSsd::new(Ssd::build(config));
    shared.create_partition(32).unwrap();
    let (ns, _) = shared.create_partition(32).unwrap();
    assert_uncorrectable_reads(&mut PartitionView::new(shared, ns));
}

/// Writes 32 blocks under an always-firing read fault and checks that every
/// failed read is `Uncorrectable` at the LBA that was read.
fn assert_uncorrectable_reads(dev: &mut impl BlockDevice) {
    let block = [7u8; BLOCK_SIZE];
    for lba in 0..32u64 {
        dev.write(Lba(lba), &block).unwrap();
    }
    let mut uncorrectable = 0;
    for lba in 0..32u64 {
        match dev.read(Lba(lba)) {
            Ok(_) => {}
            Err(StorageError::Uncorrectable { lba: reported }) => {
                assert_eq!(reported, Lba(lba));
                uncorrectable += 1;
            }
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    assert!(uncorrectable > 0, "p=1.0 injection must defeat some reads");
}

/// A powered-off (crashed) device rejects everything rather than serving
/// stale data.
#[test]
fn power_loss_rejects_all_operations() {
    let mut ssd = Ssd::build(SsdConfig {
        dram_profile: ModuleProfile::invulnerable(),
        fault_plane: FaultPlaneConfig::new()
            .with_site("ftl.power_loss", FaultSpec::always().with_window(4, 5)),
        ..SsdConfig::test_small(9)
    });
    let ns = ssd.create_namespace(32).unwrap();
    let mut view = ssd.namespace(ns).unwrap();
    let block = [1u8; BLOCK_SIZE];
    for lba in 0..4u64 {
        view.write(Lba(lba), &block).unwrap();
    }
    // The fifth mutation hits the power cut.
    assert!(matches!(
        view.write(Lba(4), &block),
        Err(StorageError::Rejected { .. })
    ));
    assert!(matches!(
        view.read(Lba(0)),
        Err(StorageError::Rejected { .. })
    ));
    assert!(matches!(
        view.trim(Lba(0)),
        Err(StorageError::Rejected { .. })
    ));
}

// ---- integrity-plane degraded mode through the trait -----------------------

use ssdhammer::flash::FlashGeometry;
use ssdhammer::ftl::IntegrityMode;
use ssdhammer::simkit::DramAddr;

/// An SSD with a Correct-mode integrity plane, on a flash geometry small
/// enough that the tiny test DRAM holds the L2P table plus the SEC-DED
/// codes and the mirror region.
fn integrity_ssd(seed: u64) -> Ssd {
    Ssd::build(SsdConfig {
        dram_profile: ModuleProfile::invulnerable(),
        flash_geometry: FlashGeometry {
            blocks_per_plane: 32,
            ..FlashGeometry::tiny_test()
        },
        ftl: FtlConfig {
            integrity: IntegrityMode::Correct,
            ..FtlConfig::default()
        },
        ..SsdConfig::test_small(seed)
    })
}

/// XORs `mask` into the entry word at `addr` through the DRAM backdoor,
/// simulating rowhammer flips without the hammer.
fn corrupt_u32(ssd: &mut Ssd, addr: DramAddr, mask: u32) {
    let mut buf = [0u8; 4];
    ssd.ftl().dram().peek(addr, &mut buf).unwrap();
    let raw = u32::from_le_bytes(buf) ^ mask;
    ssd.ftl_mut().dram_mut().write_u32(addr, raw).unwrap();
}

/// Flips two bits in `lba`'s primary L2P entry *and* two different bits in
/// its mirror copy: both copies exceed SEC-DED correction and disagree, so
/// nothing trustworthy remains and the device must degrade.
fn corrupt_beyond_repair(ssd: &mut Ssd, lba: Lba) {
    let slot = ssd.ftl().table().slot_of(lba);
    let entry = ssd.ftl().table().entry_addr(lba);
    let mirror = ssd.ftl().integrity_plane().unwrap().mirror_addr(slot);
    corrupt_u32(ssd, entry, 0b11);
    corrupt_u32(ssd, mirror, 0b1100);
}

/// Unrepairable L2P divergence degrades the device to read-only: through
/// the namespace view the poisoned LBA fails loudly as `Uncorrectable`,
/// mutations are rejected typed, and intact blocks keep reading back their
/// data.
#[test]
fn namespace_view_honors_integrity_degradation() {
    let mut ssd = integrity_ssd(9);
    let ns = ssd.create_namespace(32).unwrap();
    let mut block = [0u8; BLOCK_SIZE];
    {
        let mut view = ssd.namespace(ns).unwrap();
        for lba in 0..4u64 {
            block[0] = lba as u8 + 1;
            view.write(Lba(lba), &block).unwrap();
        }
    }
    // The first namespace starts at absolute LBA 0, so view-relative and
    // drive-absolute coordinates coincide here.
    corrupt_beyond_repair(&mut ssd, Lba(1));

    // Consuming the poisoned entry is loud, never a silent redirection.
    assert!(matches!(
        ssd.namespace(ns).unwrap().read(Lba(1)),
        Err(StorageError::Uncorrectable { lba: Lba(1) })
    ));
    assert!(ssd.ftl().is_read_only(), "divergence degrades the device");

    // Degraded-mode contract: mutations rejected with a typed error …
    let mut view = ssd.namespace(ns).unwrap();
    assert!(matches!(
        view.write(Lba(2), &block),
        Err(StorageError::Rejected { .. })
    ));
    assert!(matches!(
        view.trim(Lba(0)),
        Err(StorageError::Rejected { .. })
    ));
    // … while intact blocks are still served.
    assert_eq!(
        view.read(Lba(3)).unwrap()[0],
        4,
        "intact reads keep working after degradation"
    );
}
