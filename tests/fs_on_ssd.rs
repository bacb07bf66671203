//! The filesystem mounted over a real simulated SSD namespace (full
//! NVMe → FTL → DRAM/flash path under every filesystem operation).

use ssdhammer::cloud::{PartitionView, SharedSsd};
use ssdhammer::fs::{AddressingMode, Credentials, FileSystem, FsckIssue};
use ssdhammer::nvme::{Ssd, SsdConfig};
use ssdhammer::simkit::{Lba, BLOCK_SIZE};

const ROOT: Credentials = Credentials::root();

fn fs_over_ssd(seed: u64, blocks: u64) -> (SharedSsd, FileSystem<PartitionView>) {
    let shared = SharedSsd::new(Ssd::build(SsdConfig::test_small(seed)));
    let (ns, _range) = shared.create_partition(blocks).unwrap();
    let view = PartitionView::new(shared.clone(), ns);
    let fs = FileSystem::format(view).unwrap();
    (shared, fs)
}

#[test]
fn filesystem_lifecycle_over_ftl() {
    let (_shared, mut fs) = fs_over_ssd(1, 4096);
    fs.mkdir("/docs", ROOT, 0o755).unwrap();
    let ino = fs
        .create("/docs/report", ROOT, 0o644, AddressingMode::Extents)
        .unwrap();
    for i in 0..40u32 {
        fs.write_file_block(ino, ROOT, i, &[(i % 251) as u8; BLOCK_SIZE])
            .unwrap();
    }
    // Remount: everything persists through the FTL.
    let dev = fs.into_device();
    let mut fs = FileSystem::mount(dev).unwrap();
    let ino = fs.lookup("/docs/report").unwrap();
    for i in (0..40u32).step_by(7) {
        assert_eq!(
            fs.read_file_block(ino, ROOT, i).unwrap()[0],
            (i % 251) as u8
        );
    }
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn fs_survives_ftl_garbage_collection() {
    let (shared, mut fs) = fs_over_ssd(2, 8000);
    let ino = fs
        .create("/churn", ROOT, 0o644, AddressingMode::Extents)
        .unwrap();
    // Overwrite the same blocks repeatedly — enough churn to consume the
    // device's raw capacity several times — so the FTL must GC underneath
    // while the filesystem stays consistent.
    for round in 0..160u32 {
        for b in 0..128u32 {
            fs.write_file_block(ino, ROOT, b, &[(round % 251) as u8; BLOCK_SIZE])
                .unwrap();
        }
    }
    assert!(
        shared
            .borrow()
            .telemetry()
            .counter_value("ftl.gc_runs")
            .unwrap()
            > 0,
        "churn should have triggered GC"
    );
    for b in 0..128u32 {
        assert_eq!(fs.read_file_block(ino, ROOT, b).unwrap()[0], 159);
    }
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn fsck_catches_l2p_redirection_damage() {
    let (shared, mut fs) = fs_over_ssd(3, 4096);
    // Two files; then corrupt the L2P entry of the second file's data block
    // to point at the first file's page (simulating a useful bitflip).
    let a = fs
        .create("/a", ROOT, 0o644, AddressingMode::Indirect)
        .unwrap();
    fs.write_file_block(a, ROOT, 12, &[0xAA; BLOCK_SIZE])
        .unwrap();
    let b = fs
        .create("/b", ROOT, 0o644, AddressingMode::Extents)
        .unwrap();
    fs.write_file_block(b, ROOT, 0, &[0xBB; BLOCK_SIZE])
        .unwrap();

    // Find the device LBA of a's indirect block and b's data page.
    let a_inode = fs.read_inode(a).unwrap();
    let ssdhammer::fs::InodeMap::Indirect { single, .. } = a_inode.map else {
        panic!();
    };
    let b_inode = fs.read_inode(b).unwrap();
    let ssdhammer::fs::InodeMap::Extents { inline, .. } = &b_inode.map else {
        panic!();
    };
    let b_block = inline[0].start;
    {
        let mut ssd = shared.borrow_mut();
        let b_ppn = ssd
            .ftl()
            .peek_mapping(Lba(u64::from(b_block)))
            .unwrap()
            .unwrap();
        let addr = ssd.ftl().table().entry_addr(Lba(u64::from(single)));
        ssd.ftl_mut()
            .dram_mut()
            .write_u32(addr, u32::try_from(b_ppn.as_u64()).unwrap())
            .unwrap();
    }
    // Reading a's block 12 now returns b's *data page* interpreted as an
    // indirect block; fsck sees the damage.
    let report = fs.fsck().unwrap();
    assert!(
        !report.is_clean(),
        "fsck must flag the corrupted file: {report:?}"
    );
    assert!(report.issues.iter().any(|i| matches!(
        i,
        FsckIssue::WildPointer { .. }
            | FsckIssue::DoubleReference { .. }
            | FsckIssue::UnallocatedReference { .. }
            | FsckIssue::BadInode { .. }
    )));
}

#[test]
fn trimmed_fs_blocks_unmap_in_the_ftl() {
    let (shared, mut fs) = fs_over_ssd(4, 2048);
    let ino = fs
        .create("/t", ROOT, 0o644, AddressingMode::Extents)
        .unwrap();
    fs.write_file_block(ino, ROOT, 0, &[1; BLOCK_SIZE]).unwrap();
    let inode = fs.read_inode(ino).unwrap();
    let ssdhammer::fs::InodeMap::Extents { inline, .. } = &inode.map else {
        panic!();
    };
    let block = inline[0].start;
    assert!(shared
        .borrow()
        .ftl()
        .peek_mapping(Lba(u64::from(block)))
        .unwrap()
        .is_some());
    fs.unlink("/t", ROOT).unwrap();
    assert!(
        shared
            .borrow()
            .ftl()
            .peek_mapping(Lba(u64::from(block)))
            .unwrap()
            .is_none(),
        "unlink should TRIM through to the FTL"
    );
}
