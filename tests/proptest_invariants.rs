//! Randomized property tests over the core data structures and invariants.
//!
//! The workspace builds without external crates, so instead of `proptest`
//! these are plain `#[test]` functions driving many deterministic cases
//! from the workspace's own seeded [`SimRng`]. Failures print the case
//! index; rerunning is fully reproducible.

use ssdhammer::dram::{AddressMapping, DramGeometry, MappingKind};
use ssdhammer::fs::{AddressingMode, Credentials, FileSystem};
use ssdhammer::ftl::{Ftl, L2pLayout, L2pTable};
use ssdhammer::simkit::rng::{seeded, Rng};
use ssdhammer::simkit::{crc32c, DramAddr, Lba, RamDisk, BLOCK_SIZE};

const ROOT: Credentials = Credentials::root();

/// Address mappings are bijections: decode∘encode = id for every kind.
#[test]
fn mapping_roundtrip() {
    let mut rng = seeded(101);
    let g = DramGeometry::tiny_test();
    for _ in 0..200 {
        let addr = rng.gen_range(0u64..(1u64 << 17));
        let mul = rng.next_u64() as u32;
        let add = rng.next_u64() as u32;
        let k = rng.gen_range(0u32..8);
        for kind in [
            MappingKind::Linear,
            MappingKind::XorSwizzle {
                row_mul: mul | 1,
                row_add: add,
                swizzle_bits: k,
            },
        ] {
            let m = AddressMapping::new(g, kind);
            let a = DramAddr(addr % g.total_bytes().as_u64());
            assert_eq!(m.encode(m.decode(a)), a, "kind {kind:?} addr {a:?}");
        }
    }
}

/// The keyed L2P layout is a permutation for any key and any capacity.
#[test]
fn hashed_l2p_is_bijective() {
    let mut rng = seeded(102);
    for case in 0..40 {
        let key = rng.next_u64();
        let capacity = rng.gen_range(1u64..5000);
        let t = L2pTable::new(DramAddr(0), capacity, L2pLayout::Hashed { key });
        let mut seen = std::collections::HashSet::new();
        for lba in 0..capacity {
            let slot = t.slot_of(Lba(lba));
            assert!(seen.insert(slot), "case {case}: collision at lba {lba}");
            assert_eq!(t.lba_of_slot(slot), Some(Lba(lba)));
        }
    }
}

/// CRC-32C detects every single-bit error.
#[test]
fn crc32c_detects_single_bit_errors() {
    let mut rng = seeded(103);
    for _ in 0..200 {
        let len = rng.gen_range(1usize..256);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let bit = rng.gen_range(0usize..2048) % (data.len() * 8);
        let original = crc32c(&data);
        let mut tampered = data.clone();
        tampered[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(crc32c(&tampered), original, "bit {bit} len {len}");
    }
}

/// FTL read-your-writes against a plain model under random operations.
/// The last case spans the whole device long enough to put garbage
/// collection in steady state; the short ones never run it.
#[test]
fn ftl_matches_model() {
    let mut rng = seeded(104);
    for case in 0..16 {
        let mut ftl = Ftl::tiny_for_tests(1).unwrap();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let gc_heavy = case == 15;
        let (n_ops, lbas) = if gc_heavy {
            (6_000, ftl.capacity_lbas())
        } else {
            (rng.gen_range(1usize..120), 300)
        };
        for _ in 0..n_ops {
            let lba = rng.gen_range(0u64..lbas);
            let op = rng.gen_range(0u8..3);
            let fill = rng.next_u64() as u8;
            match op {
                0 => {
                    ftl.write(Lba(lba), &[fill; BLOCK_SIZE]).unwrap();
                    model.insert(lba, fill);
                }
                1 => {
                    ftl.trim(Lba(lba)).unwrap();
                    model.remove(&lba);
                }
                _ => {
                    let mut buf = [0u8; BLOCK_SIZE];
                    ftl.read(Lba(lba), &mut buf).unwrap();
                    let expected = model.get(&lba).copied().unwrap_or(0);
                    assert_eq!(buf[0], expected, "case {case} lba {lba}");
                    assert!(buf.iter().all(|&b| b == expected));
                    let (_, page) = ftl.read_shared(Lba(lba)).unwrap();
                    assert_eq!(*page, buf, "read_shared, case {case} lba {lba}");
                }
            }
        }
        if gc_heavy {
            assert!(ftl.telemetry().gc_relocated > 0, "GC relocated nothing");
        }
    }
}

/// Filesystem block I/O against a model, on both addressing modes, with
/// sparse writes.
#[test]
fn fs_matches_model() {
    let mut rng = seeded(105);
    for case in 0..10 {
        let mode = if rng.gen_bool(0.5) {
            AddressingMode::Indirect
        } else {
            AddressingMode::Extents
        };
        let mut fs = FileSystem::format(RamDisk::new(2048)).unwrap();
        let ino = fs.create("/f", ROOT, 0o644, mode).unwrap();
        let mut model: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
        let n_ops = rng.gen_range(1usize..60);
        for _ in 0..n_ops {
            let block = rng.gen_range(0u32..40);
            let fill = rng.next_u64() as u8;
            if rng.gen_bool(0.5) {
                fs.write_file_block(ino, ROOT, block, &[fill; BLOCK_SIZE])
                    .unwrap();
                model.insert(block, fill);
            } else {
                let data = fs.read_file_block(ino, ROOT, block).unwrap();
                let expected = model.get(&block).copied().unwrap_or(0);
                assert!(
                    data.iter().all(|&b| b == expected),
                    "case {case} block {block}"
                );
            }
        }
        // The filesystem stays structurally clean throughout.
        assert!(fs.fsck().unwrap().is_clean());
    }
}

/// The §4.3 probability model: Monte-Carlo always agrees with the closed
/// form within sampling error, for random valid parameters.
#[test]
fn probability_model_self_consistent() {
    use ssdhammer::core::AttackParams;
    let mut rng = seeded(106);
    let mut checked = 0;
    for _ in 0..40 {
        let pb = 1u64 << rng.gen_range(10u32..16);
        let c_v = pb / 2 / rng.gen_range(1u64..4).max(1);
        let c_a = pb - c_v;
        let params = AttackParams {
            pb,
            c_v,
            c_a,
            f_v: c_v * rng.gen_range(0u64..5) / 4,
            f_a: c_a * rng.gen_range(0u64..5) / 4,
        };
        if params.validate().is_err() {
            continue;
        }
        checked += 1;
        let analytic = params.useful_flip_probability();
        let mc = params.monte_carlo_useful_flip(60_000, 9);
        assert!(
            (mc - analytic).abs() < 0.02,
            "mc {mc} vs analytic {analytic} for {params:?}"
        );
    }
    assert!(checked >= 10, "too few valid parameter draws: {checked}");
}

/// DIF soundness: under T10-DIF, a read NEVER silently returns another
/// LBA's data — any engineered redirection yields a guard mismatch, while
/// honest reads always verify.
#[test]
fn dif_never_serves_wrong_data_silently() {
    use ssdhammer_dram::{DramModule, MappingKind, ModuleProfile};
    use ssdhammer_flash::{FlashArray, FlashGeometry};
    use ssdhammer_ftl::{Ftl, FtlConfig, ReadOutcome};
    use ssdhammer_simkit::SimClock;

    let mut rng = seeded(107);
    for case in 0..10 {
        let clock = SimClock::new();
        let dram = DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .without_timing()
            .build(clock.clone());
        let nand = FlashArray::new(FlashGeometry::tiny_test(), clock, 1);
        let mut ftl = Ftl::new(
            dram,
            nand,
            FtlConfig {
                dif: true,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let n_writes = rng.gen_range(2usize..40);
        for _ in 0..n_writes {
            let lba = rng.gen_range(0u64..200);
            let fill = rng.next_u64() as u8;
            ftl.write(Lba(lba), &[fill; BLOCK_SIZE]).unwrap();
            model.insert(lba, fill);
        }
        // Honest reads verify and match the model.
        for (&lba, &fill) in &model {
            let mut buf = [0u8; BLOCK_SIZE];
            let outcome = ftl.read(Lba(lba), &mut buf).unwrap();
            assert!(matches!(outcome, ReadOutcome::Mapped { .. }));
            assert!(buf.iter().all(|&b| b == fill));
        }
        // Engineer a redirection between two distinct written LBAs.
        let mut lbas: Vec<u64> = model.keys().copied().collect();
        lbas.sort_unstable();
        let a = lbas[rng.gen_range(0usize..lbas.len())];
        let b = lbas[rng.gen_range(0usize..lbas.len())];
        if a == b {
            continue;
        }
        let ppn_b = ftl.peek_mapping(Lba(b)).unwrap().unwrap();
        let addr_a = ftl.table().entry_addr(Lba(a));
        ftl.dram_mut()
            .write_u32(addr_a, u32::try_from(ppn_b.as_u64()).unwrap())
            .unwrap();
        let mut buf = [7u8; BLOCK_SIZE];
        let outcome = ftl.read(Lba(a), &mut buf).unwrap();
        assert!(
            matches!(outcome, ReadOutcome::GuardMismatch { .. }),
            "case {case}: redirected read must fail verification, got {outcome:?}"
        );
        assert!(buf.iter().all(|&x| x == 0), "no data leaks on failure");
        let (outcome, page) = ftl.read_shared(Lba(a)).unwrap();
        assert!(matches!(outcome, ReadOutcome::GuardMismatch { .. }));
        assert_eq!(
            *page, [0u8; BLOCK_SIZE],
            "no data leaks through the shared read"
        );
    }
}

/// Random filesystem operation sequences (create / write / rename /
/// truncate / unlink, both addressing modes) always leave a clean fsck.
#[test]
fn fs_operation_sequences_stay_consistent() {
    let mut rng = seeded(108);
    for case in 0..8 {
        let mut fs = FileSystem::format(RamDisk::new(4096)).unwrap();
        let mut live: Vec<String> = Vec::new();
        let mut next_id = 0u32;
        let n_ops = rng.gen_range(1usize..50);
        for _ in 0..n_ops {
            let op = rng.gen_range(0u8..5);
            let file_sel = rng.gen_range(0u32..12);
            let block = rng.gen_range(0u32..30);
            let fill = rng.next_u64() as u8;
            match op {
                0 => {
                    let mode = if fill.is_multiple_of(2) {
                        AddressingMode::Extents
                    } else {
                        AddressingMode::Indirect
                    };
                    let name = format!("/f{next_id}");
                    next_id += 1;
                    fs.create(&name, ROOT, 0o644, mode).unwrap();
                    live.push(name);
                }
                1 if !live.is_empty() => {
                    let name = &live[file_sel as usize % live.len()];
                    let ino = fs.lookup(name).unwrap();
                    fs.write_file_block(ino, ROOT, block, &[fill; BLOCK_SIZE])
                        .unwrap();
                }
                2 if !live.is_empty() => {
                    let idx = file_sel as usize % live.len();
                    let new_name = format!("/r{next_id}");
                    next_id += 1;
                    fs.rename(&live[idx], &new_name, ROOT).unwrap();
                    live[idx] = new_name;
                }
                3 if !live.is_empty() => {
                    let name = &live[file_sel as usize % live.len()];
                    let ino = fs.lookup(name).unwrap();
                    fs.truncate(ino, ROOT, block / 2).unwrap();
                }
                4 if !live.is_empty() => {
                    let idx = file_sel as usize % live.len();
                    let name = live.swap_remove(idx);
                    fs.unlink(&name, ROOT).unwrap();
                }
                _ => {}
            }
        }
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "case {case}: {:?}", report.issues);
        // All live files still resolve.
        for name in &live {
            assert!(fs.lookup(name).is_ok());
        }
    }
}

/// Random create / unlink / mkdir / rmdir sequences follow the allocation
/// and placement policy exactly, checked against a model. Each new inode is
/// the lowest free number (never 0) and each new block the lowest free
/// block. A new directory is an index block and one empty leaf. Each entry
/// takes the first free slot of the leaf its CRC-32C hash selects; a full
/// leaf first splits at its median hash (moved up past a run of equal
/// hashes that reaches the leaf's lowest) into a block appended to the
/// directory, the entries at or above the split hash moving in slot order
/// to the front of the new leaf. Every directory's block map, index and
/// on-disk slot are compared after each op.
#[test]
fn fs_allocation_follows_the_lowest_free_policy() {
    use ssdhammer::fs::{DirIndex, Dirent, FileType, FsError, Ino, InodeMap, DIRENT_SIZE};
    use ssdhammer::simkit::BlockDevice;
    use std::collections::BTreeSet;

    const SLOTS: usize = BLOCK_SIZE / DIRENT_SIZE;
    /// A slot's live entry: name, inode, is-a-directory.
    type Entry = (String, u32, bool);
    struct Dir {
        path: String,
        ino: u32,
        /// Blocks by directory-logical number: 0 is the index.
        blocks: Vec<u32>,
        /// `(lowest hash, leaf)` pairs in index order.
        index: Vec<(u32, u32)>,
        /// Slots of each leaf, by directory-logical number (0 unused).
        leaves: Vec<Vec<Option<Entry>>>,
    }
    impl Dir {
        /// Position in the index of the leaf `name` hashes to.
        fn position(&self, name: &str) -> usize {
            let hash = crc32c(name.as_bytes());
            self.index.partition_point(|&(h, _)| h <= hash) - 1
        }
        /// `(leaf, slot)` holding `name`.
        fn find(&self, name: &str) -> Option<(usize, usize)> {
            let leaf = self.index[self.position(name)].1 as usize;
            let slot = self.leaves[leaf]
                .iter()
                .position(|s| s.as_ref().is_some_and(|(n, ..)| n == name))?;
            Some((leaf, slot))
        }
    }
    fn lowest_free(used: &mut BTreeSet<u32>) -> u32 {
        let b = (0..).find(|i| !used.contains(i)).unwrap();
        used.insert(b);
        b
    }
    fn new_dir(path: String, ino: u32, used: &mut BTreeSet<u32>) -> Dir {
        let index = lowest_free(used);
        Dir {
            path,
            ino,
            blocks: vec![index, lowest_free(used)],
            index: vec![(0, 1)],
            leaves: vec![Vec::new(), vec![None; SLOTS]],
        }
    }

    let mut rng = seeded(110);
    let mut splits = 0;
    for case in 0..12 {
        let mut fs = FileSystem::format(RamDisk::new(8192)).unwrap();
        let mut inodes: BTreeSet<u32> = [0].into();
        let mut blocks: BTreeSet<u32> = (0..fs.superblock().data_start).collect();
        let root_ino = lowest_free(&mut inodes);
        let mut dirs = vec![new_dir(String::new(), root_ino, &mut blocks)];
        for step in 0..1200 {
            // Half the operations target the root so its leaves split.
            let d = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..dirs.len())
            };
            let name = format!("e{}", rng.gen_range(0u32..600));
            let path = format!("{}/{name}", dirs[d].path);
            let ctx = format!("case {case} step {step} {path}");
            let at = dirs[d].find(&name);
            let existing = at.and_then(|(leaf, slot)| dirs[d].leaves[leaf][slot].clone());
            match rng.gen_range(0u32..20) {
                op @ 0..=12 => {
                    let is_dir = op == 12;
                    if is_dir && dirs.len() >= 6 {
                        continue;
                    }
                    let got = if is_dir {
                        fs.mkdir(&path, ROOT, 0o755)
                    } else {
                        fs.create(&path, ROOT, 0o644, AddressingMode::Extents)
                    };
                    if existing.is_some() {
                        assert_eq!(got, Err(FsError::Exists), "{ctx}");
                        continue;
                    }
                    let hash = crc32c(name.as_bytes());
                    let dir = &mut dirs[d];
                    let mut pos = dir.position(&name);
                    let mut leaf = dir.index[pos].1 as usize;
                    if dir.leaves[leaf].iter().all(Option::is_some) {
                        splits += 1;
                        let hash_of = |e: &Option<Entry>| crc32c(e.as_ref().unwrap().0.as_bytes());
                        let mut sorted: Vec<u32> = dir.leaves[leaf].iter().map(hash_of).collect();
                        sorted.sort_unstable();
                        let median = sorted[SLOTS / 2];
                        let split = if median > sorted[0] {
                            median
                        } else {
                            *sorted.iter().find(|&&h| h > median).unwrap()
                        };
                        let new_leaf = dir.blocks.len();
                        dir.blocks.push(lowest_free(&mut blocks));
                        dir.leaves.push(vec![None; SLOTS]);
                        let mut next = 0;
                        for slot in 0..SLOTS {
                            if hash_of(&dir.leaves[leaf][slot]) >= split {
                                dir.leaves[new_leaf][next] = dir.leaves[leaf][slot].take();
                                next += 1;
                            }
                        }
                        dir.index.insert(pos + 1, (split, new_leaf as u32));
                        if hash >= split {
                            pos += 1;
                            leaf = new_leaf;
                        }
                    }
                    assert_eq!(dir.index[pos].1 as usize, leaf);
                    let ino = lowest_free(&mut inodes);
                    assert_eq!(got, Ok(Ino(ino)), "{ctx}");
                    let free = dir.leaves[leaf].iter().position(Option::is_none).unwrap();
                    dir.leaves[leaf][free] = Some((name, ino, is_dir));
                    if is_dir {
                        let child = new_dir(path, ino, &mut blocks);
                        dirs.push(child);
                    }
                }
                13..=16 => {
                    let got = fs.unlink(&path, ROOT);
                    match existing {
                        None => assert_eq!(got, Err(FsError::NotFound), "{ctx}"),
                        Some((_, _, true)) => assert_eq!(got, Err(FsError::IsADirectory), "{ctx}"),
                        Some((_, ino, false)) => {
                            assert_eq!(got, Ok(()), "{ctx}");
                            let (leaf, slot) = at.unwrap();
                            dirs[d].leaves[leaf][slot] = None;
                            inodes.remove(&ino);
                        }
                    }
                }
                _ => {
                    let got = fs.rmdir(&path, ROOT);
                    match existing {
                        None => assert_eq!(got, Err(FsError::NotFound), "{ctx}"),
                        Some((_, _, false)) => {
                            assert_eq!(got, Err(FsError::NotADirectory), "{ctx}")
                        }
                        Some((_, ino, true)) => {
                            let child = dirs.iter().position(|x| x.ino == ino).unwrap();
                            if dirs[child].leaves.iter().flatten().any(Option::is_some) {
                                assert_eq!(got, Err(FsError::DirectoryNotEmpty), "{ctx}");
                                continue;
                            }
                            assert_eq!(got, Ok(()), "{ctx}");
                            let (leaf, slot) = at.unwrap();
                            dirs[d].leaves[leaf][slot] = None;
                            inodes.remove(&ino);
                            let gone = dirs.remove(child);
                            for b in gone.blocks {
                                blocks.remove(&b);
                            }
                        }
                    }
                }
            }
            // Every directory's block map, index and slots match the model.
            for dir in &dirs {
                let ctx = format!("{ctx}: {:?}", dir.path);
                let inode = fs.read_inode(Ino(dir.ino)).unwrap();
                assert_eq!(inode.size, (dir.blocks.len() * BLOCK_SIZE) as u64, "{ctx}");
                let InodeMap::Extents { inline, leaf: None } = &inode.map else {
                    panic!("{ctx}: spilled its extents");
                };
                let on_disk: Vec<u32> = inline
                    .iter()
                    .flat_map(|e| e.start..e.start + e.len)
                    .collect();
                assert_eq!(on_disk, dir.blocks, "{ctx}: blocks");
                let mut buf = [0u8; BLOCK_SIZE];
                fs.device_mut()
                    .read(Lba(u64::from(dir.blocks[0])), &mut buf)
                    .unwrap();
                let index = DirIndex::decode(&buf, dir.blocks.len() as u32).unwrap();
                assert_eq!(index.entries, dir.index, "{ctx}: index");
                for (logical, want) in dir.leaves.iter().enumerate().skip(1) {
                    let b = dir.blocks[logical];
                    fs.device_mut().read(Lba(u64::from(b)), &mut buf).unwrap();
                    for (slot, want) in want.iter().enumerate() {
                        let off = slot * DIRENT_SIZE;
                        let got = Dirent::decode(&buf[off..off + DIRENT_SIZE])
                            .unwrap()
                            .map(|e| (e.name, e.ino.0, e.ftype == FileType::Directory));
                        assert_eq!(&got, want, "{ctx}: leaf {logical} slot {slot}");
                    }
                }
            }
        }
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "case {case}: {:?}", report.issues);
    }
    assert!(splits >= 48, "only {splits} leaf splits exercised");
}

/// Robustness: parsing attacker-controllable or corrupted on-disk bytes
/// never panics — mounting garbage, decoding garbage inodes, dirents and
/// directory indexes all fail cleanly.
#[test]
fn fs_decoders_never_panic_on_garbage() {
    use ssdhammer::simkit::BlockDevice;
    let mut rng = seeded(109);
    for _ in 0..50 {
        let mut bytes = [0u8; BLOCK_SIZE];
        for b in bytes.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        // Garbage superblock -> mount errors (no panic).
        let mut disk = RamDisk::new(64);
        disk.write(Lba(0), &bytes).unwrap();
        assert!(
            FileSystem::mount(disk).is_err()
                || bytes[..4] == ssdhammer::fs::SuperBlock::compute(64).unwrap().encode()[..4]
        );
        // Garbage inode, dirent and directory-index decode.
        let mut ibuf = [0u8; ssdhammer::fs::INODE_SIZE];
        ibuf.copy_from_slice(&bytes[..ssdhammer::fs::INODE_SIZE]);
        let _ = ssdhammer::fs::Inode::decode(&ibuf);
        let _ = ssdhammer::fs::Dirent::decode(&bytes[..ssdhammer::fs::DIRENT_SIZE]);
        let _ = ssdhammer::fs::DirIndex::decode(&bytes, rng.gen_range(0u32..1024));
        // A valid header over garbage entries reaches the per-entry checks.
        let mut index = bytes;
        index[..4].copy_from_slice(&ssdhammer::fs::DIR_INDEX_MAGIC.to_le_bytes());
        let count = rng.gen_range(0u16..ssdhammer::fs::DIR_INDEX_LIMIT as u16 + 1);
        index[4..6].copy_from_slice(&count.to_le_bytes());
        index[6..8].copy_from_slice(&(ssdhammer::fs::DIR_INDEX_LIMIT as u16).to_le_bytes());
        let _ = ssdhammer::fs::DirIndex::decode(&index, u32::MAX);
    }
}

/// Flip persistence invariant: whatever the hammer pattern, data written
/// after hammering always reads back exactly (rewrites recharge cells).
#[test]
fn rewrites_always_restore_data() {
    use ssdhammer::dram::{DramGeneration, DramModule, ModuleProfile};
    use ssdhammer::simkit::SimClock;
    let mut rng = seeded(110);
    for case in 0..10 {
        let rows: Vec<u32> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range(1u32..62))
            .collect();
        let fill = rng.next_u64() as u8;
        let mut profile = ModuleProfile::from_min_rate("p", DramGeneration::Ddr3, 2021, 1);
        profile.hc_first = 500;
        profile.row_vulnerable_prob = 1.0;
        let mut m = DramModule::builder(DramGeometry::tiny_test())
            .profile(profile)
            .mapping(MappingKind::Linear)
            .seed(7)
            .without_timing()
            .build(SimClock::new());
        let mapping = *m.mapping();
        let enc = move |row: u32| {
            mapping.encode(ssdhammer::dram::Location {
                bank: 0,
                row,
                col: 0,
            })
        };
        // Write victims, hammer around them, then rewrite and verify.
        for &r in &rows {
            m.write(enc(r), &[fill; 64]).unwrap();
        }
        for &r in &rows {
            let a = [enc(r.saturating_sub(1)), enc((r + 1).min(63))];
            let _ = m.run_hammer(&a, 50_000, 5_000_000.0);
        }
        for &r in &rows {
            let addr = enc(r);
            m.write(addr, &[fill; 64]).unwrap();
            let mut buf = [0u8; 64];
            m.read(addr, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == fill), "case {case} row {r}");
        }
    }
}

/// The extended shadow model agrees exactly with a reference device for
/// any op sequence: committed writes and trims pin content, an
/// interrupted operation leaves its LBA acceptable as either the pre-op
/// or post-op state (whichever the device actually landed in), and a
/// later commit to that LBA resolves the uncertainty. The device side is
/// a plain [`RamDisk`] where the test itself decides — randomly — whether
/// each interrupted op applied, so both resolutions are exercised.
#[test]
fn shadow_model_agrees_with_ramdisk_for_any_op_sequence() {
    use ssdhammer::simkit::fuzz::ShadowDisk;
    use ssdhammer::simkit::BlockDevice;
    const SPAN: u64 = 16;
    let mut rng = seeded(112);
    for case in 0..40 {
        let mut disk = RamDisk::new(SPAN);
        let mut shadow = ShadowDisk::new(SPAN);
        // Mirrors the fuzz executor's discipline: at most one
        // interrupted op is outstanding (one armed cut per episode);
        // while one is pending, new ops commit.
        let mut pending: Option<u64> = None;
        let n_ops = rng.gen_range(1usize..80);
        for _ in 0..n_ops {
            let lba = rng.gen_range(0u64..SPAN);
            let fill = rng.gen_range(1u64..256) as u8;
            match rng.gen_range(0u32..4) {
                0 => {
                    disk.write(Lba(lba), &[fill; BLOCK_SIZE]).unwrap();
                    shadow.commit_write(lba, fill);
                }
                1 => {
                    disk.write(Lba(lba), &[0u8; BLOCK_SIZE]).unwrap();
                    shadow.commit_trim(lba);
                }
                2 if pending.is_none() => {
                    // Interrupted write: the device lands in the post-op
                    // state or keeps the pre-op one, at random.
                    if rng.gen_bool(0.5) {
                        disk.write(Lba(lba), &[fill; BLOCK_SIZE]).unwrap();
                    }
                    shadow.interrupt_write(lba, fill);
                    pending = Some(lba);
                }
                3 if pending.is_none() => {
                    if rng.gen_bool(0.5) {
                        disk.write(Lba(lba), &[0u8; BLOCK_SIZE]).unwrap();
                    }
                    shadow.interrupt_trim(lba);
                    pending = Some(lba);
                }
                _ => {
                    disk.write(Lba(lba), &[fill; BLOCK_SIZE]).unwrap();
                    shadow.commit_write(lba, fill);
                }
            }
            if matches!((pending, rng.gen_range(0u32..4)), (Some(_), 0)) {
                // Occasionally resolve the pending op with a commit.
                let p = pending.take().unwrap();
                disk.write(Lba(p), &[fill; BLOCK_SIZE]).unwrap();
                shadow.commit_write(p, fill);
            }
            // The shadow must accept the device at every step.
            let mut buf = [0u8; BLOCK_SIZE];
            for l in 0..SPAN {
                disk.read(Lba(l), &mut buf).unwrap();
                assert!(
                    shadow.acceptable(l, &buf),
                    "case {case} lba {l}: device holds {:#04x}, shadow allows {}",
                    buf[0],
                    shadow.describe(l)
                );
            }
            // And it is exact, not merely permissive: for a non-uncertain
            // LBA, any *other* uniform fill must be rejected.
            let wrong = [fill.wrapping_add(1).max(1); BLOCK_SIZE];
            if pending != Some(lba) {
                disk.read(Lba(lba), &mut buf).unwrap();
                if buf[0] != wrong[0] {
                    assert!(!shadow.acceptable(lba, &wrong), "case {case} lba {lba}");
                }
            }
        }
    }
}

/// Recovery idempotency invariant: for any workload and any single crash
/// point — any registered site, any crossing — remounting twice yields a
/// byte-identical L2P table and identical recovery telemetry to
/// remounting once.
#[test]
fn recovery_is_idempotent_for_any_crash_point() {
    use ssdhammer::dram::{DramModule, ModuleProfile};
    use ssdhammer::flash::{FlashArray, FlashGeometry};
    use ssdhammer::ftl::{FtlConfig, FtlError, CRASH_SITES};
    use ssdhammer::simkit::faultplane::{FaultPlane, FaultPlaneConfig, FaultSpec};
    use ssdhammer::simkit::SimClock;

    let config = FtlConfig::default()
        .with_journal_checkpoint_every(1)
        .with_journal_blocks(2)
        .with_meta_resident(true);
    let dram = |seed: u64| {
        DramModule::builder(DramGeometry::tiny_test())
            .profile(ModuleProfile::invulnerable())
            .mapping(MappingKind::Linear)
            .seed(seed)
            .without_timing()
            .build(SimClock::new())
    };
    let mut rng = seeded(111);
    for case in 0..24 {
        // One crash point: any site, any crossing in the workload's range.
        let site = if rng.gen_range(0u32..6) == 5 {
            "ftl.power_loss"
        } else {
            CRASH_SITES[rng.gen_range(0usize..CRASH_SITES.len())]
        };
        let at = rng.gen_range(0u64..24);
        let faults = FaultPlaneConfig::new().with_site(
            site,
            FaultSpec::always()
                .with_window(at, at + 1)
                .with_max_fires(1),
        );
        let clock = SimClock::new();
        let mut nand = FlashArray::new(FlashGeometry::tiny_test(), clock.clone(), 1);
        nand.set_fault_plane(FaultPlane::new(7, &faults));
        let mut ftl = Ftl::new(dram(case), nand, config).expect("assembly");
        // Random mutations until the cut (or a completed workload: a clean
        // shutdown must be idempotently recoverable too).
        for _ in 0..40 {
            let lba = Lba(rng.gen_range(0u64..12));
            let r = match rng.gen_range(0u32..8) {
                0 => ftl.trim(lba),
                1 => ftl.flush(),
                2 => ftl.scrub_chunk(4, 2),
                _ => {
                    let fill = rng.next_u64() as u8;
                    ftl.write(lba, &[fill; BLOCK_SIZE]).map(|_| ())
                }
            };
            match r {
                Ok(()) => {}
                Err(FtlError::PowerLoss) => break,
                Err(e) => panic!("case {case} ({site}@{at}): unexpected {e}"),
            }
        }
        let (_lost, nand) = ftl.into_parts();
        let once = Ftl::recover(dram(case ^ 0x100), nand, config)
            .unwrap_or_else(|e| panic!("case {case} ({site}@{at}): first remount {e}"));
        let snap_once = once.l2p_snapshot().expect("snapshot");
        let tel_once = once.telemetry();
        let read_only_once = once.is_read_only();
        let free_once = once.free_block_count();
        let (_lost, nand) = once.into_parts();
        let twice = Ftl::recover(dram(case ^ 0x200), nand, config)
            .unwrap_or_else(|e| panic!("case {case} ({site}@{at}): second remount {e}"));
        assert_eq!(
            snap_once,
            twice.l2p_snapshot().expect("snapshot"),
            "case {case} ({site}@{at}): L2P diverged across remounts"
        );
        let tel_twice = twice.telemetry();
        assert_eq!(
            tel_once.journal_replayed, tel_twice.journal_replayed,
            "case {case} ({site}@{at}): replay count diverged"
        );
        assert_eq!(read_only_once, twice.is_read_only(), "case {case}");
        assert_eq!(free_once, twice.free_block_count(), "case {case}");
    }
}
