//! NVMe-ish command set, completions, and controller configuration.

use std::sync::Arc;

use ssdhammer_ftl::FtlError;
use ssdhammer_simkit::{Lba, SimDuration, SimTime};

/// Identifies a namespace (1-based, like NVMe NSIDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NsId(pub u32);

impl core::fmt::Display for NsId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ns{}", self.0)
    }
}

/// Identifies a queue pair.
///
/// Ordered so that queue collections iterate deterministically — the
/// round-robin in [`Ssd::process_all`](crate::Ssd::process_all) visits
/// active queues in ascending id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

impl core::fmt::Display for QpId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Handle to a created queue pair, returned by `create_queue_pair`.
///
/// Carries the queue's identity alongside its submission-queue depth, so
/// call sites no longer thread a bare [`QpId`] plus out-of-band knowledge
/// of the depth they asked for. The handle is `Copy` and converts into
/// [`QpId`] wherever one is expected, so it can be passed directly to
/// `submit`, `submit_batch`, `pop_completion`, and `drain_completions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueuePairHandle {
    id: QpId,
    depth: usize,
}

impl QueuePairHandle {
    /// Assembles a handle (crate-internal; hosts receive handles from
    /// `create_queue_pair`).
    pub(crate) fn new(id: QpId, depth: usize) -> Self {
        QueuePairHandle { id, depth }
    }

    /// The queue pair's identity.
    #[must_use]
    pub fn id(&self) -> QpId {
        self.id
    }

    /// Submission-queue depth: the number of commands that may be in flight
    /// on this queue at once.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl From<QueuePairHandle> for QpId {
    fn from(h: QueuePairHandle) -> QpId {
        h.id
    }
}

/// Host-visible commands. LBAs are namespace-relative.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Read one 4 KiB block.
    Read {
        /// Target namespace.
        ns: NsId,
        /// Namespace-relative block address.
        lba: Lba,
    },
    /// Write one 4 KiB block.
    Write {
        /// Target namespace.
        ns: NsId,
        /// Namespace-relative block address.
        lba: Lba,
        /// Block payload (must be 4 KiB).
        data: Box<[u8]>,
    },
    /// Deallocate (TRIM) one block.
    Trim {
        /// Target namespace.
        ns: NsId,
        /// Namespace-relative block address.
        lba: Lba,
    },
    /// Get-log-page (SMART / health information): returns the device's
    /// [`HealthLog`] — grown bad blocks, scrub repairs, uncorrectable
    /// reads, L2P integrity counters, and the read-only degradation flag.
    /// This is the administrator-facing view §5 appeals to: a tenant being
    /// rowhammered shows up as climbing repair/uncorrectable counts long
    /// before data is lost.
    GetLogPage,
}

/// Errors surfaced on the NVMe surface.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NvmeError {
    /// Unknown namespace.
    InvalidNamespace {
        /// The offending id.
        ns: NsId,
    },
    /// Unknown queue pair.
    InvalidQueue {
        /// The offending id.
        qp: QpId,
    },
    /// Namespace-relative address beyond the namespace size.
    OutOfRange {
        /// The namespace.
        ns: NsId,
        /// The offending address.
        lba: Lba,
    },
    /// The submission queue is full (depth exhausted).
    QueueFull,
    /// Capacity exhausted while creating a namespace.
    InsufficientCapacity,
    /// T10-DIF-style verification failed: the mapped physical page does not
    /// belong to this LBA (a misdirected mapping was caught).
    Integrity {
        /// The namespace.
        ns: NsId,
        /// The failing (namespace-relative) address.
        lba: Lba,
    },
    /// An internal controller-protocol invariant did not hold (a completion
    /// or command id the protocol guarantees was missing). Seeing this
    /// means a controller bug, not a host error.
    Protocol {
        /// What the protocol guaranteed but the controller failed to produce.
        expected: &'static str,
    },
    /// The command exceeded the controller's completion deadline and was
    /// failed after exhausting the retry budget.
    Timeout {
        /// Retries attempted before giving up.
        retries: u32,
    },
    /// The controller aborted the command before execution (injected via
    /// the `nvme.abort` fault site).
    Aborted,
    /// The FTL failed the operation.
    Ftl(FtlError),
}

impl From<FtlError> for NvmeError {
    fn from(e: FtlError) -> Self {
        NvmeError::Ftl(e)
    }
}

impl core::fmt::Display for NvmeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NvmeError::InvalidNamespace { ns } => write!(f, "invalid namespace {ns}"),
            NvmeError::InvalidQueue { qp } => write!(f, "invalid queue pair {}", qp.0),
            NvmeError::OutOfRange { ns, lba } => write!(f, "{lba} out of range for {ns}"),
            NvmeError::QueueFull => write!(f, "submission queue full"),
            NvmeError::InsufficientCapacity => write!(f, "insufficient capacity"),
            NvmeError::Integrity { ns, lba } => {
                write!(f, "integrity (DIF) failure at {lba} of {ns}")
            }
            NvmeError::Protocol { expected } => {
                write!(f, "controller protocol invariant violated: {expected}")
            }
            NvmeError::Timeout { retries } => {
                write!(f, "command timed out after {retries} retries")
            }
            NvmeError::Aborted => write!(f, "command aborted"),
            NvmeError::Ftl(e) => write!(f, "ftl: {e}"),
        }
    }
}

impl std::error::Error for NvmeError {}

/// SMART-style health log returned by [`Command::GetLogPage`] — the
/// counters an administrator (or an attack-detection daemon) would poll to
/// notice a device under rowhammer pressure. All counts are cumulative
/// since device assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthLog {
    /// Flash blocks retired at runtime (grown bad blocks).
    pub grown_bad_blocks: u64,
    /// Corruptions repaired by the background patrol scrubber.
    pub scrub_repairs: u64,
    /// Host reads that failed uncorrectably (flash ECC exhausted).
    pub uncorrectable_reads: u64,
    /// L2P entries whose integrity code did not match on read or scrub.
    pub integrity_detected: u64,
    /// L2P entries repaired in place or restored from the mirror copy.
    pub integrity_repaired: u64,
    /// True when the FTL has degraded to read-only mode.
    pub read_only: bool,
}

/// Result payload of a completed command.
#[derive(Debug, Clone, PartialEq)]
pub enum CmdResult {
    /// Read completed; the data and whether the mapping was live.
    Read {
        /// The block contents, shared rather than copied
        /// ([`Ftl::read_shared`](ssdhammer_ftl::Ftl::read_shared)): a clean
        /// mapped read carries the stored flash page itself, an unmapped
        /// or wild read the FTL's one zero page, and only bytes that change
        /// on the way out (read disturb, a silent ECC miss, an encrypted
        /// namespace's decryption) come as a private copy. Stored pages
        /// are never mutated, so the data stays what was read.
        data: Arc<[u8]>,
        /// True when the read hit a mapped physical page (vs unmapped/wild).
        mapped: bool,
    },
    /// Write completed.
    Write,
    /// Trim completed.
    Trim,
    /// Get-log-page payload.
    HealthLog(HealthLog),
    /// Command failed.
    Error(NvmeError),
}

/// A completion queue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Command id assigned at submission.
    pub cid: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// The command outcome.
    pub result: CmdResult,
}

impl Completion {
    /// Submission-to-completion latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_since(self.submitted)
    }

    /// True when the command succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        !matches!(self.result, CmdResult::Error(_))
    }

    /// The command's error status, if it failed — lets hosts inspect
    /// per-command outcomes from `drain_completions` without matching on
    /// [`CmdResult`].
    #[must_use]
    pub fn error(&self) -> Option<&NvmeError> {
        match &self.result {
            CmdResult::Error(e) => Some(e),
            _ => None,
        }
    }
}

/// Host-interface performance class of the device — determines the
/// per-command controller overhead and therefore the achievable IOPS
/// (§3.1 cites ~1.5M IOPS on PCIe 4.0 and >2M expected on PCIe 5.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterfaceGen {
    /// PCIe 3.0-era controller: ~0.5 M IOPS.
    Pcie3,
    /// PCIe 4.0-era controller: ~1.5 M IOPS.
    Pcie4,
    /// PCIe 5.0-era controller: >2 M IOPS.
    Pcie5,
}

impl InterfaceGen {
    /// Fixed controller overhead charged per command (excludes FTL DRAM
    /// time, which the FTL itself accounts).
    #[must_use]
    pub fn command_overhead(self) -> SimDuration {
        match self {
            InterfaceGen::Pcie3 => SimDuration::from_nanos(1900),
            InterfaceGen::Pcie4 => SimDuration::from_nanos(580),
            InterfaceGen::Pcie5 => SimDuration::from_nanos(390),
        }
    }
}

impl core::fmt::Display for InterfaceGen {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            InterfaceGen::Pcie3 => "PCIe 3.0",
            InterfaceGen::Pcie4 => "PCIe 4.0",
            InterfaceGen::Pcie5 => "PCIe 5.0",
        };
        f.write_str(s)
    }
}

/// How the controller handles commands that miss their completion deadline
/// (injected via the `nvme.timeout` fault site): each timed-out attempt
/// costs [`RetryPolicy::TIMEOUT`] of simulated time, then the command is
/// retried after an exponentially growing backoff
/// ([`RetryPolicy::BACKOFF`]` << attempt`) up to `max_retries` times before
/// completing with [`NvmeError::Timeout`]. All delays advance the
/// simulation clock — never the wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first timed-out attempt before failing the command.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// Completion deadline charged per timed-out attempt.
    pub const TIMEOUT: SimDuration = SimDuration::from_micros(500);

    /// Base backoff before a retry; doubles per attempt.
    pub const BACKOFF: SimDuration = SimDuration::from_micros(50);
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3 }
    }
}

/// Controller behaviour configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Interface generation (sets per-command overhead).
    pub interface: InterfaceGen,
    /// Optional I/O rate limit in commands/second — §5's "rate-limiting user
    /// IOs below the rowhammering access rate" mitigation. Commands are
    /// delayed, not rejected.
    pub rate_limit_iops: Option<f64>,
    /// Timeout/retry handling for commands the fault plane stalls.
    pub retry: RetryPolicy,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            interface: InterfaceGen::Pcie4,
            rate_limit_iops: None,
            retry: RetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = Completion {
            cid: 1,
            submitted: SimTime::from_nanos(100),
            completed: SimTime::from_nanos(350),
            result: CmdResult::Write,
        };
        assert_eq!(c.latency(), SimDuration::from_nanos(250));
        assert!(c.is_ok());
    }

    #[test]
    fn error_completions_are_not_ok() {
        let c = Completion {
            cid: 2,
            submitted: SimTime::ZERO,
            completed: SimTime::ZERO,
            result: CmdResult::Error(NvmeError::QueueFull),
        };
        assert!(!c.is_ok());
    }

    #[test]
    fn newer_interfaces_have_lower_overhead() {
        assert!(InterfaceGen::Pcie5.command_overhead() < InterfaceGen::Pcie4.command_overhead());
        assert!(InterfaceGen::Pcie4.command_overhead() < InterfaceGen::Pcie3.command_overhead());
    }

    #[test]
    fn interface_iops_match_paper_claims() {
        // 1/overhead approximates peak IOPS (FTL adds ~tens of ns more).
        let iops4 = InterfaceGen::Pcie4.command_overhead().rate_per_sec();
        let iops5 = InterfaceGen::Pcie5.command_overhead().rate_per_sec();
        assert!(iops4 > 1_500_000.0 && iops4 < 2_000_000.0);
        assert!(iops5 > 2_000_000.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NsId(3).to_string(), "ns3");
        assert_eq!(InterfaceGen::Pcie4.to_string(), "PCIe 4.0");
        assert_eq!(
            NvmeError::OutOfRange {
                ns: NsId(1),
                lba: Lba(9)
            }
            .to_string(),
            "LBA#9 out of range for ns1"
        );
    }
}
