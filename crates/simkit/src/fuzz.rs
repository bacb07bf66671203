//! Deterministic model-based fuzzing: generator → executor → oracle →
//! shrinker → corpus.
//!
//! The torture campaign (`simkit::torture`) probes hand-written crash
//! schedules; this module generalizes the idea to *machine-generated*
//! scenarios. A [`FuzzTarget`] owns the domain: it turns a seeded
//! [`SimRng`] stream into operations, executes a whole sequence against
//! the system under test, and differentially checks every observable
//! result against a shadow model, returning a [`Verdict`]. The engine
//! here owns everything domain-independent:
//!
//! * **Episodes** — [`run_episode`] derives the op sequence from
//!   `(seed, len)` alone, so any failure replays from two integers.
//! * **Auto-shrinking** — [`shrink`] minimizes a failing sequence with
//!   delta debugging (ddmin) over ops, then per-op parameter shrinking
//!   via [`FuzzTarget::shrink_op`], re-executing deterministically at
//!   every step and only accepting reductions that preserve the failure
//!   *signature* (so a shrink never walks from one bug into another);
//!   equal signatures are the same bug for reporting and corpus dedup.
//!
//! The [`ShadowDisk`] here is the oracle state: what the host knows an
//! acknowledged operation history implies about device contents — one
//! expected fill per LBA, at most one *uncertain* LBA (the operation a
//! power cut interrupted), and sticky read-only degradation. The bench
//! crate's one device executor (`bench::fuzz`) checks every read against
//! it, and both the fuzz and the power-cut torture campaigns run through
//! that executor.
//!
//! Everything is a pure function of its inputs: same target, same seed,
//! same budget — same minimized case, at any thread count.

use crate::rng::{seeded, SimRng};

// ---- shadow model -----------------------------------------------------------

/// What the host knows the device should contain after a sequence of
/// acknowledged operations: one expected fill byte per LBA (`None` =
/// unmapped, reads back zeroed), at most one *uncertain* LBA — the one
/// whose operation a power cut interrupted, where either the pre-op or
/// the post-op content is acceptable — and a sticky read-only flag once
/// the device has loudly degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowDisk {
    expect: Vec<Option<u8>>,
    uncertain: Option<(u64, Option<u8>, Option<u8>)>,
    read_only: bool,
}

impl ShadowDisk {
    /// An all-unmapped shadow over `span` LBAs.
    #[must_use]
    pub fn new(span: u64) -> ShadowDisk {
        ShadowDisk {
            expect: vec![None; span as usize],
            uncertain: None,
            read_only: false,
        }
    }

    /// LBAs the shadow covers.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.expect.len() as u64
    }

    /// Applies a completed (host-acknowledged) write of `[fill; BLOCK]`.
    /// A completed operation on a previously uncertain LBA resolves the
    /// uncertainty: the host now knows exactly what the LBA holds.
    pub fn commit_write(&mut self, lba: u64, fill: u8) {
        self.expect[lba as usize] = Some(fill);
        self.resolve(lba);
    }

    /// Applies a completed (host-acknowledged) TRIM.
    pub fn commit_trim(&mut self, lba: u64) {
        self.expect[lba as usize] = None;
        self.resolve(lba);
    }

    /// Marks a write interrupted by a power cut: the LBA may hold either
    /// its pre-op content or the new fill, never anything else.
    pub fn interrupt_write(&mut self, lba: u64, fill: u8) {
        self.uncertain = Some((lba, self.expect[lba as usize], Some(fill)));
    }

    /// Marks a TRIM interrupted by a power cut.
    pub fn interrupt_trim(&mut self, lba: u64) {
        self.uncertain = Some((lba, self.expect[lba as usize], None));
    }

    /// Records that the device loudly degraded to read-only mode. From
    /// here on, acknowledged mutations are contract violations.
    pub fn mark_read_only(&mut self) {
        self.read_only = true;
    }

    /// Whether the device has (loudly) reported read-only degradation.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Whether `buf` is acceptable content for `lba`.
    #[must_use]
    pub fn acceptable(&self, lba: u64, buf: &[u8]) -> bool {
        let matches = |v: Option<u8>| {
            let want = v.unwrap_or(0);
            buf.iter().all(|&b| b == want)
        };
        if let Some((ulba, before, after)) = self.uncertain {
            if ulba == lba {
                return matches(before) || matches(after);
            }
        }
        matches(self.expect[lba as usize])
    }

    /// Human-readable expectation for mismatch reports.
    #[must_use]
    pub fn describe(&self, lba: u64) -> String {
        if let Some((ulba, before, after)) = self.uncertain {
            if ulba == lba {
                return format!("{before:?} or {after:?} (interrupted op)");
            }
        }
        format!("{:?}", self.expect[lba as usize])
    }

    fn resolve(&mut self, lba: u64) {
        if self.uncertain.is_some_and(|(u, _, _)| u == lba) {
            self.uncertain = None;
        }
    }
}

// ---- target + verdict -------------------------------------------------------

/// One differential-check failure: a stable bucketing `signature` (equal
/// signatures are the same bug) plus the free-form evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Stable bucket key, e.g. `read.divergence` or
    /// `write.illegal_error.power_loss`.
    pub signature: String,
    /// Human-readable evidence for the report.
    pub detail: String,
}

/// Outcome of executing one op sequence against the system under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every observable result matched the shadow model.
    Pass,
    /// A divergence: the oracle caught the system violating its contract.
    Fail(Failure),
}

/// The domain half of the fuzzer: op generation, parameter shrinking, and
/// deterministic whole-sequence execution with a differential oracle.
pub trait FuzzTarget {
    /// One generated operation.
    type Op: Clone;

    /// Draws the next operation from the episode's seeded stream.
    fn gen_op(&self, rng: &mut SimRng) -> Self::Op;

    /// Candidate single-op simplifications, simplest first. The shrinker
    /// tries each in order and keeps the first that preserves the failure
    /// signature. Return an empty vec for ops with no parameters.
    fn shrink_op(&self, op: &Self::Op) -> Vec<Self::Op>;

    /// Executes `ops` from a fresh system state. Must be deterministic:
    /// the same sequence always yields the same verdict.
    fn execute(&self, ops: &[Self::Op]) -> Verdict;
}

// ---- episodes ---------------------------------------------------------------

/// A minimized failing sequence, replayable from `ops` alone.
#[derive(Debug, Clone)]
pub struct FuzzCase<Op> {
    /// Episode seed the sequence was generated from.
    pub seed: u64,
    /// The minimized op sequence (still failing with `failure.signature`).
    pub ops: Vec<Op>,
    /// The failure the minimized sequence reproduces.
    pub failure: Failure,
    /// Length of the original (pre-shrink) sequence.
    pub original_len: usize,
    /// Executions the shrinker spent minimizing.
    pub shrink_execs: usize,
}

/// Generates the episode's op sequence from `(seed, len)` — the exact
/// sequence [`run_episode`] executes, exposed so reports and corpus files
/// can be rebuilt without re-running anything.
pub fn gen_ops<T: FuzzTarget>(target: &T, seed: u64, len: usize) -> Vec<T::Op> {
    let mut rng = seeded(seed);
    (0..len).map(|_| target.gen_op(&mut rng)).collect()
}

/// Runs one episode: generate `len` ops from `seed`, execute, and — on
/// divergence — shrink to a minimal reproduction within `shrink_budget`
/// executions. `None` means the episode passed.
pub fn run_episode<T: FuzzTarget>(
    target: &T,
    seed: u64,
    len: usize,
    shrink_budget: usize,
) -> Option<FuzzCase<T::Op>> {
    let ops = gen_ops(target, seed, len);
    match target.execute(&ops) {
        Verdict::Pass => None,
        Verdict::Fail(failure) => Some(shrink(target, seed, ops, failure, shrink_budget)),
    }
}

/// Minimizes a failing sequence by alternating ddmin delta debugging over
/// ops with per-op parameter shrinking until a full round of both accepts
/// nothing, re-executing deterministically at every step. The alternation
/// matters: simplifying a parameter (say, an injected fault's trigger
/// count) can make previously load-bearing ops deletable, so ddmin must
/// get another pass after parameters move. Only reductions that reproduce
/// the exact failure signature are accepted. `budget` caps total
/// executions; on exhaustion the best reduction so far is returned (still
/// a valid repro).
pub fn shrink<T: FuzzTarget>(
    target: &T,
    seed: u64,
    ops: Vec<T::Op>,
    failure: Failure,
    budget: usize,
) -> FuzzCase<T::Op> {
    let original_len = ops.len();
    let mut best = ops;
    let mut execs = 0usize;
    let still_fails = |candidate: &[T::Op], execs: &mut usize| -> bool {
        *execs += 1;
        matches!(
            target.execute(candidate),
            Verdict::Fail(f) if f.signature == failure.signature
        )
    };

    loop {
        let mut round_changed = false;

        // ddmin over the op sequence. Try deleting chunks at the current
        // granularity; any accepted deletion resets the granularity scan,
        // halving chunk size only once no chunk can be removed.
        let mut chunk = best.len().div_ceil(2).max(1);
        while chunk >= 1 && execs < budget {
            let mut removed_any = false;
            let mut start = 0usize;
            while start < best.len() && execs < budget {
                let end = (start + chunk).min(best.len());
                let mut candidate = Vec::with_capacity(best.len() - (end - start));
                candidate.extend_from_slice(&best[..start]);
                candidate.extend_from_slice(&best[end..]);
                if !candidate.is_empty() && still_fails(&candidate, &mut execs) {
                    best = candidate;
                    removed_any = true;
                    round_changed = true;
                    // Re-scan from the same offset: the next chunk slid left.
                } else {
                    start = end;
                }
            }
            if !removed_any {
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            } else {
                chunk = chunk.min(best.len()).max(1);
            }
        }

        // Per-op parameter shrinking, first accepted candidate wins per
        // position, repeated until a full pass accepts nothing.
        let mut changed = true;
        while changed && execs < budget {
            changed = false;
            for i in 0..best.len() {
                if execs >= budget {
                    break;
                }
                for candidate_op in target.shrink_op(&best[i]) {
                    let mut candidate = best.clone();
                    candidate[i] = candidate_op;
                    if still_fails(&candidate, &mut execs) {
                        best = candidate;
                        changed = true;
                        round_changed = true;
                        break;
                    }
                    if execs >= budget {
                        break;
                    }
                }
            }
        }

        if !round_changed || execs >= budget {
            break;
        }
    }

    FuzzCase {
        seed,
        ops: best,
        failure,
        original_len,
        shrink_execs: execs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Synthetic target over byte "ops": the system fails iff the
    /// sequence contains at least one byte >= 200, with the signature
    /// keyed to the largest offending byte's decade so distinct "bugs"
    /// shrink without crosstalk.
    struct ByteTarget;

    impl FuzzTarget for ByteTarget {
        type Op = u8;

        fn gen_op(&self, rng: &mut SimRng) -> u8 {
            rng.gen_range(0u64..256) as u8
        }

        fn shrink_op(&self, op: &u8) -> Vec<u8> {
            // Shrink toward the smallest still-failing value, 200.
            if *op > 200 {
                vec![200, *op - 1]
            } else {
                Vec::new()
            }
        }

        fn execute(&self, ops: &[u8]) -> Verdict {
            match ops.iter().filter(|&&b| b >= 200).max() {
                None => Verdict::Pass,
                Some(max) => Verdict::Fail(Failure {
                    signature: format!("byte.{}", max / 10),
                    detail: format!("offending byte {max}"),
                }),
            }
        }
    }

    #[test]
    fn passing_episode_yields_no_case() {
        // Seed chosen so all 4 generated bytes are < 200.
        let mut seed = 0;
        loop {
            if gen_ops(&ByteTarget, seed, 4).iter().all(|&b| b < 200) {
                break;
            }
            seed += 1;
        }
        assert!(run_episode(&ByteTarget, seed, 4, 1000).is_none());
    }

    #[test]
    fn failing_episode_shrinks_to_one_op() {
        let mut seed = 0;
        loop {
            if gen_ops(&ByteTarget, seed, 32).iter().any(|&b| b >= 200) {
                break;
            }
            seed += 1;
        }
        let case = run_episode(&ByteTarget, seed, 32, 10_000).expect("must fail");
        assert_eq!(case.original_len, 32);
        assert_eq!(case.ops.len(), 1, "ddmin must reach a single op");
        assert!(case.ops[0] >= 200);
        // Parameter shrinking must have walked the byte down to the
        // boundary of its own signature decade.
        let decade: u8 = case.failure.signature["byte.".len()..].parse().unwrap();
        assert_eq!(case.ops[0], (decade * 10).max(200));
        assert!(matches!(
            ByteTarget.execute(&case.ops),
            Verdict::Fail(f) if f.signature == case.failure.signature
        ));
    }

    #[test]
    fn shrinking_is_deterministic() {
        let ops = vec![3u8, 250, 17, 201, 90, 255, 4];
        let failure = match ByteTarget.execute(&ops) {
            Verdict::Fail(f) => f,
            Verdict::Pass => panic!("fixture must fail"),
        };
        let a = shrink(&ByteTarget, 1, ops.clone(), failure.clone(), 10_000);
        let b = shrink(&ByteTarget, 1, ops, failure, 10_000);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.shrink_execs, b.shrink_execs);
    }

    #[test]
    fn shrink_budget_bounds_executions() {
        let ops: Vec<u8> = (0..64).map(|i| if i == 63 { 255 } else { 7 }).collect();
        let failure = Failure {
            signature: "byte.25".into(),
            detail: String::new(),
        };
        let case = shrink(&ByteTarget, 1, ops, failure, 5);
        assert!(case.shrink_execs <= 5);
        // Budget-exhausted shrinks still reproduce.
        assert!(matches!(ByteTarget.execute(&case.ops), Verdict::Fail(_)));
    }

    #[test]
    fn shadow_tracks_commits_and_uncertainty() {
        let mut s = ShadowDisk::new(4);
        assert!(s.acceptable(0, &[0, 0]));
        s.commit_write(1, 0xAA);
        assert!(s.acceptable(1, &[0xAA, 0xAA]));
        assert!(!s.acceptable(1, &[0, 0]));
        s.interrupt_write(2, 0x55);
        assert!(s.acceptable(2, &[0, 0]), "pre-op content acceptable");
        assert!(s.acceptable(2, &[0x55, 0x55]), "post-op content acceptable");
        assert!(!s.acceptable(2, &[1, 2]));
        // A later acknowledged op on the uncertain LBA resolves it.
        s.commit_write(2, 0x77);
        assert!(!s.acceptable(2, &[0, 0]));
        assert!(s.acceptable(2, &[0x77, 0x77]));
        s.commit_trim(1);
        assert!(s.acceptable(1, &[0, 0]));
        assert!(!s.read_only());
        s.mark_read_only();
        assert!(s.read_only());
    }

    #[test]
    fn shadow_interrupted_trim_accepts_both_sides() {
        let mut s = ShadowDisk::new(2);
        s.commit_write(0, 9);
        s.interrupt_trim(0);
        assert!(s.acceptable(0, &[9, 9]));
        assert!(s.acceptable(0, &[0, 0]));
        assert_eq!(s.describe(0), "Some(9) or None (interrupted op)");
    }
}
