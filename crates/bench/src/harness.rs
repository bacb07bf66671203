//! The wall-clock-only reporting path.
//!
//! All host-clock access lives in the [`wallclock`] submodule. That is the
//! one sanctioned `std::time::Instant` user outside `simkit` (lint rule D1's
//! allowlist points here). Its only caller is the `perfbench` benchmark
//! (`perfbench/src/trace.rs`), which reports the timings for humans; they
//! never feed back into simulated state, so they cannot perturb a
//! deterministic run. Nothing `repro` prints depends on the host clock.

/// Everything measured against the host clock funnels through this module,
/// so the D1 allowlist entry for `harness.rs` has a single, auditable
/// surface. Callers consume the returned plain seconds and do arithmetic
/// and formatting only.
pub mod wallclock {
    use std::time::Instant;

    /// Runs `f` once and returns its wall-clock duration in seconds.
    ///
    /// The only purpose of the value is human-readable reporting; it must
    /// never be fed into simulated state.
    pub fn time_once<T>(f: &mut impl FnMut() -> T) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wallclock_times_are_nonnegative_and_ordered() {
        let mut fast = || 1 + 1;
        let quick = wallclock::time_once(&mut fast);
        assert!(quick >= 0.0);
        let mut slow = || {
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        };
        let longer = wallclock::time_once(&mut slow);
        assert!(longer >= 0.0);
    }
}
