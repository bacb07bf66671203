//! Direct-hammering utilities: online rowhammerability probing and
//! minimal-flip-rate measurement, the machinery behind the Table 1
//! reproduction.
//!
//! The paper (§4.2): "The attacker must also identify which set of rows are
//! actually rowhammerable … rowhammerability is determined primarily by
//! variation in the manufacturing process and must be tested online and on
//! the specific device."

use ssdhammer_simkit::DramAddr;

use crate::geometry::RowKey;
use crate::module::{DramModule, HammerOptions};
use crate::weakcells::WeakCell;

/// A candidate victim row together with its weakest cell.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimCandidate {
    /// The victim row.
    pub row: RowKey,
    /// Its lowest-threshold weak cell.
    pub weakest: WeakCell,
    /// Physical byte addresses of `(row-1, row, row+1)` at column 0.
    pub triple: [DramAddr; 3],
}

/// Scans the first `banks` banks (up to `rows_per_bank` rows each) for the
/// most easily flipped double-sided victim on this module.
///
/// Returns `None` when the module has no hammerable row in the scanned
/// region (e.g. [`crate::ModuleProfile::invulnerable`]).
#[must_use]
pub fn find_weakest_victim(
    module: &DramModule,
    banks: u32,
    rows_per_bank: usize,
) -> Option<VictimCandidate> {
    let mut best: Option<VictimCandidate> = None;
    for bank in 0..banks.min(module.mapping().geometry().total_banks()) {
        for row in module.vulnerable_rows(bank, rows_per_bank) {
            let key = RowKey { bank, row };
            let Some(triple) = module.mapping().triple_addrs(bank, row) else {
                continue;
            };
            let cells = module.profile_row(key);
            let Some(weakest) = cells.first().copied() else {
                continue;
            };
            let better = best
                .as_ref()
                .is_none_or(|b| weakest.threshold < b.weakest.threshold);
            if better {
                best = Some(VictimCandidate {
                    row: key,
                    weakest,
                    triple,
                });
            }
        }
    }
    best
}

/// Outcome of one [`measure_min_flip_rate`] search.
#[derive(Debug, Clone, PartialEq)]
pub struct MinRateResult {
    /// Minimal access rate (accesses/second) that produced a flip.
    pub min_rate: f64,
    /// The victim that was hammered.
    pub victim: RowKey,
    /// Threshold of the cell that gated the result.
    pub gating_threshold: u64,
}

/// Measures the minimal double-sided access rate that flips a bit on modules
/// produced by `factory`, by binary search over the access rate.
///
/// Each trial builds a fresh module (same seed ⇒ same weak cells), selects
/// the weakest double-sided victim, fills its row with the bit value that
/// cell can lose, and hammers the two adjacent rows for `windows` refresh
/// windows at the trial rate.
///
/// Returns `None` if even `hi_rate` produces no flip (the module is
/// effectively invulnerable below that rate), if the probe scan finds no
/// victim candidate, or if a trial itself fails — impossible by
/// construction for an in-range candidate, but the measurement has no
/// business inventing a rate when it happens.
///
/// # Panics
///
/// Panics if `lo_rate`/`hi_rate` are not positive and ordered.
#[must_use]
pub fn measure_min_flip_rate(
    factory: &dyn Fn() -> DramModule,
    lo_rate: f64,
    hi_rate: f64,
    windows: u64,
    rel_tolerance: f64,
) -> Option<MinRateResult> {
    assert!(lo_rate > 0.0 && hi_rate > lo_rate, "bad rate bounds");
    let probe = factory();
    let candidate = find_weakest_victim(&probe, probe.mapping().geometry().total_banks(), 4096)?;
    drop(probe);

    let flips_at = |rate: f64| -> Option<bool> {
        let mut m = factory();
        let fill = if candidate.weakest.orientation.vulnerable_value() {
            0xFFu8
        } else {
            0x00u8
        };
        let row_bytes = m.mapping().geometry().row_bytes as usize;
        // Materialize the victim row with flippable data.
        m.write(candidate.triple[1], &vec![fill; row_bytes.min(4096)])
            .ok()?;
        let window = m.profile().refresh_interval;
        let total = (rate * window.as_secs_f64() * windows as f64).ceil() as u64;
        let aggressors = [candidate.triple[0], candidate.triple[2]];
        let report = m
            .run_hammer(&aggressors, total, rate, HammerOptions::default())
            .ok()?;
        Some(report.flips.iter().any(|f| f.row == candidate.row))
    };

    if !flips_at(hi_rate)? {
        return None;
    }
    if flips_at(lo_rate)? {
        return Some(MinRateResult {
            min_rate: lo_rate,
            victim: candidate.row,
            gating_threshold: candidate.weakest.threshold,
        });
    }
    let (mut lo, mut hi) = (lo_rate, hi_rate);
    while (hi - lo) / hi > rel_tolerance {
        let mid = (lo + hi) / 2.0;
        if flips_at(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(MinRateResult {
        min_rate: hi,
        victim: candidate.row,
        gating_threshold: candidate.weakest.threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DramGeometry;
    use crate::mapping::MappingKind;
    use crate::profile::ModuleProfile;
    use ssdhammer_simkit::SimClock;

    fn factory(profile: ModuleProfile) -> impl Fn() -> DramModule {
        move || {
            DramModule::builder(DramGeometry::tiny_test())
                .profile(profile.clone())
                .mapping(MappingKind::Linear)
                .seed(3)
                .without_timing()
                .build(SimClock::new())
        }
    }

    #[test]
    fn finds_a_victim_on_vulnerable_module() {
        let m = factory(ModuleProfile::ddr3_2016())();
        let c = find_weakest_victim(&m, 2, 64).expect("victim");
        assert!(c.weakest.threshold >= m.profile().hc_first);
        assert_eq!(m.mapping().decode(c.triple[1]).row, c.row.row);
    }

    #[test]
    fn no_victim_on_invulnerable_module() {
        let m = factory(ModuleProfile::invulnerable())();
        assert!(find_weakest_victim(&m, 2, 64).is_none());
    }

    #[test]
    fn measured_rate_tracks_calibration() {
        // 672 K accesses/s calibration (DDR3 2016).
        let p = ModuleProfile::ddr3_2016();
        let f = factory(p.clone());
        let result = measure_min_flip_rate(&f, 50_000.0, 20_000_000.0, 1, 0.02)
            .expect("should flip at high rate");
        let expected = p.min_flip_rate_kaps as f64 * 1000.0;
        let ratio = result.min_rate / expected;
        assert!(
            (0.9..1.6).contains(&ratio),
            "measured {} vs calibrated {expected} (ratio {ratio})",
            result.min_rate
        );
    }

    #[test]
    fn invulnerable_module_never_flips() {
        let f = factory(ModuleProfile::ddr3_2016());
        // Probe works, but cap the rate below the threshold: no result.
        assert!(measure_min_flip_rate(&f, 1_000.0, 10_000.0, 1, 0.05).is_none());
    }
}
