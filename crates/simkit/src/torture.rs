//! Deterministic crash-point enumeration for power-cut torture campaigns.
//!
//! The fault plane ([`faultplane`]) samples failure points
//! probabilistically: whether a recovery path is ever exercised at a
//! *specific* journal append or mirror write-through is luck. This module
//! turns the same machinery into systematic crash-schedule exploration:
//!
//! 1. **Census** — run the workload once against a plane whose crash sites
//!    are configured at probability zero ([`census_config`]). Configured
//!    sites count consults even when they can never fire, so afterwards
//!    [`measure_crossings`] reads back exactly how many times the workload
//!    crossed each site.
//! 2. **Enumeration** — [`TorturePlan::enumerate`] converts the census
//!    into a list of [`CrashPoint`]s: exhaustive when the total number of
//!    crossings fits the budget, seeded-stratified sampling (at least one
//!    point per crossed site, proportional quotas, one seeded pick per
//!    stratum) when it does not.
//! 3. **Replay** — each crash point converts to a [`FaultSpec`] that fires
//!    exactly once, at exactly the chosen consult ([`CrashPoint::spec`]).
//!    Re-running the workload with that spec cuts power at the chosen
//!    site crossing; the caller then recovers the device and checks its
//!    invariant oracle, recording a [`CrashVerdict`]. (`bench::torture`
//!    does both through `bench::fuzz`'s executor: the point becomes an
//!    armed-cut op in front of a fixed op sequence, so one oracle judges
//!    the fuzz and torture campaigns.)
//!
//! Everything is a pure function of `(census, limit, seed)`, so the plan —
//! and therefore the whole torture campaign — is bit-identical across
//! runs and thread counts.
//!
//! [`faultplane`]: crate::faultplane
//!
//! # Examples
//!
//! ```
//! use ssdhammer_simkit::torture::{SiteCrossings, TorturePlan};
//!
//! let census = vec![
//!     SiteCrossings { site: "ftl.crash.journal_append".into(), crossings: 3 },
//!     SiteCrossings { site: "ftl.crash.l2p_flush".into(), crossings: 1 },
//!     SiteCrossings { site: "ftl.crash.scrub_repair".into(), crossings: 0 },
//! ];
//! let plan = TorturePlan::enumerate(&census, 16, 7);
//! assert!(plan.exhaustive);
//! assert_eq!(plan.points.len(), 4); // 3 + 1; the uncrossed site yields none
//! ```

use crate::faultplane::{FaultPlane, FaultPlaneConfig, FaultSpec};
use crate::json::{Json, ToJson};
use crate::rng;

/// One power-cut point: cut at the `index`-th crossing (0-based consult)
/// of `site`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashPoint {
    /// The fault-plane site to cut at.
    pub site: String,
    /// Which crossing of the site to cut at (per-site consult index).
    pub index: u64,
}

impl CrashPoint {
    /// The fault spec that fires exactly once, at exactly this crossing.
    #[must_use]
    pub fn spec(&self) -> FaultSpec {
        FaultSpec::always()
            .with_window(self.index, self.index + 1)
            .with_max_fires(1)
    }

    /// `site@index` label for reports and shard labels.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}", self.site, self.index)
    }
}

impl ToJson for CrashPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("site", Json::str(self.site.as_str())),
            ("index", Json::from(self.index)),
        ])
    }
}

/// How many times a workload crossed one site, from the census pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCrossings {
    /// The site's dotted name.
    pub site: String,
    /// Consults observed during the census run.
    pub crossings: u64,
}

/// Extends `base` with every crash site at probability zero: the sites
/// become *configured* (so the plane counts their consults) without ever
/// firing. Running the workload against `FaultPlane::new(seed, &config)`
/// and reading [`measure_crossings`] afterwards yields the census.
#[must_use]
pub fn census_config(base: &FaultPlaneConfig, sites: &[&str]) -> FaultPlaneConfig {
    let mut config = base.clone();
    for &site in sites {
        config = config.with_site(site, FaultSpec::with_probability(0.0));
    }
    config
}

/// Reads per-site consult counts back from a census run's plane, in the
/// order `sites` lists them.
#[must_use]
pub fn measure_crossings(plane: &FaultPlane, sites: &[&str]) -> Vec<SiteCrossings> {
    sites
        .iter()
        .map(|&site| SiteCrossings {
            site: site.to_string(),
            crossings: plane.consults(site),
        })
        .collect()
}

/// A deterministic crash schedule derived from a census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorturePlan {
    /// The crash points to replay, grouped by site in census order,
    /// indices ascending within a site.
    pub points: Vec<CrashPoint>,
    /// Total crossings the census observed across all sites.
    pub total_crossings: u64,
    /// True when every crossing became a crash point (no sampling).
    pub exhaustive: bool,
}

impl TorturePlan {
    /// Enumerates crash points for `crossings`, bounded by `limit`.
    ///
    /// When the total number of crossings fits within `limit`, every
    /// crossing of every site becomes a point (exhaustive). Otherwise each
    /// crossed site receives a quota — at least one point, the rest in
    /// proportion to its crossing count (largest-remainder rounding) — and
    /// quota points are drawn one per equal-width stratum with a seeded
    /// in-stratum offset (`derive_seed(seed, site, stratum)`), so dense
    /// regions and both ends of the schedule stay covered.
    ///
    /// Sites with zero crossings contribute nothing. When `limit` is
    /// smaller than the number of crossed sites, the first `limit` crossed
    /// sites (census order) get one point each.
    #[must_use]
    pub fn enumerate(crossings: &[SiteCrossings], limit: usize, seed: u64) -> TorturePlan {
        let crossed: Vec<&SiteCrossings> = crossings.iter().filter(|s| s.crossings > 0).collect();
        let total: u64 = crossed.iter().map(|s| s.crossings).sum();
        if total <= limit as u64 {
            let points = crossed
                .iter()
                .flat_map(|s| {
                    (0..s.crossings).map(|index| CrashPoint {
                        site: s.site.clone(),
                        index,
                    })
                })
                .collect();
            return TorturePlan {
                points,
                total_crossings: total,
                exhaustive: true,
            };
        }
        let quotas = Self::quotas(&crossed, limit);
        let mut points = Vec::with_capacity(limit);
        for (s, quota) in crossed.iter().zip(quotas) {
            let n = s.crossings;
            for stratum in 0..quota {
                // Equal-width strata over `0..n`; one seeded pick each.
                let lo = stratum * n / quota;
                let hi = (stratum + 1) * n / quota;
                let span = hi.max(lo + 1) - lo;
                let offset = rng::derive_seed(seed, &s.site, stratum) % span;
                points.push(CrashPoint {
                    site: s.site.clone(),
                    index: lo + offset,
                });
            }
        }
        TorturePlan {
            points,
            total_crossings: total,
            exhaustive: false,
        }
    }

    /// Number of distinct sites the plan cuts at.
    #[must_use]
    pub fn sites(&self) -> Vec<&str> {
        let mut sites: Vec<&str> = Vec::new();
        for p in &self.points {
            if !sites.contains(&p.site.as_str()) {
                sites.push(&p.site);
            }
        }
        sites
    }

    /// Largest-remainder proportional quotas with a floor of one point per
    /// crossed site; quotas never exceed a site's crossing count and sum
    /// to `min(limit, …)` deterministically.
    fn quotas(crossed: &[&SiteCrossings], limit: usize) -> Vec<u64> {
        let sites = crossed.len();
        if limit <= sites {
            // Degenerate budget: first `limit` sites get one point each.
            return (0..sites).map(|i| u64::from(i < limit)).collect();
        }
        let total: u64 = crossed.iter().map(|s| s.crossings).sum();
        let budget = limit as u64;
        // Ideal share scaled by 2^16 for fixed-point remainders.
        let mut quotas: Vec<u64> = Vec::with_capacity(sites);
        let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(sites);
        let mut assigned = 0u64;
        for (i, s) in crossed.iter().enumerate() {
            let scaled = s.crossings * budget;
            let q = (scaled / total).clamp(1, s.crossings);
            let rem = (scaled % total) * 65_536 / total;
            quotas.push(q);
            remainders.push((rem, i));
            assigned += q;
        }
        // Distribute any leftover budget by descending remainder (ties by
        // census order), still capped by each site's crossing count.
        // Cycling is deterministic and always terminates: in the sampling
        // branch `total > budget`, so capacity exists somewhere.
        remainders.sort_by_key(|&(rem, i)| (u64::MAX - rem, i));
        while assigned < budget {
            let mut progressed = false;
            for &(_, i) in &remainders {
                if assigned >= budget {
                    break;
                }
                if quotas[i] < crossed[i].crossings {
                    quotas[i] += 1;
                    assigned += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // The one-point floor can overshoot the budget when one site
        // dominates; shave the largest quotas (first on ties) back down.
        while assigned > budget {
            let mut at = 0;
            for (i, &q) in quotas.iter().enumerate() {
                if q > quotas[at] {
                    at = i;
                }
            }
            if quotas[at] <= 1 {
                break;
            }
            quotas[at] -= 1;
            assigned -= 1;
        }
        quotas
    }
}

/// The oracle's verdict on one crash point's recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Recovery restored a state fully consistent with the shadow model.
    Clean,
    /// The device degraded loudly (typed errors, read-only): data may be
    /// lost but nothing was silently wrong.
    LoudDegraded {
        /// What the device reported.
        detail: String,
    },
    /// Recovery served data inconsistent with the shadow model without
    /// reporting any error — the failure mode the paper is about.
    SilentCorruption {
        /// Which LBA/check failed and how.
        detail: String,
    },
    /// The crash site never fired during this run (the cut-point schedule
    /// and the workload disagree) — a coverage bug, counted separately so
    /// it cannot masquerade as a pass.
    NotTriggered,
}

impl CrashVerdict {
    /// Short status tag: `clean`, `loud_degraded`, `silent_corruption`,
    /// `not_triggered`.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            CrashVerdict::Clean => "clean",
            CrashVerdict::LoudDegraded { .. } => "loud_degraded",
            CrashVerdict::SilentCorruption { .. } => "silent_corruption",
            CrashVerdict::NotTriggered => "not_triggered",
        }
    }

    /// True for the verdict the torture campaign exists to catch.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        matches!(self, CrashVerdict::SilentCorruption { .. })
    }
}

impl ToJson for CrashVerdict {
    fn to_json(&self) -> Json {
        let detail = match self {
            CrashVerdict::LoudDegraded { detail } | CrashVerdict::SilentCorruption { detail } => {
                Some(detail.as_str())
            }
            _ => None,
        };
        match detail {
            Some(d) => Json::obj([
                ("status", Json::str(self.status())),
                ("detail", Json::str(d)),
            ]),
            None => Json::obj([("status", Json::str(self.status()))]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(counts: &[(&str, u64)]) -> Vec<SiteCrossings> {
        counts
            .iter()
            .map(|&(site, crossings)| SiteCrossings {
                site: site.to_string(),
                crossings,
            })
            .collect()
    }

    #[test]
    fn exhaustive_when_total_fits_budget() {
        let plan = TorturePlan::enumerate(&census(&[("a.x", 3), ("b.y", 0), ("c.z", 2)]), 5, 1);
        assert!(plan.exhaustive);
        assert_eq!(plan.total_crossings, 5);
        let labels: Vec<String> = plan.points.iter().map(CrashPoint::label).collect();
        assert_eq!(labels, ["a.x@0", "a.x@1", "a.x@2", "c.z@0", "c.z@1"]);
        assert_eq!(plan.sites(), ["a.x", "c.z"]);
    }

    #[test]
    fn stratified_respects_budget_and_floors() {
        let c = census(&[("a.x", 100), ("b.y", 10), ("c.z", 1)]);
        let plan = TorturePlan::enumerate(&c, 16, 42);
        assert!(!plan.exhaustive);
        assert_eq!(plan.points.len(), 16);
        // Every crossed site contributes at least one point.
        assert_eq!(plan.sites().len(), 3);
        // Indices are in range and unique per site.
        for s in &c {
            let mut idx: Vec<u64> = plan
                .points
                .iter()
                .filter(|p| p.site == s.site)
                .map(|p| p.index)
                .collect();
            assert!(idx.iter().all(|&i| i < s.crossings), "{}: {idx:?}", s.site);
            let n = idx.len();
            idx.dedup();
            assert_eq!(idx.len(), n, "{}: duplicate strata picks", s.site);
        }
        // The dominant site received the dominant share.
        let a_points = plan.points.iter().filter(|p| p.site == "a.x").count();
        assert!(a_points >= 12, "proportionality lost: {a_points}");
    }

    #[test]
    fn enumeration_is_deterministic_in_seed() {
        let c = census(&[("a.x", 50), ("b.y", 50)]);
        let p1 = TorturePlan::enumerate(&c, 10, 7);
        let p2 = TorturePlan::enumerate(&c, 10, 7);
        assert_eq!(p1, p2);
        let p3 = TorturePlan::enumerate(&c, 10, 8);
        assert_ne!(p1, p3, "seed must steer in-stratum picks");
        // Different seeds may move picks within strata but never change
        // the quota split.
        for site in ["a.x", "b.y"] {
            let n1 = p1.points.iter().filter(|p| p.site == site).count();
            let n3 = p3.points.iter().filter(|p| p.site == site).count();
            assert_eq!(n1, n3);
        }
    }

    #[test]
    fn tiny_budget_takes_first_sites() {
        let c = census(&[("a.x", 9), ("b.y", 9), ("c.z", 9)]);
        let plan = TorturePlan::enumerate(&c, 2, 3);
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.sites(), ["a.x", "b.y"]);
    }

    #[test]
    fn crash_point_spec_fires_exactly_at_the_chosen_crossing() {
        let point = CrashPoint {
            site: "ftl.crash.l2p_flush".to_string(),
            index: 2,
        };
        let config = FaultPlaneConfig::new().with_site(point.site.clone(), point.spec());
        let plane = FaultPlane::new(99, &config);
        let fired: Vec<bool> = (0..5).map(|_| plane.fires(&point.site)).collect();
        assert_eq!(fired, [false, false, true, false, false]);
    }

    #[test]
    fn census_config_counts_without_firing() {
        let base = FaultPlaneConfig::new();
        let config = census_config(&base, &["a.x", "b.y"]);
        let plane = FaultPlane::new(1, &config);
        for _ in 0..4 {
            assert!(!plane.fires("a.x"));
        }
        assert!(!plane.fires("b.y"));
        let crossings = measure_crossings(&plane, &["a.x", "b.y", "c.z"]);
        assert_eq!(crossings[0].crossings, 4);
        assert_eq!(crossings[1].crossings, 1);
        assert_eq!(crossings[2].crossings, 0, "unconfigured sites stay zero");
    }

    #[test]
    fn verdict_tags_and_json() {
        assert_eq!(CrashVerdict::Clean.status(), "clean");
        let silent = CrashVerdict::SilentCorruption {
            detail: "lba 3 stale".to_string(),
        };
        assert!(silent.is_silent());
        assert_eq!(
            silent.to_json().to_string(),
            r#"{"status":"silent_corruption","detail":"lba 3 stale"}"#
        );
        assert_eq!(
            CrashVerdict::NotTriggered.to_json().to_string(),
            r#"{"status":"not_triggered"}"#
        );
    }
}
