//! Deterministic fault-injection plane.
//!
//! Device crates consult a shared [`FaultPlane`] at their failure points
//! (`flash.read_fail`, `nvme.timeout`, `ftl.power_loss`, …). Each *site* is
//! configured with a [`FaultSpec`] — a firing probability plus optional
//! count and window triggers — and draws its decisions from a private
//! splitmix stream derived from the plane seed, the site name, and a
//! per-site consult counter. Two consequences fall out of that design:
//!
//! * **Replayable:** the same seed and the same per-site consult sequence
//!   produce the same fault sequence, independent of how consults from
//!   *different* sites interleave (each site owns its stream).
//! * **Cheap when unused:** a plane with no configured sites answers every
//!   consult with a single branch and no RNG work, so production-shaped
//!   simulations pay nothing.
//!
//! The raw draw that triggered a fault is returned to the caller so it can
//! derive deterministic fault *magnitudes* (e.g. how many bits a failed
//! flash read flipped) from the same stream.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::rng::derive_seed;
use crate::telemetry::{CounterHandle, Telemetry};

/// Trigger description for one fault site.
///
/// A spec fires when, at consult index `i` (0-based, counted per site):
/// `i` lies inside the configured window (if any), the site has fired
/// fewer than `max_fires` times (if bounded), and the site's seeded draw
/// for `i` lands below `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    probability: f64,
    max_fires: Option<u64>,
    window: Option<(u64, u64)>,
}

impl FaultSpec {
    /// A spec that fires on each consult with probability `p` (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn with_probability(p: f64) -> Self {
        FaultSpec {
            probability: p.clamp(0.0, 1.0),
            max_fires: None,
            window: None,
        }
    }

    /// A spec that fires on every consult (probability 1).
    #[must_use]
    pub fn always() -> Self {
        Self::with_probability(1.0)
    }

    /// A spec that fires exactly once, at consult `k` of its site (a
    /// crash point's power cut, a fuzz case's one program failure).
    #[must_use]
    pub fn once_at(k: u64) -> Self {
        Self::always().with_window(k, k + 1).with_max_fires(1)
    }

    /// Caps the total number of fires for this site.
    #[must_use]
    pub fn with_max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }

    /// Restricts firing to consult indices in `start..end` (half-open,
    /// 0-based, counted per site).
    #[must_use]
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }
}

/// Declarative map of fault sites to their triggers; lives on device
/// configs (the `SsdConfig::fault_plane` field) and compiles into a
/// [`FaultPlane`] at device assembly time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlaneConfig {
    sites: BTreeMap<String, FaultSpec>,
}

impl FaultPlaneConfig {
    /// An empty config: no site ever fires.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the spec for one site.
    #[must_use]
    pub fn with_site(mut self, site: impl Into<String>, spec: FaultSpec) -> Self {
        self.sites.insert(site.into(), spec);
        self
    }

    /// True when no sites are configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates configured `(site, spec)` pairs in site order.
    pub fn sites(&self) -> impl Iterator<Item = (&str, &FaultSpec)> {
        self.sites.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Per-site runtime state: the spec plus consult/fire counters.
#[derive(Debug)]
struct SiteState {
    spec: FaultSpec,
    consults: Cell<u64>,
    fires: Cell<u64>,
}

/// Telemetry handles, resolved lazily when a registry is attached.
#[derive(Debug, Default)]
struct PlaneTel {
    consults: Option<CounterHandle>,
    injected: Option<CounterHandle>,
    per_site: BTreeMap<String, CounterHandle>,
}

#[derive(Debug)]
struct PlaneInner {
    seed: u64,
    sites: BTreeMap<String, SiteState>,
    tel: RefCell<PlaneTel>,
}

/// Seeded, shareable fault-decision engine. Cloning is cheap (`Rc`);
/// clones share counters, so a plane threaded through several device
/// layers yields one coherent fault stream per site. Like the device it
/// drives, a plane stays on the thread that made it.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    inner: Rc<PlaneInner>,
}

impl FaultPlane {
    /// Compiles a config into a live plane seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, config: &FaultPlaneConfig) -> Self {
        let sites = config
            .sites
            .iter()
            .map(|(name, spec)| {
                (
                    name.clone(),
                    SiteState {
                        spec: *spec,
                        consults: Cell::new(0),
                        fires: Cell::new(0),
                    },
                )
            })
            .collect();
        FaultPlane {
            inner: Rc::new(PlaneInner {
                seed,
                sites,
                tel: RefCell::new(PlaneTel::default()),
            }),
        }
    }

    /// A plane with no sites: every consult is a no-op returning `None`.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0, &FaultPlaneConfig::default())
    }

    /// True when at least one site is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.inner.sites.is_empty()
    }

    /// The plane seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Binds `fault.*` counters (`fault.consults`, `fault.injected`, and a
    /// `fault.<site>.fired` counter per configured site) onto `registry`.
    pub fn attach_telemetry(&self, registry: &Telemetry) {
        let mut tel = self.inner.tel.borrow_mut();
        tel.consults = Some(registry.counter("fault.consults"));
        tel.injected = Some(registry.counter("fault.injected"));
        tel.per_site = self
            .inner
            .sites
            .keys()
            .map(|site| {
                (
                    site.clone(),
                    registry.counter(&format!("fault.{site}.fired")),
                )
            })
            .collect();
    }

    /// Consults `site`; returns `Some(draw)` when the fault fires, where
    /// `draw` is the raw 64-bit value from the site's stream (callers use
    /// it to derive deterministic fault magnitudes), or `None` when the
    /// site stays quiet or is not configured.
    pub fn consult(&self, site: &str) -> Option<u64> {
        if self.inner.sites.is_empty() {
            return None;
        }
        let state = self.inner.sites.get(site)?;
        let index = state.consults.get();
        state.consults.set(index + 1);
        if let Some(c) = &self.inner.tel.borrow().consults {
            c.incr();
        }
        if let Some((start, end)) = state.spec.window {
            if index < start || index >= end {
                return None;
            }
        }
        if let Some(cap) = state.spec.max_fires {
            if state.fires.get() >= cap {
                return None;
            }
        }
        let draw = derive_seed(self.inner.seed, site, index);
        // 53-bit uniform fraction in [0, 1), the standard f64 construction.
        #[allow(clippy::cast_precision_loss)]
        let fraction = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if fraction >= state.spec.probability {
            return None;
        }
        state.fires.set(state.fires.get() + 1);
        let tel = self.inner.tel.borrow();
        if let Some(c) = &tel.injected {
            c.incr();
        }
        if let Some(c) = tel.per_site.get(site) {
            c.incr();
        }
        Some(draw)
    }

    /// Like [`FaultPlane::consult`] but discards the draw.
    pub fn fires(&self, site: &str) -> bool {
        self.consult(site).is_some()
    }

    /// How many times `site` has been consulted.
    #[must_use]
    pub fn consults(&self, site: &str) -> u64 {
        self.inner.sites.get(site).map_or(0, |s| s.consults.get())
    }

    /// How many times `site` has fired.
    #[must_use]
    pub fn fired(&self, site: &str) -> u64 {
        self.inner.sites.get(site).map_or(0, |s| s.fires.get())
    }
}

impl Default for FaultPlane {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_fires() {
        let plane = FaultPlane::disabled();
        assert!(!plane.is_active());
        for _ in 0..100 {
            assert_eq!(plane.consult("flash.read_fail"), None);
        }
        assert_eq!(plane.consults("flash.read_fail"), 0);
    }

    #[test]
    fn unconfigured_site_never_fires() {
        let cfg = FaultPlaneConfig::new().with_site("a.b", FaultSpec::always());
        let plane = FaultPlane::new(7, &cfg);
        assert!(plane.is_active());
        assert_eq!(plane.consult("c.d"), None);
        assert!(plane.fires("a.b"));
    }

    #[test]
    fn probability_one_always_fires_and_zero_never() {
        let cfg = FaultPlaneConfig::new()
            .with_site("hot", FaultSpec::always())
            .with_site("cold", FaultSpec::with_probability(0.0));
        let plane = FaultPlane::new(42, &cfg);
        for _ in 0..64 {
            assert!(plane.fires("hot"));
            assert!(!plane.fires("cold"));
        }
        assert_eq!(plane.fired("hot"), 64);
        assert_eq!(plane.fired("cold"), 0);
        assert_eq!(plane.consults("cold"), 64);
    }

    #[test]
    fn same_seed_same_sequence_independent_of_interleaving() {
        let cfg = FaultPlaneConfig::new()
            .with_site("x.a", FaultSpec::with_probability(0.5))
            .with_site("x.b", FaultSpec::with_probability(0.5));
        let p1 = FaultPlane::new(99, &cfg);
        let p2 = FaultPlane::new(99, &cfg);
        // p1: all of a, then all of b; p2: interleaved.
        let a1: Vec<_> = (0..32).map(|_| p1.consult("x.a")).collect();
        let b1: Vec<_> = (0..32).map(|_| p1.consult("x.b")).collect();
        let mut a2 = Vec::new();
        let mut b2 = Vec::new();
        for _ in 0..32 {
            b2.push(p2.consult("x.b"));
            a2.push(p2.consult("x.a"));
        }
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = FaultPlaneConfig::new().with_site("s.x", FaultSpec::with_probability(0.5));
        let p1 = FaultPlane::new(1, &cfg);
        let p2 = FaultPlane::new(2, &cfg);
        let s1: Vec<bool> = (0..64).map(|_| p1.fires("s.x")).collect();
        let s2: Vec<bool> = (0..64).map(|_| p2.fires("s.x")).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn max_fires_caps_total() {
        let cfg = FaultPlaneConfig::new().with_site("s.x", FaultSpec::always().with_max_fires(3));
        let plane = FaultPlane::new(5, &cfg);
        let fired = (0..50).filter(|_| plane.fires("s.x")).count();
        assert_eq!(fired, 3);
        assert_eq!(plane.fired("s.x"), 3);
        assert_eq!(plane.consults("s.x"), 50);
    }

    #[test]
    fn window_restricts_consult_indices() {
        let cfg = FaultPlaneConfig::new().with_site("s.x", FaultSpec::always().with_window(10, 13));
        let plane = FaultPlane::new(5, &cfg);
        let fired: Vec<u64> = (0..20u64).filter(|_| plane.fires("s.x")).collect();
        assert_eq!(fired, vec![10, 11, 12]);
    }

    #[test]
    fn clones_share_counters() {
        let cfg = FaultPlaneConfig::new().with_site("s.x", FaultSpec::always());
        let plane = FaultPlane::new(5, &cfg);
        let clone = plane.clone();
        assert!(plane.fires("s.x"));
        assert!(clone.fires("s.x"));
        assert_eq!(plane.consults("s.x"), 2);
        assert_eq!(clone.fired("s.x"), 2);
    }

    #[test]
    fn telemetry_counts_consults_and_fires() {
        let cfg = FaultPlaneConfig::new()
            .with_site("s.hot", FaultSpec::always())
            .with_site("s.cold", FaultSpec::with_probability(0.0));
        let plane = FaultPlane::new(5, &cfg);
        let registry = Telemetry::new();
        plane.attach_telemetry(&registry);
        for _ in 0..4 {
            plane.fires("s.hot");
            plane.fires("s.cold");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fault.consults"), Some(8));
        assert_eq!(snap.counter("fault.injected"), Some(4));
        assert_eq!(snap.counter("fault.s.hot.fired"), Some(4));
        assert_eq!(snap.counter("fault.s.cold.fired"), Some(0));
    }

    #[test]
    fn draw_is_returned_and_stable() {
        let cfg = FaultPlaneConfig::new().with_site("s.x", FaultSpec::always());
        let a = FaultPlane::new(11, &cfg);
        let b = FaultPlane::new(11, &cfg);
        let da: Vec<_> = (0..8).map(|_| a.consult("s.x")).collect();
        let db: Vec<_> = (0..8).map(|_| b.consult("s.x")).collect();
        assert_eq!(da, db);
        assert!(da.iter().all(Option::is_some));
    }
}
