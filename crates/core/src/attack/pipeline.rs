//! [`AttackPipeline`] — the orchestrator composing one [`Hammerer`], one
//! [`Victim`], and one [`Placement`] into a runnable attack.

use ssdhammer_dram::HammerReport;
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::SimDuration;

use crate::attack::registry::{make_hammerer, make_placement, make_victim};
use crate::attack::{
    AttackError, ChangeKind, CrossBank, Hammerer, L2pEntries, Observation, Placement, Redirection,
    TwoSided, Victim,
};
use crate::recon::AttackSite;

/// One victim state unit whose observation changed across the hammer burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimChange {
    /// Victim-defined unit id (an LBA for L2P entries, a word index for
    /// metadata mirrors).
    pub id: u64,
    /// Observation before hammering.
    pub before: Observation,
    /// Observation after hammering.
    pub after: Observation,
    /// Silent corruption or loud failure, per the victim's classifier.
    pub kind: ChangeKind,
}

impl ToJson for Observation {
    fn to_json(&self) -> Json {
        match self {
            Observation::Mapping(m) => m.to_json(),
            Observation::Word(w) => Json::obj([("word", Json::from(u64::from(*w)))]),
            Observation::Unreadable => Json::str("unreadable"),
        }
    }
}

impl ToJson for VictimChange {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("before", self.before.to_json()),
            ("after", self.after.to_json()),
            (
                "kind",
                Json::str(match self.kind {
                    ChangeKind::Silent => "silent",
                    ChangeKind::Loud => "loud",
                }),
            ),
        ])
    }
}

/// Result of one [`AttackPipeline::run`].
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// DRAM-level hammer statistics.
    pub report: HammerReport,
    /// Every victim unit whose observation changed, classified.
    pub changes: Vec<VictimChange>,
    /// Sites the pattern actually spanned.
    pub sites_used: usize,
}

impl AttackOutcome {
    /// The L2P redirections among the changes (empty for metadata victims).
    #[must_use]
    pub fn redirections(&self) -> Vec<Redirection> {
        self.changes
            .iter()
            .filter_map(|c| match (c.before, c.after) {
                (Observation::Mapping(from), Observation::Mapping(to)) => Some(Redirection {
                    lba: ssdhammer_simkit::Lba(c.id),
                    from,
                    to,
                }),
                _ => None,
            })
            .collect()
    }

    /// Changes the host would not notice until consuming the state.
    #[must_use]
    pub fn silent_count(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| c.kind == ChangeKind::Silent)
            .count()
    }

    /// Changes surfacing as device errors.
    #[must_use]
    pub fn loud_count(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| c.kind == ChangeKind::Loud)
            .count()
    }
}

/// The attack orchestrator: place → plan → setup → observe → hammer →
/// observe → classify. Defaults to the paper's demonstrated configuration
/// (double-sided against L2P entries, weakest sites first).
pub struct AttackPipeline {
    hammerer: Box<dyn Hammerer>,
    victim: Box<dyn Victim>,
    placement: Box<dyn Placement>,
    rate: f64,
    duration: SimDuration,
    sites: Option<Vec<AttackSite>>,
    max_sites: usize,
}

impl core::fmt::Debug for AttackPipeline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AttackPipeline")
            .field("pattern", &self.hammerer.name())
            .field("victim", &self.victim.name())
            .field("placement", &self.placement.name())
            .field("rate", &self.rate)
            .field("duration", &self.duration)
            .field("max_sites", &self.max_sites)
            .finish_non_exhaustive()
    }
}

impl Default for AttackPipeline {
    fn default() -> Self {
        Self::new(TwoSided, L2pEntries::default(), CrossBank)
    }
}

impl AttackPipeline {
    /// Composes a pipeline from concrete stages.
    pub fn new(
        hammerer: impl Hammerer + 'static,
        victim: impl Victim + 'static,
        placement: impl Placement + 'static,
    ) -> Self {
        AttackPipeline {
            hammerer: Box::new(hammerer),
            victim: Box::new(victim),
            placement: Box::new(placement),
            rate: 5_000_000.0,
            duration: SimDuration::from_millis(500),
            sites: None,
            max_sites: 64,
        }
    }

    /// Composes a pipeline from registry names (the `repro attacks` grid).
    ///
    /// # Errors
    ///
    /// `Unknown*` for names not in the registries.
    pub fn from_names(pattern: &str, victim: &str, placement: &str) -> Result<Self, AttackError> {
        Ok(AttackPipeline {
            hammerer: make_hammerer(pattern)?,
            victim: make_victim(victim)?,
            placement: make_placement(placement)?,
            ..Self::default()
        })
    }

    /// Replaces the host request rate (requests/second).
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Replaces the hammer duration.
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Bypasses placement with pre-selected sites (callers that already ran
    /// their own reconnaissance, e.g. [`probe_sites`]).
    #[must_use]
    pub fn with_sites(mut self, sites: Vec<AttackSite>) -> Self {
        self.sites = Some(sites);
        self
    }

    /// Replaces the placement's site budget.
    #[must_use]
    pub fn with_max_sites(mut self, limit: usize) -> Self {
        self.max_sites = limit;
        self
    }

    /// The victim's registry name.
    #[must_use]
    pub fn victim_name(&self) -> &'static str {
        self.victim.name()
    }

    /// Applies the victim's device requirements to a build config (call
    /// before `Ssd::build` when constructing a device for this pipeline).
    pub fn configure(&self, config: &mut SsdConfig) {
        self.victim.configure(config);
    }

    /// Runs one attack cycle: select sites (unless overridden), plan the
    /// pattern, set up victim state, observe, hammer through the NVMe
    /// controller, observe again, and classify every change.
    ///
    /// # Errors
    ///
    /// Placement/plan failures and device errors.
    pub fn run(&self, ssd: &mut Ssd) -> Result<AttackOutcome, AttackError> {
        let selected;
        let sites: &[AttackSite] = match &self.sites {
            Some(s) => s,
            None => {
                let targets = self.victim.target_rows(ssd.ftl());
                selected = self.placement.place(ssd.ftl(), &targets, self.max_sites);
                &selected
            }
        };
        if sites.is_empty() {
            return Err(AttackError::NoSites);
        }
        let plan = self.hammerer.plan(sites)?;
        let used = &sites[..plan.sites_used.min(sites.len())];
        self.victim.setup(ssd, used)?;
        let tel = ssd.telemetry();
        tel.counter("attack.cycles").incr();
        // Each aggressor pair contributes two rows to the request pattern.
        tel.counter("attack.aggressor_pairs")
            .add((plan.pattern.len() / 2).max(1) as u64);
        tel.counter(&format!("attack.pattern.{}.cycles", self.hammerer.name()))
            .incr();
        tel.counter(&format!("attack.victim.{}.cycles", self.victim.name()))
            .incr();
        let before = self.victim.observe(ssd, used)?;
        let requests = (self.rate * self.duration.as_secs_f64()).ceil() as u64;
        let report = ssd.hammer_device_reads_with(
            &plan.pattern,
            requests,
            self.rate * plan.rate_scale,
            plan.opts,
        )?;
        let after = self.victim.observe(ssd, used)?;
        let changes: Vec<VictimChange> = before
            .into_iter()
            .zip(after)
            .filter(|((_, b), (_, a))| b != a)
            .map(|((id, b), (_, a))| VictimChange {
                id,
                before: b,
                after: a,
                kind: self.victim.classify(&b, &a),
            })
            .collect();
        tel.counter("attack.useful_flips").add(changes.len() as u64);
        tel.counter(&format!("attack.pattern.{}.flips", self.hammerer.name()))
            .add(report.flips.len() as u64);
        tel.counter(&format!("attack.victim.{}.changes", self.victim.name()))
            .add(changes.len() as u64);
        tel.counter(&format!("attack.victim.{}.silent", self.victim.name()))
            .add(
                changes
                    .iter()
                    .filter(|c| c.kind == ChangeKind::Silent)
                    .count() as u64,
            );
        tel.counter(&format!("attack.victim.{}.loud", self.victim.name()))
            .add(
                changes
                    .iter()
                    .filter(|c| c.kind == ChangeKind::Loud)
                    .count() as u64,
            );
        let now = ssd.clock().now();
        for c in &changes {
            match (c.before, c.after) {
                (Observation::Mapping(from), Observation::Mapping(to)) => tel.trace(
                    now,
                    "attack.redirection",
                    format!("lba {} {from:?} -> {to:?}", c.id),
                ),
                _ => tel.trace(
                    now,
                    "attack.victim_change",
                    format!(
                        "{} unit {} {:?} -> {:?}",
                        self.victim.name(),
                        c.id,
                        c.before,
                        c.after
                    ),
                ),
            }
        }
        Ok(AttackOutcome {
            report,
            changes,
            sites_used: used.len(),
        })
    }
}

/// Online rowhammerability probing (§4.2): "the attacker could randomly
/// pick rows to rowhammer, but the success rate may be unacceptably low;
/// rowhammerability is determined primarily by variation in the
/// manufacturing process and must be tested online and on the specific
/// device."
///
/// For each candidate site, a double-sided [`AttackPipeline`] writes probe
/// entries, hammers briefly at `request_rate`, and keeps the sites whose
/// victim entries actually changed. Returns the confirmed subset,
/// preserving order.
///
/// # Errors
///
/// Propagates device errors.
pub fn probe_sites(
    ssd: &mut Ssd,
    candidates: &[AttackSite],
    request_rate: f64,
    burst: SimDuration,
) -> Result<Vec<AttackSite>, AttackError> {
    let mut confirmed = Vec::new();
    for site in candidates {
        let pipeline = AttackPipeline::default()
            .with_rate(request_rate)
            .with_duration(burst)
            .with_sites(vec![site.clone()]);
        let outcome = pipeline.run(ssd)?;
        if !outcome.changes.is_empty() {
            confirmed.push(site.clone());
        }
    }
    Ok(confirmed)
}
