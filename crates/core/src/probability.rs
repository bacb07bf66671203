//! The §4.3 success-probability model, in closed form and as a Monte-Carlo
//! simulation.
//!
//! Paper definitions: `LB`/`PB` are the totals of logical and physical
//! addresses; `C_v`/`C_a` are the victim/attacker partition sizes in blocks;
//! `F_v`/`F_a` are the blocks of sprayed files the attacker managed to place
//! inside each partition. The number of sprayed indirect blocks is `F_v/2`
//! (each spray file is one indirect block + one data block), and the total
//! number of malicious data blocks on the device is `F_a + F_v/2`.
//!
//! A bitflip is *useful* when (1) it lands on the L2P entry of a sprayed
//! victim-partition indirect block — probability `(F_v/2)/C_v` — and (2) the
//! corrupted entry now points at a malicious block — probability
//! `(F_v/2 + F_a)/PB`. Hence
//!
//! ```text
//! P(useful) = (F_v/2)/C_v · (F_v/2 + F_a)/PB = F_v(F_v + 2F_a) / (4·C_v·PB)
//! ```

use ssdhammer_simkit::rng::{seeded, Rng};
use ssdhammer_simkit::supervisor::{Supervisor, Trial};

/// The parameters of one attack configuration (all in 4 KiB blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackParams {
    /// Total physical blocks of the SSD (`PB`).
    pub pb: u64,
    /// Victim partition size (`C_v`).
    pub c_v: u64,
    /// Attacker partition size (`C_a`).
    pub c_a: u64,
    /// Sprayed blocks inside the victim partition (`F_v`); half of them are
    /// indirect blocks, half data blocks.
    pub f_v: u64,
    /// Sprayed malicious blocks inside the attacker partition (`F_a`).
    pub f_a: u64,
}

impl AttackParams {
    /// The paper's illustration (§4.3): attacker and victim split the SSD
    /// evenly (`C_a = C_v = PB/2`), the attacker fills 25 % of the victim
    /// partition (`F_v = C_v/4`) and 100 % of its own (`F_a = C_a`).
    #[must_use]
    pub fn paper_example(pb: u64) -> AttackParams {
        let half = pb / 2;
        AttackParams {
            pb,
            c_v: half,
            c_a: half,
            f_v: half / 4,
            f_a: half,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Describes the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.c_v + self.c_a > self.pb {
            return Err("partitions exceed physical capacity".into());
        }
        if self.f_v > self.c_v {
            return Err("F_v exceeds the victim partition".into());
        }
        if self.f_a > self.c_a {
            return Err("F_a exceeds the attacker partition".into());
        }
        if self.c_v == 0 || self.pb == 0 {
            return Err("C_v and PB must be positive".into());
        }
        Ok(())
    }

    /// Number of sprayed indirect blocks in the victim partition (`F_v/2`).
    #[must_use]
    pub fn sprayed_indirect_blocks(&self) -> u64 {
        self.f_v / 2
    }

    /// Total malicious data blocks on the device (`F_a + F_v/2`).
    #[must_use]
    pub fn malicious_blocks(&self) -> u64 {
        self.f_a + self.f_v / 2
    }

    /// Asserts the parameters pass [`AttackParams::validate`]: every
    /// probability formula below is meaningless on an invalid geometry, and
    /// each public caller documents the panic under `# Panics`.
    fn assert_valid(&self) {
        let check = self.validate();
        assert!(check.is_ok(), "invalid attack parameters: {check:?}");
    }

    /// Closed-form probability that one bitflip in the victim partition's
    /// L2P region is useful (§4.3's formula).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`AttackParams::validate`].
    #[must_use]
    pub fn useful_flip_probability(&self) -> f64 {
        self.assert_valid();
        let hit_indirect = self.sprayed_indirect_blocks() as f64 / self.c_v as f64;
        let hit_malicious = self.malicious_blocks() as f64 / self.pb as f64;
        hit_indirect * hit_malicious
    }

    /// Probability of at least one useful flip after `cycles` independent
    /// attack cycles: `1 - (1 - p)^n`.
    #[must_use]
    pub fn cumulative_success(&self, cycles: u32) -> f64 {
        let p = self.useful_flip_probability();
        1.0 - (1.0 - p).powi(cycles as i32)
    }

    /// Cycles needed to reach at least `target` cumulative success
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target < 1` and the per-cycle probability is
    /// positive.
    #[must_use]
    pub fn cycles_for_success(&self, target: f64) -> u32 {
        assert!((0.0..1.0).contains(&target) && target > 0.0, "bad target");
        let p = self.useful_flip_probability();
        assert!(p > 0.0, "zero per-cycle probability");
        ((1.0 - target).ln() / (1.0 - p).ln()).ceil() as u32
    }

    /// Monte-Carlo estimate of the useful-flip probability: samples a random
    /// flipped entry in the victim partition and a random redirection
    /// target, with sprayed-block placement randomized per trial.
    ///
    /// Structurally independent of the closed form — used to cross-check it.
    /// The whole run draws from one sequential RNG stream; for a
    /// thread-count-independent parallel estimate, run the chunked
    /// estimator on [`AttackParams::mc_supervisor`].
    #[must_use]
    pub fn monte_carlo_useful_flip(&self, trials: u32, seed: u64) -> f64 {
        self.assert_valid();
        f64::from(self.mc_hits(trials, seed)) / f64::from(trials)
    }

    /// Trials per shard of the chunked Monte-Carlo estimator. Fixed — the
    /// chunk boundaries define the seed stream, so changing this constant
    /// changes the estimate (thread count never does).
    pub const MC_CHUNK_TRIALS: u32 = 8_192;

    /// The campaign behind the chunked Monte-Carlo estimate, the form of
    /// [`AttackParams::monte_carlo_useful_flip`] built for the
    /// deterministic campaign runner: a `trials`-trial estimate splits into
    /// [`Self::mc_chunks`] fixed [`Self::MC_CHUNK_TRIALS`]-trial chunks,
    /// shard `c` runs [`Self::mc_chunk_hits`] drawing from
    /// `derive_seed(seed, "mc", c)`, and [`Self::mc_estimate`] sums the
    /// chunk hits after the runner's in-order merge. The estimate is a pure
    /// function of `(self, trials, seed)` — sharding across any number of
    /// worker threads returns bit-identical results.
    #[must_use]
    pub fn mc_supervisor(seed: u64, threads: usize) -> Supervisor {
        Supervisor::new(seed).with_tag("mc").with_threads(threads)
    }

    /// Chunks — campaign shards — a `trials`-trial estimate splits into.
    #[must_use]
    pub fn mc_chunks(trials: u32) -> usize {
        trials.div_ceil(Self::MC_CHUNK_TRIALS) as usize
    }

    /// One shard of the chunked estimator: useful-flip hits among chunk
    /// `chunk.index`'s trials, drawn from `chunk.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`AttackParams::validate`].
    #[must_use]
    pub fn mc_chunk_hits(&self, trials: u32, chunk: Trial) -> u64 {
        self.assert_valid();
        u64::from(self.mc_hits(Self::mc_chunk_trials(trials, chunk.index), chunk.seed))
    }

    /// The chunked estimate of a `trials`-trial campaign from its per-chunk
    /// hits in chunk order, `None` for a chunk that did not complete: the
    /// hit rate over the completed chunks' trials (`0.0` when none did).
    #[must_use]
    pub fn mc_estimate(trials: u32, chunk_hits: impl IntoIterator<Item = Option<u64>>) -> f64 {
        let (mut hits, mut covered) = (0u64, 0u32);
        for (index, chunk) in chunk_hits.into_iter().enumerate() {
            if let Some(h) = chunk {
                hits += h;
                covered += Self::mc_chunk_trials(trials, index);
            }
        }
        if covered == 0 {
            0.0
        } else {
            hits as f64 / f64::from(covered)
        }
    }

    /// Trials chunk `index` of a `trials`-trial estimate covers: a full
    /// chunk, except possibly the last.
    fn mc_chunk_trials(trials: u32, index: usize) -> u32 {
        Self::MC_CHUNK_TRIALS.min(trials - index as u32 * Self::MC_CHUNK_TRIALS)
    }

    /// Useful-flip hits over `trials` draws from one RNG stream.
    fn mc_hits(&self, trials: u32, seed: u64) -> u32 {
        let mut rng = seeded(seed);
        let indirect = self.sprayed_indirect_blocks();
        let malicious = self.malicious_blocks();
        let mut useful = 0u32;
        for _ in 0..trials {
            // The flip lands on some entry of the victim partition. Sprayed
            // indirect blocks occupy `indirect` of its C_v entries; placement
            // is uniform, so a uniform entry draw hits one with prob
            // indirect/C_v.
            let entry = rng.gen_range(0..self.c_v);
            let hit_indirect = entry < indirect;
            // The corrupted entry points at a uniform physical block;
            // malicious blocks occupy `malicious` of PB.
            let target = rng.gen_range(0..self.pb);
            let hit_malicious = target < malicious;
            if hit_indirect && hit_malicious {
                useful += 1;
            }
        }
        useful
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_about_seven_percent() {
        // §4.3: "the resulting success rate is 7% for a single attack cycle."
        let p = AttackParams::paper_example(1 << 18).useful_flip_probability();
        assert!((p - 0.0703).abs() < 0.001, "p = {p}");
    }

    #[test]
    fn ten_cycles_exceed_fifty_percent() {
        // §4.3: "repeating the attack cycle for 10 times brings the chances
        // of success to more than 50%."
        let params = AttackParams::paper_example(1 << 18);
        let c = params.cumulative_success(10);
        assert!(c > 0.5, "cumulative = {c}");
        assert!(params.cumulative_success(9) < c);
        assert_eq!(params.cycles_for_success(0.5), 10);
    }

    #[test]
    fn closed_form_matches_expansion() {
        // F_v(F_v + 2F_a) / (4 C_v PB), §4.3.
        let p = AttackParams {
            pb: 10_000,
            c_v: 4_000,
            c_a: 4_000,
            f_v: 1_000,
            f_a: 3_000,
        };
        let expanded = (p.f_v as f64 * (p.f_v as f64 + 2.0 * p.f_a as f64))
            / (4.0 * p.c_v as f64 * p.pb as f64);
        assert!((p.useful_flip_probability() - expanded).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let params = AttackParams::paper_example(1 << 18);
        let analytic = params.useful_flip_probability();
        let mc = params.monte_carlo_useful_flip(200_000, 11);
        assert!(
            (mc - analytic).abs() < 0.003,
            "mc {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn chunked_estimate_covers_only_completed_chunks() {
        // Two full chunks and a 100-trial tail; the middle chunk is missing.
        let trials = 2 * AttackParams::MC_CHUNK_TRIALS + 100;
        assert_eq!(AttackParams::mc_chunks(trials), 3);
        let partial = AttackParams::mc_estimate(trials, [Some(800), None, Some(10)]);
        let covered = f64::from(AttackParams::MC_CHUNK_TRIALS + 100);
        assert_eq!(partial.to_bits(), (810.0 / covered).to_bits());
        assert_eq!(AttackParams::mc_estimate(trials, [None, None, None]), 0.0);
    }

    #[test]
    fn more_spraying_helps() {
        // "The more malicious indirect blocks on the disk, the higher the
        // probability of success" (§4.2).
        let pb = 1 << 18;
        let mut low = AttackParams::paper_example(pb);
        low.f_v = low.c_v / 8;
        let high = AttackParams::paper_example(pb);
        assert!(high.useful_flip_probability() > low.useful_flip_probability());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut p = AttackParams::paper_example(1024);
        p.f_v = p.c_v + 1;
        assert!(p.validate().is_err());
        p = AttackParams::paper_example(1024);
        p.c_a = p.pb;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_spray_means_zero_probability() {
        let mut p = AttackParams::paper_example(1 << 16);
        p.f_v = 0;
        p.f_a = 0;
        assert_eq!(p.useful_flip_probability(), 0.0);
    }
}
