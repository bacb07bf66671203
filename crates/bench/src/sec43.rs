//! Experiment E5 — **§4.3**: probability of success. Closed form,
//! Monte-Carlo cross-check, and the cumulative-success curve (7 % per
//! cycle, >50 % after 10 cycles with the paper's parameters).
//!
//! The Monte-Carlo chunks run as the shards of one supervised campaign, so
//! the estimate is bit-identical for any `--threads` value; a chunk whose
//! shard panics fails the run.

use ssdhammer_core::AttackParams;
use ssdhammer_simkit::json::{Json, ToJson};

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// Monte-Carlo trials behind the estimate.
const MC_TRIALS: u32 = 400_000;

/// The reproduced §4.3 numbers.
#[derive(Debug, Clone)]
pub struct Sec43Result {
    /// Closed-form per-cycle probability.
    pub analytic: f64,
    /// Monte-Carlo estimate.
    pub monte_carlo: f64,
    /// Cumulative success after n cycles, n = 1..=max.
    pub cumulative: Vec<f64>,
    /// Cycles needed to exceed 50 %.
    pub cycles_to_half: u32,
}

impl ToJson for Sec43Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("analytic", Json::from(self.analytic)),
            ("monte_carlo", Json::from(self.monte_carlo)),
            ("cumulative", self.cumulative.to_json()),
            ("cycles_to_half", Json::from(self.cycles_to_half)),
        ])
    }
}

/// The paper's illustration parameters on a 1 GiB SSD.
fn params() -> AttackParams {
    AttackParams::paper_example(1 << 18)
}

/// The Monte-Carlo campaign: one supervised shard per
/// [`AttackParams::MC_CHUNK_TRIALS`]-trial chunk, returning every chunk's
/// useful-flip hits in chunk order (a chunk whose shard panics fails the
/// run). The estimate — every bit of it — is identical for any thread
/// count.
fn campaign(seed: u64, threads: usize) -> Vec<u64> {
    let params = params();
    AttackParams::mc_supervisor(seed, threads)
        .run(AttackParams::mc_chunks(MC_TRIALS), |ctx| {
            params.mc_chunk_hits(MC_TRIALS, ctx.trial)
        })
        .into_complete()
}

/// The reproduced numbers from every chunk's hits in chunk order.
fn result(chunk_hits: &[u64]) -> Sec43Result {
    let params = params();
    Sec43Result {
        analytic: params.useful_flip_probability(),
        monte_carlo: AttackParams::mc_estimate(MC_TRIALS, chunk_hits),
        cumulative: (1..=12).map(|n| params.cumulative_success(n)).collect(),
        cycles_to_half: params.cycles_for_success(0.5),
    }
}

/// Renders the reproduction.
fn render(r: &Sec43Result) -> String {
    let mut out = format!(
        "§4.3: probability of success (C_a = C_v = PB/2, F_v = C_v/4, F_a = C_a)\n\
         per-cycle useful-flip probability: analytic {:.4} (paper: 7%), Monte-Carlo {:.4}\n\
         cycles to >50%: {} (paper: 10)\n\
         cumulative success:",
        r.analytic, r.monte_carlo, r.cycles_to_half,
    );
    for (i, c) in r.cumulative.iter().enumerate() {
        out.push_str(&format!(" n={}:{:.1}%", i + 1, c * 100.0));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        let r = result(&campaign(11, 1));
        assert!(
            (r.analytic - 0.0703).abs() < 0.001,
            "analytic {}",
            r.analytic
        );
        assert!((r.monte_carlo - r.analytic).abs() < 0.003);
        assert_eq!(r.cycles_to_half, 10);
        assert!(r.cumulative[9] > 0.5, "10 cycles: {}", r.cumulative[9]);
        assert!(r.cumulative[8] < 0.5, "9 cycles: {}", r.cumulative[8]);
        // Monotone non-decreasing curve.
        assert!(r.cumulative.windows(2).all(|w| w[1] >= w[0]));
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro prob`.
#[derive(Debug, Clone, Copy)]
pub struct Sec43Scenario;

impl Scenario for Sec43Scenario {
    fn name(&self) -> &'static str {
        "prob"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let r = result(&campaign(seed, threads));
        Output::new(r.to_json(), render(&r))
    }
}
