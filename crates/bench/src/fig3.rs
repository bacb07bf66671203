//! Experiment E4 — **Figure 3 / §4.2**: the end-to-end ext4 indirect-block
//! exploit on a shared SSD, with the time-to-first-useful-bitflip
//! measurement ("on our testbed this took about two hours, … longer than
//! expected in practice because SPDK limits file spraying to 5% of the
//! victim partition").

use ssdhammer_cloud::{run_case_study, CaseStudyConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::SimDuration;

/// Summary of one end-to-end run.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Spray limit used (fraction of the victim partition).
    pub spray_fraction: f64,
    /// Whether the secret leaked.
    pub success: bool,
    /// Cycles needed.
    pub cycles: u32,
    /// Total DRAM flips across the run.
    pub total_flips: u64,
    /// Detected corruption events that carried no secret.
    pub corruption_events: usize,
    /// Simulated time to success (or give-up).
    pub time: SimDuration,
    /// Whether metadata corruption ended the run prematurely.
    pub aborted_by_corruption: bool,
}

impl ToJson for Fig3Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spray_fraction", Json::from(self.spray_fraction)),
            ("success", Json::from(self.success)),
            ("cycles", Json::from(self.cycles)),
            ("total_flips", Json::from(self.total_flips)),
            ("corruption_events", Json::from(self.corruption_events)),
            ("time_secs", Json::from(self.time.as_secs_f64())),
            (
                "aborted_by_corruption",
                Json::from(self.aborted_by_corruption),
            ),
        ])
    }
}

/// Runs the end-to-end case study at the given spray fraction (the §4.2
/// ablation: lower spray limits stretch the time to success).
fn run_with_spray(seed: u64, spray_fraction: f64, max_cycles: u32) -> Fig3Result {
    let mut config = CaseStudyConfig::fast_demo(seed);
    config.spray_fraction = spray_fraction;
    config.max_cycles = max_cycles;
    let outcome = run_case_study(&config).expect("case study");
    Fig3Result {
        spray_fraction,
        success: outcome.success,
        cycles: outcome.cycles.len() as u32,
        total_flips: outcome.cycles.iter().map(|c| c.flips).sum(),
        corruption_events: outcome.corruption_events,
        time: outcome.total_time,
        aborted_by_corruption: outcome.aborted_by_corruption,
    }
}

/// The spray-limit ablation: 5 % (the paper's forced cap) vs more generous
/// spraying. Expected shape: success time shrinks (or cycle count drops) as
/// the spray fraction grows.
fn spray_ablation(seed: u64) -> Vec<Fig3Result> {
    [0.05, 0.10, 0.20]
        .into_iter()
        .map(|f| run_with_spray(seed, f, 24))
        .collect()
}

/// Renders one run.
fn render(r: &Fig3Result) -> String {
    format!(
        "Figure 3 / §4.2: end-to-end ext4 indirect-block exploit\n\
         spray limit {:.0}% | success: {} | cycles: {} | flips: {} | corruption-only events: {} | fs-corruption abort: {} | simulated time: {}\n",
        r.spray_fraction * 100.0,
        r.success,
        r.cycles,
        r.total_flips,
        r.corruption_events,
        r.aborted_by_corruption,
        r.time,
    )
}

/// Renders the ablation series.
fn render_ablation(rows: &[Fig3Result]) -> String {
    let mut out = String::from(
        "spray-limit ablation (why the paper's 5% cap inflated its 2h figure)\n\
         spray%  success  cycles  sim-time\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6.0}  {:>7} {:>7}  {}\n",
            r.spray_fraction * 100.0,
            r.success,
            r.cycles,
            r.time
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_leak_succeeds() {
        // Seed chosen so the demo-scale attack converges within its cycle
        // budget (the leak is probabilistic in the manufacturing seed).
        let r = run_with_spray(1, 0.20, 8);
        assert!(r.success, "demo should converge: {r:?}");
        assert!(r.total_flips > 0);
        assert!(r.time > SimDuration::ZERO);
    }

    #[test]
    fn lower_spray_fraction_never_beats_higher() {
        let rows = spray_ablation(7);
        // Shape: the most generous spray succeeds at least as fast (in
        // cycles) as the most constrained.
        let c5 = rows[0].cycles;
        let c20 = rows[2].cycles;
        assert!(
            c20 <= c5 || (rows[2].success && !rows[0].success),
            "20% spray ({c20} cycles) should not lose to 5% ({c5} cycles)"
        );
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// The paper-prototype-scale case study (§4.1's 1 GiB SSD), printing a
/// progress note to stderr — the run simulates hours of attack time.
fn run_full(seed: u64) -> Output {
    eprintln!("running the paper-prototype configuration; this simulates hours of attack time...");
    let outcome = run_case_study(&CaseStudyConfig::paper_prototype(seed)).expect("case study");
    let json = Json::obj([
        ("success", Json::from(outcome.success)),
        ("cycles", outcome.cycles.to_json()),
        (
            "total_time_secs",
            Json::from(outcome.total_time.as_secs_f64()),
        ),
        ("corruption_events", Json::from(outcome.corruption_events)),
    ]);
    let mut text = format!(
        "paper-prototype case study: success={} cycles={} corruption_events={} simulated_time={}\n",
        outcome.success,
        outcome.cycles.len(),
        outcome.corruption_events,
        outcome.total_time,
    );
    text.push_str("(paper \u{a7}4.2: \"on our testbed this took about two hours\")\n");
    for c in &outcome.cycles {
        text.push_str(&format!(
            "  cycle {:>2}: files={} sites={} flips={} hits={} leaked={}\n",
            c.cycle, c.sprayed_files, c.sites_hammered, c.flips, c.scan_hits, c.leaked_secret
        ));
    }
    Output::new(json, text)
}

/// [`Scenario`] wrapper: `repro fig3`. `cfg.full` selects the
/// paper-prototype scale; the fast demo also reports the spray-limit
/// ablation, as the document's `spray_ablation` rows and as a table.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Scenario;

impl Scenario for Fig3Scenario {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        if cfg.full {
            return run_full(seed);
        }
        let r = run_with_spray(seed, 0.20, 8);
        let ablation = spray_ablation(seed);
        let mut json = r.to_json();
        json.push("spray_ablation", ablation.to_json());
        let mut text = render(&r);
        text.push_str(&render_ablation(&ablation));
        Output::new(json, text)
    }
}
