//! Experiment E3 — **Figure 2**: the two testbed topologies.
//!
//! (b) "On our existing testbed, we need a helper attacker VM to reach a
//! high-enough access rate to make rowhammering possible"; (a) "in the
//! future, we foresee that such assistance will be unneeded."
//!
//! We sweep {setup} × {DRAM module}: the paper's testbed DDR3 (flips at
//! 3 M acc/s — unreachable from the direct path, reachable with the helper's
//! 5× amplification) and a modern module (DDR4-new 2020, 313 K acc/s —
//! reachable directly).

use ssdhammer_core::{find_attack_sites, AttackPipeline};
use ssdhammer_dram::ModuleProfile;
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::SimDuration;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// "direct (a)" or "helper VM (b)".
    pub setup: String,
    /// Module label.
    pub module: String,
    /// Per-request activation amplification.
    pub amplification: u32,
    /// Achieved DRAM activation rate, accesses/s.
    pub act_rate: f64,
    /// The module's minimal flipping rate, accesses/s.
    pub needed_rate: f64,
    /// Bitflips observed.
    pub flips: usize,
    /// Host-visible redirections observed.
    pub redirections: usize,
}

impl ToJson for Fig2Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("setup", Json::str(&*self.setup)),
            ("module", Json::str(&*self.module)),
            ("amplification", Json::from(self.amplification)),
            ("act_rate", Json::from(self.act_rate)),
            ("needed_rate", Json::from(self.needed_rate)),
            ("flips", Json::from(self.flips)),
            ("redirections", Json::from(self.redirections)),
        ])
    }
}

fn sweep_point(profile: ModuleProfile, amplification: u32, seed: u64) -> (f64, usize, usize) {
    let mut p = profile;
    // Structure-focused sweep: every row carries enough weak cells of both
    // orientations that outcomes depend on the achieved *rate*, not on
    // whether a particular cell's orientation matches the stored bit
    // (flips are data-dependent; see the DRAM crate docs).
    p.row_vulnerable_prob = 1.0;
    p.weak_cells_per_row = 24.0;
    p.threshold_spread = 0.3;
    let mut config = SsdConfig::test_small(seed);
    config.dram_profile = p;
    config.ftl.hammer_amplification = amplification;
    let mut ssd = Ssd::build(config);
    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    let outcome = AttackPipeline::default()
        .with_rate(10_000_000.0) // ask for more than the interface can do; it clamps
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![site])
        .run(&mut ssd)
        .expect("hammer");
    (
        outcome.report.achieved_rate,
        outcome.report.flips.len(),
        outcome.redirections().len(),
    )
}

/// Runs the Figure 2 sweep.
fn run(seed: u64) -> Vec<Fig2Row> {
    let modules = [
        ("testbed DDR3 (3M acc/s)", ModuleProfile::testbed_ddr3()),
        ("DDR4 new 2020 (313K acc/s)", ModuleProfile::ddr4_new_2020()),
    ];
    let setups = [("direct (a)", 1u32), ("helper VM (b)", 5u32)];
    let mut rows = Vec::new();
    for (mname, module) in &modules {
        for (sname, amp) in &setups {
            let (act_rate, flips, redirections) = sweep_point(module.clone(), *amp, seed);
            rows.push(Fig2Row {
                setup: (*sname).to_owned(),
                module: (*mname).to_owned(),
                amplification: *amp,
                act_rate,
                needed_rate: f64::from(module.min_flip_rate_kaps) * 1000.0,
                flips,
                redirections,
            });
        }
    }
    rows
}

/// Renders the sweep as a table.
fn render(rows: &[Fig2Row]) -> String {
    let mut out = String::from(
        "Figure 2: direct vs helper-VM setups\n\
         setup          module                       amp  act-rate(M/s)  needed(M/s)  flips  redirections\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<28} {:>3} {:>14.2} {:>12.2} {:>6} {:>13}\n",
            r.setup,
            r.module,
            r.amplification,
            r.act_rate / 1e6,
            r.needed_rate / 1e6,
            r.flips,
            r.redirections,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_vm_is_needed_on_the_testbed_but_not_in_the_future() {
        let rows = run(5);
        let find = |setup: &str, module: &str| {
            rows.iter()
                .find(|r| r.setup.starts_with(setup) && r.module.starts_with(module))
                .unwrap()
        };
        // Paper testbed: direct path too slow, helper VM flips.
        assert_eq!(find("direct", "testbed").flips, 0);
        assert!(find("helper", "testbed").flips > 0);
        // Modern module: direct path suffices (Figure 2 (a)'s future).
        assert!(find("direct", "DDR4 new").flips > 0);
        // Rates are consistent with the outcomes.
        for r in &rows {
            let flippable = r.act_rate > r.needed_rate;
            assert_eq!(
                r.flips > 0,
                flippable,
                "{} / {}: act {:.2e} vs needed {:.2e}",
                r.setup,
                r.module,
                r.act_rate,
                r.needed_rate
            );
        }
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro fig2`.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Scenario;

impl Scenario for Fig2Scenario {
    fn name(&self) -> &'static str {
        "fig2"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        let rows = run(seed);
        Output::new(rows.to_json(), render(&rows))
    }
}
