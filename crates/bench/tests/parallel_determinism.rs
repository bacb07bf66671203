//! The campaign runner's core promise, held at the experiment level:
//! sharding a reproduction across worker threads changes wall-clock time
//! and nothing else — what `repro <name>` prints, document and report, is
//! byte-identical for any thread count.

use ssdhammer_bench::scenario::{Scenario, ScenarioCfg};
use ssdhammer_bench::{ablations, attacks, defenses, faults, fuzz, sec43, table1, torture};

/// Every campaign scenario with the cfg it runs under here (a short soak
/// keeps the fuzz campaign quick).
fn campaigns() -> Vec<(&'static dyn Scenario, ScenarioCfg)> {
    let short_soak = ScenarioCfg {
        soak: Some(4),
        ..ScenarioCfg::default()
    };
    vec![
        (&table1::Table1Scenario, ScenarioCfg::default()),
        (&sec43::Sec43Scenario, ScenarioCfg::default()),
        (&ablations::AblationsScenario, ScenarioCfg::default()),
        (&faults::FaultsScenario, ScenarioCfg::default()),
        (&defenses::DefensesScenario, ScenarioCfg::default()),
        (&attacks::AttacksScenario, ScenarioCfg::default()),
        (&torture::TortureScenario, ScenarioCfg::default()),
        (&fuzz::FuzzScenario, short_soak),
    ]
}

#[test]
fn every_campaign_prints_the_same_bytes_at_1_and_4_threads() {
    for (scenario, cfg) in campaigns() {
        let printed = |threads| {
            let out = scenario.run(cfg.clone(), 7, threads);
            (out.json.to_string_pretty(), out.text)
        };
        assert_eq!(
            printed(1),
            printed(4),
            "{} output diverged at 4 threads",
            scenario.name()
        );
    }
}
