//! Every campaign scenario runs its shards through
//! `ScenarioCfg::run_campaign`, so `--abort-after` means the same thing
//! everywhere: a stopped run is marked partial, and a complete one is not.

use ssdhammer_bench::scenario::{Scenario, ScenarioCfg};
use ssdhammer_bench::{ablations, attacks, defenses, faults, fuzz, sec43, table1, torture};
use ssdhammer_simkit::json::Json;

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

fn degraded(doc: &Json) -> Option<bool> {
    doc.get("degraded").and_then(Json::as_bool)
}

#[test]
fn aborting_before_the_first_shard_marks_every_report_partial() {
    for (scenario, base) in campaigns() {
        let name = scenario.name();
        // A complete run prints the plain document: no partial-result
        // envelope, only the `degraded` key of torture's and fuzz's own
        // schema.
        let complete = scenario.run(base.clone(), 7, 2).json;
        let own_marker = matches!(name, "torture" | "fuzz");
        assert_eq!(
            degraded(&complete),
            own_marker.then_some(false),
            "{name}: complete run"
        );
        let cfg = ScenarioCfg {
            abort_after: Some(0),
            ..base
        };
        let out = scenario.run(cfg, 7, 2);
        assert_eq!(degraded(&out.json), Some(true), "{name}: document");
        assert!(out.text.contains("partial results"), "{name}: {}", out.text);
    }
}
