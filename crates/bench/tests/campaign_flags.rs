//! Every campaign scenario runs its shards through
//! `ScenarioCfg::run_campaign`, so the campaign flags mean the same thing
//! everywhere: a killed run is marked degraded, and resuming it from its
//! checkpoint prints exactly what an uninterrupted run prints.

use std::path::PathBuf;

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
fn killed_campaigns_resume_to_the_uninterrupted_document() {
    for (scenario, base) in campaigns() {
        let name = scenario.name();
        let mut path: PathBuf = std::env::temp_dir();
        path.push(format!("ssdhammer-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // A complete run prints the plain document: no partial-result
        // envelope, only the `degraded` key of torture's and fuzz's own
        // schema.
        let uninterrupted = scenario.run(base.clone(), 7, 2).json;
        let own_marker = matches!(name, "torture" | "fuzz");
        assert_eq!(
            degraded(&uninterrupted),
            own_marker.then_some(false),
            "{name}: uninterrupted run"
        );
        let killed = scenario
            .run(
                ScenarioCfg {
                    checkpoint: Some(path.clone()),
                    abort_after: Some(1),
                    ..base.clone()
                },
                7,
                2,
            )
            .json;
        assert_eq!(degraded(&killed), Some(true), "{name}: killed run");
        let resumed = scenario
            .run(
                ScenarioCfg {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..base
                },
                7,
                1,
            )
            .json;
        assert_eq!(
            resumed.to_string(),
            uninterrupted.to_string(),
            "{name}: resumed run"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn aborting_before_the_first_shard_marks_every_report_partial() {
    for (scenario, base) in campaigns() {
        let name = scenario.name();
        let cfg = ScenarioCfg {
            abort_after: Some(0),
            ..base
        };
        let out = scenario.run(cfg, 7, 2);
        assert_eq!(degraded(&out.json), Some(true), "{name}: document");
        assert!(out.text.contains("partial results"), "{name}: {}", out.text);
    }
}
