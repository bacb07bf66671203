//! The campaign runner's core promise, held at the experiment level:
//! sharding a reproduction across worker threads changes wall-clock time
//! and nothing else — what `repro <name>` prints, document and report, is
//! byte-identical for any thread count.

use ssdhammer_bench::scenario::{Scenario, ScenarioCfg};
use ssdhammer_bench::{ablations, sec43, table1};

/// `scenario`'s pretty-printed document and text report at `threads`.
fn printed(scenario: &dyn Scenario, seed: u64, threads: usize) -> (String, String) {
    let out = scenario.run(ScenarioCfg::default(), seed, threads);
    (out.json.to_string_pretty(), out.text)
}

#[test]
fn sec43_json_is_byte_identical_across_thread_counts() {
    let base = printed(&sec43::Sec43Scenario, 11, 1);
    for threads in [2, 8] {
        let other = printed(&sec43::Sec43Scenario, 11, threads);
        assert_eq!(base, other, "§4.3 output diverged at {threads} threads");
    }
}

#[test]
fn table1_json_is_byte_identical_across_thread_counts() {
    let base = printed(&table1::Table1Scenario, 3, 1);
    let four = printed(&table1::Table1Scenario, 3, 4);
    assert_eq!(base, four, "Table 1 output diverged at 4 threads");
}

#[test]
fn ablations_json_is_byte_identical_across_thread_counts() {
    let base = printed(&ablations::AblationsScenario, 5, 1);
    let four = printed(&ablations::AblationsScenario, 5, 4);
    assert_eq!(base, four, "ablations output diverged at 4 threads");
}
