//! The campaign runner's core promise, held at the experiment level: sharding a reproduction across worker threads changes
//! wall-clock time and nothing else — the emitted JSON is byte-identical
//! for any thread count.

use ssdhammer_bench::{ablations, sec43, table1};
use ssdhammer_simkit::json::ToJson;

#[test]
fn sec43_json_is_byte_identical_across_thread_counts() {
    let base = sec43::run_with_threads(11, 1).to_json().to_string_pretty();
    for threads in [2, 8] {
        let other = sec43::run_with_threads(11, threads)
            .to_json()
            .to_string_pretty();
        assert_eq!(base, other, "§4.3 JSON diverged at {threads} threads");
    }
}

#[test]
fn table1_json_is_byte_identical_across_thread_counts() {
    let base = table1::run_with_threads(3, 1).to_json().to_string_pretty();
    let four = table1::run_with_threads(3, 4).to_json().to_string_pretty();
    assert_eq!(base, four, "Table 1 JSON diverged at 4 threads");
}

#[test]
fn ablations_json_is_byte_identical_across_thread_counts() {
    let base = ablations::run_with_threads(5, 1)
        .to_json()
        .to_string_pretty();
    let four = ablations::run_with_threads(5, 4)
        .to_json()
        .to_string_pretty();
    assert_eq!(base, four, "ablations JSON diverged at 4 threads");
}
