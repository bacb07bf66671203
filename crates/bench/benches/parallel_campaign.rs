//! The deterministic campaign runner on `repro prob`'s path: shards the
//! §4.3 Monte-Carlo campaign across worker threads, prints
//! per-thread-count timings, and reports the speedup of 4 workers over 1.
//! The estimates are asserted bit-identical first — the whole point of the
//! runner is that threads buy wall-clock time and nothing else.

use ssdhammer_bench::{harness, sec43};

fn main() {
    let baseline = sec43::run_with_threads(11, 1).monte_carlo;
    for threads in [2, 4, 8] {
        let p = sec43::run_with_threads(11, threads).monte_carlo;
        assert_eq!(
            p.to_bits(),
            baseline.to_bits(),
            "estimate diverged at {threads} threads"
        );
    }
    println!("§4.3 Monte-Carlo estimate: {baseline:.6} (identical at 1/2/4/8 threads)\n");

    let t1 = harness::bench("campaign", "prob_threads_1", 20, || {
        sec43::run_with_threads(11, 1)
    });
    let t4 = harness::bench("campaign", "prob_threads_4", 20, || {
        sec43::run_with_threads(11, 4)
    });
    harness::bench("campaign", "prob_threads_8", 20, || {
        sec43::run_with_threads(11, 8)
    });
    println!("\nspeedup at 4 threads: {:.2}x", t1 / t4);
}
