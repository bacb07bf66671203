//! The §4 cloud case study, end to end: an unprivileged process inside a
//! victim VM, helped by a co-located attacker VM sharing the same SSD,
//! tries to leak the victim's root-owned SSH private key by rowhammering
//! the FTL. Whether one device leaks depends on its seed.
//!
//! Run with: `cargo run --release --example info_leak`

use ssdhammer::cloud::SECRET_MARKER;
use ssdhammer::prelude::*;

fn main() -> Result<()> {
    let config = CaseStudyConfig::fast_demo(7);
    println!(
        "setup: {:?}, victim partition {} blocks, attacker partition {} blocks",
        config.setup, config.victim_blocks, config.attacker_blocks
    );
    println!(
        "spray limit {:.0}% of the victim partition, {} sites hammered per cycle at {:.1}M req/s\n",
        config.spray_fraction * 100.0,
        config.sites_per_cycle,
        config.request_rate / 1e6,
    );

    let outcome = run_case_study(&config)?;

    println!("cycle  files  sites  flips  hits  leaked");
    for c in &outcome.cycles {
        println!(
            "{:>5}  {:>5}  {:>5}  {:>5}  {:>4}  {}",
            c.cycle,
            c.sprayed_files,
            c.sites_hammered,
            c.flips,
            c.scan_hits,
            if c.leaked_secret { "YES" } else { "-" },
        );
    }
    println!(
        "\ncorruption-only events (detected, no secret): {}",
        outcome.corruption_events
    );
    println!("total simulated time: {}", outcome.total_time);

    if outcome.success {
        let block = outcome.leaked_block.as_ref().expect("leak recorded");
        let printable: String = block[..SECRET_MARKER.len()]
            .iter()
            .map(|&b| b as char)
            .collect();
        println!("\nSUCCESS — the unprivileged attacker recovered root's key:");
        println!("  {printable}...");
    } else if outcome.aborted_by_corruption {
        println!(
            "\nFlips corrupted the victim filesystem's metadata after {} cycle(s), \
             ending the attack loop (§3.2's corruption outcome; EXPERIMENTS.md E4 \
             has the seed distribution).",
            outcome.cycles.len()
        );
    } else {
        println!(
            "\nAttack did not converge within {} cycles.",
            config.max_cycles
        );
    }
    Ok(())
}
