//! Quickstart: the Figure 1 mechanism in one sitting.
//!
//! Builds a small simulated SSD with vulnerable DRAM, prepares L2P entries
//! by writing contiguous LBAs, then issues the alternating read workload
//! that activates the two aggressor rows around a victim row of the L2P
//! table — and watches a logical block silently change its physical
//! mapping.
//!
//! Run with: `cargo run --example quickstart`

use ssdhammer::dram::DramGeneration;
use ssdhammer::prelude::*;

fn main() -> Result<()> {
    // A small SSD whose on-board DRAM flips at ≥200K accesses/s — in the
    // range Table 1 reports for modern modules.
    let profile = ModuleProfile {
        row_vulnerable_prob: 1.0,
        weak_cells_per_row: 8.0,
        ..ModuleProfile::from_min_rate("demo DDR4 (vulnerable)", DramGeneration::Ddr4, 2020, 200)
    };
    let mut ssd = Ssd::build(SsdConfig {
        dram_profile: profile,
        ..SsdConfig::test_small(42)
    });
    println!(
        "device: {} LBAs exported, L2P table {} bytes in on-board DRAM",
        ssd.ftl().capacity_lbas(),
        ssd.ftl().table().size_bytes(),
    );

    // Offline recon: which DRAM-row triples of the L2P table are hammerable?
    let sites = find_attack_sites(ssd.ftl(), 8);
    let site = sites.first().expect("a hammerable site").clone();
    println!(
        "attack site: victim row (bank {}, row {}), {} victim LBAs, weakest cell threshold {} ACTs/window",
        site.victim.bank,
        site.victim.row,
        site.victim_lbas.len(),
        site.weakest_threshold,
    );

    // The attack pipeline composes the three stages — how to hammer
    // (two-sided), what to attack (L2P entries, aggressor entries included
    // in the setup phase), where (the weakest sites) — and runs the whole
    // cycle: setup, observe, hammer at 1M requests/s for 500 ms, observe,
    // classify.
    let outcome = AttackPipeline::new(
        TwoSided,
        L2pEntries {
            setup_aggressors: true,
            ..L2pEntries::default()
        },
        CrossBank,
    )
    .with_rate(1_000_000.0)
    .with_duration(SimDuration::from_millis(500))
    .with_sites(vec![site])
    .run(&mut ssd)?;
    println!(
        "hammered: {} activations at {:.0}/s over {} refresh windows -> {} bitflips",
        outcome.report.activations,
        outcome.report.achieved_rate,
        outcome.report.windows,
        outcome.report.flips.len(),
    );

    // The payoff: logical blocks now point at different physical pages.
    let redirections = outcome.redirections();
    for r in &redirections {
        println!("  {} redirected: {:?} -> {:?}", r.lba, r.from, r.to);
    }
    assert!(
        !redirections.is_empty(),
        "expected at least one L2P redirection"
    );
    println!(
        "\n{} logical block(s) silently remapped using nothing but reads.",
        redirections.len()
    );

    // The same device speaks the batched multi-queue NVMe front end: queue
    // a burst of reads on one queue pair, let the arbiter service every
    // active queue, then drain the completions. (This is the modern path —
    // `roundtrip` remains only for one-off control commands.)
    let ns = ssd.create_namespace(64)?;
    let qp = ssd.create_queue_pair(8);
    let batch: Vec<Command> = (0..8).map(|i| Command::Read { ns, lba: Lba(i) }).collect();
    ssd.submit_batch(qp, &batch)?;
    ssd.process_all();
    let completions = ssd.drain_completions(qp)?;
    let mean_us = completions
        .iter()
        .map(|c| c.latency().as_secs_f64() * 1e6)
        .sum::<f64>()
        / completions.len() as f64;
    println!(
        "batched I/O: {} reads in one submission on a depth-{} queue pair, mean latency {mean_us:.1} us",
        completions.len(),
        qp.depth(),
    );
    Ok(())
}
