//! The shared telemetry registry observed end to end: one quickstart-style
//! attack run must leave per-layer counters and a flip trace in the single
//! registry the whole stack binds to.

use ssdhammer::dram::DramGeneration;
use ssdhammer::prelude::*;
use xtask::wsrules::{glob_match, parse_registry};

#[test]
fn attack_run_populates_every_layer_of_the_shared_registry() {
    // The quickstart scenario: a small SSD whose on-board DRAM flips at
    // ≥200K accesses/s, eagerly vulnerable so the run is short.
    let profile = ModuleProfile {
        row_vulnerable_prob: 1.0,
        weak_cells_per_row: 8.0,
        ..ModuleProfile::from_min_rate("demo DDR4", DramGeneration::Ddr4, 2020, 200)
    };
    let mut ssd = Ssd::build(SsdConfig {
        dram_profile: profile,
        ..SsdConfig::test_small(42)
    });

    let site = find_attack_sites(ssd.ftl(), 8)
        .into_iter()
        .next()
        .expect("a hammerable site");

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
    .run(&mut ssd)
    .unwrap();
    assert!(
        !outcome.report.flips.is_empty(),
        "the demo run must flip bits"
    );

    // Every layer the run crossed accounted for itself in the one registry.
    let snapshot: TelemetrySnapshot = ssd.snapshot_telemetry();
    assert!(
        snapshot.counter("dram.activations").unwrap_or(0) > 0,
        "hammering activates DRAM rows"
    );
    assert!(
        snapshot.counter("ftl.l2p_reads").unwrap_or(0) > 0,
        "setup + verification walk the L2P table"
    );
    assert!(
        snapshot.counter("attack.cycles").unwrap_or(0) >= 1,
        "the attack layer records its cycle"
    );
    assert!(
        snapshot.trace.iter().any(|e| e.kind == "dram.flip"),
        "each bitflip leaves a trace event; got kinds {:?}",
        snapshot
            .trace
            .iter()
            .map(|e| e.kind.as_str())
            .collect::<std::collections::BTreeSet<_>>()
    );

    // Live handles and the snapshot agree: the counters came from the same
    // registry, not per-layer copies.
    let live: Telemetry = ssd.telemetry();
    assert_eq!(
        live.counter_value("dram.activations"),
        snapshot.counter("dram.activations")
    );

    // Every name the run actually emitted is enumerated in the committed
    // TELEMETRY.md — the same registry rule T2 checks statically — so the
    // fig1 telemetry export can never ship an undocumented key.
    let registry_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("TELEMETRY.md"),
    )
    .expect("committed TELEMETRY.md");
    let entries = parse_registry(&registry_text);
    assert!(entries.len() > 50, "the registry enumerates the stack");
    let names: Vec<String> = snapshot
        .counters
        .iter()
        .map(|(k, _)| k.clone())
        .chain(snapshot.gauges.iter().map(|(k, _)| k.clone()))
        .chain(snapshot.histograms.iter().map(|(k, _)| k.clone()))
        .chain(snapshot.trace.iter().map(|e| e.kind.clone()))
        .collect();
    assert!(!names.is_empty());
    for name in names {
        assert!(
            entries.iter().any(|e| glob_match(&e.name, &name)),
            "`{name}` was emitted at runtime but is not registered in TELEMETRY.md"
        );
    }
}
