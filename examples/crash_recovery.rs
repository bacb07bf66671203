//! The attack's persistence boundary: the L2P table lives in *volatile*
//! DRAM, so rowhammer corruption that was never acted upon disappears on a
//! power cycle — the FTL rebuilds clean mappings from flash OOB metadata.
//! Damage becomes permanent only once the corrupted state drives writes.
//!
//! Run with: `cargo run --release --example crash_recovery`

use ssdhammer::dram::DramGeneration;
use ssdhammer::prelude::*;

fn main() -> Result<()> {
    // A vulnerable device, attacked exactly as in the quickstart.
    let mut config = SsdConfig::test_small(42);
    let mut profile = ModuleProfile::from_min_rate("demo DDR4", DramGeneration::Ddr4, 2020, 200);
    profile.row_vulnerable_prob = 1.0;
    profile.weak_cells_per_row = 8.0;
    config.dram_profile = profile;
    let mut ssd = Ssd::build(config);

    let site = find_attack_sites(ssd.ftl(), 1).pop().expect("site");
    setup_entries(ssd.ftl_mut(), &site.victim_lbas)?;
    let truth: Vec<_> = site
        .victim_lbas
        .iter()
        .map(|&l| ssd.ftl().peek_mapping(l))
        .collect::<std::result::Result<_, ssdhammer::ftl::FtlError>>()?;

    // The victim entries were staged above (the ground truth had to be
    // captured first), so the pipeline's setup pass must not rewrite them —
    // a rewrite would bump their OOB sequence numbers and move the truth.
    let outcome = AttackPipeline::new(
        TwoSided,
        L2pEntries {
            setup_victims: false,
            ..L2pEntries::default()
        },
        CrossBank,
    )
    .with_rate(1_000_000.0)
    .with_duration(SimDuration::from_millis(500))
    .with_sites(vec![site.clone()])
    .run(&mut ssd)?;
    let redirections = outcome.redirections();
    println!(
        "attack: {} bitflips, {} L2P redirections in the DRAM-resident table",
        outcome.report.flips.len(),
        redirections.len()
    );
    assert!(!redirections.is_empty());

    // Pull the power: the DRAM (and its corrupted table) evaporates; only
    // flash — with per-page (LBA, sequence) OOB metadata — survives.
    println!("\n-- power cycle --\n");
    let (_lost_dram, nand) = ssd.into_ftl().into_parts();
    let fresh_dram = DramModule::builder(DramGeometry::tiny_test())
        .profile(ModuleProfile::invulnerable())
        .mapping(MappingKind::Linear)
        .without_timing()
        .build(SimClock::new());
    let recovered = Ftl::recover(fresh_dram, nand, FtlConfig::default())?;

    let mut healed = 0;
    for (&lba, expected) in site.victim_lbas.iter().zip(&truth) {
        if &recovered.peek_mapping(lba)? == expected {
            healed += 1;
        }
    }
    println!(
        "recovery: {healed}/{} victim mappings match their pre-attack state",
        site.victim_lbas.len()
    );
    assert_eq!(healed, site.victim_lbas.len());
    println!(
        "\nEvery redirection healed: L2P corruption is volatile until the \
         firmware acts on it\n(flushing mappings, GC-invalidating the wrong \
         page, overwriting through a corrupt\nentry) — which is why the paper's \
         attacker must scan and exploit within one uptime."
    );
    Ok(())
}
