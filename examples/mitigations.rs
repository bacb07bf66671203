//! §5's mitigations, switched on one at a time against the same attack.
//!
//! Each run repeats the Figure 1 primitive (double-sided L2P hammering)
//! on a device with one defense enabled and reports whether any
//! host-visible L2P redirection still occurs. The many-sided row shows why
//! TRR alone is not the end of the story (TRRespass).
//!
//! Run with: `cargo run --release --example mitigations`

use ssdhammer::prelude::*;

/// Double-sided (or single/one-location) attack; returns (flips, host-visible
/// redirections).
fn attack(config: SsdConfig, hammerer: impl Hammerer + 'static) -> (u64, usize) {
    let mut ssd = Ssd::build(config);
    let sites = find_attack_sites(ssd.ftl(), 4);
    let Some(site) = sites.first().cloned() else {
        return (0, 0);
    };
    let outcome = AttackPipeline::new(
        hammerer,
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
    .expect("hammer");
    (
        outcome.report.flips.len() as u64,
        outcome.redirections().len(),
    )
}

/// TRRespass-style many-sided attack over several same-bank sites.
fn attack_many_sided(config: SsdConfig) -> (u64, usize) {
    let mut ssd = Ssd::build(config);
    let outcome = AttackPipeline::new(ManySided::default(), L2pEntries::default(), SameBank)
        .with_rate(2_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_max_sites(6)
        .run(&mut ssd);
    match outcome {
        Ok(o) => (o.report.flips.len() as u64, o.redirections().len()),
        Err(AttackError::NoSites | AttackError::NotEnoughSites { .. }) => (0, 0),
        Err(e) => panic!("hammer: {e}"),
    }
}

fn main() {
    let base = || {
        let mut c = SsdConfig::test_small(42);
        c.dram_profile = ModuleProfile::demo_ddr4();
        c
    };

    println!(
        "{:<36} {:>6} {:>12}",
        "configuration", "flips", "redirections"
    );
    let report = |name: &str, (flips, redirs): (u64, usize)| {
        println!("{name:<36} {flips:>6} {redirs:>12}");
    };

    report("baseline (no mitigation)", attack(base(), TwoSided));

    let mut ecc = base();
    ecc.ecc = Some(EccConfig::default());
    report("SEC-DED ECC", attack(ecc, TwoSided));

    let mut trr = base();
    trr.trr = Some(TrrConfig::default());
    report("TRR vs double-sided", attack(trr.clone(), TwoSided));
    report("TRR vs many-sided (6 pairs)", attack_many_sided(trr));

    let mut fast_refresh = base();
    fast_refresh.dram_profile = ModuleProfile::demo_ddr4().with_refresh_multiplier(16);
    report("16x refresh rate", attack(fast_refresh, TwoSided));

    let mut limited = base();
    limited.controller.rate_limit_iops = Some(50_000.0);
    report("IOPS rate limit (50K/s)", attack(limited, TwoSided));

    let mut hashed = base();
    hashed.ftl.l2p_layout = L2pLayout::Hashed { key: 0x5EC6_E7B1 };
    report("keyed-hash L2P (blinded recon)", attack_blind(hashed));

    report(
        "one-location (open-page controller)",
        attack(base(), OneLocation),
    );
}

/// Attack against a hashed-L2P device where the attacker's recon wrongly
/// assumes a linear layout: it hammers the LBAs that *would* be aggressors
/// under the linear layout and checks redirection on the LBAs that *would*
/// be the victims.
fn attack_blind(config: SsdConfig) -> (u64, usize) {
    use ssdhammer::dram::RowKey;

    let mut ssd = Ssd::build(config);
    // Attacker's (wrong) linear-layout model: entries of LBA n..n+255 share
    // a row; pick the guessed victim chunk and its neighbors.
    let row = |row| RowKey { bank: 0, row };
    let guessed = AttackSite {
        victim: row(2),
        above: row(1),
        below: row(3),
        victim_lbas: (512..768).map(Lba).collect(),
        above_lbas: vec![Lba(256)],
        below_lbas: vec![Lba(768)],
        weakest_threshold: 0,
    };
    let outcome = AttackPipeline::new(TwoSided, L2pEntries::default(), CrossBank)
        .with_rate(1_000_000.0)
        .with_duration(SimDuration::from_millis(500))
        .with_sites(vec![guessed])
        .run(&mut ssd)
        .expect("hammer");
    (
        outcome.report.flips.len() as u64,
        outcome.redirections().len(),
    )
}
