//! Model-level invariants of the DRAM simulator that go beyond the unit
//! tests: distance-2 (half-double) coupling, ECC corner cases, config
//! serialization, and the single-pass amplified lookup against the
//! separate read and forced activations it fuses.

use ssdhammer_dram::{
    DramError, DramGeneration, DramGeometry, DramModule, EccConfig, HammerOptions, Location,
    MappingKind, ModuleProfile, ParaConfig, RowKey, RowPolicy, TrrConfig,
};
use ssdhammer_simkit::rng::{seeded, Rng};
use ssdhammer_simkit::{DramAddr, SimClock, SimDuration, SimTime};

fn eager(distance2: f64) -> ModuleProfile {
    let mut p = ModuleProfile::from_min_rate("eager", DramGeneration::Lpddr4, 2021, 1);
    p.hc_first = 1000;
    p.threshold_spread = 0.0;
    p.row_vulnerable_prob = 1.0;
    p.weak_cells_per_row = 8.0;
    p.distance2_factor = distance2;
    p
}

fn module(profile: ModuleProfile, seed: u64) -> DramModule {
    DramModule::builder(DramGeometry::tiny_test())
        .profile(profile)
        .mapping(MappingKind::Linear)
        .seed(seed)
        .without_timing()
        .build(SimClock::new())
}

/// Counter `name` of `m`'s registry; an unregistered name fails the test.
fn counter(m: &DramModule, name: &str) -> u64 {
    m.shared_telemetry()
        .counter_value(name)
        .unwrap_or_else(|| panic!("counter {name} is not registered"))
}

fn row_addr(m: &DramModule, bank: u32, row: u32) -> DramAddr {
    m.mapping().encode(Location { bank, row, col: 0 })
}

/// Half-double: with distance-2 coupling enabled, hammering rows n−2/n+2
/// (never the direct neighbors) still flips the victim — the Google
/// "Half-Double" pattern the paper cites in [42].
#[test]
fn distance_two_hammering_flips_with_coupling_enabled() {
    let mut m = module(eager(0.6), 3);
    let victim = row_addr(&m, 0, 10);
    m.write(victim, &[0xFF; 64]).unwrap();
    // Aggressors two rows away on each side.
    let aggr = [row_addr(&m, 0, 8), row_addr(&m, 0, 12)];
    let report = m
        .run_hammer(&aggr, 400_000, 10_000_000.0, HammerOptions::default())
        .unwrap();
    assert!(
        report
            .flips
            .iter()
            .any(|f| f.row == RowKey { bank: 0, row: 10 }),
        "distance-2 coupling should reach the victim; flips: {:?}",
        report.flips
    );
}

/// Without coupling, the same distance-2 pattern achieves nothing on the
/// victim (though rows 7/9/11/13 — direct neighbors of the aggressors — do
/// get hit).
#[test]
fn distance_two_hammering_misses_without_coupling() {
    let mut m = module(eager(0.0), 3);
    let victim = row_addr(&m, 0, 10);
    m.write(victim, &[0xFF; 64]).unwrap();
    let aggr = [row_addr(&m, 0, 8), row_addr(&m, 0, 12)];
    let report = m
        .run_hammer(&aggr, 400_000, 10_000_000.0, HammerOptions::default())
        .unwrap();
    assert!(
        report
            .flips
            .iter()
            .all(|f| f.row != RowKey { bank: 0, row: 10 }),
        "no coupling, no victim flips"
    );
}

/// ECC without scrubbing accumulates latent single-bit errors until a word
/// collects two and the read fails as uncorrectable.
#[test]
fn ecc_without_scrub_eventually_fails_uncorrectable() {
    // Find a seed whose victim row has two weak cells in the same 64-bit
    // word (deterministic search over the profile's cell placement). Under
    // the 0xAA test pattern only cells whose orientation matches the stored
    // bit can flip, so the pair must both be flippable: a TrueCell (1 → 0)
    // on an odd bit, or an AntiCell (0 → 1) on an even bit.
    let profile = {
        let mut p = eager(0.0);
        p.weak_cells_per_row = 48.0;
        p
    };
    let flippable_under_aa = |c: &ssdhammer_dram::WeakCell| {
        (c.bit % 2 == 1) == (c.orientation == ssdhammer_dram::CellOrientation::TrueCell)
    };
    let mut chosen = None;
    'search: for seed in 0..200u64 {
        let m = module(profile.clone(), seed);
        for row in 1..63u32 {
            let cells = m.profile_row(RowKey { bank: 0, row });
            let mut words: Vec<u64> = cells
                .iter()
                .filter(|c| flippable_under_aa(c))
                .map(|c| c.bit / 64)
                .collect();
            words.sort_unstable();
            if words.windows(2).any(|w| w[0] == w[1]) {
                chosen = Some((seed, row));
                break 'search;
            }
        }
    }
    let (seed, row) = chosen.expect("some seed must collide within a word");

    let mut m = DramModule::builder(DramGeometry::tiny_test())
        .profile(profile)
        .mapping(MappingKind::Linear)
        .seed(seed)
        .ecc(EccConfig {
            scrub_on_correct: false,
        })
        .without_timing()
        .build(SimClock::new());
    let victim = row_addr(&m, 0, row);
    // 0xAA alternating bits: every cell orientation finds flippable targets.
    m.write(victim, &[0xAA; 1024]).unwrap();
    let aggr = [row_addr(&m, 0, row - 1), row_addr(&m, 0, row + 1)];
    m.run_hammer(&aggr, 600_000, 10_000_000.0, HammerOptions::default())
        .unwrap();
    let mut buf = [0u8; 1024];
    let result = m.read(victim, &mut buf);
    assert!(
        result.is_err(),
        "two latent flips in one word must fail the read; telemetry: {:?}",
        m.shared_telemetry().snapshot().counters
    );
    assert!(counter(&m, "dram.ecc.uncorrectable") > 0);
}

/// With scrub-on-correct, periodic reads between hammer bursts heal single
/// flips before a second lands in the same word.
#[test]
fn ecc_with_scrub_survives_interleaved_reads() {
    let profile = {
        let mut p = eager(0.0);
        p.weak_cells_per_row = 16.0;
        p
    };
    let mut m = DramModule::builder(DramGeometry::tiny_test())
        .profile(profile)
        .mapping(MappingKind::Linear)
        .seed(11)
        .ecc(EccConfig::default())
        .without_timing()
        .build(SimClock::new());
    let victim = row_addr(&m, 0, 20);
    m.write(victim, &[0xAA; 1024]).unwrap();
    let aggr = [row_addr(&m, 0, 19), row_addr(&m, 0, 21)];
    let mut buf = [0u8; 1024];
    for _ in 0..20 {
        m.run_hammer(&aggr, 30_000, 10_000_000.0, HammerOptions::default())
            .unwrap();
        m.read(victim, &mut buf).expect("scrubbed reads never fail");
        assert!(
            buf.iter().all(|&b| b == 0xAA),
            "data is always served clean"
        );
    }
}

/// Experiment configs are value types: clones compare equal and stay
/// independent, which is what provenance capture relies on.
///
/// The original serde round-trip cannot run offline (the workspace builds
/// without external crates; `ssdhammer_simkit::json` is serialize-only), so
/// this checks the equality/clone half of the contract instead.
#[test]
fn configs_are_stable_value_types() {
    let p = ModuleProfile::lpddr4_new_2020();
    assert_eq!(p.clone(), p);

    let g = DramGeometry::testbed_i7_2600();
    assert_eq!(g, g);

    let k = MappingKind::default_xor();
    assert_eq!(k, k);
    assert_ne!(format!("{p:?}"), String::new());
}

/// A burst's report lists exactly the flips `dram.flips` counted, each at
/// an address that decodes to its recorded row.
#[test]
fn hammer_report_flips_match_the_counter() {
    let mut m = module(eager(0.0), 3);
    let victim = row_addr(&m, 0, 5);
    m.write(victim, &[0xFF; 64]).unwrap();
    let aggr = [row_addr(&m, 0, 4), row_addr(&m, 0, 6)];
    let report = m
        .run_hammer(&aggr, 400_000, 10_000_000.0, HammerOptions::default())
        .unwrap();
    assert!(!report.flips.is_empty());
    assert_eq!(report.flips.len() as u64, counter(&m, "dram.flips"));
    for f in &report.flips {
        let loc = m.mapping().decode(f.addr);
        assert_eq!(loc.row_key(), f.row);
    }
}

/// Defenses and controller modes of one differential run.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    ecc: bool,
    trr: bool,
    para: bool,
    closed_page: bool,
    timed: bool,
}

impl Knobs {
    /// Every on/off combination of the five knobs.
    fn all() -> impl Iterator<Item = Knobs> {
        (0..32u32).map(|bits| Knobs {
            ecc: bits & 1 != 0,
            trr: bits & 2 != 0,
            para: bits & 4 != 0,
            closed_page: bits & 8 != 0,
            timed: bits & 16 != 0,
        })
    }
}

/// Short refresh windows, so a sequence straddles many boundaries.
const WINDOW: SimDuration = SimDuration::from_micros(40);

/// A module whose cells flip after a few dozen activations, with
/// distance-2 coupling on, so lookups on adjacent rows flip each other
/// within one window.
fn differential_module(k: Knobs) -> DramModule {
    let mut profile = eager(0.3);
    profile.hc_first = 24;
    // Enough weak cells that two flips share an ECC word.
    profile.weak_cells_per_row = 64.0;
    profile.refresh_interval = WINDOW;
    if k.closed_page {
        profile.row_policy = RowPolicy::ClosedPage;
    }
    let mut b = DramModule::builder(DramGeometry::tiny_test())
        .profile(profile)
        .mapping(MappingKind::default_xor())
        .seed(5);
    if k.ecc {
        b = b.ecc(EccConfig::default());
    }
    if k.trr {
        // One tracked row with a low threshold: a row's own forced
        // activations often change which neighbour the sampler tracks.
        b = b.trr(TrrConfig {
            sampler_size: 1,
            detection_threshold: 4,
        });
    }
    if k.para {
        b = b.para(ParaConfig {
            refresh_probability: 0.01,
        });
    }
    if !k.timed {
        b = b.without_timing();
    }
    b.build(SimClock::new())
}

/// One step of a differential sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    Write(DramAddr, u32),
    Read(DramAddr),
    /// An entry read plus this many forced activations of its row.
    Lookup(DramAddr, u64),
    /// Advance the clock to this instant (never backwards).
    IdleTo(SimTime),
}

/// What one differential run exercised, summed over its steps.
#[derive(Debug, Default)]
struct Coverage {
    /// Lookups whose read began within a miss latency of a window end.
    straddles: u64,
    flips: u64,
    row_hits: u64,
    refresh_windows: u64,
    errors: u64,
}

/// Draws the next step: accesses cluster on seven adjacent rows of bank 0
/// (each one another's aggressor and victim) plus one row of bank 1, and
/// often repeat the previous row so the row buffer hits.
fn next_step(rng: &mut impl Rng, m: &DramModule, prev: &mut u32) -> Step {
    let row = if rng.gen_bool(0.3) {
        *prev
    } else {
        rng.gen_range(0u32..8)
    };
    *prev = row;
    let (bank, row) = if row == 7 { (1, 9) } else { (0, 8 + row) };
    let col = rng.gen_range(0u32..256) * 4;
    let addr = m.mapping().encode(Location { bank, row, col });
    match rng.gen_range(0u32..100) {
        0..=9 => {
            let value = match rng.gen_range(0u32..3) {
                0 => u32::MAX,
                1 => 0,
                _ => rng.gen(),
            };
            Step::Write(addr, value)
        }
        10..=24 => Step::Read(addr),
        25..=87 => Step::Lookup(addr, [0, 1, 4, 4][rng.gen_range(0usize..4)]),
        _ => {
            let now = m.clock().now().as_nanos();
            let end = (now / WINDOW.as_nanos() + 1) * WINDOW.as_nanos();
            // Mostly land just short of the window end, so the next read's
            // own access time crosses it.
            let to = if rng.gen_bool(0.7) {
                end - rng.gen_range(0u64..50)
            } else {
                now + rng.gen_range(0u64..5_000)
            };
            Step::IdleTo(SimTime::from_nanos(to.max(now)))
        }
    }
}

/// Drives `fused` and `reference` through one seeded sequence: amplified
/// lookups go through [`DramModule::read_u32_amplified`] on `fused` and
/// through `read_u32` then `force_activations` (each with its own decode,
/// window check and pressure evaluation) on `reference`. Values and clock
/// must agree after every step; counters, flip trace and array contents at
/// the end.
fn differential_run(k: Knobs, seed: u64, steps: usize) -> Coverage {
    let mut fused = differential_module(k);
    let mut reference = differential_module(k);
    // Rows start charged in both orientations' vulnerable state.
    let filled = [
        (0u32, 7u32),
        (0, 8),
        (0, 9),
        (0, 10),
        (0, 11),
        (0, 12),
        (0, 13),
        (0, 14),
        (0, 15),
        (1, 8),
        (1, 9),
        (1, 10),
    ];
    for (i, (bank, row)) in filled.into_iter().enumerate() {
        let addr = fused.mapping().encode(Location { bank, row, col: 0 });
        let fill = [[0xFF; 1024], [0x00; 1024], [0xA5; 1024]][i % 3];
        fused.write(addr, &fill).unwrap();
        reference.write(addr, &fill).unwrap();
    }
    let mut rng = seeded(seed);
    let mut prev = 0;
    let mut cov = Coverage::default();
    for i in 0..steps {
        let step = next_step(&mut rng, &fused, &mut prev);
        let (a, b): (Result<u32, DramError>, Result<u32, DramError>) = match step {
            Step::Write(addr, v) => (
                fused.write_u32(addr, v).map(|()| v),
                reference.write_u32(addr, v).map(|()| v),
            ),
            Step::Read(addr) => (fused.read_u32(addr), reference.read_u32(addr)),
            Step::Lookup(addr, extra) => {
                let now = fused.clock().now().as_nanos();
                let to_end = WINDOW.as_nanos() - now % WINDOW.as_nanos();
                if k.timed && extra > 0 && to_end <= 45 {
                    cov.straddles += 1;
                }
                let want = reference.read_u32(addr);
                if want.is_ok() && extra > 0 {
                    reference.force_activations(addr, extra).unwrap();
                }
                (fused.read_u32_amplified(addr, extra), want)
            }
            Step::IdleTo(t) => {
                fused.clock().advance_to(t);
                reference.clock().advance_to(t);
                (Ok(0), Ok(0))
            }
        };
        assert_eq!(a, b, "{k:?} seed {seed} step {i} {step:?}: values differ");
        assert_eq!(
            fused.clock().now(),
            reference.clock().now(),
            "{k:?} seed {seed} step {i} {step:?}: clocks differ"
        );
        cov.errors += u64::from(a.is_err());
    }
    let (fs, rs) = (
        fused.shared_telemetry().snapshot(),
        reference.shared_telemetry().snapshot(),
    );
    assert_eq!(
        fs.counters, rs.counters,
        "{k:?} seed {seed}: counters differ"
    );
    assert_eq!(fs.trace, rs.trace, "{k:?} seed {seed}: flip events differ");
    assert_eq!(fs.trace_dropped, rs.trace_dropped);
    // One tiny-geometry row at a time.
    let (mut x, mut y) = ([0u8; 1024], [0u8; 1024]);
    for off in (0..DramGeometry::tiny_test().total_bytes().as_u64()).step_by(x.len()) {
        fused.peek(DramAddr(off), &mut x).unwrap();
        reference.peek(DramAddr(off), &mut y).unwrap();
        assert_eq!(x, y, "{k:?} seed {seed}: array contents differ at {off}");
    }
    cov.flips = fs.counter("dram.flips").unwrap_or(0);
    cov.row_hits = fs.counter("dram.row_hits").unwrap_or(0);
    cov.refresh_windows = fs.counter("dram.refresh_windows").unwrap_or(0);
    cov
}

/// The single-pass amplified lookup is indistinguishable from the entry
/// read followed by forced activations, under every combination of ECC,
/// TRR, PARA, closed-page and untimed operation, across refresh-window
/// boundaries (including ones the read's own access time crosses) and
/// row-buffer hits.
#[test]
fn amplified_lookup_matches_read_then_forced_activations() {
    let mut total = Coverage::default();
    for k in Knobs::all() {
        for seed in [1u64, 2, 3] {
            let cov = differential_run(k, seed, 3_000);
            assert!(cov.refresh_windows > 10, "{k:?}: {cov:?}");
            if k.timed {
                assert!(cov.straddles > 0, "{k:?}: {cov:?}");
            }
            if !k.closed_page {
                assert!(cov.row_hits > 0, "{k:?}: {cov:?}");
            }
            total.flips += cov.flips;
            total.errors += cov.errors;
            total.straddles += cov.straddles;
        }
    }
    assert!(total.flips > 0 && total.errors > 0, "{total:?}");
}
