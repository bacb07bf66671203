//! Conformance contract of the modular attack pipeline: the name-keyed
//! registries round-trip, the campaign grid is byte-identical for any
//! worker-thread count, and every victim's silent-vs-loud classification
//! agrees with the defense matrix's established semantics.

use ssdhammer::core::{
    make_hammerer, make_placement, make_victim, pattern_names, placement_names, victim_names,
    AttackError, ChangeKind, MappingState, Observation,
};
use ssdhammer::simkit::json::Json;
use ssdhammer_bench::attacks::AttacksScenario;
use ssdhammer_bench::scenario::{Scenario, ScenarioCfg};

/// Every registered name instantiates a component that reports that exact
/// name back — the contract `repro attacks --pattern/--victim` relies on.
#[test]
fn registries_round_trip_every_name() {
    for &name in pattern_names() {
        let h = make_hammerer(name).expect("registered pattern");
        assert_eq!(h.name(), name);
    }
    for &name in victim_names() {
        let v = make_victim(name).expect("registered victim");
        assert_eq!(v.name(), name);
    }
    for &name in placement_names() {
        let p = make_placement(name).expect("registered placement");
        assert_eq!(p.name(), name);
    }
    assert!(matches!(
        make_hammerer("hammertime"),
        Err(AttackError::UnknownPattern(_))
    ));
    assert!(matches!(
        make_victim("oob"),
        Err(AttackError::UnknownVictim(_))
    ));
    assert!(matches!(
        make_placement("diagonal"),
        Err(AttackError::UnknownPlacement(_))
    ));
}

/// What `repro attacks` prints (document and report) at seed 23 for
/// `cfg`'s filters and `threads` workers.
fn grid(cfg: ScenarioCfg, threads: usize) -> (Json, String) {
    let out = AttacksScenario.run(cfg, 23, threads);
    (out.json, out.text)
}

/// The full pattern × victim grid covers at least 16 cells, and what
/// `repro attacks` prints is byte-identical no matter how many campaign
/// worker threads sharded the cells.
#[test]
fn campaign_grid_is_byte_identical_across_thread_counts() {
    let (doc, text) = grid(ScenarioCfg::default(), 1);
    let cells = doc.as_arr().expect("the document is the cell array").len();
    assert!(
        cells >= 16,
        "grid must cover at least 16 pattern x victim cells, got {cells}"
    );
    let (doc4, text4) = grid(ScenarioCfg::default(), 4);
    assert_eq!(
        doc.to_string_pretty(),
        doc4.to_string_pretty(),
        "thread count must not change any byte"
    );
    assert_eq!(text, text4, "thread count must not change any byte");
}

/// Every victim classifies a change exactly as the PR 5 defense matrix
/// did: a unit that becomes unreadable is a *loud* failure (the host sees
/// a device error); a redirected mapping or altered metadata word is
/// *silent* corruption — wrong state served as if good.
#[test]
fn classification_matches_the_defense_matrix_semantics() {
    use ssdhammer::flash::Ppn;

    let mapped = |p| Observation::Mapping(MappingState::Mapped(Ppn(p)));
    let cases = [
        // (before, after, expected)
        (mapped(1), mapped(2), ChangeKind::Silent),
        (
            mapped(1),
            Observation::Mapping(MappingState::Unmapped),
            ChangeKind::Silent,
        ),
        (
            mapped(1),
            Observation::Mapping(MappingState::Unreadable),
            ChangeKind::Loud,
        ),
        (
            Observation::Word(0xB4D0_0000),
            Observation::Word(0xB4D0_0001),
            ChangeKind::Silent,
        ),
        (
            Observation::Word(0xB4D0_0000),
            Observation::Unreadable,
            ChangeKind::Loud,
        ),
    ];
    for &victim in victim_names() {
        let v = make_victim(victim).expect("registered victim");
        for (before, after, expected) in &cases {
            assert_eq!(
                v.classify(before, after),
                *expected,
                "{victim}: {before:?} -> {after:?}"
            );
        }
    }
}

/// The flagship cell (two-sided vs the L2P table) actually lands silent
/// redirections through the whole pipeline — the grid is not vacuously
/// deterministic.
#[test]
fn flagship_cell_produces_silent_corruption() {
    let flagship = ScenarioCfg {
        pattern: Some("two_sided".to_owned()),
        victim: Some("l2p".to_owned()),
        ..ScenarioCfg::default()
    };
    let (doc, _) = grid(flagship, 2);
    let cells = doc.as_arr().expect("the document is the cell array");
    assert_eq!(cells.len(), 1);
    let cell = &cells[0];
    assert_eq!(
        cell.get("error"),
        Some(&Json::Null),
        "flagship cell must run: {cell:?}"
    );
    let count = |key: &str| cell.get(key).and_then(Json::as_u64).expect(key);
    assert!(count("flips") > 0, "flagship cell must flip bits");
    assert!(count("silent") > 0, "flagship cell must corrupt silently");
}
