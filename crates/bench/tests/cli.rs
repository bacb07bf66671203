//! `repro`'s argument errors: each rejected command line exits with
//! status 2 before any experiment runs. An unknown attack-grid filter
//! prints both registries so the user can pick a valid name, and a flag
//! that no selected experiment reads, or that no experiment reads at all,
//! names the flag. A corpus replay that
//! finds no case to replay reports a degraded run.

use std::path::Path;
use std::process::{Command, Output};

use ssdhammer_core::{pattern_names, victim_names};
use ssdhammer_simkit::json::Json;

/// Runs `repro <args>` in a fresh directory under the target tree.
fn repro(args: &[&str]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("create the run directory");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro")
}

/// Asserts `repro <args>` exits with status 2, printing nothing to stdout,
/// and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} printed a result");
    stderr
}

#[test]
fn unknown_grid_filters_exit_2_and_list_the_registries() {
    for (args, unknown) in [
        (
            &["attacks", "--pattern", "nope"],
            "unknown hammer pattern \"nope\"",
        ),
        (&["attacks", "--victim", "nope"], "unknown victim \"nope\""),
    ] {
        let stderr = rejected(args);
        assert!(stderr.contains(unknown), "{stderr}");
        let registry = |name: &str, names: &[&str]| format!("{name}{}", names.join(", "));
        assert!(
            stderr.contains(&registry("patterns: ", pattern_names())),
            "{stderr}"
        );
        assert!(
            stderr.contains(&registry("victims:  ", victim_names())),
            "{stderr}"
        );
    }
}

#[test]
fn a_flag_no_selected_experiment_reads_exits_2() {
    for (args, message) in [
        (
            &["fig1", "--pattern", "two_sided"][..],
            "fig1 does not read --pattern",
        ),
        (
            &["prob", "--replay", "corpus"][..],
            "prob does not read --replay",
        ),
        (&["table1", "--full"][..], "table1 does not read --full"),
        (
            &["all", "--soak", "3"][..],
            "no experiment all runs reads --soak",
        ),
        (
            &["fuzz", "--replay", "corpus", "--soak", "3"][..],
            "fuzz --replay does not read --soak",
        ),
        (
            &["fuzz", "--replay", "corpus", "--full"][..],
            "fuzz --replay does not read --full",
        ),
        (
            &["faults", "--abort-after", "1"][..],
            "unknown argument '--abort-after'",
        ),
    ] {
        let stderr = rejected(args);
        assert!(stderr.contains(message), "{stderr}");
    }
}

/// `fuzz --replay` of a directory that cannot be read, or that holds no
/// `.json` case, replays nothing: it exits 0 with a degraded document of
/// zero cases, and the text report says which of the two it was.
#[test]
fn a_replay_with_no_corpus_case_is_degraded() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let missing = tmp.join("no-such-corpus");
    let _ = std::fs::remove_dir_all(&missing);
    let empty = tmp.join("corpus-without-cases");
    std::fs::create_dir_all(&empty).expect("create the empty corpus");
    std::fs::write(empty.join("README.txt"), "not a case").expect("write a non-case file");
    for (dir, reason) in [
        (&missing, "cannot be read"),
        (&empty, "holds no .json case"),
    ] {
        let dir = dir.to_str().expect("utf-8 path");
        let out = repro(&["fuzz", "--replay", dir, "--json"]);
        assert_eq!(out.status.code(), Some(0), "replay {dir}");
        let doc = Json::parse(&String::from_utf8(out.stdout).expect("utf-8 stdout"))
            .expect("a JSON document");
        assert_eq!(doc.get("cases").and_then(Json::as_u64), Some(0), "{dir}");
        assert_eq!(
            doc.get("degraded").and_then(Json::as_bool),
            Some(true),
            "{dir}"
        );
        let out = repro(&["fuzz", "--replay", dir]);
        let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(text.contains(&format!("corpus {dir} {reason}")), "{text}");
    }
}
