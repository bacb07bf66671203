//! Golden outputs. Every `repro` output below is a pure function of its
//! seed, so each one is compared byte for byte with the copy committed
//! under `tests/golden/`. A change that moves any simulated value fails
//! here. If the change is meant, it is a declared re-baseline: regenerate
//! the file with the command the failure prints and record the changed
//! outputs in CHANGES.md. The torture and fuzz campaigns' telemetry files
//! are also checked against their documents: each campaign counter equals
//! the summary figure it counts.

use std::path::{Path, PathBuf};
use std::process::Command;

use ssdhammer_simkit::json::Json;

/// The flags every golden run shares.
const COMMON: &[&str] = &["--seed", "7", "--threads", "2"];

/// The shell command, run from the repo root, that prints what
/// `repro <args>` prints in [`run_repro`].
fn command(args: &[&str]) -> String {
    format!(
        "cargo run --release -p ssdhammer-bench --bin repro -- {} {}",
        args.join(" "),
        COMMON.join(" ")
    )
}

/// Runs `repro <args>` with [`COMMON`] in a fresh directory under the
/// target tree named after the golden `file`, so side files such as
/// `fig1-telemetry.json` stay out of the source tree. Returns that
/// directory and the run's stdout.
fn run_repro(file: &str, args: &[&str]) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{file}"));
    // Clear what an earlier run left behind; a missing directory is fine.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(COMMON)
        .current_dir(&dir)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "`{}` failed: {}",
        command(args),
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// Compares `actual` with `tests/golden/<file>`. On a mismatch, returns
/// a report naming the file, the first line that differs and the command
/// that regenerates the file.
fn mismatch(file: &str, actual: &str, regenerate: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if expected == actual {
        return None;
    }
    let (mut golden, mut now) = (expected.lines(), actual.lines());
    let mut line = 1;
    let (want, got) = loop {
        match (golden.next(), now.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => break (a.unwrap_or("<end of file>"), b.unwrap_or("<end of output>")),
        }
    };
    Some(format!(
        "crates/bench/tests/golden/{file} no longer matches this build's output; \
         first differing line {line}:\n  golden: {want}\n  now:    {got}\n\
         regenerate it from the repo root with\n  {regenerate}"
    ))
}

#[test]
fn deterministic_repro_outputs_match_the_golden_files() {
    let mut mismatches = Vec::new();

    let args = ["all", "--full", "--json"];
    let (dir, stdout) = run_repro("all.json", &args);
    let all = format!("{} > crates/bench/tests/golden/all.json", command(&args));
    mismatches.extend(mismatch("all.json", &stdout, &all));
    let telemetry = std::fs::read_to_string(dir.join("fig1-telemetry.json"))
        .expect("repro all writes fig1-telemetry.json");
    mismatches.extend(mismatch(
        "all.fig1_telemetry.json",
        &telemetry,
        &format!(
            "{all} && mv fig1-telemetry.json crates/bench/tests/golden/all.fig1_telemetry.json"
        ),
    ));

    let mut miscounts = Vec::new();
    for (file, args) in [
        ("all.txt", &["all", "--full"][..]),
        ("torture.json", &["torture", "--full", "--json"][..]),
        ("fuzz.json", &["fuzz", "--soak", "16", "--json"][..]),
    ] {
        let (dir, stdout) = run_repro(file, args);
        let regenerate = format!("{} > crates/bench/tests/golden/{file}", command(args));
        mismatches.extend(mismatch(file, &stdout, &regenerate));
        let campaign = args[0];
        if campaign == "all" {
            continue;
        }
        // The campaign's counters, written beside its document.
        let side = format!("{campaign}-telemetry.json");
        let telemetry = std::fs::read_to_string(dir.join(&side))
            .unwrap_or_else(|e| panic!("repro {campaign} writes {side}: {e}"));
        let golden = format!("{campaign}.telemetry.json");
        mismatches.extend(mismatch(
            &golden,
            &telemetry,
            &format!("{regenerate} && mv {side} crates/bench/tests/golden/{golden}"),
        ));
        let (doc, telemetry) = (parse(&stdout), parse(&telemetry));
        for (counter, want) in summary_counts(campaign, &doc) {
            let got = telemetry
                .get("counters")
                .and_then(|c| c.get(counter))
                .and_then(Json::as_u64);
            if got != Some(want) {
                miscounts.push(format!(
                    "{side}: {counter} is {got:?}, the document says {want}"
                ));
            }
        }
    }

    assert!(
        mismatches.is_empty(),
        "{}\nIf the change is meant, it is a declared re-baseline: regenerate the \
         files above and record the changed outputs in CHANGES.md.",
        mismatches.join("\n\n")
    );
    assert!(miscounts.is_empty(), "{}", miscounts.join("\n"));
}

fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("not JSON ({e:?}): {text}"))
}

/// The counters a `torture` or `fuzz` run must report, each with the
/// figure of its document `doc` it counts.
fn summary_counts(campaign: &str, doc: &Json) -> Vec<(&'static str, u64)> {
    let figure = |path: &[&str]| {
        path.iter()
            .try_fold(doc, |j, key| j.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{campaign} document lacks {}", path.join(".")))
    };
    let summary = |key: &str| figure(&["summary", key]);
    let mut counts = if campaign == "torture" {
        let points = figure(&["plan", "crash_points"]);
        vec![
            ("torture.crash_points", points),
            ("supervisor.shards", points),
            ("torture.clean", summary("clean")),
            ("torture.loud_degraded", summary("loud_degraded")),
            ("torture.silent_corruption", summary("silent_corruption")),
            ("torture.not_triggered", summary("not_triggered")),
        ]
    } else {
        vec![
            ("fuzz.episodes", summary("pass") + summary("fail")),
            ("supervisor.shards", figure(&["episodes"])),
            ("fuzz.divergences", summary("fail")),
            ("fuzz.shrink_execs", summary("shrink_execs")),
            ("fuzz.hammer.bursts", summary("hammer_bursts")),
        ]
    };
    counts.extend([
        ("supervisor.timeouts", summary("timeouts")),
        ("supervisor.panics", summary("panics")),
        ("supervisor.retries", summary("retries")),
    ]);
    counts
}
