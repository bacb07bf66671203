//! Golden outputs. Every `repro` output below is a pure function of its
//! seed, so each one is compared byte for byte with the copy committed
//! under `tests/golden/`. A change that moves any simulated value fails
//! here. If the change is meant, it is a declared re-baseline: regenerate
//! the file with the command the failure prints and record the changed
//! outputs in CHANGES.md.

use std::path::{Path, PathBuf};
use std::process::Command;

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

    for (file, args) in [
        ("all.txt", &["all", "--full"][..]),
        ("torture.json", &["torture", "--full", "--json"][..]),
        ("fuzz.json", &["fuzz", "--soak", "16", "--json"][..]),
    ] {
        let (_, stdout) = run_repro(file, args);
        let regenerate = format!("{} > crates/bench/tests/golden/{file}", command(args));
        mismatches.extend(mismatch(file, &stdout, &regenerate));
    }

    assert!(
        mismatches.is_empty(),
        "{}\nIf the change is meant, it is a declared re-baseline: regenerate the \
         files above and record the changed outputs in CHANGES.md.",
        mismatches.join("\n\n")
    );
}
