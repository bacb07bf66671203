//! EXPERIMENTS.md quotes `repro fig3 --seed 7` as the E4 headline. This
//! guard runs the command and fails when the committed line no longer
//! matches what the code prints.

use std::process::Command;

/// The run summary `repro fig3` prints under its title.
fn summary(text: &str) -> Option<&str> {
    text.lines()
        .map(str::trim)
        .find(|line| line.starts_with("spray limit "))
}

#[test]
fn e4_fast_demo_line_matches_repro_fig3_seed_7() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--seed", "7"])
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro fig3 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let printed = summary(&stdout).expect("repro fig3 prints a summary line");

    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    let e4 = doc
        .split("\n## ")
        .find(|section| section.starts_with("E4 "))
        .expect("EXPERIMENTS.md has an E4 section");
    let committed = summary(e4).expect("E4 quotes the fast-demo summary line");
    assert_eq!(
        committed, printed,
        "EXPERIMENTS.md E4 no longer matches `repro fig3 --seed 7`; regenerate it"
    );
}
