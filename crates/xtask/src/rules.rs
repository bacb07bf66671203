//! The determinism & safety rule set.
//!
//! Every rule is a statement about the *shipping* simulation stack — the
//! code whose behavior must be bit-reproducible from a seed so that the
//! paper's Table 1 / §4.3 reproductions stay trustworthy:
//!
//! * **D1** — no `std::time::Instant` / `SystemTime` outside `simkit`'s
//!   clock shims and the bench harness's wall-clock-only reporting path.
//!   Wall time observed anywhere else can leak into simulated results.
//! * **D2** — no `HashMap` / `HashSet` in crates on the deterministic
//!   result path. Their iteration order depends on `RandomState`; use
//!   `BTreeMap` / `BTreeSet` (or an explicitly seeded structure).
//! * **D3** — no ambient randomness (`rand`, `thread_rng`, `getrandom`,
//!   `OsRng`); every random draw must derive from a `simkit::rng` seed.
//! * **U1** — every `unsafe` is preceded by a `// SAFETY:` comment, and a
//!   crate with no unsafe at all must declare `#![forbid(unsafe_code)]`
//!   in its entry file (checked by the workspace walker).
//! * **P1** — no `.unwrap()` / `.expect()` / `panic!` in non-test library
//!   code of the sim crates; fallible paths return `ssdhammer::Error`.
//! * **T1** — telemetry metric names registered or looked up by string
//!   must follow the dotted `subsystem.metric` scheme (every
//!   dot-separated segment matching `[a-z0-9_]+`, at least two segments,
//!   e.g. `ftl.l2p_reads` or `dram.ecc.corrected`), so
//!   `fig1-telemetry.json` keys stay stable across refactors.
//!
//! Five more rules — **R1** (determinism race), **T2** (telemetry
//! registry), **T3** (fuzz telemetry strictness), **E1** (swallowed
//! result), **S1** (seed hygiene) — need the whole workspace in view and
//! run in pass 2; see [`crate::wsrules`].
//!
//! Rules are *scoped*: test code (both `tests/` trees and `#[cfg(test)]`
//! items), benches, and examples are exempt from the rules that only
//! govern the result path (D2, P1, T1). A per-rule [`ALLOWLIST`] names the
//! files that are sanctioned exceptions, with the reason recorded next to
//! the entry. Everything else goes through an inline waiver:
//!
//! ```text
//! // lint:allow(P1) -- documented panic: geometry validated at startup
//! ```
//!
//! A waiver on its own line covers the next line; a trailing waiver covers
//! its own line. The `-- reason` part is mandatory — a waiver without a
//! written justification does not suppress anything.

use std::collections::BTreeMap;

use crate::lexer::{lex, test_scope_mask, Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time on a simulated path.
    D1,
    /// Hash-ordered collection on the deterministic result path.
    D2,
    /// Ambient (non-seeded) randomness.
    D3,
    /// `unsafe` hygiene.
    U1,
    /// Panicking call on the library path.
    P1,
    /// Malformed telemetry metric name.
    T1,
    /// Cross-thread determinism race (pass 2).
    R1,
    /// Telemetry name missing from — or dead in — `TELEMETRY.md` (pass 2).
    T2,
    /// Fuzz telemetry strictness: `fuzz.*` names must be static literals
    /// with exact, glob-free registry entries (pass 2).
    T3,
    /// Swallowed `Result` in sim-crate library code (pass 2).
    E1,
    /// Hard-coded RNG seed on the library path (pass 2).
    S1,
}

impl Rule {
    /// The rule's short code as printed in diagnostics (`D1` … `T1`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::U1 => "U1",
            Rule::P1 => "P1",
            Rule::T1 => "T1",
            Rule::R1 => "R1",
            Rule::T2 => "T2",
            Rule::T3 => "T3",
            Rule::E1 => "E1",
            Rule::S1 => "S1",
        }
    }

    /// Parses a rule code (as written in a waiver comment).
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rule> {
        match code.trim() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "U1" => Some(Rule::U1),
            "P1" => Some(Rule::P1),
            "T1" => Some(Rule::T1),
            "R1" => Some(Rule::R1),
            "T2" => Some(Rule::T2),
            "T3" => Some(Rule::T3),
            "E1" => Some(Rule::E1),
            "S1" => Some(Rule::S1),
            _ => None,
        }
    }

    /// Every rule, in report order (pass 1 first, then pass 2).
    pub const ALL: [Rule; 11] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::U1,
        Rule::P1,
        Rule::T1,
        Rule::R1,
        Rule::T2,
        Rule::T3,
        Rule::E1,
        Rule::S1,
    ];
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Result of linting one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Unwaived violations, in source order.
    pub violations: Vec<Violation>,
    /// Violations suppressed by a `lint:allow` waiver.
    pub waived: usize,
    /// The rule of each waived violation (feeds the ratchet's per-rule
    /// counts; `waived == waived_rules.len()`).
    pub waived_rules: Vec<Rule>,
    /// Whether the file contains the `unsafe` keyword (outside strings
    /// and comments). Feeds the crate-level U1 `forbid` check.
    pub contains_unsafe: bool,
    /// Whether the file contains a `forbid(unsafe_code)` attribute.
    pub contains_forbid_unsafe: bool,
}

/// Sanctioned per-file exceptions: `(rule, workspace-relative path, reason)`.
/// Keep this list short and each reason honest — it is the audited
/// counterpart of an inline waiver for exemptions too structural to
/// annotate line by line.
pub const ALLOWLIST: &[(Rule, &str, &str)] = &[
    (
        Rule::D1,
        "crates/simkit/src/time.rs",
        "defines SimTime/SimDuration; doc text mentions wall-clock types",
    ),
    (
        Rule::D1,
        "crates/simkit/src/clock.rs",
        "the simulated clock is the sanctioned replacement for wall time",
    ),
    (
        Rule::D1,
        "crates/bench/src/harness.rs",
        "wall-clock-only reporting path: timings are printed for humans and \
         never feed back into simulated state (see the wallclock module)",
    ),
    (
        Rule::R1,
        "crates/simkit/src/telemetry.rs",
        "lock-free counters use Relaxed adds and aggregate loads; increments \
         are commutative, so per-run totals are order-independent",
    ),
    (
        Rule::R1,
        "crates/simkit/src/clock.rs",
        "the monotonic sim clock advances a single logical timeline; its \
         Relaxed counter never feeds a cross-thread result value",
    ),
    (
        Rule::R1,
        "crates/simkit/src/faultplane.rs",
        "consult/fire counters are commutative Relaxed adds; fault draws are \
         keyed off positional indices, never arrival order",
    ),
    (
        Rule::R1,
        "crates/simkit/src/supervisor.rs",
        "the campaign work queue claims shard indices with Relaxed; results \
         are merged in shard-index order, so claim order cannot leak",
    ),
    (
        Rule::R1,
        "crates/cloud/src/partition.rs",
        "tenant views share one Ssd via Rc<RefCell<..>>, which is !Send: the \
         compiler already forbids it crossing campaign worker threads",
    ),
];

/// Crates whose collections sit on the deterministic result path (D2).
const DETERMINISTIC_CRATES: &[&str] = &[
    "simkit", "dram", "flash", "ftl", "nvme", "fs", "core", "cloud",
];

/// Crates whose library code must return errors instead of panicking (P1).
/// `simkit` is infrastructure, not simulation: its remaining panics are
/// mutex-poisoning `expect`s that cannot trip unless another thread already
/// panicked, so it is deliberately outside the P1 set.
const SIM_CRATES: &[&str] = &["dram", "flash", "ftl", "nvme", "fs", "core", "cloud"];

/// Which build target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileClass {
    /// `src/` of a library crate (or the root facade crate).
    Lib,
    /// An integration-test tree (`tests/`).
    Test,
    /// The bench crate or a `benches/` tree.
    Bench,
    /// `examples/`.
    Example,
    /// A `src/bin/` target.
    Bin,
}

pub(crate) struct FileCtx<'a> {
    rel: &'a str,
    /// `Some("ftl")` for `crates/ftl/...`; `None` for the root crate.
    crate_name: Option<&'a str>,
    class: FileClass,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn of(rel: &'a str) -> Self {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next());
        let class = if rel.starts_with("tests/") || rel.contains("/tests/") {
            FileClass::Test
        } else if crate_name == Some("bench") || rel.contains("/benches/") {
            FileClass::Bench
        } else if rel.starts_with("examples/") || rel.contains("/examples/") {
            FileClass::Example
        } else if rel.contains("/src/bin/") {
            FileClass::Bin
        } else {
            FileClass::Lib
        };
        FileCtx {
            rel,
            crate_name,
            class,
        }
    }

    fn allowlisted(&self, rule: Rule) -> bool {
        ALLOWLIST
            .iter()
            .any(|&(r, path, _)| r == rule && path == self.rel)
    }

    /// Is this file in a crate on the deterministic result path (or the
    /// root facade crate)?
    pub(crate) fn deterministic_crate(&self) -> bool {
        self.crate_name
            .is_none_or(|c| DETERMINISTIC_CRATES.contains(&c))
    }

    /// Whether `rule` governs this file at all (test scope is handled
    /// separately, token by token).
    pub(crate) fn applies(&self, rule: Rule) -> bool {
        if self.allowlisted(rule) {
            return false;
        }
        let not_tooling = self.crate_name != Some("xtask");
        match rule {
            // Wall time, ambient randomness, and unsafe hygiene are banned
            // everywhere, tests included: a nondeterministic test is still
            // a flaky test.
            Rule::D1 | Rule::D3 | Rule::U1 => true,
            Rule::D2 => {
                self.class == FileClass::Lib
                    && self
                        .crate_name
                        .is_none_or(|c| DETERMINISTIC_CRATES.contains(&c))
            }
            Rule::P1 | Rule::E1 => {
                self.class == FileClass::Lib
                    && self.crate_name.is_some_and(|c| SIM_CRATES.contains(&c))
            }
            Rule::T1 | Rule::T2 | Rule::T3 => self.class != FileClass::Test && not_tooling,
            // Shared mutable state is a hazard in any code a campaign shard
            // can execute — library, bin, and the bench drivers alike.
            Rule::R1 => {
                self.class != FileClass::Test && self.class != FileClass::Example && not_tooling
            }
            Rule::S1 => self.class == FileClass::Lib && not_tooling,
        }
    }
}

/// Lints one file's source. `rel` is the workspace-relative path (used for
/// rule scoping and reported in diagnostics); it does not need to exist on
/// disk, which is what lets the fixture tests inject synthetic files into
/// any crate.
#[must_use]
pub fn lint_source(rel: &str, source: &str) -> FileReport {
    lint_tokens(rel, &lex(source))
}

/// Token-level pass-1 lint, for callers (the workspace walker) that lex
/// each file exactly once and reuse the tokens for pass 2.
#[must_use]
pub(crate) fn lint_tokens(rel: &str, tokens: &[Token]) -> FileReport {
    let ctx = FileCtx::of(rel);
    let in_test = test_scope_mask(tokens);
    let waivers = collect_waivers(tokens);
    let mut report = FileReport {
        contains_unsafe: tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .any(|t| t.text == "unsafe"),
        contains_forbid_unsafe: has_forbid_unsafe(tokens),
        ..FileReport::default()
    };

    // Indices of non-comment tokens, for adjacency checks that must see
    // through interleaved comments.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&k| !tokens[k].is_comment())
        .collect();

    for (ci, &k) in code.iter().enumerate() {
        let tok = &tokens[k];
        let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
        let next = code.get(ci + 1).map(|&n| &tokens[n]);
        let next2 = code.get(ci + 2).map(|&n| &tokens[n]);

        let candidate: Option<(Rule, String)> = match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "Instant" | "SystemTime" => Some((
                    Rule::D1,
                    format!(
                        "`{}` is wall-clock time; simulated code must read time \
                         from `simkit::clock`/`simkit::time`",
                        tok.text
                    ),
                )),
                "HashMap" | "HashSet" if !in_test[k] => Some((
                    Rule::D2,
                    format!(
                        "`{}` iteration order is nondeterministic; use \
                         `BTree{}` (or a seeded simkit structure) on the \
                         result path",
                        tok.text,
                        &tok.text[4..]
                    ),
                )),
                "thread_rng" | "ThreadRng" | "getrandom" | "OsRng" | "from_entropy" => Some((
                    Rule::D3,
                    format!(
                        "`{}` is ambient randomness; derive every draw from a \
                         `simkit::rng` seed",
                        tok.text
                    ),
                )),
                "rand" if next.is_some_and(|n| n.text == ":") => Some((
                    Rule::D3,
                    "the `rand` crate is ambient randomness; derive every draw \
                     from a `simkit::rng` seed"
                        .to_string(),
                )),
                "unsafe" if !preceded_by_safety_comment(tokens, k) => Some((
                    Rule::U1,
                    "`unsafe` without a `// SAFETY:` comment on the preceding \
                     line(s)"
                        .to_string(),
                )),
                "unwrap" | "expect"
                    if !in_test[k]
                        && prev.is_some_and(|p| p.text == ".")
                        && next.is_some_and(|n| n.text == "(") =>
                {
                    Some((
                        Rule::P1,
                        format!(
                            "`.{}()` can panic on the library path; return \
                             `ssdhammer::Error` instead",
                            tok.text
                        ),
                    ))
                }
                "panic" if !in_test[k] && next.is_some_and(|n| n.text == "!") => Some((
                    Rule::P1,
                    "`panic!` on the library path; return `ssdhammer::Error` \
                     instead"
                        .to_string(),
                )),
                "counter" | "gauge" | "histogram"
                    if !in_test[k]
                        && prev.is_some_and(|p| p.text == ".")
                        && next.is_some_and(|n| n.text == "(") =>
                {
                    match next2 {
                        Some(name_tok) if name_tok.kind == TokenKind::Str => {
                            let name = name_tok.str_value();
                            if metric_name_ok(name) {
                                None
                            } else {
                                Some((
                                    Rule::T1,
                                    format!(
                                        "metric name `{name}` must be dotted \
                                         `subsystem.metric` (segments matching \
                                         `[a-z0-9_]+`)"
                                    ),
                                ))
                            }
                        }
                        // Dynamically built names can't be checked here;
                        // the registry's naming tests cover those.
                        _ => None,
                    }
                }
                _ => None,
            },
            _ => None,
        };

        let Some((rule, message)) = candidate else {
            continue;
        };
        if !ctx.applies(rule) {
            continue;
        }
        if waivers
            .get(&tok.line)
            .is_some_and(|rules| rules.contains(&rule))
        {
            report.waived += 1;
            report.waived_rules.push(rule);
            continue;
        }
        report.violations.push(Violation {
            rule,
            file: rel.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }
    report
}

/// Does a `// SAFETY:` comment sit on the `unsafe` token's line or within
/// the two lines above it?
fn preceded_by_safety_comment(tokens: &[Token], at: usize) -> bool {
    let line = tokens[at].line;
    tokens.iter().any(|t| {
        t.is_comment() && t.text.contains("SAFETY:") && t.line <= line && t.line + 2 >= line
    })
}

/// Does the token stream contain a `forbid(unsafe_code)` attribute?
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(4).any(|w| {
        w[0].text == "forbid" && w[1].text == "(" && w[2].text == "unsafe_code" && w[3].text == ")"
    })
}

/// Maps source line → rules waived on that line. A trailing waiver covers
/// its own line; a waiver alone on a line covers the next line. Waivers
/// missing the `-- reason` suffix are ignored (and thus suppress nothing).
pub(crate) fn collect_waivers(tokens: &[Token]) -> BTreeMap<u32, Vec<Rule>> {
    let mut map: BTreeMap<u32, Vec<Rule>> = BTreeMap::new();
    for (k, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let Some(rules) = parse_waiver(&tok.text) else {
            continue;
        };
        let trailing = tokens[..k]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let target = if trailing { tok.line } else { tok.line + 1 };
        map.entry(target).or_default().extend(rules);
    }
    map
}

/// Parses `lint:allow(R1, R2) -- reason` out of a comment, returning the
/// named rules. Returns `None` for comments that are not waivers *or* are
/// malformed (unknown rule, missing reason).
fn parse_waiver(comment: &str) -> Option<Vec<Rule>> {
    let rest = comment.split("lint:allow(").nth(1)?;
    let (list, tail) = rest.split_once(')')?;
    let reason = tail.trim_start().strip_prefix("--")?;
    if reason.trim().is_empty() {
        return None;
    }
    list.split(',').map(Rule::from_code).collect()
}

/// Is `name` a well-formed dotted metric name?
fn metric_name_ok(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names() {
        assert!(metric_name_ok("ftl.l2p_reads"));
        assert!(metric_name_ok("dram.ecc.corrected"));
        assert!(metric_name_ok("nvme.qp1.submissions"));
        assert!(!metric_name_ok("activations"));
        assert!(!metric_name_ok("Dram.Activations"));
        assert!(!metric_name_ok("dram..acts"));
        assert!(!metric_name_ok("dram.acts-per-window"));
        assert!(!metric_name_ok(""));
    }

    #[test]
    fn waiver_parsing() {
        assert_eq!(
            parse_waiver("// lint:allow(D2) -- snapshot order is re-sorted"),
            Some(vec![Rule::D2])
        );
        assert_eq!(
            parse_waiver("// lint:allow(D1, P1) -- startup only"),
            Some(vec![Rule::D1, Rule::P1])
        );
        assert_eq!(parse_waiver("// lint:allow(D2)"), None, "reason required");
        assert_eq!(parse_waiver("// lint:allow(Z9) -- what"), None);
        assert_eq!(parse_waiver("// plain comment"), None);
    }

    #[test]
    fn file_classes() {
        assert_eq!(FileCtx::of("crates/ftl/src/ftl.rs").class, FileClass::Lib);
        assert_eq!(FileCtx::of("crates/ftl/tests/x.rs").class, FileClass::Test);
        assert_eq!(FileCtx::of("tests/determinism.rs").class, FileClass::Test);
        assert_eq!(
            FileCtx::of("crates/bench/src/harness.rs").class,
            FileClass::Bench
        );
        assert_eq!(
            FileCtx::of("crates/nvme/src/bin/tool.rs").class,
            FileClass::Bin
        );
        assert_eq!(
            FileCtx::of("examples/quickstart.rs").class,
            FileClass::Example
        );
        assert_eq!(FileCtx::of("src/lib.rs").crate_name, None);
        assert_eq!(
            FileCtx::of("crates/dram/src/module.rs").crate_name,
            Some("dram")
        );
    }

    #[test]
    fn d2_scoping_by_crate_and_class() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            lint_source("crates/ftl/src/ftl.rs", src).violations.len(),
            1
        );
        // bench is off the result path.
        assert!(lint_source("crates/bench/src/fig1.rs", src)
            .violations
            .is_empty());
        // xtask is tooling.
        assert!(lint_source("crates/xtask/src/rules.rs", src)
            .violations
            .is_empty());
        // tests are exempt.
        assert!(lint_source("crates/ftl/tests/t.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn waived_violations_are_counted_not_reported() {
        let src = "\
// lint:allow(D2) -- bounded map, drained sorted before use
use std::collections::HashMap;
use std::collections::HashSet;
";
        let rep = lint_source("crates/ftl/src/ftl.rs", src);
        assert_eq!(rep.waived, 1);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].line, 3);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let rep = lint_source("crates/ftl/src/x.rs", bad);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, Rule::U1);
        assert!(rep.contains_unsafe);

        let good = "fn f() {\n    // SAFETY: provably unreachable, guarded above\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(lint_source("crates/ftl/src/x.rs", good)
            .violations
            .is_empty());
    }

    #[test]
    fn forbid_detection() {
        let rep = lint_source("crates/ftl/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(rep.contains_forbid_unsafe);
        assert!(!rep.contains_unsafe);
    }

    #[test]
    fn p1_sees_through_strings_and_tests() {
        let src = "\
fn lib() -> Result<(), ()> { let s = \"x.unwrap()\"; Ok(()) }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }
}
";
        assert!(lint_source("crates/fs/src/fs.rs", src)
            .violations
            .is_empty());
    }
}
