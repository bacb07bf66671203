//! Pass 2: workspace-level rules on the symbol graph.
//!
//! The per-file pass ([`crate::rules`]) cannot see the hazards that
//! actually break the stack's load-bearing guarantee — byte-identical
//! campaign output at any `--threads` count — because those hazards are
//! relationships *between* files. This pass runs on the
//! [`crate::symgraph`] view of every file at once:
//!
//! * **R1 — determinism race.** `static mut`, `static`s with
//!   interior-mutability types, `Ordering::Relaxed` in deterministic
//!   crates, and `Cell`/`RefCell`/`Rc` in functions reachable from a
//!   `simkit::supervisor::Supervisor` shard closure (computed over the
//!   name-based call graph). Shared mutable state a worker can reach is
//!   how 1-thread and 4-thread runs diverge.
//! * **T2 — telemetry registry.** Every dotted telemetry name the
//!   workspace registers, looks up, or traces must appear in the committed
//!   `TELEMETRY.md` registry, and every registry entry must be live —
//!   both directions diagnosed with spans. Dynamic names
//!   (`format!("nvme.qp{}.aborts", …)`) match wildcard entries
//!   (`nvme.qp*.aborts`).
//! * **T3 — fuzz telemetry strictness.** `fuzz.*` names are the fuzz
//!   engine's triage surface, so they get a tighter contract: static
//!   literals only, each with an exact `TELEMETRY.md` entry, and no
//!   wildcarded `fuzz.*` registry entries.
//! * **E1 — swallowed result.** `let _ = fallible(…);` discarding a value
//!   from a function the symbol table knows returns `Result`, and
//!   statement-position `.ok();`, in sim-crate library code. The ftl
//!   recovery and nvme retry paths are the motivating targets: a dropped
//!   error there silently un-makes the fault model.
//! * **S1 — seed hygiene.** RNG construction (`seeded`, `seed_from_u64`,
//!   `derive_seed`, `Supervisor::new`) from a bare numeric literal in
//!   library code. Seeds must be plumbed from configuration so every
//!   stream stays reproducible *and* steerable; hard-coded seeds belong
//!   in tests and the bench harness's `wallclock` module only.
//!
//! Inline `lint:allow(…) -- reason` waivers and the [`crate::rules::ALLOWLIST`]
//! apply to pass-2 rules exactly as they do to pass-1 rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::lex;
use crate::rules::{collect_waivers, FileCtx, Rule, Violation};
use crate::symgraph::{extract, DiscardKind, FileSyms, StaticSym, TelemetryLit};

/// Crate-level summary of the symbol graph, reported in `--json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymStats {
    /// Files in the graph.
    pub files: usize,
    /// Function items extracted.
    pub fns: usize,
    /// `pub` function items.
    pub pub_fns: usize,
    /// Call edges recorded across all bodies.
    pub call_edges: usize,
    /// `use` edges (crate-level module graph).
    pub use_edges: usize,
    /// Telemetry-name literals collected.
    pub telemetry_literals: usize,
    /// Functions reachable from a `Supervisor` shard closure.
    pub campaign_reachable: usize,
}

/// Result of the workspace pass.
#[derive(Debug, Clone, Default)]
pub struct Pass2Report {
    /// Unwaived violations, unsorted (the caller merges and sorts).
    pub violations: Vec<Violation>,
    /// Rules of violations suppressed by waivers, one entry each.
    pub waived: Vec<Rule>,
    /// Graph summary.
    pub stats: SymStats,
}

/// The pass-2 analysis unit: symbol views of every file plus the
/// telemetry registry text.
#[derive(Debug, Default)]
pub struct Workspace {
    files: Vec<FileEntry>,
    registry: Option<String>,
}

#[derive(Debug)]
struct FileEntry {
    syms: FileSyms,
    waivers: BTreeMap<u32, Vec<Rule>>,
}

impl Workspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Adds one file from source text (lexes internally). `rel` scopes the
    /// rules exactly as in pass 1 and need not exist on disk.
    pub fn add_source(&mut self, rel: &str, source: &str) {
        let tokens = lex(source);
        self.files.push(FileEntry {
            syms: extract(rel, &tokens),
            waivers: collect_waivers(&tokens),
        });
    }

    /// Adds one file from pre-extracted symbols and waivers (the walker's
    /// path, which lexes each file exactly once).
    pub fn add_file(&mut self, syms: FileSyms, waivers: BTreeMap<u32, Vec<Rule>>) {
        self.files.push(FileEntry { syms, waivers });
    }

    /// Installs the `TELEMETRY.md` registry text. Without it, T2 reports
    /// the registry as missing.
    pub fn set_registry(&mut self, text: &str) {
        self.registry = Some(text.to_string());
    }

    /// Runs every workspace rule and applies waivers.
    #[must_use]
    pub fn analyze(&self) -> Pass2Report {
        let mut raw: Vec<Violation> = Vec::new();
        let reachable = self.campaign_reachable();
        self.rule_r1(&reachable, &mut raw);
        self.rule_t2(&mut raw);
        self.rule_t3(&mut raw);
        self.rule_e1(&mut raw);
        self.rule_s1(&mut raw);

        // Waiver filtering: a waiver covers pass-2 findings on its line
        // exactly as in pass 1. Registry-side T2 findings anchor at
        // TELEMETRY.md and cannot be inline-waived.
        let mut report = Pass2Report {
            stats: self.stats(&reachable),
            ..Pass2Report::default()
        };
        for v in raw {
            let waived = self
                .files
                .iter()
                .find(|f| f.syms.rel == v.file)
                .and_then(|f| f.waivers.get(&v.line))
                .is_some_and(|rules| rules.contains(&v.rule));
            if waived {
                report.waived.push(v.rule);
            } else {
                report.violations.push(v);
            }
        }
        report
    }

    fn stats(&self, reachable: &BTreeSet<(usize, usize)>) -> SymStats {
        let mut s = SymStats {
            files: self.files.len(),
            campaign_reachable: reachable.len(),
            ..SymStats::default()
        };
        for f in &self.files {
            s.fns += f.syms.fns.len();
            s.pub_fns += f.syms.fns.iter().filter(|f| f.is_pub).count();
            s.call_edges += f.syms.fns.iter().map(|f| f.calls.len()).sum::<usize>();
            s.use_edges += f.syms.uses.len();
            s.telemetry_literals += f.syms.telemetry.len();
        }
        s
    }

    /// Functions reachable from any `Supervisor`-using function, as
    /// `(file index, fn index)` pairs, over the name-based call graph.
    /// Test-scope functions are neither roots nor targets.
    fn campaign_reachable(&self) -> BTreeSet<(usize, usize)> {
        // Index: simple name → fn ids; (owner, name) → fn ids.
        let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in self.files.iter().enumerate() {
            for (gi, g) in f.syms.fns.iter().enumerate() {
                if g.in_test {
                    continue;
                }
                by_name.entry(&g.name).or_default().push((fi, gi));
                if let Some(owner) = &g.owner {
                    by_owner.entry((owner, &g.name)).or_default().push((fi, gi));
                }
            }
        }
        let mut reachable: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            for (gi, g) in f.syms.fns.iter().enumerate() {
                if g.uses_campaign && !g.in_test && reachable.insert((fi, gi)) {
                    work.push((fi, gi));
                }
            }
        }
        while let Some((fi, gi)) = work.pop() {
            let f = &self.files[fi].syms.fns[gi];
            for call in &f.calls {
                let targets: &[(usize, usize)] = match &call.qualifier {
                    Some(q) => by_owner
                        .get(&(q.as_str(), call.name.as_str()))
                        .map_or(&[], Vec::as_slice),
                    None => by_name.get(call.name.as_str()).map_or(&[], Vec::as_slice),
                };
                for &t in targets {
                    if reachable.insert(t) {
                        work.push(t);
                    }
                }
            }
        }
        reachable
    }

    /// R1 — determinism races.
    fn rule_r1(&self, reachable: &BTreeSet<(usize, usize)>, out: &mut Vec<Violation>) {
        for (fi, f) in self.files.iter().enumerate() {
            let ctx = FileCtx::of(&f.syms.rel);
            if !ctx.applies(Rule::R1) {
                continue;
            }
            for s in &f.syms.statics {
                if s.in_test {
                    continue;
                }
                if s.is_mut {
                    out.push(violation(
                        Rule::R1,
                        &f.syms.rel,
                        s,
                        format!(
                            "`static mut {}` is shared mutable state; campaign \
                             workers racing on it break thread-count determinism",
                            s.name
                        ),
                    ));
                } else if let Some(ty) = &s.interior_mut {
                    out.push(violation(
                        Rule::R1,
                        &f.syms.rel,
                        s,
                        format!(
                            "`static {}: …{ty}…` has interior mutability; \
                             shared mutable state breaks thread-count determinism",
                            s.name
                        ),
                    ));
                }
            }
            for (gi, g) in f.syms.fns.iter().enumerate() {
                if g.in_test {
                    continue;
                }
                let in_campaign = reachable.contains(&(fi, gi));
                for (name, line, col) in &g.suspects {
                    if name == "Relaxed" {
                        if ctx.deterministic_crate() {
                            out.push(Violation {
                                rule: Rule::R1,
                                file: f.syms.rel.clone(),
                                line: *line,
                                col: *col,
                                message: "`Ordering::Relaxed` on a deterministic-crate \
                                          atomic: relaxed loads feeding result values \
                                          can observe thread-dependent orderings"
                                    .into(),
                            });
                        }
                    } else if in_campaign {
                        out.push(Violation {
                            rule: Rule::R1,
                            file: f.syms.rel.clone(),
                            line: *line,
                            col: *col,
                            message: format!(
                                "`{name}` in `{}`, which is reachable from a \
                                 `Supervisor` shard closure; interior mutability \
                                 shared across trials breaks thread-count \
                                 determinism",
                                g.name
                            ),
                        });
                    }
                }
            }
        }
    }

    /// T2 — telemetry names vs. the committed registry, both directions.
    fn rule_t2(&self, out: &mut Vec<Violation>) {
        let lits: Vec<(&FileSyms, &TelemetryLit)> = self
            .files
            .iter()
            .filter(|f| FileCtx::of(&f.syms.rel).applies(Rule::T2))
            .flat_map(|f| {
                f.syms
                    .telemetry
                    .iter()
                    .filter(|t| !t.in_test)
                    .map(move |t| (&f.syms, t))
            })
            .collect();
        let Some(registry_text) = &self.registry else {
            // A workspace that emits telemetry must commit the registry;
            // one that emits none has nothing to register.
            if !lits.is_empty() {
                out.push(Violation {
                    rule: Rule::T2,
                    file: "TELEMETRY.md".into(),
                    line: 1,
                    col: 1,
                    message: "TELEMETRY.md is missing: every dotted telemetry \
                              name must be enumerated in the committed registry"
                        .into(),
                });
            }
            return;
        };
        let entries = parse_registry(registry_text);

        // Forward: every name used in code appears in the registry.
        for (syms, lit) in &lits {
            let probe = probe_name(lit);
            if !entries.iter().any(|e| glob_match(&e.name, &probe)) {
                out.push(Violation {
                    rule: Rule::T2,
                    file: syms.rel.clone(),
                    line: lit.line,
                    col: lit.col,
                    message: format!(
                        "telemetry name `{}` is not in TELEMETRY.md; register it \
                         (wildcard entries like `nvme.qp*.aborts` cover \
                         format!-built names)",
                        lit.name
                    ),
                });
            }
        }
        // Reverse: every registry entry is live somewhere in the workspace.
        for e in &entries {
            let live = lits
                .iter()
                .any(|(_, lit)| glob_match(&e.name, &probe_name(lit)));
            if !live {
                out.push(Violation {
                    rule: Rule::T2,
                    file: "TELEMETRY.md".into(),
                    line: e.line,
                    col: 1,
                    message: format!(
                        "registry entry `{}` matches no telemetry name in the \
                         workspace; delete it or wire the metric back up",
                        e.name
                    ),
                });
            }
        }
    }

    /// T3 — fuzz telemetry strictness. The fuzz engine's counters are the
    /// triage surface for divergences, so `fuzz.*` names are held to a
    /// tighter contract than T2's: every `fuzz.*` name in code must be a
    /// static literal (no `format!`-built names — a dynamic name can't be
    /// audited against a replayed corpus case), every such literal must
    /// have an *exact* registry entry, and `fuzz.*` registry entries must
    /// be glob-free (a wildcard would let unregistered counters hide).
    fn rule_t3(&self, out: &mut Vec<Violation>) {
        let entries = self
            .registry
            .as_deref()
            .map(parse_registry)
            .unwrap_or_default();
        for f in self
            .files
            .iter()
            .filter(|f| FileCtx::of(&f.syms.rel).applies(Rule::T3))
        {
            for lit in f.syms.telemetry.iter().filter(|t| !t.in_test) {
                if !lit.name.starts_with("fuzz.") {
                    continue;
                }
                if lit.dynamic {
                    out.push(Violation {
                        rule: Rule::T3,
                        file: f.syms.rel.clone(),
                        line: lit.line,
                        col: lit.col,
                        message: format!(
                            "fuzz telemetry name `{}` is format!-built; fuzz.* \
                             metric names must be static literals so they stay \
                             auditable against TELEMETRY.md and replayed corpus \
                             cases",
                            lit.name
                        ),
                    });
                } else if !entries.iter().any(|e| e.name == lit.name) {
                    out.push(Violation {
                        rule: Rule::T3,
                        file: f.syms.rel.clone(),
                        line: lit.line,
                        col: lit.col,
                        message: format!(
                            "fuzz telemetry name `{}` has no exact TELEMETRY.md \
                             entry; fuzz.* names must be registered verbatim \
                             (wildcards do not count)",
                            lit.name
                        ),
                    });
                }
            }
        }
        for e in entries
            .iter()
            .filter(|e| e.name.starts_with("fuzz.") && e.name.contains('*'))
        {
            out.push(Violation {
                rule: Rule::T3,
                file: "TELEMETRY.md".into(),
                line: e.line,
                col: 1,
                message: format!(
                    "fuzz registry entry `{}` uses a wildcard; fuzz.* metrics \
                     must be enumerated exactly so none can hide behind a glob",
                    e.name
                ),
            });
        }
    }

    /// E1 — swallowed `Result`s in sim-crate library code.
    fn rule_e1(&self, out: &mut Vec<Violation>) {
        // Workspace-wide set of Result-returning functions.
        let mut result_names: BTreeSet<&str> = BTreeSet::new();
        let mut result_owned: BTreeSet<(&str, &str)> = BTreeSet::new();
        for f in &self.files {
            for g in &f.syms.fns {
                if g.returns_result && !g.in_test {
                    result_names.insert(&g.name);
                    if let Some(owner) = &g.owner {
                        result_owned.insert((owner, &g.name));
                    }
                }
            }
        }
        for f in &self.files {
            let ctx = FileCtx::of(&f.syms.rel);
            if !ctx.applies(Rule::E1) {
                continue;
            }
            for d in &f.syms.discards {
                if d.in_test || d.propagates {
                    continue;
                }
                match d.kind {
                    DiscardKind::OkSemicolon => out.push(Violation {
                        rule: Rule::E1,
                        file: f.syms.rel.clone(),
                        line: d.line,
                        col: d.col,
                        message: "statement-position `.ok()` drops the error arm; \
                                  handle the `Err` or propagate it"
                            .into(),
                    }),
                    DiscardKind::LetUnderscore => {
                        let Some(callee) = &d.callee else { continue };
                        let known_result = match &callee.qualifier {
                            Some(q) => result_owned.contains(&(q.as_str(), callee.name.as_str())),
                            None => result_names.contains(callee.name.as_str()),
                        };
                        if known_result {
                            out.push(Violation {
                                rule: Rule::E1,
                                file: f.syms.rel.clone(),
                                line: d.line,
                                col: d.col,
                                message: format!(
                                    "`let _ =` discards the `Result` from \
                                     `{}`; handle the `Err` or propagate it",
                                    callee.name
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    /// S1 — literal RNG seeds in library code.
    fn rule_s1(&self, out: &mut Vec<Violation>) {
        for f in &self.files {
            let ctx = FileCtx::of(&f.syms.rel);
            if !ctx.applies(Rule::S1) {
                continue;
            }
            for s in &f.syms.seeds {
                if s.in_test {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::S1,
                    file: f.syms.rel.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "`{}({}, …)` constructs an RNG from a hard-coded seed on \
                         the library path; plumb the seed from configuration",
                        s.ctor, s.literal
                    ),
                });
            }
        }
    }
}

fn violation(rule: Rule, rel: &str, s: &StaticSym, message: String) -> Violation {
    Violation {
        rule,
        file: rel.to_string(),
        line: s.line,
        col: s.col,
        message,
    }
}

/// The probe string a literal contributes to registry matching: dynamic
/// names substitute `x` for each wildcard so `nvme.qp*.aborts` matches the
/// registry entry `nvme.qp*.aborts` but not `nvme.qp1.aborts`.
fn probe_name(lit: &TelemetryLit) -> String {
    if lit.dynamic {
        lit.name.replace('*', "x")
    } else {
        lit.name.clone()
    }
}

/// One parsed registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The (possibly wildcarded) name between backticks.
    pub name: String,
    /// 1-based line in TELEMETRY.md.
    pub line: u32,
}

/// Parses registry entries out of TELEMETRY.md: bullet lines of the form
/// `` - `name` — description ``. Anything else is prose and ignored.
#[must_use]
pub fn parse_registry(text: &str) -> Vec<RegistryEntry> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = trimmed
            .strip_prefix('-')
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('`'))
        else {
            continue;
        };
        let Some((name, _)) = rest.split_once('`') else {
            continue;
        };
        if name.contains('.') {
            entries.push(RegistryEntry {
                name: name.to_string(),
                line: (i + 1) as u32,
            });
        }
    }
    entries
}

/// Glob match where `*` matches any run of characters (including empty,
/// across segment boundaries). Iterative with backtracking.
#[must_use]
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_with(files: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::new();
        for (rel, src) in files {
            ws.add_source(rel, src);
        }
        ws
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("nvme.qp*.aborts", "nvme.qp1.aborts"));
        assert!(glob_match("nvme.qp*.aborts", "nvme.qpx.aborts"));
        assert!(glob_match("fault.*.fired", "fault.nvme.timeout.fired"));
        assert!(glob_match("ftl.l2p_reads", "ftl.l2p_reads"));
        assert!(!glob_match("ftl.l2p_reads", "ftl.l2p_writes"));
        assert!(!glob_match("fault.*.fired", "fault.consults"));
    }

    #[test]
    fn registry_parsing() {
        let text = "\
# Registry

Prose about `dotted.names` is ignored.

## Counters
- `ftl.l2p_reads` — L2P lookups served
-   `nvme.qp*.aborts` — per-queue aborts
- not an entry
";
        let entries = parse_registry(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "ftl.l2p_reads");
        assert_eq!(entries[0].line, 6);
        assert_eq!(entries[1].name, "nvme.qp*.aborts");
    }

    #[test]
    fn r1_flags_static_mut_and_interior_statics() {
        let ws = ws_with(&[(
            "crates/ftl/src/x.rs",
            "static mut HITS: u64 = 0;\nstatic CACHE: RefCell<u32> = make();\n",
        )]);
        let report = ws.analyze();
        let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::R1, Rule::R1]);
    }

    #[test]
    fn r1_flags_refcell_reachable_from_campaign() {
        let ws = ws_with(&[
            (
                "crates/bench/src/camp.rs",
                "fn shard(seed: u64) { Supervisor::new(seed).run(4, |ctx| helper(ctx.trial.index)); }\n",
            ),
            (
                "crates/ftl/src/helper.rs",
                "pub fn helper(i: usize) -> usize { let c = std::cell::RefCell::new(i); *c.borrow() }\n",
            ),
            (
                "crates/ftl/src/unreached.rs",
                "pub fn lonely(i: usize) -> usize { let c = std::cell::RefCell::new(i); *c.borrow() }\n",
            ),
        ]);
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].file, "crates/ftl/src/helper.rs");
        assert_eq!(report.violations[0].rule, Rule::R1);
    }

    #[test]
    fn r1_flags_relaxed_only_in_deterministic_crates() {
        let src = "pub fn claim(n: &AtomicUsize) -> usize { n.fetch_add(1, Ordering::Relaxed) }\n";
        let ws = ws_with(&[("crates/ftl/src/q.rs", src), ("crates/bench/src/q.rs", src)]);
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].file, "crates/ftl/src/q.rs");
        assert_eq!(report.violations[0].rule, Rule::R1);
    }

    #[test]
    fn t2_both_directions() {
        let mut ws = ws_with(&[(
            "crates/ftl/src/x.rs",
            "fn wire(tel: &Telemetry) { tel.counter(\"ftl.l2p_reads\").add(1); \
             tel.counter(\"ftl.unregistered\").add(1); }\n",
        )]);
        ws.set_registry("- `ftl.l2p_reads` — lookups\n- `ftl.dead_entry` — gone\n");
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report
            .violations
            .iter()
            .any(|v| v.file == "crates/ftl/src/x.rs" && v.message.contains("ftl.unregistered")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.file == "TELEMETRY.md" && v.message.contains("ftl.dead_entry")));
    }

    #[test]
    fn t2_missing_registry_is_one_violation() {
        let ws = ws_with(&[(
            "crates/ftl/src/x.rs",
            "fn wire(tel: &Telemetry) { tel.counter(\"ftl.l2p_reads\").add(1); }\n",
        )]);
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("missing"));
    }

    #[test]
    fn t2_dynamic_names_match_wildcards() {
        let mut ws = ws_with(&[(
            "crates/nvme/src/x.rs",
            "fn wire(tel: &Telemetry, id: u32) { \
             tel.counter(&format!(\"nvme.qp{}.aborts\", id)).add(1); }\n",
        )]);
        ws.set_registry("- `nvme.qp*.aborts` — per-queue aborts\n");
        assert!(ws.analyze().violations.is_empty());
    }

    #[test]
    fn t3_fuzz_names_must_be_static_and_exactly_registered() {
        let mut ws = ws_with(&[(
            "crates/bench/src/x.rs",
            "fn wire(tel: &Telemetry, i: u32) { \
             tel.counter(\"fuzz.episodes\").add(1); \
             tel.counter(\"fuzz.unlisted\").add(1); \
             tel.counter(&format!(\"fuzz.bucket{}.hits\", i)).add(1); }\n",
        )]);
        ws.set_registry(
            "- `fuzz.episodes` — episodes run\n\
             - `fuzz.bucket*.hits` — per-bucket hits\n",
        );
        let report = ws.analyze();
        let t3: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == Rule::T3)
            .collect();
        // Unregistered exact name, dynamic name, and the wildcard registry
        // entry each fire; the exactly-registered static name does not.
        assert_eq!(t3.len(), 3, "{t3:?}");
        assert!(t3
            .iter()
            .any(|v| v.message.contains("fuzz.unlisted") && v.message.contains("no exact")));
        assert!(t3.iter().any(|v| v.message.contains("format!-built")));
        assert!(t3
            .iter()
            .any(|v| v.file == "TELEMETRY.md" && v.message.contains("wildcard")));
    }

    #[test]
    fn t3_is_silent_for_exact_static_registrations() {
        let mut ws = ws_with(&[(
            "crates/bench/src/x.rs",
            "fn wire(tel: &Telemetry) { tel.counter(\"fuzz.divergences\").add(1); }\n",
        )]);
        ws.set_registry("- `fuzz.divergences` — oracle divergences\n");
        let report = ws.analyze();
        assert!(
            report.violations.iter().all(|v| v.rule != Rule::T3),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn e1_flags_known_result_discards_only() {
        let ws = ws_with(&[(
            "crates/ftl/src/x.rs",
            "\
pub fn fallible() -> Result<u32, ()> { Ok(1) }
pub fn infallible() -> u32 { 1 }
pub fn caller() {
    let _ = fallible();
    let _ = infallible();
    let _ = fallible()?;
}
",
        )]);
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, Rule::E1);
        assert_eq!(report.violations[0].line, 4);
    }

    #[test]
    fn e1_flags_statement_ok() {
        let ws = ws_with(&[(
            "crates/nvme/src/x.rs",
            "pub fn retry(&mut self) { self.resubmit().ok(); }\n",
        )]);
        let report = ws.analyze();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains(".ok()"));
    }

    #[test]
    fn e1_exempts_bench_and_tests() {
        let src =
            "pub fn fallible() -> Result<u32, ()> { Ok(1) }\npub fn c() { let _ = fallible(); }\n";
        assert!(ws_with(&[("crates/bench/src/x.rs", src)])
            .analyze()
            .violations
            .is_empty());
        assert!(ws_with(&[("crates/ftl/tests/x.rs", src)])
            .analyze()
            .violations
            .is_empty());
    }

    #[test]
    fn s1_flags_literal_seeds_in_lib_only() {
        let src = "pub fn f() { let mut rng = seeded(42); }\n";
        let report = ws_with(&[("crates/dram/src/x.rs", src)]).analyze();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, Rule::S1);
        assert!(ws_with(&[("crates/bench/src/x.rs", src)])
            .analyze()
            .violations
            .is_empty());
        assert!(ws_with(&[("examples/demo.rs", src)])
            .analyze()
            .violations
            .is_empty());
    }

    #[test]
    fn waivers_suppress_pass2_rules() {
        let src = "\
pub fn fallible() -> Result<u32, ()> { Ok(1) }
pub fn caller() {
    let _ = fallible(); // lint:allow(E1) -- best effort: failure leaves the mirror stale
}
";
        let report = ws_with(&[("crates/ftl/src/x.rs", src)]).analyze();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.waived, vec![Rule::E1]);
    }
}
