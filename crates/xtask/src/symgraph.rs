//! Pass 2's symbol table: a lightweight, lexer-level view of every file.
//!
//! The per-file linter ([`crate::rules`]) judges tokens and their immediate
//! neighbors; the cross-file rules ([`crate::wsrules`]) need more — which
//! functions exist, what they call, whether they return `Result`, which
//! telemetry names the file registers, where `static`s with interior
//! mutability hide. This module extracts exactly that from the token
//! stream: no type inference, no name resolution beyond simple names and
//! `Type::method` qualifiers, but enough structure to build a workspace
//! call graph and run the R1/T2/E1/S1 rules on it.
//!
//! Extraction is intentionally conservative where it must guess (a missed
//! call edge under-approximates reachability; a missed `Result` return
//! under-approximates E1), because a workspace lint that cries wolf gets
//! waived into silence.

use crate::lexer::{lex, test_scope_mask, Token, TokenKind};

/// One `use` declaration's first path segment (`crate`, `std`,
/// `ssdhammer_simkit`, …): the module/use graph at crate granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEdge {
    /// First segment of the `use` path.
    pub root: String,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

/// A call site recorded inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// `Some("Ssd")` for `Ssd::build(…)`; `None` for `build(…)`/`.build(…)`.
    pub qualifier: Option<String>,
    /// The called name.
    pub name: String,
}

/// One function item (free or inherent/trait method).
#[derive(Debug, Clone, Default)]
pub struct FnSym {
    /// The function's name.
    pub name: String,
    /// The `impl` target type when the fn lives inside an `impl` block.
    pub owner: Option<String>,
    /// Whether the item is `pub` (any visibility flavor).
    pub is_pub: bool,
    /// Whether the item sits inside test-only code.
    pub in_test: bool,
    /// 1-based position of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Whether the declared return type mentions `Result`.
    pub returns_result: bool,
    /// Every call edge found in the body.
    pub calls: Vec<CallRef>,
    /// Whether the body mentions `Supervisor` (a campaign root: its shard
    /// closures run on worker threads).
    pub uses_campaign: bool,
    /// Shared-mutable-state suspects mentioned in the body:
    /// `(ident, line, col)` for `Cell`/`RefCell`/`Rc`/`Relaxed`.
    pub suspects: Vec<(String, u32, u32)>,
}

/// A `static` item.
#[derive(Debug, Clone)]
pub struct StaticSym {
    /// The static's name.
    pub name: String,
    /// `static mut`.
    pub is_mut: bool,
    /// The interior-mutability type found in the declared type, if any.
    pub interior_mut: Option<String>,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// 1-based column of the `static` keyword.
    pub col: u32,
    /// Whether the item sits inside test-only code.
    pub in_test: bool,
}

/// How a telemetry name literal was written at its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryKind {
    /// `registry.counter("…")` / `.gauge` / `.histogram` / `.counter_value`.
    Metric,
    /// The kind argument of `registry.trace(now, "…", …)`.
    Trace,
}

/// One telemetry-name literal with its span.
#[derive(Debug, Clone)]
pub struct TelemetryLit {
    /// The literal name — with every `format!` placeholder collapsed to
    /// `*` for dynamically built names (`nvme.qp{}.aborts` → `nvme.qp*.aborts`).
    pub name: String,
    /// Whether the name came through `format!` (wildcarded).
    pub dynamic: bool,
    /// Metric registration/lookup vs. trace kind.
    pub kind: TelemetryKind,
    /// 1-based line of the literal.
    pub line: u32,
    /// 1-based column of the literal.
    pub col: u32,
    /// Whether the call sits inside test-only code.
    pub in_test: bool,
}

/// An RNG construction whose seed argument is a bare numeric literal.
#[derive(Debug, Clone)]
pub struct SeedSite {
    /// The constructor (`seeded`, `seed_from_u64`, `derive_seed`,
    /// `Supervisor::new`).
    pub ctor: String,
    /// The literal seed as written.
    pub literal: String,
    /// 1-based line of the constructor ident.
    pub line: u32,
    /// 1-based column of the constructor ident.
    pub col: u32,
    /// Whether the call sits inside test-only code.
    pub in_test: bool,
}

/// How a `Result` gets discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardKind {
    /// `let _ = expr;`
    LetUnderscore,
    /// A statement ending in `.ok();`
    OkSemicolon,
}

/// A candidate swallowed-`Result` site; E1 decides once the workspace-wide
/// set of `Result`-returning functions is known.
#[derive(Debug, Clone)]
pub struct DiscardSite {
    /// The discard shape.
    pub kind: DiscardKind,
    /// The last call at paren-depth 0 in the discarded expression.
    pub callee: Option<CallRef>,
    /// Whether the expression propagates with a trailing `?` (not a discard).
    pub propagates: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Whether the statement sits inside test-only code.
    pub in_test: bool,
}

/// Everything pass 2 knows about one file.
#[derive(Debug, Clone, Default)]
pub struct FileSyms {
    /// Workspace-relative path.
    pub rel: String,
    /// `use` edges (crate-level module graph).
    pub uses: Vec<UseEdge>,
    /// Function items.
    pub fns: Vec<FnSym>,
    /// `static` items.
    pub statics: Vec<StaticSym>,
    /// Telemetry-name literals.
    pub telemetry: Vec<TelemetryLit>,
    /// Literal-seed RNG constructions.
    pub seeds: Vec<SeedSite>,
    /// Swallowed-`Result` candidates.
    pub discards: Vec<DiscardSite>,
}

/// Idents that signal interior mutability in a `static`'s type.
const STATIC_INTERIOR: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Mutex",
    "RwLock",
];

/// Idents tracked as shared-mutable-state suspects in function bodies:
/// interior-mutability types (R1 flags them where a campaign shard can
/// reach them) and `Relaxed` orderings (flagged anywhere in a deterministic
/// crate).
const BODY_SUSPECTS: &[&str] = &["Cell", "RefCell", "Rc", "Relaxed"];

/// RNG constructors whose first argument S1 audits.
const SEED_CTORS: &[&str] = &["seeded", "seed_from_u64", "derive_seed"];

/// Telemetry registration/lookup methods whose first argument is a name.
const METRIC_METHODS: &[&str] = &["counter", "gauge", "histogram", "counter_value"];

/// Extracts the symbol view of one file from source text.
#[must_use]
pub fn extract_source(rel: &str, source: &str) -> FileSyms {
    extract(rel, &lex(source))
}

/// Extracts the symbol view of one file from its token stream.
#[must_use]
pub fn extract(rel: &str, tokens: &[Token]) -> FileSyms {
    let in_test = test_scope_mask(tokens);
    // Code-token indices: all structure below sees through comments.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&k| !tokens[k].is_comment())
        .collect();
    let mut syms = FileSyms {
        rel: rel.to_string(),
        ..FileSyms::default()
    };

    // Running brace depth per code-token position, and the stack of `impl`
    // owners keyed by the depth their block opened at.
    let mut depth = 0usize;
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();

    let mut ci = 0usize;
    while ci < code.len() {
        let k = code[ci];
        let tok = &tokens[k];
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if impl_stack.last().is_some_and(|(d, _)| *d == depth) {
                    impl_stack.pop();
                }
            }
            (TokenKind::Ident, "use") => {
                if let Some(&n) = code.get(ci + 1) {
                    if tokens[n].kind == TokenKind::Ident {
                        syms.uses.push(UseEdge {
                            root: tokens[n].text.clone(),
                            line: tok.line,
                        });
                    }
                }
            }
            (TokenKind::Ident, "impl") => {
                if let Some((owner, body_ci)) = parse_impl_header(tokens, &code, ci) {
                    impl_stack.push((depth, owner));
                    depth += 1; // consume the `{`
                    ci = body_ci;
                    continue;
                }
            }
            (TokenKind::Ident, "fn") => {
                let owner = impl_stack.last().and_then(|(_, o)| o.clone());
                if let Some((fn_sym, next_ci)) = parse_fn(tokens, &code, ci, owner, &in_test) {
                    syms.fns.push(fn_sym);
                    // Continue *into* the body (next_ci points at its `{`)
                    // so pointwise scans and nested items still run; the
                    // signature tokens were consumed here.
                    ci = next_ci;
                    continue;
                }
            }
            (TokenKind::Ident, "static") => {
                if let Some(s) = parse_static(tokens, &code, ci, &in_test) {
                    syms.statics.push(s);
                }
            }
            (TokenKind::Ident, "let") => {
                if let Some(d) = parse_let_underscore(tokens, &code, ci, &in_test) {
                    syms.discards.push(d);
                }
            }
            _ => {}
        }
        scan_pointwise(tokens, &code, ci, &in_test, &mut syms);
        ci += 1;
    }
    syms
}

/// Point checks that need no item context: telemetry literals, literal
/// seeds, and `.ok();` statements. Runs on every code token, including
/// tokens inside fn bodies that [`parse_fn`] also walks (those record into
/// the fn's own lists separately).
fn scan_pointwise(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
    in_test: &[bool],
    syms: &mut FileSyms,
) {
    let k = code[ci];
    let tok = &tokens[k];
    if tok.kind != TokenKind::Ident {
        return;
    }
    let prev_dot = ci
        .checked_sub(1)
        .is_some_and(|p| tokens[code[p]].text == ".");
    let next_paren = code.get(ci + 1).is_some_and(|&n| tokens[n].text == "(");

    // Telemetry name literals.
    if prev_dot && next_paren && METRIC_METHODS.contains(&tok.text.as_str()) {
        if let Some(lit) = telemetry_arg(tokens, code, ci + 1, TelemetryKind::Metric, in_test[k]) {
            syms.telemetry.push(lit);
        }
    }
    if prev_dot && next_paren && tok.text == "trace" {
        if let Some(lit) = trace_kind_arg(tokens, code, ci + 1, in_test[k]) {
            syms.telemetry.push(lit);
        }
    }

    // Literal-seed RNG construction: `seeded(42)`, `derive_seed(7, …)`,
    // `Supervisor::new(42)`.
    if next_paren && SEED_CTORS.contains(&tok.text.as_str()) {
        if let Some(&arg) = code.get(ci + 2) {
            if tokens[arg].kind == TokenKind::Number {
                syms.seeds.push(SeedSite {
                    ctor: tok.text.clone(),
                    literal: tokens[arg].text.clone(),
                    line: tok.line,
                    col: tok.col,
                    in_test: in_test[k],
                });
            }
        }
    }
    if tok.text == "Supervisor"
        && code.get(ci + 1).is_some_and(|&n| tokens[n].text == ":")
        && code.get(ci + 3).is_some_and(|&n| tokens[n].text == "new")
        && code.get(ci + 4).is_some_and(|&n| tokens[n].text == "(")
    {
        if let Some(&arg) = code.get(ci + 5) {
            if tokens[arg].kind == TokenKind::Number {
                syms.seeds.push(SeedSite {
                    ctor: "Supervisor::new".into(),
                    literal: tokens[arg].text.clone(),
                    line: tok.line,
                    col: tok.col,
                    in_test: in_test[k],
                });
            }
        }
    }

    // Statement-position `.ok();` — the Result's error arm is dropped.
    if prev_dot
        && tok.text == "ok"
        && code.get(ci + 1).is_some_and(|&n| tokens[n].text == "(")
        && code.get(ci + 2).is_some_and(|&n| tokens[n].text == ")")
        && code.get(ci + 3).is_some_and(|&n| tokens[n].text == ";")
    {
        syms.discards.push(DiscardSite {
            kind: DiscardKind::OkSemicolon,
            callee: None,
            propagates: false,
            line: tok.line,
            col: tok.col,
            in_test: in_test[k],
        });
    }
}

/// Reads the first-argument name of a metric call at the `(` code index:
/// either a string literal or `&format!("…", …)`.
fn telemetry_arg(
    tokens: &[Token],
    code: &[usize],
    open_ci: usize,
    kind: TelemetryKind,
    in_test: bool,
) -> Option<TelemetryLit> {
    let mut j = open_ci + 1;
    let mut dynamic = false;
    // Skip `&`, `format`, `!`, `(` framing for dynamic names.
    while let Some(&k) = code.get(j) {
        match tokens[k].text.as_str() {
            "&" => j += 1,
            "format" => {
                dynamic = true;
                j += 1;
            }
            "!" | "(" if dynamic => j += 1,
            _ => break,
        }
    }
    let &k = code.get(j)?;
    let t = &tokens[k];
    if t.kind != TokenKind::Str {
        return None;
    }
    let raw = t.str_value();
    let name = if dynamic {
        wildcard_format(raw)
    } else {
        raw.to_string()
    };
    // A name with no dot is not a telemetry name T2 governs (T1 already
    // rejects malformed names at registration sites).
    if !name.contains('.') {
        return None;
    }
    Some(TelemetryLit {
        name,
        dynamic,
        kind,
        line: t.line,
        col: t.col,
        in_test,
    })
}

/// Reads the kind argument of `trace(now, "kind", …)`: the first string
/// literal at argument depth inside the call.
fn trace_kind_arg(
    tokens: &[Token],
    code: &[usize],
    open_ci: usize,
    in_test: bool,
) -> Option<TelemetryLit> {
    let mut depth = 0usize;
    for &k in code.iter().skip(open_ci) {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth <= 1 {
                    return None;
                }
                depth -= 1;
            }
            _ => {}
        }
        if depth == 1 && t.kind == TokenKind::Str {
            let name = t.str_value().to_string();
            if !name.contains('.') {
                return None;
            }
            return Some(TelemetryLit {
                name,
                dynamic: false,
                kind: TelemetryKind::Trace,
                line: t.line,
                col: t.col,
                in_test,
            });
        }
    }
    None
}

/// Collapses `format!` placeholders to `*`: `nvme.qp{}.aborts` →
/// `nvme.qp*.aborts`, `fault.{site}.fired` → `fault.*.fired`.
#[must_use]
pub fn wildcard_format(fmt: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in fmt.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Parses an `impl` header starting at code index `ci` (pointing at the
/// `impl` ident). Returns the owner type (the ident after `for` when
/// present, else the first type ident after the generics) and the code
/// index just past the opening `{`.
fn parse_impl_header(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
) -> Option<(Option<String>, usize)> {
    let mut j = ci + 1;
    // Skip `<…>` generics.
    if code.get(j).is_some_and(|&k| tokens[k].text == "<") {
        j = skip_angles(tokens, code, j)?;
    }
    let mut owner: Option<String> = None;
    let mut after_for = false;
    while let Some(&k) = code.get(j) {
        let t = &tokens[k];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => {
                return Some((owner, j + 1));
            }
            (TokenKind::Punct, ";") => return None, // `impl Trait for T;` — not a block
            (TokenKind::Ident, "for") => {
                after_for = true;
                owner = None;
            }
            (TokenKind::Ident, "where") => {
                // The owner is settled; scan forward to the block.
                while let Some(&k2) = code.get(j) {
                    if tokens[k2].text == "{" {
                        return Some((owner, j + 1));
                    }
                    j += 1;
                }
                return None;
            }
            (TokenKind::Ident, name) => {
                if owner.is_none() || after_for {
                    // First ident of the (possibly path-qualified) type;
                    // later path segments overwrite so `crate::x::Ssd`
                    // resolves to `Ssd`.
                    owner = Some(name.to_string());
                    after_for = false;
                } else if code
                    .get(j.wrapping_sub(1))
                    .is_some_and(|&p| tokens[p].text == ":")
                {
                    owner = Some(name.to_string());
                }
            }
            (TokenKind::Punct, "<") => {
                j = skip_angles(tokens, code, j)?;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<…>` starting at code index `j` (pointing at `<`).
/// Returns the index just past the matching `>`. Tolerates `>>`-free
/// streams because the lexer emits single-char puncts.
fn skip_angles(tokens: &[Token], code: &[usize], j: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = j;
    while let Some(&k) = code.get(i) {
        match tokens[k].text.as_str() {
            "<" => depth += 1,
            "-" if code.get(i + 1).is_some_and(|&n| tokens[n].text == ">") => {
                // `->` inside an `Fn() -> T` bound is not a closing angle.
                i += 2;
                continue;
            }
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            "{" | ";" => return None, // ran off the signature
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses a `fn` item at code index `ci` (pointing at the `fn` ident).
/// Returns the symbol and the code index of the body's `{` (or just past
/// the `;` for body-less trait methods) so the caller's walk continues
/// into the body.
fn parse_fn(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
    owner: Option<String>,
    in_test: &[bool],
) -> Option<(FnSym, usize)> {
    let &name_k = code.get(ci + 1)?;
    let name_tok = &tokens[name_k];
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    // Visibility: look back past modifiers for `pub`.
    let is_pub = (1..=6)
        .filter_map(|back| ci.checked_sub(back))
        .take_while(|&p| {
            matches!(
                tokens[code[p]].text.as_str(),
                "pub" | "const" | "async" | "unsafe" | "extern" | ")" | "(" | "crate" | "super"
            )
        })
        .any(|p| tokens[code[p]].text == "pub");

    // Find the parameter list.
    let mut j = ci + 2;
    if code.get(j).is_some_and(|&k| tokens[k].text == "<") {
        j = skip_angles(tokens, code, j)?;
    }
    if code.get(j).is_none_or(|&k| tokens[k].text != "(") {
        return None;
    }
    let params_end = skip_parens(tokens, code, j)?;

    // Return type: tokens between `->` and the body `{` (or `;`).
    let mut returns_result = false;
    let mut body_open: Option<usize> = None;
    let mut saw_arrow = false;
    let mut i = params_end;
    while let Some(&k) = code.get(i) {
        let t = &tokens[k];
        match t.text.as_str() {
            "-" if code.get(i + 1).is_some_and(|&n| tokens[n].text == ">") => {
                saw_arrow = true;
                i += 2;
                continue;
            }
            "{" => {
                body_open = Some(i);
                break;
            }
            ";" => {
                // Trait method without a default body.
                let sym = FnSym {
                    name: name_tok.text.clone(),
                    owner,
                    is_pub,
                    in_test: in_test[name_k],
                    line: name_tok.line,
                    col: name_tok.col,
                    returns_result,
                    ..FnSym::default()
                };
                return Some((sym, i + 1));
            }
            // `Result<..>` or an alias like `FsResult` / `StorageResult`;
            // the workspace convention names Result aliases `*Result`.
            name if saw_arrow && t.kind == TokenKind::Ident && name.ends_with("Result") => {
                returns_result = true;
            }
            _ => {}
        }
        i += 1;
    }
    let body_open = body_open?;
    let body_end = skip_braces(tokens, code, body_open)?;
    let resume_at = body_open;

    let mut sym = FnSym {
        name: name_tok.text.clone(),
        owner,
        is_pub,
        in_test: in_test[name_k],
        line: name_tok.line,
        col: name_tok.col,
        returns_result,
        ..FnSym::default()
    };

    // Walk the body: call edges, campaign use, suspects.
    for bi in body_open + 1..body_end.saturating_sub(1) {
        let k = code[bi];
        let t = &tokens[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Supervisor" {
            sym.uses_campaign = true;
        }
        if BODY_SUSPECTS.contains(&t.text.as_str()) {
            sym.suspects.push((t.text.clone(), t.line, t.col));
        }
        let next_is =
            |off: usize, s: &str| code.get(bi + off).is_some_and(|&n| tokens[n].text == s);
        if next_is(1, "(") {
            // `name(…)` or `.name(…)` or `Qual::name(…)`.
            let prev = bi.checked_sub(1).map(|p| &tokens[code[p]]);
            let qualifier = if prev.is_some_and(|p| p.text == ":") {
                bi.checked_sub(3)
                    .map(|q| &tokens[code[q]])
                    .filter(|q| q.kind == TokenKind::Ident)
                    .map(|q| q.text.clone())
            } else {
                None
            };
            if !matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "return" | "loop" | "move" | "fn"
            ) {
                sym.calls.push(CallRef {
                    qualifier,
                    name: t.text.clone(),
                });
            }
        } else if next_is(1, "!") && next_is(2, "(") {
            // Macro: not a call edge.
        }
    }
    Some((sym, resume_at))
}

/// Skips a balanced `(…)` starting at code index `j`; returns the index
/// just past the matching `)`.
fn skip_parens(tokens: &[Token], code: &[usize], j: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = j;
    while let Some(&k) = code.get(i) {
        match tokens[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Skips a balanced `{…}` starting at code index `j`; returns the index
/// just past the matching `}`.
fn skip_braces(tokens: &[Token], code: &[usize], j: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = j;
    while let Some(&k) = code.get(i) {
        match tokens[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses a `static` item at code index `ci`; records `static mut` and
/// interior-mutability types in the declaration.
fn parse_static(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
    in_test: &[bool],
) -> Option<StaticSym> {
    let k = code[ci];
    let mut j = ci + 1;
    let is_mut = code.get(j).is_some_and(|&n| tokens[n].text == "mut");
    if is_mut {
        j += 1;
    }
    let &name_k = code.get(j)?;
    if tokens[name_k].kind != TokenKind::Ident {
        return None;
    }
    // Type tokens: from after `:` until `=` or `;`.
    let mut interior = None;
    let mut i = j + 1;
    while let Some(&tk) = code.get(i) {
        let t = &tokens[tk];
        match t.text.as_str() {
            "=" | ";" => break,
            _ => {
                if t.kind == TokenKind::Ident
                    && (STATIC_INTERIOR.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
                {
                    interior.get_or_insert_with(|| t.text.clone());
                }
            }
        }
        i += 1;
    }
    Some(StaticSym {
        name: tokens[name_k].text.clone(),
        is_mut,
        interior_mut: interior,
        line: tokens[k].line,
        col: tokens[k].col,
        in_test: in_test[k],
    })
}

/// Parses `let _ = expr;` at code index `ci` (pointing at `let`).
fn parse_let_underscore(
    tokens: &[Token],
    code: &[usize],
    ci: usize,
    in_test: &[bool],
) -> Option<DiscardSite> {
    let k = code[ci];
    if code.get(ci + 1).is_none_or(|&n| tokens[n].text != "_") {
        return None;
    }
    // `let _ =` or `let _: Ty =`.
    let mut j = ci + 2;
    if code.get(j).is_some_and(|&n| tokens[n].text == ":") {
        while let Some(&n) = code.get(j) {
            if tokens[n].text == "=" || tokens[n].text == ";" {
                break;
            }
            j += 1;
        }
    }
    if code.get(j).is_none_or(|&n| tokens[n].text != "=") {
        return None;
    }
    // Scan the expression to its terminating `;` at relative depth 0.
    let mut depth = 0i64;
    let mut callee: Option<CallRef> = None;
    let mut last_tok_before_semi: Option<&Token> = None;
    let mut i = j + 1;
    while let Some(&n) = code.get(i) {
        let t = &tokens[n];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        if depth == 0
            && t.kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|&nn| tokens[nn].text == "(")
        {
            let prev = i.checked_sub(1).map(|p| &tokens[code[p]]);
            let qualifier = if prev.is_some_and(|p| p.text == ":") {
                i.checked_sub(3)
                    .map(|q| &tokens[code[q]])
                    .filter(|q| q.kind == TokenKind::Ident)
                    .map(|q| q.text.clone())
            } else {
                None
            };
            let next2_bang = code.get(i + 1).is_some_and(|&nn| tokens[nn].text == "!");
            if !next2_bang {
                callee = Some(CallRef {
                    qualifier,
                    name: t.text.clone(),
                });
            }
        }
        // Macros: `name!(…)` — never treated as a callee.
        if depth == 0 && t.text == "!" {
            callee = None;
        }
        last_tok_before_semi = Some(t);
        i += 1;
    }
    let propagates = last_tok_before_semi.is_some_and(|t| t.text == "?");
    Some(DiscardSite {
        kind: DiscardKind::LetUnderscore,
        callee,
        propagates,
        line: tokens[k].line,
        col: tokens[k].col,
        in_test: in_test[k],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_extraction_with_owner_and_result() {
        let src = "\
impl Ssd {
    pub fn build(cfg: Config) -> Result<Self, Error> {
        helper(cfg)
    }
}
fn helper(cfg: Config) -> u32 { 0 }
";
        let syms = extract_source("crates/nvme/src/ssd.rs", src);
        assert_eq!(syms.fns.len(), 2);
        let build = &syms.fns[0];
        assert_eq!(build.name, "build");
        assert_eq!(build.owner.as_deref(), Some("Ssd"));
        assert!(build.is_pub && build.returns_result);
        assert_eq!(
            build.calls,
            vec![CallRef {
                qualifier: None,
                name: "helper".into()
            }]
        );
        let helper = &syms.fns[1];
        assert!(helper.owner.is_none() && !helper.returns_result && !helper.is_pub);
    }

    #[test]
    fn impl_trait_for_type_owner() {
        let src = "impl BlockDevice for RamDisk { fn capacity(&self) -> u64 { 0 } }";
        let syms = extract_source("crates/simkit/src/blockdev.rs", src);
        assert_eq!(syms.fns[0].owner.as_deref(), Some("RamDisk"));
    }

    #[test]
    fn campaign_root_and_suspects() {
        let src = "\
fn shard(seed: u64) -> u64 {
    let shared = std::rc::Rc::new(3u64);
    Supervisor::new(seed).run(4, |ctx| ctx.trial.index).outcomes.len() as u64 + *shared
}
";
        let syms = extract_source("crates/bench/src/x.rs", src);
        assert!(syms.fns[0].uses_campaign);
        assert!(syms.fns[0].suspects.iter().any(|(n, _, _)| n == "Rc"));
    }

    #[test]
    fn static_mut_and_interior() {
        let src = "\
static mut COUNTER: u64 = 0;
static TABLE: std::cell::RefCell<Vec<u8>> = todo();
static NAME: &str = \"x\";
";
        let syms = extract_source("crates/ftl/src/x.rs", src);
        assert_eq!(syms.statics.len(), 3);
        assert!(syms.statics[0].is_mut);
        assert_eq!(syms.statics[1].interior_mut.as_deref(), Some("RefCell"));
        assert!(syms.statics[2].interior_mut.is_none() && !syms.statics[2].is_mut);
    }

    #[test]
    fn telemetry_literals_static_dynamic_and_trace() {
        let src = "\
fn wire(tel: &Telemetry, qp: u32) {
    tel.counter(\"ftl.l2p_reads\").add(1);
    tel.counter(&format!(\"nvme.qp{}.aborts\", qp)).add(1);
    tel.trace(now(), \"dram.flip\", format!(\"row {qp}\"));
}
";
        let syms = extract_source("crates/ftl/src/x.rs", src);
        let names: Vec<(&str, bool)> = syms
            .telemetry
            .iter()
            .map(|t| (t.name.as_str(), t.dynamic))
            .collect();
        assert_eq!(
            names,
            vec![
                ("ftl.l2p_reads", false),
                ("nvme.qp*.aborts", true),
                ("dram.flip", false),
            ]
        );
        assert_eq!(syms.telemetry[2].kind, TelemetryKind::Trace);
    }

    #[test]
    fn seed_sites_only_fire_on_literals() {
        let src = "\
fn f(seed: u64) {
    let a = seeded(42);
    let b = seeded(seed);
    let c = derive_seed(7, \"tag\", 0);
    let d = Supervisor::new(99);
}
";
        let syms = extract_source("crates/ftl/src/x.rs", src);
        let ctors: Vec<&str> = syms.seeds.iter().map(|s| s.ctor.as_str()).collect();
        assert_eq!(ctors, vec!["seeded", "derive_seed", "Supervisor::new"]);
        assert_eq!(syms.seeds[0].literal, "42");
    }

    #[test]
    fn discards_track_callee_and_propagation() {
        let src = "\
fn f(&mut self) {
    let _ = self.dram.write_u32(addr, word);
    let _ = self.checked(x)?;
    let _ = plain_value;
    self.nand.read(p).ok();
}
";
        let syms = extract_source("crates/ftl/src/x.rs", src);
        assert_eq!(syms.discards.len(), 4);
        assert_eq!(
            syms.discards[0].callee.as_ref().map(|c| c.name.as_str()),
            Some("write_u32")
        );
        assert!(!syms.discards[0].propagates);
        assert!(syms.discards[1].propagates);
        assert!(syms.discards[2].callee.is_none());
        assert_eq!(syms.discards[3].kind, DiscardKind::OkSemicolon);
    }

    #[test]
    fn wildcard_format_collapses_placeholders() {
        assert_eq!(wildcard_format("nvme.qp{}.aborts"), "nvme.qp*.aborts");
        assert_eq!(wildcard_format("fault.{site}.fired"), "fault.*.fired");
        assert_eq!(wildcard_format("plain.name"), "plain.name");
    }

    #[test]
    fn use_edges_record_crate_roots() {
        let src = "use std::collections::BTreeMap;\nuse ssdhammer_simkit::rng::Rng;\n";
        let syms = extract_source("crates/ftl/src/x.rs", src);
        let roots: Vec<&str> = syms.uses.iter().map(|u| u.root.as_str()).collect();
        assert_eq!(roots, vec!["std", "ssdhammer_simkit"]);
    }
}
