//! The one front end of the linter: lexes each file once and extracts
//! everything both layers consume (DESIGN.md §4.5, §4.10).
//!
//! Sits on top of [`crate::lexer`]. For the per-file rules it keeps the
//! token stream, the `#[cfg(test)]` mask and the validated allow
//! directives. For the workspace call graph it extracts `impl` blocks
//! (to qualify methods), `fn` items with their body spans, call
//! expressions, method calls, and the per-body facts the analyses
//! consume (panic sites, determinism-taint sources — wall-clock reads
//! among them — and lock acquisitions). No full grammar is attempted —
//! expressions are never parsed, only token shapes are matched — so the
//! result is an over-approximation by construction (see the soundness
//! caveats in DESIGN.md §4.10).

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::RULES;

/// How a call site names its callee. Resolution happens later, against
/// the whole-workspace index ([`crate::graph`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalleeRef {
    /// `foo(…)` — unqualified call.
    Bare(String),
    /// `Qualifier::foo(…)` — only the last qualifier segment is kept
    /// (`a::b::Type::foo` ⇒ `("Type", "foo")`).
    Qualified(String, String),
    /// `.foo(…)` — method call; the receiver type is unknown.
    Method(String),
}

/// One body event, in lexical order. The ordering of lock acquisitions
/// relative to calls is what the lock-order analysis consumes.
#[derive(Debug, Clone)]
pub enum BodyEvent {
    /// A call or method-call expression.
    Call { callee: CalleeRef, line: u32 },
    /// A `Mutex`/`RwLock` acquisition on a known lock field.
    Lock { lock: String, line: u32 },
}

/// Kind of panic site found in a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect(`.
    UnwrapExpect,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert*!`.
    Macro,
    /// Direct `expr[…]` indexing (slice patterns included — same shape).
    Index,
}

impl CalleeRef {
    /// The bare callee name, whatever the call shape. Tests assert on it.
    #[cfg(test)]
    pub fn name(&self) -> &str {
        match self {
            CalleeRef::Bare(n) | CalleeRef::Method(n) | CalleeRef::Qualified(_, n) => n,
        }
    }
}

/// One panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Site classification; findings render `what`, tests assert on it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub kind: PanicKind,
    pub line: u32,
    /// Short site description for the finding message.
    pub what: String,
}

/// Kind of determinism-taint source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `Instant::now` / `SystemTime::now` wall-clock read.
    WallClock,
    /// Iteration over a `HashMap`/`HashSet` in hash order.
    MapIter,
    /// `RandomState` — a randomly seeded hasher.
    RandomState,
    /// `std::env::var` / `var_os` read.
    EnvRead,
}

/// One determinism-taint source site.
#[derive(Debug, Clone)]
pub struct TaintSite {
    pub kind: TaintKind,
    pub line: u32,
    pub what: String,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// Crate directory name (`serve`, `core`, …).
    pub krate: String,
    /// Enclosing `impl` type, if any.
    pub type_name: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Calls and lock acquisitions, in lexical order.
    pub events: Vec<BodyEvent>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Determinism-taint sources in the body.
    pub taints: Vec<TaintSite>,
    /// Body mentions a `"time_…"` string literal: wall-clock reads in
    /// this fn feed the telemetry timing namespace (sanitized).
    pub has_time_metric: bool,
    /// Inside a `#[cfg(test)]` item.
    pub is_test: bool,
}

impl FnDef {
    /// Stable display name: `Type::name` or `name`.
    pub fn qual_name(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the per-file rules and the graph layer need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub file: String,
    /// Code tokens in source order; the per-file rules match on them.
    pub tokens: Vec<Tok>,
    /// `test_mask[i]` is true when `tokens[i]` lies in a `#[cfg(test)]`
    /// item.
    pub test_mask: Vec<bool>,
    pub fns: Vec<FnDef>,
    /// Names of struct fields typed `Mutex<…>` / `RwLock<…>` in this
    /// file (contributes to the workspace lock-field set).
    pub lock_fields: Vec<String>,
    /// Well-formed `deepsd-lint: allow(rule, reason="…")` directives as
    /// (rule, line) pairs — findings anchored on `line` or `line + 1`
    /// are suppressed.
    pub allows: Vec<(String, u32)>,
    /// Malformed or unknown-rule directives as (line, why) pairs,
    /// reported as `lint-directive` findings.
    pub bad_directives: Vec<(u32, String)>,
    /// Wall-clock reads outside every fn body, such as a `static`
    /// initializer. No call graph node owns them; only the per-file
    /// wall-clock rule reports them.
    pub item_wallclock: Vec<TaintSite>,
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Keywords that look like call heads but are not (`if (…)`,
/// `match (…)`, `return (…)`, …) plus binding/type positions. None of
/// them ends an expression, so a `[` or `-` after one is an array or a
/// unary minus, never indexing or subtraction.
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "impl"
            | "where"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "const"
            | "static"
            | "type"
            | "unsafe"
            | "dyn"
    )
}

/// Lexes and parses one file: tokens, test mask, allow directives and
/// function items with their call/panic/taint/lock facts. `path` must be
/// the workspace-relative path with `/` separators; `crates/<k>/…`
/// yields the crate name `<k>`.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let krate = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();

    let mut out = ParsedFile {
        file: path.to_string(),
        ..ParsedFile::default()
    };

    for c in &lexed.comments {
        // Anchor to the start of the comment so prose (and the doc
        // examples in this crate) that merely *mentions* the directive
        // syntax is not parsed as one.
        let Some(rest) = c.text.trim_start().strip_prefix("deepsd-lint:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok(rule) => out.allows.push((rule, c.line)),
            Err(why) => out.bad_directives.push((c.line, why)),
        }
    }

    let skip = test_mask(toks);
    collect_lock_fields(toks, &mut out.lock_fields);

    // Walk items tracking brace depth, the enclosing `impl` type and
    // `fn` bodies. Nested fns/closures attribute their facts to the
    // innermost named fn (closures have no name and are inlined into
    // the enclosing fn — call-graph-wise they run when it runs, which
    // over-approximates deferred execution; see DESIGN.md §4.10).
    let mut depth: i32 = 0;
    let mut impl_stack: Vec<(String, i32)> = Vec::new(); // (type, depth at `{`)
    let mut fn_stack: Vec<(usize, i32)> = Vec::new(); // (index into out.fns, body depth)
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        if (t.is_ident("impl") || t.is_ident("trait")) && !skip.get(i).copied().unwrap_or(false) {
            let head = if t.is_ident("impl") {
                parse_impl_head(toks, i)
            } else {
                // `trait Name … {` — default methods qualify as
                // `Name::method`, mirroring impl blocks.
                toks.get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| (n.text.clone(), 0))
            };
            if let Some((ty, _)) = head {
                impl_stack.push((ty, depth + 1));
                // The `{` itself is consumed by the depth-tracking
                // below when the walk reaches it.
            }
            i += 1;
            continue;
        }

        if t.is_ident("fn") {
            if let Some((name, body_open)) = parse_fn_head(toks, i) {
                let type_name = impl_stack.last().map(|(ty, _)| ty.clone());
                out.fns.push(FnDef {
                    file: path.to_string(),
                    krate: krate.clone(),
                    type_name,
                    name,
                    line: t.line,
                    events: Vec::new(),
                    panics: Vec::new(),
                    taints: Vec::new(),
                    has_time_metric: false,
                    is_test: skip.get(i).copied().unwrap_or(false),
                });
                let fn_idx = out.fns.len() - 1;
                // The signature is skipped below, but a `SystemTime`
                // parameter or return type is a wall-clock site.
                let header = (i + 1..body_open).filter(|&k| !skip[k]);
                out.fns[fn_idx]
                    .taints
                    .extend(header.filter_map(|k| wallclock_read(toks, k)));
                // Advance to the body `{`, then scan the body inline —
                // the outer loop continues from inside it so nested
                // items are still seen.
                fn_stack.push((fn_idx, depth + 1));
                i = body_open;
                continue;
            }
            i += 1;
            continue;
        }

        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    while impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                        impl_stack.pop();
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                        fn_stack.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }

        // Body facts go to the innermost open fn; `#[cfg(test)]` code
        // inside a non-test fn contributes none. A wall-clock read outside
        // every fn (a `static` or `thread_local!` initializer) has no fn
        // to own it.
        if !skip[i] {
            match fn_stack.last() {
                Some(&(fn_idx, _)) => {
                    scan_body_token(toks, i, &mut out.fns[fn_idx], &mut out.lock_fields)
                }
                None => out.item_wallclock.extend(wallclock_read(toks, i)),
            }
        }
        i += 1;
    }

    // Map-iteration taint needs the file's map idents; do a second,
    // cheap pass now that fn spans are known.
    let maps = map_idents(toks);
    if !maps.is_empty() {
        attach_map_iter_taints(toks, &skip, &maps, &mut out.fns);
    }
    out.tokens = lexed.tokens;
    out.test_mask = skip;
    out
}

/// Parses `allow(rule, reason="…")`, returning the rule name.
fn parse_allow(s: &str) -> Result<String, String> {
    let body = s
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        .ok_or_else(|| "directive must be allow(rule, reason=\"…\")".to_string())?;
    let (rule, rest) = match body.split_once(',') {
        Some((r, rest)) => (r.trim(), rest.trim()),
        None => (body.trim(), ""),
    };
    if !RULES.contains(&rule) {
        return Err(format!("unknown rule '{rule}' in allow directive"));
    }
    let reason = rest
        .strip_prefix("reason=")
        .map(|r| r.trim().trim_matches('"').trim())
        .unwrap_or("");
    if reason.is_empty() {
        return Err(format!("allow({rule}) needs a non-empty reason=\"…\""));
    }
    Ok(rule.to_string())
}

/// `impl … {`: returns the implemented type name and the token index of
/// the opening `{`. `impl<T> Trait<U> for Type<V> {` ⇒ `Type`.
fn parse_impl_head(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip generic parameters after `impl`.
    j = skip_generics(toks, j);
    // Collect path segments up to `for`, `{` or `where`; on `for`,
    // restart collection (the type after `for` wins).
    let mut last_seg: Option<String> = None;
    let mut guard = 0usize;
    while j < toks.len() && guard < 256 {
        guard += 1;
        let t = &toks[j];
        if t.is_ident("for") {
            last_seg = None;
            j += 1;
            continue;
        }
        if t.is_ident("where") || t.is_punct("{") {
            break;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            last_seg = Some(t.text.clone());
            j += 1;
            j = skip_generics(toks, j);
            continue;
        }
        // `&`, `::`, lifetimes, `dyn`, `(`, `)` in e.g. fn-pointer impls…
        j += 1;
    }
    // Find the opening `{` from here.
    while j < toks.len() && !toks[j].is_punct("{") {
        if toks[j].is_punct(";") {
            return None;
        }
        j += 1;
    }
    last_seg.map(|ty| (ty, j))
}

/// `fn name … {`: returns the name and the token index of the body
/// `{`. Returns `None` for body-less declarations (trait methods).
fn parse_fn_head(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // Scan forward to the body `{`, skipping the parameter list and any
    // return type / where clause. Parens and angle brackets nest;
    // a `;` at paren-depth 0 means there is no body.
    let mut j = i + 2;
    let mut paren: i32 = 0;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => return Some((name.text.clone(), j)),
                ";" if paren == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<…>` generic list starting at `j`, if present.
fn skip_generics(toks: &[Tok], j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct("<")) {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        if toks[k].kind == TokKind::Punct {
            match toks[k].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return k + 1;
                    }
                }
                ";" | "{" => return k, // malformed; bail out
                _ => {}
            }
        }
        k += 1;
    }
    k
}

/// Examines the token at `i` inside a fn body and records calls, panic
/// sites, wall-clock/env/hasher taints and lock acquisitions.
fn scan_body_token(toks: &[Tok], i: usize, f: &mut FnDef, lock_fields: &mut [String]) {
    let t = &toks[i];

    if t.kind == TokKind::Str && t.text.starts_with("time_") {
        f.has_time_metric = true;
        return;
    }
    if t.kind != TokKind::Ident {
        // Direct indexing `expr[…]`.
        if t.is_punct("[") && i >= 1 {
            let p = &toks[i - 1];
            let indexable = (p.kind == TokKind::Ident && !is_keyword(&p.text))
                || p.is_punct(")")
                || p.is_punct("]");
            if indexable {
                f.panics.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                    what: "direct indexing".to_string(),
                });
            }
        }
        return;
    }

    let next_is = |k: usize, s: &str| toks.get(i + k).is_some_and(|p| p.is_punct(s));

    // Panic macros: `name!(…)`.
    if PANIC_MACROS.contains(&t.text.as_str()) && next_is(1, "!") {
        f.panics.push(PanicSite {
            kind: PanicKind::Macro,
            line: t.line,
            what: format!("{}!", t.text),
        });
        return;
    }

    // Method calls `.name(` — including `.unwrap()` / `.expect(` and
    // lock acquisitions.
    if i >= 1 && toks[i - 1].is_punct(".") && next_is(1, "(") {
        match t.text.as_str() {
            "unwrap" | "expect" => {
                f.panics.push(PanicSite {
                    kind: PanicKind::UnwrapExpect,
                    line: t.line,
                    what: format!(".{}()", t.text),
                });
                return;
            }
            "lock" | "read" | "write" => {
                // `recv.lock()`: a lock acquisition when the receiver's
                // last segment is a known Mutex/RwLock field; otherwise
                // fall through to a plain method call (e.g. the
                // `Telemetry::lock` helper resolves via the graph).
                if let Some(recv) = receiver_last_segment(toks, i - 1) {
                    if lock_fields.contains(&recv) {
                        f.events.push(BodyEvent::Lock {
                            lock: recv,
                            line: t.line,
                        });
                        return;
                    }
                }
            }
            _ => {}
        }
        f.events.push(BodyEvent::Call {
            callee: CalleeRef::Method(t.text.clone()),
            line: t.line,
        });
        return;
    }

    if let Some(site) = wallclock_read(toks, i) {
        f.taints.push(site);
        return;
    }

    // Randomly seeded hasher.
    if t.is_ident("RandomState") {
        f.taints.push(TaintSite {
            kind: TaintKind::RandomState,
            line: t.line,
            what: "RandomState".to_string(),
        });
        return;
    }

    // Env reads: `env::var(` / `env::var_os(` (with or without `std::`).
    if t.is_ident("env")
        && next_is(1, "::")
        && toks
            .get(i + 2)
            .is_some_and(|p| p.is_ident("var") || p.is_ident("var_os"))
        && next_is(3, "(")
    {
        f.taints.push(TaintSite {
            kind: TaintKind::EnvRead,
            line: toks[i + 2].line,
            what: format!("env::{}", toks[i + 2].text),
        });
        return;
    }

    // Call expressions. `name(` not preceded by `.` (methods handled
    // above) or `!` (macros are not fns). `Qual::name(` keeps the last
    // qualifier. Turbofish `name::<T>(` is recognised too.
    if is_keyword(&t.text) {
        return;
    }
    let call_paren = if next_is(1, "(") {
        Some(i + 1)
    } else if next_is(1, "::") && next_is(2, "<") {
        let after = skip_generics(toks, i + 2);
        toks.get(after)
            .is_some_and(|p| p.is_punct("("))
            .then_some(after)
    } else {
        None
    };
    let Some(_) = call_paren else { return };
    let prev = i.checked_sub(1).map(|k| &toks[k]);
    if prev.is_some_and(|p| p.is_punct(".") || p.is_punct("!") || p.is_ident("fn")) {
        return;
    }
    if prev.is_some_and(|p| p.is_punct("::")) {
        // Walk back the path: `a::b::name(` ⇒ qualifier `b`.
        if i >= 2 && toks[i - 2].kind == TokKind::Ident {
            f.events.push(BodyEvent::Call {
                callee: CalleeRef::Qualified(toks[i - 2].text.clone(), t.text.clone()),
                line: t.line,
            });
        }
        return;
    }
    f.events.push(BodyEvent::Call {
        callee: CalleeRef::Bare(t.text.clone()),
        line: t.line,
    });
}

/// The wall-clock read at token `i`, if there is one: `Instant::now`,
/// or any `SystemTime` outside a `use` item (`SystemTime::now`,
/// `SystemTime::UNIX_EPOCH.elapsed()`, a `SystemTime` return type).
fn wallclock_read(toks: &[Tok], i: usize) -> Option<TaintSite> {
    let t = &toks[i];
    let now = toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
        && toks.get(i + 2).is_some_and(|p| p.is_ident("now"));
    let what = if t.is_ident("Instant") && now {
        "Instant::now"
    } else if t.is_ident("SystemTime") && !in_use_item(toks, i) {
        if now {
            "SystemTime::now"
        } else {
            "SystemTime"
        }
    } else {
        return None;
    };
    Some(TaintSite {
        kind: TaintKind::WallClock,
        line: t.line,
        what: what.to_string(),
    })
}

/// Whether token `i` lies in a `use` item: a `use` keyword precedes it
/// with no `;` in between (an import is harmless until the type is used).
fn in_use_item(toks: &[Tok], i: usize) -> bool {
    toks[..i]
        .iter()
        .rev()
        .take_while(|t| !t.is_punct(";"))
        .any(|t| t.is_ident("use"))
}

/// Walks back a `.`-chain from the `.` at `dot` and returns the last
/// path segment of the receiver (`self.state.jobs.lock()` ⇒ `jobs`).
/// Returns `None` when the receiver is not a plain ident chain (method
/// results, indexing, …) — those are treated as method calls.
fn receiver_last_segment(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let r = &toks[dot - 1];
    if r.kind == TokKind::Ident && r.text != "self" {
        return Some(r.text.clone());
    }
    None
}

/// Struct fields (or statics) typed `Mutex<…>` / `RwLock<…>`, possibly
/// wrapped (`Arc<Mutex<…>>`): the nearest preceding `ident :` names the
/// field.
fn collect_lock_fields(toks: &[Tok], out: &mut Vec<String>) {
    for i in 0..toks.len() {
        if !(toks[i].is_ident("Mutex") || toks[i].is_ident("RwLock")) {
            continue;
        }
        // Must be a type position: followed by `<`.
        if !toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
            continue;
        }
        // Walk back over wrapper idents, `<`, `::` to find `name :`.
        let mut j = i;
        let mut guard = 0usize;
        while j > 0 && guard < 16 {
            guard += 1;
            let p = &toks[j - 1];
            if p.is_punct("<") || p.is_punct("::") || p.kind == TokKind::Ident {
                if p.kind == TokKind::Ident
                    && j >= 2
                    && toks[j - 2].is_punct(":")
                    && toks
                        .get(j.wrapping_sub(3))
                        .is_some_and(|n| n.kind == TokKind::Ident)
                {
                    let name = toks[j - 3].text.clone();
                    if !out.contains(&name) {
                        out.push(name);
                    }
                    break;
                }
                j -= 1;
            } else if p.is_punct(":") && j >= 2 && toks[j - 2].kind == TokKind::Ident {
                let name = toks[j - 2].text.clone();
                if !out.contains(&name) {
                    out.push(name);
                }
                break;
            } else {
                break;
            }
        }
    }
    out.sort();
    out.dedup();
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: type
/// ascriptions (`name: HashMap<…>`, `name: &mut HashMap<…>`) and
/// constructor bindings (`let name = HashMap::new()`).
fn map_idents(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `&`, `mut` and `::` path segments to a `:`.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct("&") || p.is_ident("mut") || p.is_punct("::") || p.kind == TokKind::Ident
            {
                // Only path/ref tokens may sit between `:` and the type.
                if p.kind == TokKind::Ident
                    && !(p.is_ident("mut") || toks.get(j).is_some_and(|n| n.is_punct("::")))
                {
                    break;
                }
                j -= 1;
            } else {
                break;
            }
        }
        if j > 1 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            names.push(toks[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap…` / `= HashSet…`
        if i >= 2 && toks[i - 1].is_punct("=") && toks[i - 2].kind == TokKind::Ident {
            names.push(toks[i - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Adds `MapIter` taints for hash-ordered iteration over the file's
/// known map idents outside `#[cfg(test)]` code, attributed to the
/// enclosing fn by line range.
fn attach_map_iter_taints(toks: &[Tok], skip: &[bool], maps: &[String], fns: &mut [FnDef]) {
    let is_map = |t: &Tok| t.kind == TokKind::Ident && maps.iter().any(|m| m == &t.text);
    let mut sites: Vec<TaintSite> = Vec::new();
    for i in (0..toks.len()).filter(|&i| !skip[i]) {
        // `map.iter()` …
        if i >= 2
            && toks[i].kind == TokKind::Ident
            && MAP_ITER_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].is_punct(".")
            && is_map(&toks[i - 2])
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            sites.push(TaintSite {
                kind: TaintKind::MapIter,
                line: toks[i].line,
                what: format!("{}.{}()", toks[i - 2].text, toks[i].text),
            });
        }
        // `for … in &map`
        if toks[i].is_ident("in") {
            for j in (i + 1)..toks.len().min(i + 8) {
                if toks[j].kind == TokKind::Punct && (toks[j].text == "{" || toks[j].text == ";") {
                    break;
                }
                if is_map(&toks[j]) && !toks.get(j + 1).is_some_and(|t| t.is_punct(".")) {
                    sites.push(TaintSite {
                        kind: TaintKind::MapIter,
                        line: toks[j].line,
                        what: format!("for … in {}", toks[j].text),
                    });
                    break;
                }
            }
        }
    }
    // Attribute to the innermost fn whose body most plausibly contains
    // the site: the fn with the greatest start line ≤ site line. (Body
    // end lines are not tracked; for the file shapes in this workspace
    // — fns in declaration order — this is exact.)
    for site in sites {
        let mut best: Option<usize> = None;
        for (idx, f) in fns.iter().enumerate() {
            if f.line <= site.line && best.is_none_or(|b: usize| fns[b].line < f.line) {
                best = Some(idx);
            }
        }
        if let Some(idx) = best {
            fns[idx].taints.push(site);
        }
    }
    for f in fns.iter_mut() {
        f.taints.sort_by_key(|s| s.line);
    }
}

/// Marks the token ranges belonging to `#[cfg(test)]` items (true =
/// test code). The item is either the next balanced `{…}` block or, for
/// block-less items, everything up to the `;`.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct("#")
            && toks[i + 1].is_punct("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(")")
            && toks[i + 6].is_punct("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        let mut depth = 0i32;
        let mut entered = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        entered = true;
                    }
                    "}" => {
                        depth -= 1;
                        if entered && depth == 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        for flag in skip.iter_mut().take((j + 1).min(toks.len())).skip(start) {
            *flag = true;
        }
        i = j + 1;
    }
    skip
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/serve/src/x.rs", src)
    }

    fn calls_of(f: &FnDef) -> Vec<String> {
        f.events
            .iter()
            .filter_map(|e| match e {
                BodyEvent::Call { callee, .. } => Some(callee.name().to_string()),
                BodyEvent::Lock { .. } => None,
            })
            .collect()
    }

    #[test]
    fn fn_items_and_impl_methods_are_qualified() {
        let p = parse(
            r#"
            fn free() { helper(); }
            struct S;
            impl S {
                fn method(&self) { self.other(); free(); }
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
            "#,
        );
        let names: Vec<String> = p.fns.iter().map(FnDef::qual_name).collect();
        assert_eq!(names, vec!["free", "S::method", "S::clone"]);
        assert_eq!(calls_of(&p.fns[1]), vec!["other", "free"]);
    }

    #[test]
    fn generic_impls_resolve_the_implemented_type() {
        let p = parse(
            r#"
            impl<X: ItemSource> ItemSource for StreamingExtractor<X> {
                fn extract(&mut self) { go(); }
            }
            impl<'a, T> Wrapper<'a, T> {
                fn get(&self) -> u32 { 0 }
            }
            "#,
        );
        let names: Vec<String> = p.fns.iter().map(FnDef::qual_name).collect();
        assert_eq!(names, vec!["StreamingExtractor::extract", "Wrapper::get"]);
    }

    #[test]
    fn call_shapes_bare_qualified_method_turbofish() {
        let p = parse(
            r#"
            fn f() {
                bare();
                module::qualified();
                a::b::Type::assoc();
                recv.method_call();
                generic::<u32>();
                not_a_call;
                if x() {}
                mac!(ignored_call());
            }
            "#,
        );
        let f = &p.fns[0];
        let calls: Vec<&CalleeRef> = f
            .events
            .iter()
            .filter_map(|e| match e {
                BodyEvent::Call { callee, .. } => Some(callee),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&&CalleeRef::Bare("bare".into())));
        assert!(calls.contains(&&CalleeRef::Qualified("module".into(), "qualified".into())));
        assert!(calls.contains(&&CalleeRef::Qualified("Type".into(), "assoc".into())));
        assert!(calls.contains(&&CalleeRef::Method("method_call".into())));
        assert!(calls.contains(&&CalleeRef::Bare("generic".into())));
        assert!(calls.contains(&&CalleeRef::Bare("x".into())));
        // The call nested inside a macro body is still seen (tokens are
        // scanned, not parsed) — over-approximation is fine here.
        assert!(calls.contains(&&CalleeRef::Bare("ignored_call".into())));
    }

    #[test]
    fn panic_sites_are_collected() {
        let p = parse(
            r#"
            fn f(v: &[u8], i: usize) -> u8 {
                let a = v.first().unwrap();
                let b = v[i];
                if i > 9 { panic!("boom"); }
                unreachable!()
            }
            fn arrays_attrs_and_macros(s: &S, i: usize) -> f32 {
                #[allow(unused)]
                let table = [1.0f32, 2.0];
                let v = vec![0.0f32; 4];
                if i > 2 { return [0.0f32][0]; }
                s.xs[i]
            }
            fn get_based(v: &[f32], i: usize) -> f32 { v.get(i).copied().unwrap_or(0.0) }
            "#,
        );
        let kinds =
            |k: usize| -> Vec<PanicKind> { p.fns[k].panics.iter().map(|s| s.kind).collect() };
        assert_eq!(
            kinds(0),
            vec![
                PanicKind::UnwrapExpect,
                PanicKind::Index,
                PanicKind::Macro,
                PanicKind::Macro
            ]
        );
        // Attributes, array literals, `vec![…]` and `return […]` are not
        // indexing; `[0.0f32][0]` and `s.xs[i]` are.
        assert_eq!(kinds(1), vec![PanicKind::Index, PanicKind::Index]);
        // `.unwrap_or` is not `.unwrap`.
        assert!(kinds(2).is_empty(), "{:?}", p.fns[2].panics);
    }

    #[test]
    fn taint_sources_are_collected() {
        let p = parse(
            r#"
            use std::collections::HashMap;
            fn t(m: &HashMap<u32, f32>) {
                let now = std::time::Instant::now();
                let h = RandomState::new();
                let e = std::env::var("X");
                for (k, v) in m.iter() {}
            }
            fn dump(m: HashMap<String, u64>) {
                for k in &m { let _ = k; }
            }
            fn vec_walk(v: &Vec<f32>, lookup: &HashMap<u32, f32>) -> f32 {
                v.iter().map(|x| lookup.get(&(*x as u32)).copied().unwrap_or(0.0)).sum()
            }
            "#,
        );
        let kinds: Vec<TaintKind> = p.fns[0].taints.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&TaintKind::WallClock));
        assert!(kinds.contains(&TaintKind::RandomState));
        assert!(kinds.contains(&TaintKind::EnvRead));
        assert!(kinds.contains(&TaintKind::MapIter));
        let sites: Vec<&str> = p.fns[1].taints.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(sites, vec!["for … in m"]);
        // Iterating a Vec next to a map lookup is not map iteration.
        assert!(p.fns[2].taints.is_empty(), "{:?}", p.fns[2].taints);
    }

    #[test]
    fn time_metric_string_sanitizes_the_fn() {
        let p = parse(
            r#"
            fn timed(tel: &Telemetry) {
                let t = std::time::Instant::now();
                tel.observe("time_x_seconds", 1.0);
            }
            fn untimed() { let t = std::time::Instant::now(); }
            "#,
        );
        assert!(p.fns[0].has_time_metric);
        assert!(!p.fns[1].has_time_metric);
    }

    #[test]
    fn lock_fields_and_acquisitions() {
        let p = parse(
            r#"
            use std::sync::Mutex;
            struct Q { jobs: Mutex<Vec<u32>>, slot: Arc<Mutex<u8>>, n: u32 }
            impl Q {
                fn pop(&self) {
                    let g = self.jobs.lock();
                    let s = self.slot.lock();
                    self.helper();
                }
                fn helper(&self) {}
            }
            "#,
        );
        assert_eq!(p.lock_fields, vec!["jobs", "slot"]);
        let ev: Vec<String> = p.fns[0]
            .events
            .iter()
            .map(|e| match e {
                BodyEvent::Lock { lock, .. } => format!("L:{lock}"),
                BodyEvent::Call { callee, .. } => format!("C:{}", callee.name()),
            })
            .collect();
        assert_eq!(ev, vec!["L:jobs", "L:slot", "C:helper"]);
    }

    #[test]
    fn plain_lock_method_without_field_is_a_call() {
        // `self.lock()` with no `lock` Mutex field resolves through the
        // graph as a method call, not an acquisition.
        let p = parse(
            r#"
            impl T {
                fn counter(&self) { self.lock(); }
                fn lock(&self) {}
            }
            "#,
        );
        assert_eq!(calls_of(&p.fns[0]), vec!["lock"]);
    }

    #[test]
    fn test_items_are_marked() {
        let p = parse(
            r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() { prod(); }
            }
            "#,
        );
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn allows_are_collected_with_lines() {
        let p = parse(concat!(
            "// deepsd-lint: allow(panic-reach, reason=\"audited\")\n",
            "fn f() {}\n",
            "// deepsd-lint: allow(panic-reach)\n",
            "// deepsd-lint: allow(no-such-rule, reason=\"x\")\n",
            "// deepsd-lint: deny(panic-reach)\n",
        ));
        assert_eq!(p.allows, vec![("panic-reach".to_string(), 1)]);
        // Malformed directives suppress nothing and are reported instead.
        let bad: Vec<u32> = p.bad_directives.iter().map(|(l, _)| *l).collect();
        assert_eq!(bad, vec![3, 4, 5]);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let p = parse(
            r#"
            trait T {
                fn decl(&self);
                fn with_default(&self) { helper(); }
            }
            "#,
        );
        let names: Vec<String> = p.fns.iter().map(FnDef::qual_name).collect();
        assert_eq!(names, vec!["T::with_default"]);
    }
}
