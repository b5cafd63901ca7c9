//! The per-file rules, applied to one parsed file at a time.
//!
//! Every rule is a named pattern over the file's token stream or the
//! per-fn facts that [`crate::parse`] extracts, scoped to the files where
//! the invariant matters (DESIGN.md §4.5). Findings can be suppressed
//! with an inline directive on the same or the preceding line:
//!
//! ```text
//! // deepsd-lint: allow(rule-name, reason="why this site is safe")
//! ```
//!
//! A directive without a rule name or a non-empty reason is itself a
//! finding (`lint-directive`), so suppressions stay auditable.
//! `#[cfg(test)]` items are skipped entirely: tests legitimately
//! compare floats exactly and subtract freely.

use crate::lexer::{Tok, TokKind};
use crate::parse::{is_keyword, ParsedFile, TaintKind};

/// Rule names, in the order findings are reported per line.
pub const RULE_DETERMINISM_WALLCLOCK: &str = "determinism-wallclock";
pub const RULE_ARITH_UNDERFLOW: &str = "arith-underflow";
pub const RULE_FLOAT_EQ: &str = "float-eq";
pub const RULE_CAST_TRUNCATE: &str = "cast-truncate";
pub const RULE_UNSAFE_SCOPE: &str = "unsafe-scope";
/// Interprocedural rules (DESIGN.md §4.10) — findings come from the
/// workspace call graph, not single-file token patterns.
pub const RULE_PANIC_REACH: &str = "panic-reach";
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint";
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Malformed or unknown allow directive.
pub const RULE_LINT_DIRECTIVE: &str = "lint-directive";

/// All suppressible rules (everything except `lint-directive`).
/// `unsafe-scope` is suppressible only inside [`UNSAFE_ALLOWED_FILES`];
/// elsewhere the directive parses but the finding stands.
pub const RULES: &[&str] = &[
    RULE_DETERMINISM_WALLCLOCK,
    RULE_ARITH_UNDERFLOW,
    RULE_FLOAT_EQ,
    RULE_CAST_TRUNCATE,
    RULE_UNSAFE_SCOPE,
    RULE_PANIC_REACH,
    RULE_DETERMINISM_TAINT,
    RULE_LOCK_ORDER,
];

/// One paragraph per rule for `--explain <rule>`, so a CI failure is
/// self-documenting.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        RULE_DETERMINISM_WALLCLOCK => Some(
            "Instant::now/SystemTime reads outside the telemetry `time_` namespace let \
             real time influence deterministic code. Wall-clock readings are fine when \
             the enclosing fn publishes a `time_…` metric (that namespace is excluded \
             from the deterministic snapshot) or in the sanctioned modules \
             (crates/bench, crates/lint, crates/serve/src/deadline.rs). Fix: route \
             timing through a `time_` metric or the Deadline/Stopwatch helpers.",
        ),
        RULE_ARITH_UNDERFLOW => Some(
            "Bare `-` between (likely unsigned) integers on a serving path panics in \
             debug and wraps to a bogus index in release when the operands arrive \
             reordered. Fix: checked_sub/saturating_sub (never flagged), or an audited \
             allow when the subtraction is provably in range.",
        ),
        RULE_FLOAT_EQ => Some(
            "`==`/`!=` against float literals or f32/f64 consts is almost always a \
             rounding bug. Compare with an epsilon, or to_bits() for exact-identity \
             checks (the intent is then explicit). Workspace-wide.",
        ),
        RULE_CAST_TRUNCATE => Some(
            "`as u8/u16/u32/usize` in index arithmetic silently truncates out-of-range \
             values. In the audited files (features/index.rs, crates/simdata) use \
             try_from with a typed error, a widening From conversion, or document the \
             bound with an allow.",
        ),
        RULE_UNSAFE_SCOPE => Some(
            "`unsafe` is confined to the audited AVX2 microkernel (nn/kernels.rs) and \
             the lifetime transmute in nn/shard.rs; each site must carry an \
             allow(unsafe-scope, reason=…) audit note. Anywhere else the finding \
             cannot be suppressed — move the code or find a safe formulation.",
        ),
        RULE_PANIC_REACH => Some(
            "Interprocedural panic-reachability (DESIGN.md §4.10): the workspace call \
             graph is walked from the serving entry points (every fn in crates/serve, \
             OnlinePredictor::{observe*,predict*}, the ShadowTrainer round path). Any \
             reachable fn still containing a panic site — unwrap/expect, panic!-family, \
             direct indexing — is reported with the shortest call chain from the \
             nearest entry, so a helper in deepsd-nn that a handler reaches \
             transitively no longer sails through. Fix: degrade at the site, or audit \
             the site or the containing fn with allow(panic-reach, reason=…) when the \
             site provably cannot fire. Trait dispatch and fn pointers are \
             over-approximated by name.",
        ),
        RULE_DETERMINISM_TAINT => Some(
            "Interprocedural determinism taint (DESIGN.md §4.10): wall-clock reads, \
             HashMap/HashSet iteration, RandomState and env-var reads are taint \
             sources; the deterministic telemetry snapshot, the trainer epoch loop \
             and the continual promotion decision are sinks. A source transitively \
             reachable from a sink makes the sink's output depend on real time, hash \
             order or the environment, breaking the promotions-are-a-pure-function-of-\
             the-stream contract. Sanitizers: publishing a `time_…` metric in the \
             same fn (wall-clock only) or an audited allow(determinism-taint, \
             reason=…); a site-level allow(determinism-wallclock) carries over to the \
             wall-clock read it audits.",
        ),
        RULE_LOCK_ORDER => Some(
            "Interprocedural lock-order analysis (DESIGN.md §4.10): every \
             Mutex/RwLock acquisition order is extracted per fn (guards \
             over-approximated as held to end of fn) and propagated through the call \
             graph. Two fns that can acquire the same two locks in opposite orders — \
             directly or via callees — are a cross-thread deadlock window. Fix: \
             acquire in one global order, narrow a guard's scope, or audit with \
             allow(lock-order, reason=…) when the fns provably never race.",
        ),
        RULE_LINT_DIRECTIVE => Some(
            "A `// deepsd-lint: allow(rule, reason=\"…\")` directive failed to parse: \
             unknown rule name, missing reason, or malformed syntax. Suppressions \
             must stay auditable, so a broken directive is itself a finding.",
        ),
        _ => None,
    }
}

/// Serving hot paths: slot and lag arithmetic there must not underflow.
/// The whole serving daemon is a hot path too ([`SERVING_PATHS_PREFIX`]).
const SERVING_PATHS: &[&str] = &[
    "crates/core/src/serving.rs",
    "crates/features/src/online.rs",
    "crates/features/src/feeds.rs",
];
const SERVING_PATHS_PREFIX: &[&str] = &["crates/serve/src/"];

/// Files where narrowing casts in index arithmetic are audited.
const CAST_PATHS_EXACT: &[&str] = &["crates/features/src/index.rs"];
const CAST_PATHS_PREFIX: &[&str] = &["crates/simdata/src/"];

/// The only files where `unsafe` is sanctioned: the audited AVX2
/// microkernel in `kernels.rs` and the one lifetime transmute in
/// `shard.rs`. Every site must still carry an
/// `allow(unsafe-scope, reason="…")` audit note; anywhere else the
/// finding cannot be suppressed at all — move the code here instead.
const UNSAFE_ALLOWED_FILES: &[&str] = &["crates/nn/src/kernels.rs", "crates/nn/src/shard.rs"];

/// Crates whose whole purpose is wall-clock measurement.
const WALLCLOCK_ALLOWLIST_PREFIX: &[&str] = &["crates/bench/", "crates/lint/"];

/// The daemon's one sanctioned wall-clock module: `Deadline` and
/// `Stopwatch` wrap `Instant` so the rest of `crates/serve` stays under
/// the wallclock rule (deadline arithmetic is inherently wall-clock;
/// everything else must go through these helpers or `time_` metrics).
const WALLCLOCK_ALLOWLIST_EXACT: &[&str] = &["crates/serve/src/deadline.rs"];

/// One finding. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub msg: String,
}

impl Finding {
    /// Render as the canonical single-line report form.
    pub fn render(&self) -> String {
        format!("{} {}:{} {}", self.rule, self.path, self.line, self.msg)
    }
}

/// Runs the per-file rules over one parsed file. Its path must be the
/// workspace-relative path with `/` separators — rules scope on it.
pub fn lint_file(pf: &ParsedFile) -> Vec<Finding> {
    let path = pf.file.as_str();
    let (toks, skip) = (&pf.tokens, &pf.test_mask);
    let mut findings: Vec<Finding> = pf
        .bad_directives
        .iter()
        .map(|(line, why)| Finding {
            rule: RULE_LINT_DIRECTIVE,
            path: path.to_string(),
            line: *line,
            msg: why.clone(),
        })
        .collect();

    if !WALLCLOCK_ALLOWLIST_PREFIX
        .iter()
        .any(|p| path.starts_with(p))
        && !WALLCLOCK_ALLOWLIST_EXACT.contains(&path)
    {
        rule_wallclock(pf, &mut findings);
    }
    if SERVING_PATHS.contains(&path) || SERVING_PATHS_PREFIX.iter().any(|p| path.starts_with(p)) {
        rule_arith_underflow(path, toks, skip, &mut findings);
    }
    rule_float_eq(path, toks, skip, &mut findings);
    if CAST_PATHS_EXACT.contains(&path) || CAST_PATHS_PREFIX.iter().any(|p| path.starts_with(p)) {
        rule_cast_truncate(path, toks, skip, &mut findings);
    }
    rule_unsafe_scope(path, toks, skip, &mut findings);

    // Apply suppressions: a directive covers its own line and the next.
    // `unsafe-scope` findings outside the sanctioned files are
    // unsuppressible — the fix is moving the code, not annotating it.
    findings.retain(|f| {
        if f.rule == RULE_LINT_DIRECTIVE {
            return true;
        }
        if f.rule == RULE_UNSAFE_SCOPE && !UNSAFE_ALLOWED_FILES.contains(&path) {
            return true;
        }
        !pf.allows
            .iter()
            .any(|(rule, line)| rule == f.rule && (f.line == *line || f.line == line + 1))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Wall-clock reads outside fns, and in fns that publish no `time_…`
/// metric. The reads are the parser's `WallClock` taint sites, which
/// already leave out `#[cfg(test)]` code.
fn rule_wallclock(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let in_fns = pf
        .fns
        .iter()
        .filter(|f| !f.has_time_metric)
        .flat_map(|f| f.taints.iter().filter(|s| s.kind == TaintKind::WallClock));
    for s in pf.item_wallclock.iter().chain(in_fns) {
        // Name the type (`Instant`, `SystemTime`), not the method.
        let ty = s.what.split("::").next().unwrap_or_default();
        out.push(Finding {
            rule: RULE_DETERMINISM_WALLCLOCK,
            path: pf.file.clone(),
            line: s.line,
            msg: format!(
                "`{ty}` wall-clock read outside the telemetry `time_` namespace; deterministic code must not branch on real time"
            ),
        });
    }
}

/// Flags bare binary `-` on serving paths: slot/lag arithmetic there is
/// overwhelmingly unsigned, where a reordered operand pair panics in
/// debug and wraps to a bogus index in release. The fix is
/// `checked_sub`/`saturating_sub` (which this rule never matches) or an
/// audited `allow(arith-underflow, reason="…")` when the subtraction is
/// provably in range. Float *literals* on either side are exempt —
/// underflow is an integer hazard — but idents of float type cannot be
/// told apart lexically, so float expression arithmetic on these paths
/// also needs the saturating form or an allow.
fn rule_arith_underflow(path: &str, toks: &[Tok], skip: &[bool], out: &mut Vec<Finding>) {
    for i in 1..toks.len() {
        if skip[i] || !toks[i].is_punct("-") {
            continue;
        }
        // Binary minus only: the left neighbour must end an expression;
        // anything else (`(`, `,`, `=`, `return`, …) makes it unary.
        let left = &toks[i - 1];
        let left_ends_expr = (left.kind == TokKind::Ident && !is_keyword(&left.text))
            || left.kind == TokKind::Num
            || left.is_punct(")")
            || left.is_punct("]");
        if !left_ends_expr || left.is_float_literal() {
            continue;
        }
        let Some(right) = toks.get(i + 1) else {
            continue;
        };
        let right_is_float = right.is_float_literal()
            || right.is_ident("f32")
            || right.is_ident("f64")
            || (right.is_punct("-") && toks.get(i + 2).is_some_and(Tok::is_float_literal));
        if right_is_float {
            continue;
        }
        out.push(Finding {
            rule: RULE_ARITH_UNDERFLOW,
            path: path.to_string(),
            line: toks[i].line,
            msg: "unchecked `-` between (likely unsigned) integer expressions on a serving path can underflow — debug panic, release wrap; use checked_sub/saturating_sub or an audited allow".to_string(),
        });
    }
}

fn rule_float_eq(path: &str, toks: &[Tok], skip: &[bool], out: &mut Vec<Finding>) {
    let is_float_operand = |i: usize, forward: bool| -> bool {
        // Literal float on this side, skipping a unary minus forward.
        let idx = if forward { i + 1 } else { i - 1 };
        let Some(t) = toks.get(idx) else { return false };
        if forward && t.is_punct("-") {
            return toks.get(idx + 1).is_some_and(Tok::is_float_literal);
        }
        if t.is_float_literal() {
            return true;
        }
        // `f32::NAN`-style consts: `f32 :: CONST` before the operator, or
        // after it.
        if forward {
            (t.is_ident("f32") || t.is_ident("f64"))
                && toks.get(idx + 1).is_some_and(|p| p.is_punct("::"))
        } else {
            t.kind == TokKind::Ident
                && idx >= 2
                && toks[idx - 1].is_punct("::")
                && (toks[idx - 2].is_ident("f32") || toks[idx - 2].is_ident("f64"))
        }
    };
    for i in 0..toks.len() {
        if skip[i] {
            continue;
        }
        if !(toks[i].is_punct("==") || toks[i].is_punct("!=")) || i == 0 {
            continue;
        }
        if is_float_operand(i, false) || is_float_operand(i, true) {
            out.push(Finding {
                rule: RULE_FLOAT_EQ,
                path: path.to_string(),
                line: toks[i].line,
                msg: format!(
                    "`{}` against a float literal; compare with an epsilon or to_bits() for exact-identity checks",
                    toks[i].text
                ),
            });
        }
    }
}

fn rule_cast_truncate(path: &str, toks: &[Tok], skip: &[bool], out: &mut Vec<Finding>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "usize"];
    for i in 0..toks.len() {
        if skip[i] {
            continue;
        }
        if toks[i].is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && NARROW.contains(&t.text.as_str()))
        {
            out.push(Finding {
                rule: RULE_CAST_TRUNCATE,
                path: path.to_string(),
                line: toks[i].line,
                msg: format!(
                    "`as {}` cast in index arithmetic can silently truncate; use try_from or document the bound",
                    toks[i + 1].text
                ),
            });
        }
    }
}

fn rule_unsafe_scope(path: &str, toks: &[Tok], skip: &[bool], out: &mut Vec<Finding>) {
    let sanctioned = UNSAFE_ALLOWED_FILES.contains(&path);
    for (i, t) in toks.iter().enumerate() {
        if skip[i] || !t.is_ident("unsafe") {
            continue;
        }
        let msg = if sanctioned {
            "`unsafe` must carry an audited allow(unsafe-scope, reason=\"…\") annotation on the same or preceding line".to_string()
        } else {
            format!(
                "`unsafe` is confined to {}; move the code there or find a safe formulation (this finding cannot be suppressed)",
                UNSAFE_ALLOWED_FILES.join(", ")
            )
        };
        out.push(Finding {
            rule: RULE_UNSAFE_SCOPE,
            path: path.to_string(),
            line: t.line,
            msg,
        });
    }
}

/// Every exact file and directory prefix the per-file rules scope on.
#[cfg(test)]
pub const SCOPE_PATHS: &[&[&str]] = &[
    SERVING_PATHS,
    SERVING_PATHS_PREFIX,
    CAST_PATHS_EXACT,
    CAST_PATHS_PREFIX,
    UNSAFE_ALLOWED_FILES,
    WALLCLOCK_ALLOWLIST_PREFIX,
    WALLCLOCK_ALLOWLIST_EXACT,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_file(&parse_file(path, src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- determinism-wallclock ------------------------------------------

    #[test]
    fn instant_now_flagged_outside_time_namespace() {
        let src = r#"
            fn seed() -> u64 { let t = std::time::Instant::now(); 0 }
            static STARTED: LazyLock<Instant> = LazyLock::new(|| Instant::now());
        "#;
        let f = lint("crates/core/src/trainer.rs", src);
        // The static initializer is outside every fn and still a read.
        assert_eq!(
            rules_of(&f),
            vec![RULE_DETERMINISM_WALLCLOCK, RULE_DETERMINISM_WALLCLOCK]
        );
    }

    #[test]
    fn instant_now_allowed_when_feeding_time_metric() {
        let src = r#"
            fn timed(tel: &Telemetry) {
                let started = std::time::Instant::now();
                work();
                tel.observe("time_epoch_seconds", started.elapsed().as_secs_f64());
            }
        "#;
        assert!(lint("crates/core/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn bench_crate_is_wallclock_allowlisted() {
        let src = "fn t() { let x = std::time::Instant::now(); }";
        assert!(lint("crates/bench/src/harness.rs", src).is_empty());
    }

    #[test]
    fn system_time_flagged_but_import_is_not() {
        let src = r#"
            use std::time::SystemTime;
            use std::time::{Duration, SystemTime as St};
            fn stamp() -> SystemTime { SystemTime::now() }
            fn age() -> u64 { SystemTime::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs()) }
        "#;
        let f = lint("crates/features/src/extract.rs", src);
        // The imports are exempt; the return type and both uses in the
        // bodies are not.
        assert!(f.iter().all(|x| x.rule == RULE_DETERMINISM_WALLCLOCK));
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![4, 4, 5], "{f:?}");
        assert!(
            f[0].msg.starts_with("`SystemTime` wall-clock read"),
            "{f:?}"
        );
    }

    #[test]
    fn serve_deadline_module_is_wallclock_exempt_but_not_underflow_exempt() {
        let src = r#"
            fn remaining(at: std::time::Instant) -> std::time::Duration {
                at.saturating_duration_since(std::time::Instant::now())
            }
            fn bad(a: u32, b: u32) -> u32 { a - b }
        "#;
        let f = lint("crates/serve/src/deadline.rs", src);
        // The Instant read passes (this is the sanctioned module); the
        // subtraction is still an arith-underflow finding.
        assert_eq!(rules_of(&f), vec![RULE_ARITH_UNDERFLOW]);
    }

    #[test]
    fn serve_crate_outside_deadline_is_wallclock_scoped() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = lint("crates/serve/src/engine.rs", src);
        assert!(
            f.iter().any(|x| x.rule == RULE_DETERMINISM_WALLCLOCK),
            "{f:?}"
        );
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = r#"
            fn prod(v: &[f32]) -> f32 {
                #[cfg(test)]
                let t = std::time::Instant::now();
                v.iter().sum()
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let t = std::time::Instant::now();
                    let (a, b) = (3u32, 1u32);
                    assert!(a - b == 2 && 0.5f32 == 0.5);
                }
            }
        "#;
        assert!(lint("crates/core/src/serving.rs", src).is_empty());
    }

    // --- arith-underflow ------------------------------------------------

    #[test]
    fn unsigned_subtraction_flagged_on_serving_path() {
        let src = "fn slot(t: u16, ts: u16) -> usize { (t - ts) as usize }";
        let f = lint("crates/features/src/online.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_ARITH_UNDERFLOW]);
    }

    #[test]
    fn saturating_and_checked_sub_are_clean() {
        let src = r#"
            fn slot(t: u16, ts: u16) -> usize {
                t.saturating_sub(ts) as usize + t.checked_sub(1).unwrap_or(0) as usize
            }
        "#;
        let f = lint("crates/features/src/feeds.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unary_minus_and_float_literals_are_not_flagged() {
        let src = r#"
            fn f(x: f32) -> f32 { x - 1.0 }
            fn g(x: f32) -> f32 { x - -2.5 }
            fn h(x: i32) -> i32 { -x }
            fn k(x: f64) -> f64 { x - f64::EPSILON }
        "#;
        let f = lint("crates/features/src/online.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn underflow_rule_scoped_to_serving_files() {
        let src = "fn f(a: u32, b: u32) -> u32 { a - b }";
        assert!(lint("crates/nn/src/matrix.rs", src).is_empty());
        assert_eq!(
            rules_of(&lint("crates/serve/src/engine.rs", src)),
            vec![RULE_ARITH_UNDERFLOW]
        );
    }

    #[test]
    fn underflow_finding_is_suppressible_with_reason() {
        let src = r#"
            fn f(a: u32, b: u32) -> u32 {
                // deepsd-lint: allow(arith-underflow, reason="a >= b guarded by the caller")
                a - b
            }
        "#;
        assert!(lint("crates/core/src/serving.rs", src).is_empty());
    }

    #[test]
    fn underflow_in_test_code_is_skipped() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f(a: u32, b: u32) -> u32 { a - b }
            }
        "#;
        assert!(lint("crates/features/src/online.rs", src).is_empty());
    }

    // --- float-eq -------------------------------------------------------

    #[test]
    fn float_literal_comparison_flagged_everywhere() {
        let src = "fn f(x: f32) -> bool { x == 1.0 }";
        let f = lint("crates/baselines/src/tree.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_FLOAT_EQ]);
    }

    #[test]
    fn float_const_comparison_flagged() {
        let src = "fn f(x: f64) -> bool { x != f64::INFINITY }";
        let f = lint("crates/core/src/metrics.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_FLOAT_EQ]);
    }

    #[test]
    fn integer_comparison_not_flagged() {
        let src = "fn f(x: usize) -> bool { x == 10 && x != 0 }";
        assert!(lint("crates/core/src/metrics.rs", src).is_empty());
    }

    // --- cast-truncate --------------------------------------------------

    #[test]
    fn narrowing_cast_flagged_in_scope() {
        let src = "fn idx(day: u32, t: u32) -> u16 { (day * 1440 + t) as u16 }";
        let f = lint("crates/simdata/src/types.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_CAST_TRUNCATE]);
    }

    #[test]
    fn narrowing_cast_ignored_outside_scope() {
        let src = "fn idx(day: u32) -> u16 { day as u16 }";
        assert!(lint("crates/nn/src/matrix.rs", src).is_empty());
    }

    // --- directives -----------------------------------------------------

    #[test]
    fn allow_directive_suppresses_next_line() {
        let src = r#"
            fn hot(t: u32, i: u32) -> u32 {
                // deepsd-lint: allow(arith-underflow, reason="i <= t is checked by the caller")
                t - i
            }
        "#;
        assert!(lint("crates/core/src/serving.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_same_line() {
        let src = r#"
            fn hot(t: u32, i: u32) -> u32 {
                t - i // deepsd-lint: allow(arith-underflow, reason="i <= t by construction")
            }
        "#;
        assert!(lint("crates/core/src/serving.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = r#"
            fn hot(t: u32, i: u32) -> u32 {
                // deepsd-lint: allow(arith-underflow)
                t - i
            }
        "#;
        let f = lint("crates/core/src/serving.rs", src);
        assert!(f.iter().any(|x| x.rule == RULE_LINT_DIRECTIVE), "{f:?}");
        // The un-suppressed subtraction finding must survive too.
        assert!(f.iter().any(|x| x.rule == RULE_ARITH_UNDERFLOW));
    }

    #[test]
    fn directive_mentioned_mid_comment_is_not_parsed() {
        // Prose and doc examples that merely mention the syntax are not
        // directives: only comments that *start* with `deepsd-lint:`.
        let src = "//! example: // deepsd-lint: allow(rule, reason=\"…\")\nfn f() {}";
        assert!(lint("crates/core/src/serving.rs", src).is_empty());
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let src = "// deepsd-lint: allow(no-such-rule, reason=\"x\")\nfn f() {}";
        let f = lint("crates/core/src/serving.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_LINT_DIRECTIVE]);
    }

    #[test]
    fn allow_does_not_cover_other_rules() {
        let src = r#"
            fn hot(x: f32) -> bool {
                // deepsd-lint: allow(arith-underflow, reason="not the right rule")
                x == 1.0
            }
        "#;
        let f = lint("crates/core/src/serving.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_FLOAT_EQ]);
    }

    // --- unsafe-scope ---------------------------------------------------

    #[test]
    fn unsafe_outside_sanctioned_files_is_flagged() {
        let src = r#"
            fn f(p: *const f32) -> f32 {
                unsafe { *p }
            }
        "#;
        let f = lint("crates/core/src/trainer.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_UNSAFE_SCOPE]);
    }

    #[test]
    fn unsafe_outside_sanctioned_files_cannot_be_suppressed() {
        let src = r#"
            fn f(p: *const f32) -> f32 {
                // deepsd-lint: allow(unsafe-scope, reason="nice try")
                unsafe { *p }
            }
        "#;
        let f = lint("crates/core/src/trainer.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_UNSAFE_SCOPE], "{f:?}");
    }

    #[test]
    fn unannotated_unsafe_in_kernels_is_flagged() {
        let src = r#"
            fn f(p: *const f32) -> f32 {
                unsafe { *p }
            }
        "#;
        let f = lint("crates/nn/src/kernels.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_UNSAFE_SCOPE]);
    }

    #[test]
    fn annotated_unsafe_in_kernels_is_clean() {
        let src = r#"
            fn f(p: *const f32) -> f32 {
                // deepsd-lint: allow(unsafe-scope, reason="caller guarantees p is in bounds")
                unsafe { *p }
            }
        "#;
        let f = lint("crates/nn/src/kernels.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_unsafe_fn_in_shard_is_clean() {
        let src = r#"
            // deepsd-lint: allow(unsafe-scope, reason="lifetime-only transmute, joined before expiry")
            unsafe fn erase(x: u32) -> u32 { x }
        "#;
        let f = lint("crates/nn/src/shard.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_in_test_code_is_skipped() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f(p: *const f32) -> f32 {
                    unsafe { *p }
                }
            }
        "#;
        let f = lint("crates/core/src/trainer.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_not_flagged() {
        let src = r#"
            // unsafe is discussed here but never written
            fn f() -> &'static str { "unsafe" }
        "#;
        let f = lint("crates/core/src/trainer.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // --- determinism of the linter itself -------------------------------

    #[test]
    fn output_is_deterministic() {
        let src = r#"
            fn hot(v: &[f32], i: usize, j: usize) -> f32 {
                let t = std::time::Instant::now();
                let a = v[i - j];
                if a == 1.0 { return 0.0 }
                a * (i - 1) as f32
            }
        "#;
        let a = lint("crates/core/src/serving.rs", src);
        let b = lint("crates/core/src/serving.rs", src);
        assert_eq!(a, b);
        assert!(a.len() >= 4, "expected several findings, got {a:?}");
        let lines: Vec<u32> = a.iter().map(|f| f.line).collect();
        let mut sorted_lines = lines.clone();
        sorted_lines.sort_unstable();
        assert_eq!(lines, sorted_lines, "findings must come out in line order");
    }
}
