//! `deepsd-lint` — workspace invariant checker (DESIGN.md §4.5, §4.10).
//!
//! Walks every `crates/*/src/**/*.rs` file and enforces the repo's
//! determinism, panic-safety and telemetry-hygiene invariants as named
//! rules, ratcheted against the committed `lint-baseline.txt`. Each file
//! is lexed and parsed once ([`parse`]); the per-file rules run over
//! that result, and the same parsed files build the workspace call
//! graph for three interprocedural analyses: panic-reachability from
//! the serving entry points, determinism taint into the deterministic
//! sinks, and lock-order conflict detection.
//!
//! ```text
//! cargo run -p deepsd-lint -- --check            # CI gate (exit 1 on regression)
//! cargo run -p deepsd-lint -- --check --json     # same, machine-readable findings
//! cargo run -p deepsd-lint -- --list             # print every live finding
//! cargo run -p deepsd-lint -- --update-baseline  # rewrite lint-baseline.txt
//! cargo run -p deepsd-lint -- --explain RULE     # what a rule means and how to fix it
//! ```
//!
//! Output is byte-identical across runs on the same tree: files are
//! walked in sorted order, graph walks are BFS over sorted adjacency,
//! and findings are reported in (path, line, rule) order.

mod analyses;
mod baseline;
mod graph;
mod lexer;
mod parse;
mod rules;

use baseline::Baseline;
use rules::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const BASELINE_FILE: &str = "lint-baseline.txt";

const USAGE: &str = "\
deepsd-lint — DeepSD workspace invariant checker

USAGE:
    deepsd-lint [--root DIR] [--json] (--check | --list | --update-baseline | --list-rules | --explain RULE)

MODES:
    --check            exit 1 if any finding exceeds lint-baseline.txt (CI gate)
    --list             print every live finding
    --update-baseline  rewrite lint-baseline.txt from the current tree
    --list-rules       print the rule names
    --explain RULE     print what RULE means and how to fix a finding

OPTIONS:
    --root DIR         workspace root (default: nearest ancestor with a crates/ dir)
    --json             machine-readable output for --check / --list (stable field order)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("deepsd-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let mut mode: Option<&str> = None;
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut explain_rule: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" | "--list" | "--update-baseline" | "--list-rules" => {
                if mode.is_some() {
                    return Err("more than one mode given".to_string());
                }
                mode = Some(match arg.as_str() {
                    "--check" => "check",
                    "--list" => "list",
                    "--update-baseline" => "update",
                    _ => "rules",
                });
            }
            "--explain" => {
                if mode.is_some() {
                    return Err("more than one mode given".to_string());
                }
                mode = Some("explain");
                let rule = it.next().ok_or("--explain needs a rule name")?;
                explain_rule = Some(rule.clone());
            }
            "--json" => json = true,
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    let Some(mode) = mode else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };

    if mode == "rules" {
        for rule in rules::RULES {
            println!("{rule}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if mode == "explain" {
        let rule = explain_rule.unwrap_or_default();
        match rules::explain(&rule) {
            Some(text) => {
                println!("{rule}\n");
                println!("{text}");
                return Ok(ExitCode::SUCCESS);
            }
            None => {
                return Err(format!(
                    "unknown rule '{rule}'; run --list-rules for the rule names"
                ))
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => find_root()?,
    };
    let findings = lint_workspace(&root)?;

    match mode {
        "list" => {
            if json {
                print!("{}", render_json(&findings, None));
            } else {
                for f in &findings {
                    println!("{}", f.render());
                }
                println!("{} finding(s)", findings.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        "update" => {
            let text = Baseline::from_findings(&findings).render();
            std::fs::write(root.join(BASELINE_FILE), &text)
                .map_err(|e| format!("writing {BASELINE_FILE}: {e}"))?;
            println!(
                "wrote {BASELINE_FILE}: {} finding(s) across {} (rule, file) pair(s)",
                findings.len(),
                Baseline::from_findings(&findings).counts.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let base_path = root.join(BASELINE_FILE);
            let base = match std::fs::read_to_string(&base_path) {
                Ok(text) => Baseline::parse(&text)?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
                Err(e) => return Err(format!("reading {BASELINE_FILE}: {e}")),
            };
            let live = Baseline::from_findings(&findings);
            let (over, stale) = base.check(&live);
            if json {
                print!("{}", render_json(&findings, Some((&over, &stale))));
                return Ok(if over.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            for ((rule, path), n, _) in &stale {
                println!("note: baseline for {rule} in {path} can shrink to {n}");
            }
            if over.is_empty() {
                println!(
                    "deepsd-lint: clean ({} finding(s), all within baseline)",
                    findings.len()
                );
                return Ok(ExitCode::SUCCESS);
            }
            println!("deepsd-lint: {} regression(s) over baseline:", over.len());
            for ((rule, path), n, allowed) in &over {
                println!("  {rule} in {path}: {n} finding(s), baseline allows {allowed}");
                for f in findings
                    .iter()
                    .filter(|f| f.rule == rule && &f.path == path)
                {
                    // Canonical one-line form — the GitHub problem
                    // matcher keys on it to annotate PR diffs.
                    println!("    {}", f.render());
                }
            }
            println!(
                "fix the findings, add `// deepsd-lint: allow(rule, reason=\"…\")`, run \
                 `deepsd-lint --explain <rule>` for what a rule means, or run \
                 `cargo run -p deepsd-lint -- --update-baseline` and justify the growth in review"
            );
            Ok(ExitCode::FAILURE)
        }
        _ => unreachable!("mode is validated above"),
    }
}

/// Nearest ancestor of the current directory containing `crates/`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no workspace root with a crates/ directory found; use --root".to_string());
        }
    }
}

/// Lints every `crates/*/src/**/*.rs` file under `root`: per-file rules
/// on every file, then the interprocedural analyses over the workspace
/// call graph. Findings come back sorted by (path, line, rule).
fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let (mut findings, graph) = scan_workspace(root)?;
    findings.extend(analyses::run(&graph));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// Parses every `crates/*/src/**/*.rs` file under `root` once, runs the
/// per-file rules on it, and builds the call graph from the files
/// outside [`analyses::GRAPH_EXCLUDED_CRATES`].
fn scan_workspace(root: &Path) -> Result<(Vec<Finding>, graph::Graph), String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let crates =
        sorted_dir(&crates_dir).map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    for krate in crates {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let pf = parse::parse_file(&rel, &src);
        findings.extend(rules::lint_file(&pf));
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        if !analyses::GRAPH_EXCLUDED_CRATES.contains(&krate) {
            parsed.push(pf);
        }
    }
    let graph = graph::Graph::build_with_deps(parsed, &crate_deps(root)?);
    Ok((findings, graph))
}

/// Workspace crate dependencies, read from each crate's `Cargo.toml`:
/// maps a crate directory name to the directory names of the workspace
/// crates it depends on. `deepsd` is the core crate's lib name; every
/// other crate is `deepsd-<dir>`. Call-graph resolution uses this to
/// discard cross-crate edges the build graph would reject.
fn crate_deps(
    root: &Path,
) -> Result<std::collections::BTreeMap<String, std::collections::BTreeSet<String>>, String> {
    let mut deps = std::collections::BTreeMap::new();
    let crates_dir = root.join("crates");
    for dir in sorted_dir(&crates_dir).map_err(|e| format!("reading crates/: {e}"))? {
        let manifest = dir.join("Cargo.toml");
        let Some(name) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let mut set = std::collections::BTreeSet::new();
        for line in text.lines() {
            // Dependency keys look like `deepsd-nn = { workspace = true }`.
            let Some(key) = line.split('=').next().map(str::trim) else {
                continue;
            };
            if key == "deepsd" && name != "core" {
                set.insert("core".to_string());
            } else if let Some(dep) = key.strip_prefix("deepsd-") {
                if dep.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && dep != name {
                    set.insert(dep.to_string());
                }
            }
        }
        deps.insert(name, set);
    }
    Ok(deps)
}

/// Hand-rolled JSON with stable field order (the crate is
/// zero-dependency). `baseline` adds the `--check` deviation arrays.
fn render_json(
    findings: &[Finding],
    baseline: Option<(&[baseline::Deviation], &[baseline::Deviation])>,
) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"msg\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.msg)
        ));
    }
    if findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!("  \"count\": {}", findings.len()));
    if let Some((over, stale)) = baseline {
        out.push_str(",\n  \"regressions\": [");
        for (i, ((rule, path), n, allowed)) in over.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"live\": {n}, \"allowed\": {allowed}}}",
                json_escape(rule),
                json_escape(path)
            ));
        }
        if !over.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"shrinkable\": [");
        for (i, ((rule, path), n, allowed)) in stale.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"live\": {n}, \"allowed\": {allowed}}}",
                json_escape(rule),
                json_escape(path)
            ));
        }
        if !stale.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    }
    out.push_str("\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directory entries, sorted by path for deterministic walking.
fn sorted_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

/// Recursively collects `.rs` files.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in sorted_dir(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("chain → next"), "chain → next");
    }

    #[test]
    fn json_rendering_is_wellformed_for_empty_and_nonempty() {
        let empty = render_json(&[], None);
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"count\": 0"));

        let f = vec![Finding {
            rule: "float-eq",
            path: "crates/a/src/lib.rs".to_string(),
            line: 3,
            msg: "a \"quoted\" msg".to_string(),
        }];
        let one = render_json(&f, Some((&[], &[])));
        assert!(one.contains("\"rule\": \"float-eq\""));
        assert!(one.contains("\\\"quoted\\\""));
        assert!(one.contains("\"regressions\": []"));
        assert!(one.contains("\"shrinkable\": []"));
    }
}
