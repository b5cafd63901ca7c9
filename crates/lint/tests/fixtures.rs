//! End-to-end tests: run the deepsd-lint binary over the fixture
//! mini-workspace in `tests/fixtures/mini` (true positive, audited
//! suppression and false-positive guard for each interprocedural
//! analysis), and over the real workspace: twice to prove the output is
//! byte-identical across runs, and once as the CI lint gate.

use std::path::PathBuf;
use std::process::Command;

fn lint(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_deepsd-lint"))
        .args(args)
        .output()
        .expect("spawn deepsd-lint");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn fixture_root() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/mini")
        .to_string_lossy()
        .into_owned()
}

fn workspace_root() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn panic_reach_true_positive_allow_and_guard() {
    let (out, _, code) = lint(&["--root", &fixture_root(), "--list"]);
    assert_eq!(code, Some(0), "{out}");
    // True positive: serve::handle reaches core::helper's unwrap.
    assert!(
        out.contains("panic-reach crates/core/src/lib.rs") && out.contains("handle → helper"),
        "missing true positive:\n{out}"
    );
    // Audited at the definition: suppressed.
    assert!(
        !out.contains("audited_helper"),
        "audited fn still reported:\n{out}"
    );
    // Panics but is unreachable from every entry group: not reported.
    assert!(
        !out.contains("offline_only"),
        "unreachable fn reported:\n{out}"
    );
}

#[test]
fn determinism_taint_true_positive_allow_and_guard() {
    let (out, _, _) = lint(&["--root", &fixture_root(), "--list"]);
    // True positive: map iteration flows into the snapshot sink.
    assert!(
        out.contains("determinism-taint crates/core/src/telemetry.rs")
            && out.contains("tainted_names"),
        "missing true positive:\n{out}"
    );
    // Audited at the site: suppressed.
    assert!(
        !out.contains("determinism-taint crates/core/src/telemetry.rs:26")
            && !out.contains("audited_names"),
        "audited site still reported:\n{out}"
    );
    // Taints but no sink reaches it: not reported.
    assert!(
        !out.contains("unreachable_map_walk"),
        "unreachable taint reported:\n{out}"
    );
}

#[test]
fn lock_order_conflict_flagged_consistent_order_is_not() {
    let (out, _, _) = lint(&["--root", &fixture_root(), "--list"]);
    let lock_findings: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with("lock-order"))
        .collect();
    // enqueue (jobs→slot) vs promote (slot→jobs): exactly one conflict
    // for the pair; drain repeats enqueue's order and adds nothing.
    assert_eq!(lock_findings.len(), 1, "{out}");
    assert!(
        lock_findings[0].contains("jobs") && lock_findings[0].contains("slot"),
        "{}",
        lock_findings[0]
    );
}

#[test]
fn json_mode_is_wellformed_and_stable_ordered() {
    let (out, _, _) = lint(&["--root", &fixture_root(), "--list", "--json"]);
    assert!(out.starts_with("{\n  \"findings\": ["), "{out}");
    assert!(out.contains("\"rule\": \"panic-reach\""), "{out}");
    // Field order is fixed: rule before path before line before msg.
    let first = out.find("\"rule\"").unwrap();
    assert!(out[first..].find("\"path\"").unwrap() < out[first..].find("\"msg\"").unwrap());
    assert!(out.trim_end().ends_with('}'), "{out}");
}

#[test]
fn explain_knows_every_rule() {
    let (rules_out, _, _) = lint(&["--list-rules"]);
    for rule in rules_out.lines().filter(|l| !l.is_empty()) {
        let (out, err, code) = lint(&["--explain", rule]);
        assert_eq!(code, Some(0), "--explain {rule}: {err}");
        assert!(out.len() > 80, "--explain {rule} too thin:\n{out}");
    }
    let (_, err, code) = lint(&["--explain", "no-such-rule"]);
    assert_ne!(code, Some(0));
    assert!(err.contains("unknown rule"), "{err}");
}

/// Runs over the real workspace: `--list` and `--list --json` are
/// byte-identical across runs, and the CI lint job's conditions hold —
/// `--check` is within the baseline, no panic site is reachable from a
/// `deepsd-serve` entry point, and no determinism taint reaches a
/// deterministic sink.
#[test]
fn output_is_byte_identical_across_runs_on_the_real_workspace() {
    let root = workspace_root();
    let (a, _, code_a) = lint(&["--root", &root, "--list"]);
    let (b, _, code_b) = lint(&["--root", &root, "--list"]);
    assert_eq!(code_a, code_b);
    assert_eq!(a, b, "two --list runs differ");
    let (ja, _, _) = lint(&["--root", &root, "--list", "--json"]);
    let (jb, _, _) = lint(&["--root", &root, "--list", "--json"]);
    assert_eq!(ja, jb, "two --json runs differ");

    let (out, err, code) = lint(&["--root", &root, "--check"]);
    assert_eq!(code, Some(0), "--check failed:\n{out}{err}");
    let serve_reachable: Vec<&str> = a
        .lines()
        .filter(|l| l.starts_with("panic-reach") && l.contains("[serve"))
        .collect();
    assert!(
        serve_reachable.is_empty(),
        "panic sites reachable from serve entry points:\n{}",
        serve_reachable.join("\n")
    );
    let tainted: Vec<&str> = a
        .lines()
        .filter(|l| l.starts_with("determinism-taint"))
        .collect();
    assert!(
        tainted.is_empty(),
        "determinism taint reaches a deterministic sink:\n{}",
        tainted.join("\n")
    );
}
