//! The three interprocedural analyses over the workspace call graph
//! (DESIGN.md §4.10): panic-reachability from serving entry points,
//! determinism taint into the deterministic sinks, and lock-order
//! conflict detection.
//!
//! Findings feed the same shrink-only baseline ratchet as the per-file
//! rules, keyed `(rule, file)`. Every walk is deterministic: entries,
//! neighbours and result sets are sorted, so `--check` output is
//! byte-identical across runs on the same tree.

use crate::graph::{Graph, NodeId, ResolvedEvent};
use crate::parse::TaintKind;
use crate::rules::{
    Finding, RULE_DETERMINISM_TAINT, RULE_DETERMINISM_WALLCLOCK, RULE_LOCK_ORDER, RULE_PANIC_REACH,
};
use std::collections::{BTreeMap, BTreeSet};

/// Crates that never link into the serving or training binaries as
/// libraries of the hot path — the lint tool itself and the bench/load
/// harnesses. Their fns stay out of the graph so name collisions
/// (`main`, `run`, …) cannot fabricate reachability.
pub const GRAPH_EXCLUDED_CRATES: &[&str] = &["bench", "lint"];

/// Serving entry points, in reporting priority order: a panic fn
/// reachable from several groups is attributed to the earliest.
const ENTRY_GROUPS: &[(&str, EntrySpec)] = &[
    ("serve", EntrySpec::FilePrefix("crates/serve/src/")),
    (
        "online",
        EntrySpec::Named(
            "crates/core/src/serving.rs",
            &[
                "observe",
                "observe_all",
                "predict_all",
                "predict_all_report",
            ],
        ),
    ),
    (
        "continual",
        EntrySpec::Named(
            "crates/core/src/continual.rs",
            &["ingest", "ingest_one", "run_round"],
        ),
    ),
];

/// Deterministic sinks for the taint analysis: functions whose
/// behaviour must be a pure function of their inputs.
const TAINT_SINKS: &[(&str, &str, &str)] = &[
    (
        "telemetry snapshot",
        "crates/core/src/telemetry.rs",
        "to_json_without_timings",
    ),
    (
        "trainer epoch loop",
        "crates/core/src/trainer.rs",
        "train_ensemble",
    ),
    (
        "continual promotion decision",
        "crates/core/src/continual.rs",
        "run_round",
    ),
];

enum EntrySpec {
    /// Every fn in files under this prefix.
    FilePrefix(&'static str),
    /// Named fns in one file.
    Named(&'static str, &'static [&'static str]),
}

fn entry_nodes(g: &Graph, spec: &EntrySpec) -> Vec<NodeId> {
    match spec {
        EntrySpec::FilePrefix(p) => g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file.starts_with(p))
            .map(|(i, _)| i)
            .collect(),
        EntrySpec::Named(file, names) => g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == *file && names.contains(&f.name.as_str()))
            .map(|(i, _)| i)
            .collect(),
    }
}

/// Runs all three analyses and returns their findings (unsorted; the
/// caller merges them with the per-file rule findings and sorts).
pub fn run(g: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    panic_reach(g, &mut findings);
    determinism_taint(g, &mut findings);
    lock_order(g, &mut findings);
    findings
}

/// Panic sites in `f` that survive site-level audits.
fn live_panic_sites(g: &Graph, node: NodeId) -> Vec<&crate::parse::PanicSite> {
    let f = &g.fns[node];
    f.panics
        .iter()
        .filter(|s| !g.is_allowed(RULE_PANIC_REACH, &f.file, s.line))
        .collect()
}

/// (1) Panic-reachability: from each entry group, walk the call graph
/// and report every reachable fn that still contains an unaudited
/// panic site, with the shortest call chain from the nearest entry.
fn panic_reach(g: &Graph, out: &mut Vec<Finding>) {
    // Per-group BFS, in priority order; first group to reach a node
    // claims it.
    let mut claimed: BTreeMap<NodeId, (&str, Vec<NodeId>)> = BTreeMap::new();
    let mut reached_by: BTreeMap<NodeId, Vec<&str>> = BTreeMap::new();
    for (group, spec) in ENTRY_GROUPS {
        let entries = entry_nodes(g, spec);
        if entries.is_empty() {
            continue;
        }
        let pred = g.bfs(&entries, false);
        for (&node, _) in pred.iter() {
            reached_by.entry(node).or_default().push(group);
            claimed
                .entry(node)
                .or_insert_with(|| (group, g.chain(&pred, node)));
        }
    }

    for (&node, (group, chain)) in &claimed {
        let f = &g.fns[node];
        let sites = live_panic_sites(g, node);
        if sites.is_empty() {
            continue;
        }
        // Fn-level audit: an allow on the line of (or above) the fn
        // covers every site in it.
        if g.is_allowed(RULE_PANIC_REACH, &f.file, f.line) {
            continue;
        }
        let first = sites[0];
        let groups = reached_by
            .get(&node)
            .map(|v| v.join("+"))
            .unwrap_or_default();
        out.push(Finding {
            rule: RULE_PANIC_REACH,
            path: f.file.clone(),
            line: f.line,
            msg: format!(
                "`{}` has {} panic site(s) ({} at line {}) reachable from {} entry points [{}]: {}",
                f.qual_name(),
                sites.len(),
                first.what,
                first.line,
                group,
                groups,
                g.render_chain(chain),
            ),
        });
    }
}

/// Taint sites in `f` that survive the built-in sanitizers and
/// site-level audits. Wall-clock reads in a fn that publishes a
/// `"time_…"` metric are sanctioned (the timing namespace is excluded
/// from the deterministic snapshot), and a site-level
/// `allow(determinism-wallclock)` carries over — the read was already
/// audited.
fn live_taint_sites(g: &Graph, node: NodeId) -> Vec<&crate::parse::TaintSite> {
    let f = &g.fns[node];
    f.taints
        .iter()
        .filter(|s| {
            if s.kind == TaintKind::WallClock
                && (f.has_time_metric || g.is_allowed(RULE_DETERMINISM_WALLCLOCK, &f.file, s.line))
            {
                return false;
            }
            !g.is_allowed(RULE_DETERMINISM_TAINT, &f.file, s.line)
        })
        .collect()
}

/// (2) Determinism taint: from each deterministic sink, walk the call
/// graph; any reachable fn with a live taint source makes the sink's
/// output depend on wall-clock, hash order or the environment.
fn determinism_taint(g: &Graph, out: &mut Vec<Finding>) {
    // node → (sink names reaching it, shortest chain from first sink)
    let mut tainted: BTreeMap<NodeId, (Vec<&str>, Vec<NodeId>)> = BTreeMap::new();
    for (sink_name, file, fn_name) in TAINT_SINKS {
        let sinks = g.find(file, None, fn_name);
        if sinks.is_empty() {
            continue;
        }
        let pred = g.bfs(&sinks, false);
        for (&node, _) in pred.iter() {
            let entry = tainted
                .entry(node)
                .or_insert_with(|| (Vec::new(), g.chain(&pred, node)));
            entry.0.push(sink_name);
        }
    }

    for (&node, (sink_names, chain)) in &tainted {
        let f = &g.fns[node];
        let sites = live_taint_sites(g, node);
        if sites.is_empty() {
            continue;
        }
        if g.is_allowed(RULE_DETERMINISM_TAINT, &f.file, f.line) {
            continue;
        }
        let first = sites[0];
        out.push(Finding {
            rule: RULE_DETERMINISM_TAINT,
            path: f.file.clone(),
            line: first.line,
            msg: format!(
                "`{}` reads `{}` (line {}) and is reachable from deterministic sink(s) [{}]: {}",
                f.qual_name(),
                first.what,
                first.line,
                sink_names.join(", "),
                g.render_chain(chain),
            ),
        });
    }
}

/// (3) Lock-order analysis. Per fn, the lexical order of lock
/// acquisitions and calls yields ordered pairs `(A, B)` — `B` acquired
/// while `A` may still be held (guards are over-approximated as held to
/// the end of the fn; locks acquired inside a callee are assumed
/// released when it returns unless the callee's own pairs say
/// otherwise). Two fns exhibiting the same two locks in opposite
/// orders can deadlock under concurrency.
fn lock_order(g: &Graph, out: &mut Vec<Finding>) {
    let n = g.fns.len();

    // Fixed point: transitive set of locks each fn can acquire.
    let mut acquired: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, evs) in g.events.iter().enumerate() {
        for ev in evs {
            if let ResolvedEvent::Lock { lock, .. } = ev {
                acquired[id].insert(lock.clone());
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            for ev in &g.events[id] {
                let ResolvedEvent::Call { targets, .. } = ev else {
                    continue;
                };
                for &t in targets {
                    if !acquired[t].is_empty() {
                        let add: Vec<String> = acquired[t]
                            .iter()
                            .filter(|l| !acquired[id].contains(*l))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            acquired[id].extend(add);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Local ordered pairs per fn: (A, B, line of B's acquisition).
    let mut pair_holders: BTreeMap<(String, String), Vec<(NodeId, u32)>> = BTreeMap::new();
    for id in 0..n {
        let mut held: Vec<(String, u32)> = Vec::new();
        let mut local: BTreeSet<(String, String, u32)> = BTreeSet::new();
        for ev in &g.events[id] {
            match ev {
                ResolvedEvent::Lock { lock, line } => {
                    for (a, _) in &held {
                        if a != lock {
                            local.insert((a.clone(), lock.clone(), *line));
                        }
                    }
                    held.push((lock.clone(), *line));
                }
                ResolvedEvent::Call { targets, line } => {
                    if held.is_empty() {
                        continue;
                    }
                    for &t in targets {
                        for b in &acquired[t] {
                            for (a, _) in &held {
                                if a != b {
                                    local.insert((a.clone(), b.clone(), *line));
                                }
                            }
                        }
                    }
                }
            }
        }
        for (a, b, line) in local {
            pair_holders.entry((a, b)).or_default().push((id, line));
        }
    }

    // Conflicts: both (A, B) and (B, A) exist with A < B.
    for ((a, b), holders) in &pair_holders {
        if a >= b {
            continue;
        }
        let Some(rev) = pair_holders.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let (fwd_node, fwd_line) = holders[0];
        let (rev_node, rev_line) = rev[0];
        let ff = &g.fns[fwd_node];
        let rf = &g.fns[rev_node];
        // Anchor on the lexicographically first (file, line) of the two
        // representatives so the finding is stable and suppressible.
        let (anchor, other, aline, oline) = if (&ff.file, fwd_line) <= (&rf.file, rev_line) {
            (ff, rf, fwd_line, rev_line)
        } else {
            (rf, ff, rev_line, fwd_line)
        };
        if g.is_allowed(RULE_LOCK_ORDER, &anchor.file, aline)
            || g.is_allowed(RULE_LOCK_ORDER, &anchor.file, anchor.line)
        {
            continue;
        }
        out.push(Finding {
            rule: RULE_LOCK_ORDER,
            path: anchor.file.clone(),
            line: aline,
            msg: format!(
                "locks `{a}` and `{b}` are acquired in opposite orders: `{}` takes {a}→{b} (line {fwd_line}), `{}` takes {b}→{a} (line {rev_line}) — a cross-thread deadlock window ({}:{})",
                ff.qual_name(),
                rf.qual_name(),
                other.file,
                oline,
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::parse::parse_file;

    fn analyse(files: &[(&str, &str)]) -> Vec<Finding> {
        let g = Graph::build(files.iter().map(|(p, s)| parse_file(p, s)).collect());
        let mut f = run(&g);
        f.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        f
    }

    #[test]
    fn cross_crate_panic_is_reachable_from_serve() {
        let f = analyse(&[
            (
                "crates/serve/src/server.rs",
                "pub fn handle() { deepsd::helper(); }",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn helper() { inner(); }\nfn inner(v: &[u8]) -> u8 { v.first().copied().unwrap() }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PANIC_REACH);
        assert_eq!(f[0].path, "crates/core/src/lib.rs");
        assert!(f[0].msg.contains("handle → helper → inner"), "{}", f[0].msg);
        assert!(f[0].msg.contains("[serve]"), "{}", f[0].msg);
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let f = analyse(&[
            (
                "crates/serve/src/server.rs",
                // `#[cfg(test)]` code inside a non-test fn is not compiled
                // into the daemon, so its panic is not reachable either.
                "pub fn handle(v: &[u8]) { #[cfg(test)] { v[0]; } }",
            ),
            (
                "crates/simdata/src/gen.rs",
                "pub fn offline(v: &[u8]) -> u8 { v[0] }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fn_level_allow_suppresses_panic_reach() {
        let f = analyse(&[
            (
                "crates/serve/src/server.rs",
                "pub fn handle() { deepsd_nn::kernel(); }",
            ),
            (
                "crates/nn/src/k.rs",
                "// deepsd-lint: allow(panic-reach, reason=\"indices bounded by construction\")\npub fn kernel(v: &[u8]) -> u8 { v[0] }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn site_level_panic_reach_allow_suppresses() {
        let f = analyse(&[
            (
                "crates/serve/src/server.rs",
                "pub fn handle() { deepsd::helper(); }",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn helper(v: &[u8]) -> u8 {\n    // deepsd-lint: allow(panic-reach, reason=\"len checked by caller\")\n    v[0]\n}",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn site_level_wallclock_allow_carries_over_to_taint() {
        let src = r#"
            pub fn train_ensemble() { stamp(); }
            fn stamp() -> u64 {
                // deepsd-lint: allow(determinism-wallclock, reason="logged, never branched on")
                let t = std::time::Instant::now();
                0
            }
        "#;
        assert!(analyse(&[("crates/core/src/trainer.rs", src)]).is_empty());
        // The same site audited for an unrelated rule stays tainted.
        let unaudited = src.replace("determinism-wallclock", "lock-order");
        let f = analyse(&[("crates/core/src/trainer.rs", &unaudited)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DETERMINISM_TAINT);
    }

    #[test]
    fn taint_reaching_promotion_sink_is_flagged() {
        let f = analyse(&[(
            "crates/core/src/continual.rs",
            r#"
            impl ShadowTrainer {
                fn run_round(&mut self) { seed_from_clock(); }
            }
            fn seed_from_clock() -> u64 {
                let t = std::time::Instant::now();
                0
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DETERMINISM_TAINT);
        assert!(
            f[0].msg.contains("continual promotion decision"),
            "{}",
            f[0].msg
        );
        assert!(f[0].msg.contains("Instant::now"), "{}", f[0].msg);
    }

    #[test]
    fn time_metric_sanitizes_wallclock_taint() {
        let f = analyse(&[(
            "crates/core/src/trainer.rs",
            r#"
            pub fn train_ensemble() { timed(); }
            fn timed() {
                let t = std::time::Instant::now();
                observe("time_epoch_seconds", 1.0);
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn env_read_in_trainer_is_tainted_until_allowed() {
        let src_bad = r#"
            pub fn train_ensemble() { prof(); }
            fn prof() -> bool { std::env::var("X").is_ok() }
        "#;
        let f = analyse(&[("crates/core/src/trainer.rs", src_bad)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DETERMINISM_TAINT);

        let src_ok = r#"
            pub fn train_ensemble() { prof(); }
            fn prof() -> bool {
                // deepsd-lint: allow(determinism-taint, reason="gates eprintln profiling only")
                std::env::var("X").is_ok()
            }
        "#;
        let f = analyse(&[("crates/core/src/trainer.rs", src_ok)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn map_iteration_taints_the_snapshot_sink() {
        let f = analyse(&[(
            "crates/core/src/telemetry.rs",
            r#"
            use std::collections::HashMap;
            pub fn to_json_without_timings(m: &HashMap<String, u64>) -> String {
                let mut s = String::new();
                for (k, v) in m.iter() { s.push_str(k); }
                s
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DETERMINISM_TAINT);
        // The same loop as `#[cfg(test)]` code inside the sink is not
        // compiled into it.
        let f = analyse(&[(
            "crates/core/src/telemetry.rs",
            r#"
            use std::collections::HashMap;
            pub fn to_json_without_timings(m: &HashMap<String, u64>) -> String {
                let mut s = String::new();
                #[cfg(test)]
                for (k, v) in m.iter() { s.push_str(k); }
                s
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn opposite_lock_orders_conflict() {
        let f = analyse(&[(
            "crates/serve/src/queue.rs",
            r#"
            use std::sync::Mutex;
            struct Q { jobs: Mutex<u32>, stats: Mutex<u32> }
            impl Q {
                fn a(&self) {
                    let j = self.jobs.lock();
                    let s = self.stats.lock();
                }
                fn b(&self) {
                    let s = self.stats.lock();
                    let j = self.jobs.lock();
                }
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
        assert!(f[0].msg.contains("jobs"), "{}", f[0].msg);
        assert!(f[0].msg.contains("stats"), "{}", f[0].msg);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let f = analyse(&[(
            "crates/serve/src/queue.rs",
            r#"
            use std::sync::Mutex;
            struct Q { jobs: Mutex<u32>, stats: Mutex<u32> }
            impl Q {
                fn a(&self) { let j = self.jobs.lock(); let s = self.stats.lock(); }
                fn b(&self) { let j = self.jobs.lock(); let s = self.stats.lock(); }
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interprocedural_lock_order_via_callee() {
        // `a` holds jobs and calls `take_stats`; `b` holds stats and
        // calls `take_jobs` — the conflict only exists through the graph.
        let f = analyse(&[(
            "crates/serve/src/queue.rs",
            r#"
            use std::sync::Mutex;
            struct Q { jobs: Mutex<u32>, stats: Mutex<u32> }
            impl Q {
                fn a(&self) { let j = self.jobs.lock(); self.take_stats(); }
                fn b(&self) { let s = self.stats.lock(); self.take_jobs(); }
                fn take_stats(&self) { let s = self.stats.lock(); }
                fn take_jobs(&self) { let j = self.jobs.lock(); }
            }
            "#,
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
    }

    #[test]
    fn lock_order_allow_suppresses() {
        let f = analyse(&[(
            "crates/serve/src/queue.rs",
            r#"
            use std::sync::Mutex;
            struct Q { jobs: Mutex<u32>, stats: Mutex<u32> }
            impl Q {
                fn a(&self) {
                    let j = self.jobs.lock();
                    // deepsd-lint: allow(lock-order, reason="b only runs during single-threaded drain")
                    let s = self.stats.lock();
                }
                fn b(&self) { let s = self.stats.lock(); let j = self.jobs.lock(); }
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_tables_name_real_files_and_fns() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths: Vec<&str> = crate::rules::SCOPE_PATHS.concat();
        for (_, spec) in ENTRY_GROUPS {
            paths.push(match spec {
                EntrySpec::FilePrefix(p) | EntrySpec::Named(p, _) => p,
            });
        }
        paths.extend(TAINT_SINKS.iter().map(|(_, file, _)| *file));
        let missing: Vec<&str> = paths
            .into_iter()
            .filter(|p| !root.join(p).exists())
            .collect();
        assert!(
            missing.is_empty(),
            "scope tables name missing paths: {missing:?}"
        );

        // `panic_reach` and `determinism_taint` skip an entry or sink that
        // resolves to no fn, so a rename would silently drop it.
        let (_, g) = crate::scan_workspace(&root).expect("scan the workspace");
        let mut unresolved = Vec::new();
        for (group, spec) in ENTRY_GROUPS {
            match spec {
                EntrySpec::FilePrefix(p) => {
                    if entry_nodes(&g, spec).is_empty() {
                        unresolved.push(format!("{group}: {p}"));
                    }
                }
                EntrySpec::Named(file, names) => {
                    for name in *names {
                        if g.find(file, None, name).is_empty() {
                            unresolved.push(format!("{group}: {file} {name}"));
                        }
                    }
                }
            }
        }
        for (sink, file, name) in TAINT_SINKS {
            if g.find(file, None, name).is_empty() {
                unresolved.push(format!("{sink}: {file} {name}"));
            }
        }
        assert!(
            unresolved.is_empty(),
            "unresolved entries/sinks: {unresolved:?}"
        );
    }

    #[test]
    fn analyses_are_deterministic() {
        let files = &[
            (
                "crates/serve/src/server.rs",
                "pub fn handle() { deepsd::helper(); }",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn helper(v: &[u8]) -> u8 { v[0] }",
            ),
        ];
        let a = analyse(files);
        let b = analyse(files);
        assert_eq!(a, b);
    }
}
