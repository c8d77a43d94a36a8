//! The enforcement point: the real workspace must be invariant-clean.
//!
//! Because this is an ordinary integration test, plain `cargo test`
//! (the tier-1 gate) fails the moment anyone introduces an unwaivered
//! raw money/time `f64`, a lossy quantity cast, an obs name off the
//! golden, or a dead dependency. Waivers
//! (`// flowtune-allow(<rule>): <reason>`) are the escape hatch and
//! leave an audit trail in the diff. Determinism, ordered iteration and
//! panics are clippy's (`cargo clippy -- -D warnings`); their
//! `#[expect(clippy::…, reason = "…")]` waivers are budgeted here too.

use std::collections::BTreeMap;

use flowtune_analyze::lexer::Token;
use flowtune_analyze::{FileKind, SourceFile};

#[test]
fn real_workspace_has_no_violations() {
    let root = flowtune_analyze::workspace_root();
    let diags = flowtune_analyze::check_workspace(&root).expect("workspace scans");
    assert!(
        diags.is_empty(),
        "workspace invariant violations (waive with `// flowtune-allow(<rule>): <reason>` \
         only when the invariant genuinely holds):\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn cli_exits_zero_on_clean_workspace() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg(flowtune_analyze::workspace_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(
        status.code(),
        Some(0),
        "CLI must succeed on the clean workspace"
    );
}

#[test]
fn cli_passes_against_committed_baseline() {
    // The exact invocation ci/check.sh runs: JSON report gated on the
    // committed baseline. A clean tree has nothing to suppress, so the
    // committed ANALYZE_baseline.json must itself be the empty report.
    let root = flowtune_analyze::workspace_root();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--format", "json", "--baseline"])
        .arg(root.join("ANALYZE_baseline.json"))
        .arg(&root)
        .output()
        .expect("spawn analyzer CLI");
    assert_eq!(out.status.code(), Some(0), "baseline gate must pass");
    let doc = flowtune_common::json::parse(&String::from_utf8(out.stdout).expect("utf8"))
        .expect("valid json");
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings");
    assert!(findings.is_empty(), "clean tree must report no findings");
}

#[test]
fn committed_baseline_is_canonical_json() {
    // The baseline is machine-written (`--format json` output redirected
    // to a file), so it must round-trip byte-identically through the
    // parser and renderer — any hand edit that drifts from canonical
    // form shows up here rather than as a confusing baseline mismatch.
    let path = flowtune_analyze::workspace_root().join("ANALYZE_baseline.json");
    let text = std::fs::read_to_string(&path).expect("read ANALYZE_baseline.json");
    let doc = flowtune_common::json::parse(&text).expect("baseline parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("flowtune.analyze.v1")
    );
    assert_eq!(
        text,
        format!("{}\n", doc.render()),
        "baseline must stay in canonical rendered form"
    );
}

/// The clippy lints named by each `#[expect(…)]` / `#![expect(…)]`
/// attribute in non-test code of `file`.
fn clippy_expectations(file: &SourceFile) -> Vec<String> {
    let toks = &file.tokens;
    let is = |i: usize, text: &str| toks.get(i).is_some_and(|t: &Token| t.text == text);
    let mut lints = Vec::new();
    for at in 0..toks.len() {
        let open = if is(at + 1, "!") { at + 2 } else { at + 1 };
        if !(is(at, "#") && is(open, "[") && is(open + 1, "expect") && is(open + 2, "("))
            || file.is_test_line(toks[at].line)
        {
            continue;
        }
        let mut i = open + 3;
        while i < toks.len() && !is(i, ")") {
            if is(i, "clippy") && is(i + 1, "::") {
                lints.push(toks[i + 2].text.clone());
            }
            i += 1;
        }
    }
    lints
}

#[test]
fn waiver_budget_is_pinned() {
    // Waivers are individually justified, but their total is a budget:
    // this pin makes every new waiver (and every removal) an explicit
    // diff to reviewed expectations, so suppressions cannot accrete
    // silently. Update the counts when a waiver is genuinely added or
    // retired.
    let root = flowtune_analyze::workspace_root();
    let ws = flowtune_analyze::workspace::Workspace::discover(&root).expect("workspace scans");
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut expects: BTreeMap<String, usize> = BTreeMap::new();
    for kr in &ws.crates {
        for file in &kr.files {
            for decl in &file.waiver_decls {
                *counts.entry(decl.rule.clone()).or_insert(0) += 1;
            }
            if file.kind != FileKind::Test {
                for lint in clippy_expectations(file) {
                    *expects.entry(lint).or_insert(0) += 1;
                }
            }
        }
    }
    let want: BTreeMap<String, usize> = [
        ("cast-discipline", 1),
        ("golden-coverage", 3),
        ("newtype-discipline", 2),
        // +2 obs-discipline: the composite-candidate metrics in
        // crates/tuner/src/candidates.rs fire outside the pinned smoke
        // trace.
        ("obs-discipline", 15),
    ]
    .into_iter()
    .map(|(r, n)| (r.to_owned(), n))
    .collect();
    assert_eq!(counts, want, "per-rule waiver budget drifted");
    // The 26 panic-hygiene and 1 determinism comment waivers these
    // replaced, plus three sites the old rules never saw (the query
    // timer and the analyzer CLI, exempt by path, and a bench
    // `panic!`), fit the old total of 27: the B+Tree node-encode and
    // node-decode pairs and the Table 6 measurement pair each share one
    // function-level expectation.
    let want_expects: BTreeMap<String, usize> =
        [("disallowed_methods", 3), ("expect_used", 21), ("panic", 3)]
            .into_iter()
            .map(|(r, n)| (r.to_owned(), n))
            .collect();
    assert_eq!(expects, want_expects, "per-lint #[expect] budget drifted");
}
