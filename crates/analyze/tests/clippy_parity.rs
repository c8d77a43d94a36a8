//! Clippy parity: determinism, ordered iteration and panic hygiene were
//! flowtune-analyze rules and are clippy's now — the bans live in
//! `crates/clippy.toml`, the lint levels in `[workspace.lints]`. This
//! test lints a zero-dependency fixture package (`tests/fixtures/clippy`,
//! its own workspace) under exactly that configuration and pins what
//! fires, line by line, so dropping a ban or a lint level fails plain
//! `cargo test`.
//!
//! The fixture copies the analyzer fixture's sites for the three
//! retired rules line for line (obs `lib.rs` 5/7/8, sched `lib.rs` 4/9,
//! sched `skyline.rs` 6/9/14, tuner `lib.rs` 4/8/9/22), adds the bans
//! that fixture never exercised, and carries one fulfilled `#[expect]`,
//! one stale `#[expect]` and one reason-less `#[allow]`.

#![allow(
    clippy::expect_used,
    reason = "test helpers assert freely; clippy's in-test detection misses non-#[test] helper fns in integration tests"
)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use flowtune_common::json::{self, Json};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

/// `(file, line, lint)` of every diagnostic `cargo clippy` reports on
/// the fixture, deduplicated across the lib and lib-test targets.
fn clippy_findings() -> BTreeSet<(String, u64, String)> {
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--all-targets",
            "--message-format=json",
        ])
        .arg("--manifest-path")
        .arg(fixture_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("clippy-parity"))
        .env(
            "CLIPPY_CONF_DIR",
            flowtune_analyze::workspace_root().join("crates"),
        )
        .output()
        .expect("spawn cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy failed on the fixture:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut found = BTreeSet::new();
    for line in String::from_utf8(out.stdout).expect("utf8").lines() {
        let msg = json::parse(line).expect("cargo emits one JSON message per line");
        let Some(diag) = msg.get("message") else {
            continue;
        };
        let Some(lint) = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
        else {
            continue;
        };
        let spans = diag.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
        let primary = spans
            .iter()
            .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
            .expect("a lint diagnostic has a primary span");
        let file = primary
            .get("file_name")
            .and_then(Json::as_str)
            .expect("file_name");
        let line = primary
            .get("line_start")
            .and_then(Json::as_int)
            .expect("line_start");
        found.insert((file.to_owned(), line as u64, lint.to_owned()));
    }
    found
}

#[test]
fn clippy_fires_exactly_on_the_retired_rules_sites() {
    let want: BTreeSet<(String, u64, String)> = [
        // The banned clock and environment entry points the analyzer
        // fixture never had, `panic!`, and a reason-less `allow`.
        ("src/extra.rs", 5, "clippy::disallowed_methods"),
        ("src/extra.rs", 9, "clippy::disallowed_methods"),
        ("src/extra.rs", 10, "clippy::disallowed_methods"),
        ("src/extra.rs", 11, "clippy::disallowed_methods"),
        ("src/extra.rs", 12, "clippy::disallowed_methods"),
        ("src/extra.rs", 17, "clippy::panic"),
        (
            "src/extra.rs",
            20,
            "clippy::allow_attributes_without_reason",
        ),
        // Analyzer fixture obs lib.rs 5/7/8; the waived unwrap (line 15)
        // is absent. Clippy also lints #[cfg(test)] code: the
        // SystemTime::now at line 26 fires, where the analyzer exempted it.
        ("src/obs.rs", 5, "clippy::disallowed_types"),
        ("src/obs.rs", 7, "clippy::disallowed_types"),
        ("src/obs.rs", 8, "clippy::disallowed_methods"),
        ("src/obs.rs", 26, "clippy::disallowed_methods"),
        // Analyzer fixture sched lib.rs 4/9. Line 13's UNIX_EPOCH is a
        // constant, not a clock read, so the expectation above it is
        // stale.
        ("src/sched.rs", 4, "clippy::disallowed_methods"),
        ("src/sched.rs", 9, "clippy::disallowed_methods"),
        ("src/sched.rs", 12, "unfulfilled_lint_expectations"),
        // Analyzer fixture skyline.rs 6/9/14; the waived expect (line
        // 19) is absent, the test-region HashMap (line 27) fires.
        ("src/skyline.rs", 6, "clippy::disallowed_types"),
        ("src/skyline.rs", 9, "clippy::disallowed_types"),
        ("src/skyline.rs", 14, "clippy::unwrap_used"),
        ("src/skyline.rs", 27, "clippy::disallowed_types"),
        // Analyzer fixture tuner lib.rs 4/8/9/22; the fulfilled
        // expectations (lines 5 and 13) suppress their lines, the
        // test-region HashMap (lines 28 and 32) fires and its unwrap
        // stays allowed in tests.
        ("src/tuner.rs", 4, "clippy::disallowed_types"),
        ("src/tuner.rs", 8, "clippy::disallowed_types"),
        ("src/tuner.rs", 9, "clippy::unwrap_used"),
        ("src/tuner.rs", 22, "clippy::disallowed_types"),
        ("src/tuner.rs", 28, "clippy::disallowed_types"),
        ("src/tuner.rs", 32, "clippy::disallowed_types"),
    ]
    .into_iter()
    .map(|(f, l, lint)| (f.to_owned(), l, lint.to_owned()))
    .collect();
    assert_eq!(clippy_findings(), want, "clippy parity drifted");
}

/// The `key = value` lines of every `[<prefix>…]` table in a manifest,
/// keyed by the table name after the prefix; comments and blanks drop.
fn lint_tables(manifest: &str, prefix: &str) -> Vec<(String, String)> {
    let mut table = None;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            table = header
                .strip_prefix(prefix)
                .map(|t| t.trim_end_matches(']').to_owned());
        } else if let Some(t) = &table {
            if !line.is_empty() && !line.starts_with('#') {
                out.push((t.clone(), line.to_owned()));
            }
        }
    }
    out
}

#[test]
fn fixture_lints_equal_the_workspace_lints() {
    let read = |p: PathBuf| std::fs::read_to_string(&p).expect("read manifest");
    let root = lint_tables(
        &read(flowtune_analyze::workspace_root().join("Cargo.toml")),
        "workspace.lints.",
    );
    let fixture = lint_tables(&read(fixture_dir().join("Cargo.toml")), "lints.");
    assert!(!root.is_empty(), "root manifest has no [workspace.lints]");
    assert_eq!(
        fixture, root,
        "fixture [lints] must mirror [workspace.lints]"
    );
}
