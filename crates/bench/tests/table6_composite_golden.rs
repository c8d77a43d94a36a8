//! Pins the deterministic smoke report of `exp_table6_composite` to
//! `tests/golden/table6_composite_smoke.txt` and asserts the ISSUE's
//! acceptance properties on the structured report: a composite or
//! covering plan beats the best single-column plan on at least one
//! multi-predicate class, and leftmost-prefix subsumption never keeps
//! both `(a)` and `(a, b)`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers assert freely; clippy's in-test detection misses non-#[test] helper fns in integration tests"
)]

use flowtune_bench::table6_composite::{build_report, CompositeReport, SMOKE_ROWS};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate sits two levels below the workspace root")
        .to_path_buf()
}

/// The report is deterministic but not free to build (five B+Trees);
/// share one across the assertions.
fn report() -> &'static CompositeReport {
    static REPORT: OnceLock<CompositeReport> = OnceLock::new();
    REPORT.get_or_init(|| build_report(SMOKE_ROWS))
}

#[test]
fn smoke_report_matches_golden() {
    let golden_path = workspace_root().join("tests/golden/table6_composite_smoke.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        report().text,
        golden,
        "regenerate with: cargo run --release -p flowtune-bench --bin \
         exp_table6_composite -- --smoke > tests/golden/table6_composite_smoke.txt"
    );
}

#[test]
fn composite_beats_best_single_on_multi_predicate_classes() {
    let r = report();
    assert!(
        r.classes
            .iter()
            .any(|c| c.multi_predicate && c.pool_touched < c.single_touched),
        "no multi-predicate class improved over its best single-column plan"
    );
    // The covering class is index-only and also wins.
    assert!(r
        .classes
        .iter()
        .any(|c| c.covering && c.pool_touched < c.single_touched));
    // The bare-range class is the leftmost-prefix negative: the pool
    // cannot beat the single-column shipdate plan.
    let bare = r.classes.iter().find(|c| c.name == "bare range").unwrap();
    assert_eq!(bare.pool_touched, bare.single_touched);
}

#[test]
fn every_plan_returns_the_scan_row_set() {
    assert!(report().classes.iter().all(|c| c.rows_match));
}

#[test]
fn subsumption_never_keeps_both_a_and_ab() {
    let r = report();
    assert!(r.subsumed() > 0, "the workload must exercise subsumption");
    for a in &r.survivors {
        for b in &r.survivors {
            assert!(
                !a.is_prefix_of(b),
                "{:?} and {:?} both survived subsumption",
                a.columns,
                b.columns
            );
        }
    }
}
