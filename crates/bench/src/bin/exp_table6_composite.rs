//! Table 6 (composite): multi-predicate speedups from composite and
//! covering indexes on synthetic `lineitem`.
//!
//! The paper's Table 6 measures single-column index speedups; its
//! multi-predicate dataflows leave composite wins on the table. This
//! experiment observes five query classes, runs the tuner's composite
//! candidate generation (ESR order + leftmost-prefix subsumption),
//! scores the survivors through the Eq. 3–5 gain model, and compares
//! scan vs best-single vs best-composite plans both by modelled cost
//! and by deterministic touched-row counts.
//!
//! `--smoke` prints only the deterministic report, pinned byte-for-byte
//! by `tests/golden/table6_composite_smoke.txt`. The full run repeats
//! the matrix at a larger table and adds measured wall times.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_bench::table6_composite::{build_report, lineitem_table, query_classes, SMOKE_ROWS};
use flowtune_index::IndexKind;
use flowtune_query::timer::time_median;
use flowtune_query::{build_composite, composite_select, scan_multi, IndexDef};

fn main() {
    let _obs = flowtune_bench::obs_guard();
    let smoke = flowtune_bench::smoke();
    let rows = if smoke { SMOKE_ROWS } else { 600_000 };
    let report = build_report(rows);
    print!("{}", report.text);
    if smoke {
        return;
    }

    // Full mode: wall-clock comparison of the same plans (not golden —
    // timings are machine-dependent).
    println!("\n-- measured wall times (median of 5) --");
    let table = lineitem_table(rows);
    for (name, q) in &query_classes() {
        let scan_t = time_median(5, || scan_multi(&table, q));
        let mut line = format!("{name:<24} scan {:>9.3} ms", scan_t.as_secs_f64() * 1e3);
        for cand in &report.survivors {
            let def = IndexDef {
                columns: cand.columns.clone(),
                kind: IndexKind::BTree,
            };
            let tree = build_composite(&table, &def.columns, 64);
            if composite_select(&tree, &def, q, &table).is_some() {
                let t = time_median(5, || composite_select(&tree, &def, q, &table));
                line.push_str(&format!(
                    "  ({}) {:>9.3} ms",
                    def.columns.join(", "),
                    t.as_secs_f64() * 1e3
                ));
            }
        }
        println!("{line}");
    }
}
