//! Table 6 reproduction: measured index speedups.
//!
//! The paper runs four SQL queries over `lineitem.orderkey` with and
//! without a B+Tree index:
//!
//! | Query               | No-Index | Index    | Speedup |
//! |---------------------|----------|----------|---------|
//! | Order by            | 44.730 s | 6.010 s  | 7.44×   |
//! | Select range (large)| 5.103 s  | 0.054 s  | 94.44×  |
//! | Select range (small)| 4.921 s  | 0.016 s  | 307.50× |
//! | Lookup              | 4.393 s  | 0.007 s  | 627.14× |
//!
//! This module measures the same four query classes over the synthetic
//! `lineitem`. Absolute times differ (different hardware and engine), but
//! the *ordering* (lookup ≫ small range ≫ large range ≫ order-by) and the
//! orders of magnitude reproduce.

use std::time::Duration;

use flowtune_index::BPlusTree;
use flowtune_storage::{LineitemGenerator, LineitemParams};

use crate::lookup::{btree_eq, btree_range, scan_eq, scan_range};
use crate::sort::{sort_index, sort_scan};
use crate::timer::time_median;

/// One measured row of Table 6.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Query-class name as the paper prints it.
    pub query: &'static str,
    /// Median wall time without an index.
    pub no_index: Duration,
    /// Median wall time with the B+Tree index.
    pub with_index: Duration,
}

impl SpeedupRow {
    /// The speedup factor (no-index time / indexed time).
    pub fn speedup(&self) -> f64 {
        self.no_index.as_secs_f64() / self.with_index.as_secs_f64().max(1e-9)
    }
}

/// Measure the four Table 6 query classes over a synthetic `lineitem`
/// of `rows` rows; `runs` repetitions per measurement (median taken).
///
/// Selectivities mirror the paper at SF 2 (12 M rows, orderkeys to
/// ~3 M): the large range covers 1/12 of the key domain, the small range
/// 1/1200, the lookup a single key.
#[expect(
    clippy::expect_used,
    reason = "the lineitem schema types orderkey as i64, and rows >= 1 is the documented contract"
)]
pub fn measure_table6(rows: usize, seed: u64, runs: usize) -> Vec<SpeedupRow> {
    let gen = LineitemGenerator::new(LineitemParams {
        rows,
        seed,
        lines_per_order: 4,
    });
    let data = gen.generate_columns(&["orderkey"]);
    let col = data.column(0).as_i64().expect("orderkey is i64").to_vec();

    let mut pairs: Vec<(i64, u32)> = col
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, i as u32))
        .collect();
    pairs.sort_unstable();
    // Pack nodes to the 4 KiB page: an i64 leaf holds 6 + 12·order
    // payload bytes, so order 256 fills the page instead of leaving it
    // ~80% empty at the default order — fewer page loads per scan.
    let index = BPlusTree::bulk_build(256, &pairs);

    let max_key = *col.iter().max().expect("non-empty table");
    let large = (max_key / 12, max_key / 6);
    let small_width = (max_key / 1200).max(1);
    let small = (max_key / 120, max_key / 120 + small_width);
    let probe = max_key / 12;

    vec![
        SpeedupRow {
            query: "Order by",
            no_index: time_median(runs, || sort_scan(&col).len()),
            with_index: time_median(runs, || sort_index(&index).len()),
        },
        SpeedupRow {
            query: "Select range (large)",
            no_index: time_median(runs, || scan_range(&col, large.0, large.1).len()),
            with_index: time_median(runs, || btree_range(&index, large.0, large.1).len()),
        },
        SpeedupRow {
            query: "Select range (small)",
            no_index: time_median(runs, || scan_range(&col, small.0, small.1).len()),
            with_index: time_median(runs, || btree_range(&index, small.0, small.1).len()),
        },
        SpeedupRow {
            query: "Lookup",
            no_index: time_median(runs, || scan_eq(&col, probe).len()),
            with_index: time_median(runs, || btree_eq(&index, probe).len()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_complete_and_labelled() {
        let rows = measure_table6(20_000, 1, 1);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].query, "Order by");
        assert_eq!(rows[3].query, "Lookup");
    }

    #[test]
    fn indexed_paths_win_at_scale() {
        // Even at a modest 200k rows the indexed range/lookup paths must
        // already beat full scans, and lookup must beat the large range.
        let rows = measure_table6(200_000, 2, 3);
        let by_name = |n: &str| rows.iter().find(|r| r.query == n).unwrap();
        assert!(
            by_name("Select range (small)").speedup() > 1.0,
            "small-range speedup {}",
            by_name("Select range (small)").speedup()
        );
        assert!(
            by_name("Lookup").speedup() > 1.0,
            "lookup speedup {}",
            by_name("Lookup").speedup()
        );
    }
}
