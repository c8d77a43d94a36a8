//! # flowtune-query
//!
//! Physical query operators executed against real data, with and without
//! indexes. The paper grounds its index-speedup model in four measured
//! query classes on TPC-H `lineitem` (Table 6: order-by 7.44×, large
//! range 94×, small range 307×, lookup 627×); this crate reproduces those
//! measurements on the synthetic `lineitem` of `flowtune-storage` and the
//! B+Tree/hash indexes of `flowtune-index`.
//!
//! The five operator categories of the paper's §1 are covered:
//!
//! | Category     | No-index path              | Indexed path                  |
//! |--------------|----------------------------|-------------------------------|
//! | Lookup       | full scan                  | B+Tree / hash probe           |
//! | Range select | full scan with predicate   | B+Tree range scan             |
//! | Sorting      | comparison argsort         | B+Tree in-order traversal     |
//! | Grouping     | sort-based grouping        | B+Tree ordered grouping       |
//! | Join         | nested loops / sort-merge  | merge join over two B+Trees   |

#![allow(
    clippy::disallowed_types,
    reason = "hash collections here never reach schedules, costs or reports, the output the ban protects"
)]

//!
//! Multi-predicate queries ride on composite indexes: `composite`
//! plans them (leftmost-prefix rule, covering detection), `multi`
//! executes them with deterministic touched-row accounting.

pub mod composite;
pub mod group;
pub mod join;
pub mod lookup;
pub mod multi;
pub mod plan;
pub mod sort;
pub mod table6;
pub mod timer;

pub use composite::{
    choose_composite, prefix_match, ColPredicate, CompositePlan, CompositeStats, IndexDef,
    QuerySpec,
};
pub use multi::{
    build_composite, composite_select, scan_multi, ExecCounts, ExecResult, MultiTable,
};
pub use plan::{choose, what_if_speedup, AccessPath, AvailableIndexes, Predicate, TableStats};
pub use table6::{measure_table6, SpeedupRow};
