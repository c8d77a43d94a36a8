//! # flowtune-index
//!
//! Index substrate: a from-scratch B+Tree and hash index (used by
//! `flowtune-query` to *measure* the speedups of Table 6), the paper's
//! analytic index size/build-time model (§3, "Data Model"), and the index
//! catalog that tracks which index partitions exist, when they were built
//! and which are stale.
//!
//! Indexes are **partitioned**: an index over a table consists of one
//! index partition per table partition, each built by an independent
//! build operator. This is what lets builds fit in idle schedule slots
//! and proceed incrementally and in parallel.

#![allow(
    clippy::disallowed_types,
    reason = "hash collections here never reach schedules, costs or reports, the output the ban protects"
)]

pub mod bptree;
pub mod catalog;
pub mod hash;
pub mod measured;
pub mod model;
pub mod store;
pub mod tuple;

pub use bptree::{BPlusTree, NodeKey};
pub use catalog::{IndexCatalog, IndexKind, IndexSpec, IndexState};
pub use hash::HashIndex;
pub use measured::measure_io;
pub use model::{IndexCostModel, MeasuredIo};
pub use store::{IndexPageStore, PartitionVerdict};
pub use tuple::{KeyPart, TupleKey, MAX_TUPLE_ARITY};
