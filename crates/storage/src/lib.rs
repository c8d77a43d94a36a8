//! # flowtune-storage
//!
//! Data substrate for the flowtune workspace: table schemas, columnar
//! partition data, a synthetic TPC-H `lineitem` generator (the paper uses
//! `lineitem` at scale factor 2 to size indexes and measure speedups), the
//! cloud storage-service cost meter, and the container local-disk LRU
//! cache model.
//!
//! Two layers coexist:
//!
//! * **Metadata** ([`table::TableMeta`], [`table::PartitionMeta`]) — what
//!   the scheduler/tuner/simulator see: row counts, byte sizes, column
//!   statistics. This is all the paper's cost models need.
//! * **Data** ([`column::ColumnData`], [`table::PartitionData`]) — actual
//!   values, used by `flowtune-query` and `flowtune-index` to *measure*
//!   real index speedups (Table 6) instead of assuming them.

#![allow(
    clippy::disallowed_types,
    reason = "hash collections here never reach schedules, costs or reports, the output the ban protects"
)]

pub mod cache;
pub mod column;
pub mod lineitem;
pub mod page;
pub mod pool;
pub mod schema;
pub mod store;
pub mod table;
pub mod value;

pub use cache::LruCache;
pub use column::ColumnData;
pub use lineitem::{LineitemGenerator, LineitemParams};
pub use page::{checksum64, MemPageStore, Page, PageCheck, PageStore, PAGE_PAYLOAD, PAGE_SIZE};
pub use pool::{BufferPool, PoolStats};
pub use schema::{Column, ColumnType, Schema};
pub use store::{ObjectKey, StorageService};
pub use table::{PartitionData, PartitionMeta, TableMeta};
pub use value::Value;
