//! # flowtune-dataflow
//!
//! Dataflow model and workload synthesis.
//!
//! A dataflow `d(expr, R, N, t)` is a DAG of operators with data-flow
//! edges (§3, "Application Model"). The paper evaluates on synthetic
//! instances of three real scientific applications — **Montage** (sky
//! mosaics), **LIGO** (gravitational-wave analysis) and **CyberShake**
//! (earthquake characterisation) — produced by the Bharathi et al.
//! workflow generator. This crate re-implements those generators: the
//! published DAG shapes with operator runtimes and input sizes sampled
//! to match the paper's Table 4 statistics.
//!
//! It also provides the **file database** the dataflows read (125 files,
//! 76.69 GB, ≤128 MB partitions → ~713 partitions, four potential
//! indexes per file) and the **arrival clients** (Poisson arrivals;
//! random or phased application mix).

#![allow(
    clippy::disallowed_types,
    reason = "hash collections here never reach schedules, costs or reports, the output the ban protects"
)]

pub mod apps;
pub mod client;
pub mod dag;
pub mod dataflow;
pub mod filedb;
pub mod op;

pub use apps::{App, AppStats};
pub use client::{ArrivalClient, WorkloadKind};
pub use dag::{Dag, Edge};
pub use dataflow::{Dataflow, DataflowFactory, IndexUse};
pub use filedb::{FileDatabase, FileEntry, PartitionInfo, PotentialIndex};
pub use op::OpSpec;
