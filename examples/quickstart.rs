//! Quickstart: run the QaaS service with gain-based index auto-tuning
//! for a short horizon and print what happened.
//!
//! ```bash
//! cargo run --release -p flowtune-core --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn main() {
    // Table 3 defaults (60 s quanta, $0.1/quantum VMs, $1e-4/MB/quantum
    // storage, 100-operator dataflows) with a 60-quantum demo horizon.
    let mut config = ServiceConfig::default();
    config.params.total_quanta = 60;
    config.workload = WorkloadKind::Random;
    config.policy = IndexPolicy::Gain { delete: true };

    println!(
        "running the QaaS service for {} quanta...",
        config.params.total_quanta
    );
    let mut service = QaasService::new(config);
    let report = service.run().expect("service run failed");

    println!();
    println!("dataflows issued:       {}", report.dataflows_issued);
    println!("dataflows finished:     {}", report.dataflows_finished);
    println!(
        "avg time per dataflow:  {:.2} quanta",
        report.avg_makespan_quanta()
    );
    println!("cost per dataflow:      ${:.3}", report.cost_per_dataflow());
    println!("compute cost:           {}", report.compute_cost);
    println!("index storage cost:     {}", report.index_storage_cost);
    println!(
        "build ops completed:    {} (killed: {}, {:.1} % of all ops)",
        report.builds_completed,
        report.builds_killed,
        report.killed_percentage()
    );
    println!("indexes deleted:        {}", report.indexes_deleted);
    if let Some(last) = report.timeline.last() {
        println!(
            "index set at end:       {} indexes / {} partitions / {:.1} MB",
            last.indexes_built,
            last.index_partitions,
            last.stored_bytes as f64 / (1024.0 * 1024.0)
        );
    }
}
