//! Fault matrix: fault rate × recovery policy.
//!
//! Sweeps the master fault rate against the three recovery policies
//! (no-retry, retry, retry-gain-penalty) and reports dataflows
//! finished/failed, cost per dataflow, retries, wasted money, and the
//! recovery-latency tail. Demonstrates the PR-2 acceptance criterion:
//! under faults, retry with gain penalty finishes strictly more
//! dataflows at a lower cost per dataflow than giving up.
//!
//! A second sweep drives the page-level fault kinds (crash-during-build
//! and torn-page-write) in isolation and reports the crash-consistency
//! pipeline: bad pages detected by the post-commit verification scan,
//! partitions invalidated, rebuilds completed, and the compute wasted
//! on discarded builds.
//!
//! `--smoke` shrinks the horizon and the rate grids for CI; set
//! `FLOWTUNE_QUANTA` to override the full-run horizon.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_cloud::FaultConfig;
use flowtune_core::tablefmt::render_table;
use flowtune_core::{QaasService, RecoveryConfig, RecoveryPolicyKind, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn main() {
    let _obs = flowtune_bench::obs_guard();
    let smoke = flowtune_bench::smoke();
    let quanta = if smoke {
        40
    } else {
        flowtune_bench::horizon_quanta()
    };
    let rates: &[f64] = if smoke {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.5]
    };
    flowtune_bench::banner(
        "Fault matrix",
        "robustness extension: fault rate x recovery policy",
    );
    println!(
        "horizon: {quanta} quanta{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!();

    let mut rows = vec![vec![
        "fault rate".to_string(),
        "policy".to_string(),
        "finished".to_string(),
        "failed".to_string(),
        "cost/df ($)".to_string(),
        "retries".to_string(),
        "wasted ($)".to_string(),
        "recovery p95 (q)".to_string(),
    ]];
    for &rate in rates {
        for policy in RecoveryPolicyKind::ALL {
            let mut config = ServiceConfig {
                workload: WorkloadKind::paper_phases(),
                faults: FaultConfig::with_rate(rate, FaultConfig::default().seed),
                recovery: RecoveryConfig::with_policy(policy),
                ..Default::default()
            };
            config.params.total_quanta = quanta;
            let report = QaasService::new(config).run().expect("service run failed");
            rows.push(vec![
                format!("{rate:.1}"),
                policy.label().to_string(),
                report.dataflows_finished.to_string(),
                report.dataflows_failed.to_string(),
                format!("{:.3}", report.cost_per_dataflow()),
                report.retries.to_string(),
                format!("{:.3}", report.wasted_cost.as_dollars()),
                format!("{:.2}", report.recovery_latency_percentile(95.0)),
            ]);
        }
    }
    print!("{}", render_table(&rows));
    println!();

    // --- Page-level faults: crash-during-build + torn-page-write. ---
    // Only the two page kinds fire (all other shares zeroed) so the
    // table isolates the detect -> invalidate -> rebuild pipeline.
    let page_rates: &[f64] = if smoke { &[0.3] } else { &[0.1, 0.2, 0.4] };
    println!("page-level faults (crash_build_share 0.5, torn_write_share 0.5, policy retry)");
    println!();
    let mut rows = vec![vec![
        "fault rate".to_string(),
        "crashed".to_string(),
        "verify pages".to_string(),
        "bad pages".to_string(),
        "invalidated".to_string(),
        "rebuilt".to_string(),
        "wasted (q)".to_string(),
        "wasted ($)".to_string(),
    ]];
    for &rate in page_rates {
        let mut faults = FaultConfig::with_rate(rate, FaultConfig::default().seed);
        faults.revocation_share = 0.0;
        faults.storage_share = 0.0;
        faults.straggler_share = 0.0;
        faults.build_failure_share = 0.0;
        faults.crash_build_share = 0.5;
        faults.torn_write_share = 0.5;
        let mut config = ServiceConfig {
            workload: WorkloadKind::paper_phases(),
            faults,
            recovery: RecoveryConfig::with_policy(RecoveryPolicyKind::Retry),
            ..Default::default()
        };
        config.params.total_quanta = quanta;
        let report = QaasService::new(config).run().expect("service run failed");
        rows.push(vec![
            format!("{rate:.1}"),
            report.builds_crashed.to_string(),
            report.verify_pages_scanned.to_string(),
            report.bad_pages_detected.to_string(),
            report.partitions_invalidated.to_string(),
            report.rebuilds_completed.to_string(),
            format!("{:.3}", report.wasted_compute_quanta.get()),
            format!("{:.3}", report.wasted_cost.as_dollars()),
        ]);
    }
    print!("{}", render_table(&rows));
    println!();
    println!("finding: at rate 0 all policies coincide with the fault-free goldens; under faults, retry policies convert wasted quanta into finished dataflows and the gain penalty steers the tuner away from partitions that keep failing to build; page-level corruption is always caught by the post-commit scan — detected partitions are invalidated before any probe and rebuilt under throttle, with the discarded build time accounted as waste");
}
