//! Service-level fault/recovery regression suite.
//!
//! * Same `(workload seed, fault seed)` ⇒ byte-identical `RunReport`.
//! * Fault rate 0 reproduces the exact pre-fault golden numbers, so
//!   every EXPERIMENTS.md figure is unchanged by default.
//! * With faults on, Retry+GainPenalty completes strictly more
//!   dataflows at a lower cost-per-dataflow than NoRetry (the
//!   `exp_fault_matrix` acceptance criterion).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_cloud::FaultConfig;
use flowtune_core::{
    IndexPolicy, QaasService, RecoveryConfig, RecoveryPolicyKind, RunReport, ServiceConfig,
};
use flowtune_dataflow::WorkloadKind;

fn config(seed: u64, quanta: u64) -> ServiceConfig {
    // Mirror the `flowtune` CLI defaults so the golden numbers pinned
    // below match `flowtune --quanta N --seed S` exactly.
    let mut c = ServiceConfig {
        workload: WorkloadKind::paper_phases(),
        policy: IndexPolicy::Gain { delete: true },
        ..Default::default()
    };
    c.params.total_quanta = quanta;
    c.params.seed = seed;
    c
}

fn faulted(
    mut c: ServiceConfig,
    rate: f64,
    fault_seed: u64,
    policy: RecoveryPolicyKind,
) -> RunReport {
    c.faults = FaultConfig::with_rate(rate, fault_seed);
    c.recovery = RecoveryConfig::with_policy(policy);
    QaasService::new(c).run().expect("service run failed")
}

#[test]
fn same_seed_pair_gives_identical_run_reports() {
    let a = faulted(config(7, 30), 0.3, 42, RecoveryPolicyKind::Retry);
    let b = faulted(config(7, 30), 0.3, 42, RecoveryPolicyKind::Retry);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.containers_revoked > 0, "rate 0.3 never revoked anything");
}

#[test]
fn rate_zero_reproduces_the_pre_fault_goldens() {
    // Pinned from the pre-fault-layer binary: `flowtune --quanta 40
    // --seed 7` and `flowtune --quanta 60 --seed 11`. Any drift here
    // means the fault layer perturbed default behaviour.
    let r = faulted(config(7, 40), 0.0, 0xDEAD, RecoveryPolicyKind::Retry);
    assert_eq!(r.dataflows_issued, 56);
    assert_eq!(r.dataflows_finished, 55);
    assert_eq!(r.builds_completed, 279);
    assert_eq!(r.builds_killed, 126);
    assert_eq!(r.indexes_deleted, 0);
    assert_eq!(format!("{}", r.compute_cost), "$128.800000");
    assert_eq!(format!("{}", r.index_storage_cost), "$7.900745");
    assert_eq!(format!("{:.3}", r.cost_per_dataflow()), "2.485");
    // The fault layer stayed silent.
    assert_eq!(r.dataflows_failed, 0);
    assert_eq!(r.ops_killed_by_fault, 0);
    assert_eq!(r.containers_revoked, 0);
    assert_eq!(r.storage_faults, 0);
    assert_eq!(r.straggler_ops, 0);
    assert_eq!(r.builds_failed, 0);
    assert_eq!(r.builds_killed_by_fault, 0);
    assert_eq!(r.retries, 0);
    assert!(r.recovery_latency_quanta.is_empty());

    let r = faulted(config(11, 60), 0.0, 1, RecoveryPolicyKind::NoRetry);
    assert_eq!(r.dataflows_issued, 49);
    assert_eq!(r.dataflows_finished, 49);
    assert_eq!(r.builds_completed, 563);
    assert_eq!(r.builds_killed, 299);
    assert_eq!(r.indexes_deleted, 2);
    assert_eq!(format!("{}", r.compute_cost), "$106.100000");
    assert_eq!(format!("{}", r.index_storage_cost), "$40.711366");
}

#[test]
fn retry_with_gain_penalty_beats_no_retry_under_faults() {
    let no_retry = faulted(config(7, 40), 0.3, 0xFA_0175, RecoveryPolicyKind::NoRetry);
    let penalised = faulted(
        config(7, 40),
        0.3,
        0xFA_0175,
        RecoveryPolicyKind::RetryGainPenalty,
    );
    assert!(
        no_retry.dataflows_failed > 0,
        "rate 0.3 never failed a dataflow under no-retry"
    );
    assert!(
        penalised.dataflows_finished > no_retry.dataflows_finished,
        "retry+gain-penalty finished {} <= no-retry {}",
        penalised.dataflows_finished,
        no_retry.dataflows_finished
    );
    assert!(
        penalised.cost_per_dataflow() < no_retry.cost_per_dataflow(),
        "retry+gain-penalty ${:.3}/df >= no-retry ${:.3}/df",
        penalised.cost_per_dataflow(),
        no_retry.cost_per_dataflow()
    );
    assert!(penalised.retries > 0);
    assert!(!penalised.recovery_latency_quanta.is_empty());
    assert!(penalised.recovery_latency_percentile(100.0) > 0.0);
}

#[test]
fn recovery_keeps_wasted_money_accounted() {
    let r = faulted(config(7, 30), 0.4, 9, RecoveryPolicyKind::Retry);
    if r.ops_killed_by_fault > 0 {
        assert!(r.wasted_cost > flowtune_common::Money::ZERO);
        assert!(r.wasted_compute_quanta.get() > 0.0);
    }
    // Wasted money is a subset of all compute spending.
    assert!(r.wasted_cost <= r.compute_cost);
}
