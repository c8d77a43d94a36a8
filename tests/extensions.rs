//! Integration tests for the §7 future-work extensions: adaptive
//! per-index fading and deferred batch builds, plus the α trade-off and
//! the Eq. 1 objective.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_core::{paired_objective, IndexPolicy, QaasService, RunReport, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn run(mutate: impl FnOnce(&mut ServiceConfig)) -> RunReport {
    let mut config = ServiceConfig::default();
    config.params.total_quanta = 60;
    config.params.seed = 21;
    config.policy = IndexPolicy::Gain { delete: true };
    config.workload = WorkloadKind::paper_phases();
    config.max_skyline = 4;
    mutate(&mut config);
    QaasService::new(config).run().expect("service run failed")
}

#[test]
fn adaptive_fading_service_runs_and_builds() {
    let r = run(|c| c.adaptive_fading = true);
    assert!(r.dataflows_finished > 0);
    assert!(r.builds_completed > 0);
}

#[test]
fn deferred_builds_never_lose_throughput() {
    let base = run(|_| {});
    let deferred = run(|c| c.deferred_builds = true);
    // Under paper defaults builds fit slots, so deferral must be a
    // no-regression knob (build counts may shuffle slightly because a
    // batch-built partition no longer needs a slot build later).
    assert!(deferred.dataflows_finished >= base.dataflows_finished.saturating_sub(1));
    assert!(
        (deferred.builds_completed as f64) >= 0.8 * base.builds_completed as f64,
        "deferred {} vs base {}",
        deferred.builds_completed,
        base.builds_completed
    );
}

#[test]
fn alpha_extremes_change_build_appetite() {
    // α = 1 ignores money entirely: at least as many builds as α = 0,
    // which gates everything on storage cost.
    let money_heavy = run(|c| c.params.tuner.alpha = 0.0);
    let time_heavy = run(|c| c.params.tuner.alpha = 1.0);
    // Directional with slack: on this workload storage is cheap relative
    // to gains, so the extremes differ by a margin, not an order of
    // magnitude.
    assert!(
        time_heavy.builds_completed as f64 >= 0.9 * money_heavy.builds_completed as f64,
        "time-heavy {} < money-heavy {}",
        time_heavy.builds_completed,
        money_heavy.builds_completed
    );
}

#[test]
fn objective_is_positive_for_the_tuned_run() {
    // Longer horizon: the index set needs a warm-up period to pay off.
    let baseline = run(|c| {
        c.policy = IndexPolicy::NoIndex;
        c.params.total_quanta = 150;
    });
    let tuned = run(|c| c.params.total_quanta = 150);
    let obj = paired_objective(
        &baseline,
        &tuned,
        0.5,
        flowtune_common::Money::from_dollars(0.1),
    );
    assert!(obj > 0.0, "Eq. 1 objective should be positive, got {obj}");
}

#[test]
fn concurrency_one_degenerates_to_sequential_service() {
    let seq = run(|c| c.concurrency = 1);
    let par = run(|c| c.concurrency = 4);
    assert!(seq.dataflows_finished > 0);
    // More lanes never process fewer dataflows.
    assert!(par.dataflows_finished >= seq.dataflows_finished);
}
