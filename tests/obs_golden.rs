//! Golden determinism tests for the observability subsystem.
//!
//! Three contracts pinned here:
//!
//! 1. Two runs with the same seed produce byte-identical traces and
//!    metrics — the event log is as reproducible as the simulation.
//! 2. The smoke trace matches the committed golden files, so any
//!    schema or instrumentation change is a reviewed diff, never
//!    silent drift.
//! 3. Recording is an observer, not a participant: the `RunReport` of
//!    an instrumented run renders byte-identical to an uninstrumented
//!    one.
//!
//! The smoke configuration mirrors the CLI invocation in `ci/check.sh`:
//! `flowtune --quanta 4 --seed 1 --concurrency 1`.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_core::{QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn smoke_config() -> ServiceConfig {
    let mut config = ServiceConfig {
        workload: WorkloadKind::paper_phases(),
        concurrency: 1,
        ..Default::default()
    };
    config.params.total_quanta = 4;
    config.params.seed = 1;
    config
}

/// Run the smoke config with a recorder installed; returns the
/// Debug-rendered report, the JSONL trace, and the metrics summary.
fn recorded_run() -> (String, String, String) {
    flowtune_obs::install();
    let report = QaasService::new(smoke_config()).run();
    let rec = flowtune_obs::uninstall().expect("recorder was installed");
    let report = report.expect("service run failed");
    (format!("{report:?}"), rec.trace_jsonl(), rec.metrics_json())
}

const REGEN: &str = "regenerate with: cargo run -p flowtune-core --bin flowtune -- \
     --quanta 4 --seed 1 --concurrency 1 \
     --trace-out tests/golden/trace_smoke.jsonl \
     --metrics-out tests/golden/metrics_smoke.json";

#[test]
fn identical_seeds_produce_byte_identical_observability() {
    let (_, trace_a, metrics_a) = recorded_run();
    let (_, trace_b, metrics_b) = recorded_run();
    assert!(
        trace_a == trace_b,
        "identical seeds produced different traces"
    );
    assert!(
        metrics_a == metrics_b,
        "identical seeds produced different metrics"
    );
}

#[test]
fn trace_and_metrics_match_committed_goldens() {
    let (_, trace, metrics) = recorded_run();
    assert!(
        trace == include_str!("golden/trace_smoke.jsonl"),
        "trace drifted from tests/golden/trace_smoke.jsonl; {REGEN}"
    );
    assert!(
        metrics == include_str!("golden/metrics_smoke.json"),
        "metrics drifted from tests/golden/metrics_smoke.json; {REGEN}"
    );
}

#[test]
fn recording_does_not_perturb_the_run() {
    let (instrumented, _, _) = recorded_run();
    let report = QaasService::new(smoke_config())
        .run()
        .expect("service run failed");
    let bare = format!("{report:?}");
    assert!(
        instrumented == bare,
        "installing a recorder changed the simulation output"
    );
}
