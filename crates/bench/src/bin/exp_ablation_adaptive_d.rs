//! Ablation: global fading controller `D` vs the per-index adaptive
//! learner (the paper's §7 future work, implemented in
//! `flowtune_tuner::adaptive`).
//!
//! Runs the Gain policy under the phase workload with (a) several
//! global `D` values and (b) the adaptive learner, and compares
//! throughput, cost and deletion churn. Expected: small global `D`
//! deletes too eagerly, large global `D` hoards storage; the adaptive
//! learner tracks each index's observed reuse interval and lands near
//! the best of both.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_core::tablefmt::render_table;
use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn main() {
    let _obs = flowtune_bench::obs_guard();
    let quanta = flowtune_bench::horizon_quanta();
    flowtune_bench::banner(
        "Ablation: fading controller",
        "global D vs per-index adaptive learning (§7 future work)",
    );
    let smoke_tag = if flowtune_bench::smoke() {
        " (smoke)"
    } else {
        ""
    };
    println!("horizon: {quanta} quanta{smoke_tag}, phase workload, Gain policy");
    println!();
    let mut rows = vec![vec![
        "fading".to_string(),
        "#dataflows finished".to_string(),
        "cost / dataflow ($)".to_string(),
        "avg time (quanta)".to_string(),
        "indexes deleted".to_string(),
        "builds killed".to_string(),
    ]];
    let mut configs: Vec<(String, f64, bool)> = vec![
        ("global D=0.5".into(), 0.5, false),
        ("global D=1 (Table 3)".into(), 1.0, false),
        ("global D=4".into(), 4.0, false),
        ("global D=16".into(), 16.0, false),
        ("adaptive per-index".into(), 1.0, true),
    ];
    for (label, d, adaptive) in configs.drain(..) {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = quanta;
        config.params.tuner.fading_d = d;
        config.policy = IndexPolicy::Gain { delete: true };
        config.workload = WorkloadKind::paper_phases();
        config.adaptive_fading = adaptive;
        let r = QaasService::new(config).run().expect("service run failed");
        rows.push(vec![
            label,
            r.dataflows_finished.to_string(),
            format!("{:.3}", r.cost_per_dataflow()),
            format!("{:.2}", r.avg_makespan_quanta()),
            r.indexes_deleted.to_string(),
            r.builds_killed.to_string(),
        ]);
    }
    print!("{}", render_table(&rows));
}
