//! Figure 14: the random dataflow workload (§6.5.2).
//!
//! Same four policies as Figure 12 but with a uniformly random
//! application per arrival. Cost per dataflow improves less than in the
//! phased experiment: with a random mix, indexes essentially never stop
//! being useful, so they are stored for much longer.

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
        "Figure 14",
        "random workload: dataflows finished and cost per dataflow",
    );
    let smoke_tag = if flowtune_bench::smoke() {
        " (smoke)"
    } else {
        ""
    };
    println!("horizon: {quanta} quanta{smoke_tag} (paper: 720)");
    println!();
    let policies = [
        IndexPolicy::NoIndex,
        IndexPolicy::Random,
        IndexPolicy::Gain { delete: false },
        IndexPolicy::Gain { delete: true },
    ];
    let mut rows = vec![vec![
        "policy".to_string(),
        "#dataflows finished".to_string(),
        "cost / dataflow ($)".to_string(),
        "avg time / dataflow (quanta)".to_string(),
        "indexes deleted".to_string(),
    ]];
    for policy in policies {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = quanta;
        config.policy = policy;
        config.workload = WorkloadKind::Random;
        let report = QaasService::new(config).run().expect("service run failed");
        rows.push(vec![
            policy.label().to_string(),
            report.dataflows_finished.to_string(),
            format!("{:.3}", report.cost_per_dataflow()),
            format!("{:.2}", report.avg_makespan_quanta()),
            report.indexes_deleted.to_string(),
        ]);
    }
    print!("{}", render_table(&rows));
    println!();
    println!("paper finding: Gain still finishes the most dataflows; the cost gap vs the phase workload narrows because random mixes keep indexes useful (few deletions)");
}
