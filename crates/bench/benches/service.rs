//! End-to-end service benchmarks: one full tune → schedule → interleave
//! → execute round, and a short multi-dataflow run per policy.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_bench::micro::{BenchmarkId, Criterion};
use flowtune_bench::{criterion_group, criterion_main};
use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn short_run(policy: IndexPolicy, quanta: u64) -> usize {
    let mut config = ServiceConfig::default();
    config.params.total_quanta = quanta;
    config.policy = policy;
    config.workload = WorkloadKind::Random;
    config.max_skyline = 4;
    QaasService::new(config)
        .run()
        .expect("service run failed")
        .dataflows_finished
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/20_quanta_run");
    group.sample_size(10);
    for policy in [
        IndexPolicy::NoIndex,
        IndexPolicy::Random,
        IndexPolicy::Gain { delete: true },
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.label().replace(' ', "_")),
            &policy,
            |b, policy| b.iter(|| short_run(*policy, 20)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
