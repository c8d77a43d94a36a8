//! Tuner-path micro-benchmarks: the gain evaluation and full tuning
//! decision run on every dataflow issue, so their cost bounds the
//! service's scheduling overhead.

use flowtune_bench::micro::{BenchmarkId, Criterion};
use flowtune_bench::{criterion_group, criterion_main};
use std::collections::BTreeMap;
use std::hint::black_box;

use flowtune_common::{
    DataflowId, ExperimentParams, IndexId, Money, SimDuration, SimTime, TunerConfig,
};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_tuner::gain::GainContribution;
use flowtune_tuner::{GainModel, HistoryEntry, OnlineTuner};

fn model() -> GainModel {
    GainModel::new(
        TunerConfig::default(),
        SimDuration::from_secs(60),
        Money::from_dollars(0.1),
        Money::from_dollars(1e-4),
    )
}

fn bench_gain_evaluation(c: &mut Criterion) {
    let m = model();
    let mut group = c.benchmark_group("tuner/evaluate");
    for n in [1usize, 10, 100] {
        let contributions: Vec<GainContribution> = (0..n)
            .map(|i| GainContribution {
                quanta_ago: flowtune_common::Quanta::new(i as f64 * 0.5),
                gtd: 2.0,
                gmd: 3.0,
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &contributions, |b, cs| {
            b.iter(|| {
                m.evaluate(
                    black_box(cs),
                    flowtune_common::Quanta::new(0.5),
                    100 * 1024 * 1024,
                )
            })
        });
    }
    group.finish();
}

fn bench_full_decision(c: &mut Criterion) {
    // A realistic catalog (500 indexes) and history: 550 dataflows
    // inside the default 120-quantum window (the paper-gain-lp service
    // run peaks at 544 history entries), each using 5 indexes.
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let mut tuner = OnlineTuner::new(model());
    for k in 0..550u32 {
        let mut gains = BTreeMap::new();
        for i in 0..5 {
            gains.insert(IndexId((k * 7 + i) % 500), (2.0, 3.0));
        }
        tuner.history.record(HistoryEntry {
            dataflow: DataflowId(k),
            finished_at: SimTime::from_secs(13 * k as u64),
            index_gains: gains,
        });
    }
    let current: BTreeMap<IndexId, (f64, f64)> = (0..5).map(|i| (IndexId(i), (4.0, 5.0))).collect();
    c.bench_function("tuner/decide_500_indexes", |b| {
        b.iter(|| {
            tuner.decide(
                black_box(SimTime::from_secs(13 * 550)),
                &setup.catalog,
                &[&current],
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gain_evaluation, bench_full_decision
}
criterion_main!(benches);
