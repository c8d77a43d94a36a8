//! Table 6 as a criterion benchmark: the four query classes with and
//! without a B+Tree index on `lineitem.orderkey`.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_bench::micro::Criterion;
use flowtune_bench::{criterion_group, criterion_main};
use flowtune_index::BPlusTree;
use flowtune_query::lookup::{btree_eq, btree_range, scan_eq, scan_range};
use flowtune_query::sort::{sort_index, sort_scan};
use flowtune_storage::{LineitemGenerator, LineitemParams};
use std::hint::black_box;

const ROWS: usize = 500_000;

fn setup() -> (Vec<i64>, BPlusTree<i64>) {
    let g = LineitemGenerator::new(LineitemParams {
        rows: ROWS,
        seed: 6,
        lines_per_order: 4,
    });
    let data = g.generate_columns(&["orderkey"]);
    let col = data.column(0).as_i64().expect("orderkey is i64").to_vec();
    let mut pairs: Vec<(i64, u32)> = col
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, i as u32))
        .collect();
    pairs.sort_unstable();
    let index = BPlusTree::bulk_build(64, &pairs);
    (col, index)
}

fn bench_table6(c: &mut Criterion) {
    let (col, index) = setup();
    let max_key = *col.iter().max().expect("non-empty");
    let (lo_l, hi_l) = (max_key / 12, max_key / 6);
    let small_w = (max_key / 1200).max(1);
    let (lo_s, hi_s) = (max_key / 120, max_key / 120 + small_w);
    let probe = max_key / 12;

    let mut group = c.benchmark_group("table6");
    group.sample_size(10);
    group.bench_function("order_by/no_index", |b| {
        b.iter(|| sort_scan(black_box(&col)))
    });
    group.bench_function("order_by/index", |b| {
        b.iter(|| sort_index(black_box(&index)))
    });
    group.bench_function("range_large/no_index", |b| {
        b.iter(|| scan_range(black_box(&col), lo_l, hi_l))
    });
    group.bench_function("range_large/index", |b| {
        b.iter(|| btree_range(black_box(&index), lo_l, hi_l))
    });
    group.bench_function("range_small/no_index", |b| {
        b.iter(|| scan_range(black_box(&col), lo_s, hi_s))
    });
    group.bench_function("range_small/index", |b| {
        b.iter(|| btree_range(black_box(&index), lo_s, hi_s))
    });
    group.bench_function("lookup/no_index", |b| {
        b.iter(|| scan_eq(black_box(&col), probe))
    });
    group.bench_function("lookup/index", |b| {
        b.iter(|| btree_eq(black_box(&index), probe))
    });
    group.finish();
}

criterion_group!(benches, bench_table6);
criterion_main!(benches);
