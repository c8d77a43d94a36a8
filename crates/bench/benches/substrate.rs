//! Substrate micro-benchmarks: the LRU cache, the page checksum and
//! buffer-pool verification, and the synthetic `lineitem` generator.

#![allow(clippy::expect_used, reason = "benchmark setup fails fast on errors")]

use flowtune_bench::micro::{BenchmarkId, Criterion};
use flowtune_bench::{criterion_group, criterion_main};
use flowtune_storage::{
    checksum64, BufferPool, LineitemGenerator, LineitemParams, LruCache, MemPageStore, Page,
    PAGE_PAYLOAD, PAGE_SIZE,
};
use std::hint::black_box;

fn bench_lru(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache/lru");
    group.bench_function("insert_evict_1000", |b| {
        b.iter(|| {
            let mut cache: LruCache<u32> = LruCache::new(100 * 1024);
            for i in 0..1000u32 {
                cache.insert(black_box(i), 1024);
            }
            cache.used_bytes()
        })
    });
    group.bench_function("hit_heavy_workload", |b| {
        let mut cache: LruCache<u32> = LruCache::new(1024 * 1024);
        for i in 0..512u32 {
            cache.insert(i, 1024);
        }
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 7) % 512;
            cache.get(black_box(&k))
        })
    });
    group.finish();
}

fn bench_pages(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    // The checksummed span of one page: every page write and every
    // verified page read hashes exactly this many bytes.
    let body: Vec<u8> = (0..PAGE_SIZE - 8).map(|i| (i * 31) as u8).collect();
    group.bench_function("page_checksum", |b| b.iter(|| checksum64(black_box(&body))));
    // One recovery scan of a 64-page partition image (the image cap)
    // through a pool smaller than the image, as the index store runs it:
    // every page is read from the store, verified and re-cached.
    let mut pool = BufferPool::new(MemPageStore::new(), 32);
    let ids: Vec<_> = (0..64u8)
        .map(|i| {
            let id = pool.allocate();
            pool.write(
                id,
                Page::new(3, 1, vec![i; PAGE_PAYLOAD / 8]).expect("payload fits a page"),
            );
            id
        })
        .collect();
    group.bench_function("pool_check", |b| {
        b.iter(|| {
            ids.iter()
                .filter(|&&id| pool.check(black_box(id), 1).is_clean())
                .count()
        })
    });
    group.finish();
}

fn bench_lineitem(c: &mut Criterion) {
    let mut group = c.benchmark_group("lineitem/generate");
    group.sample_size(10);
    for rows in [10_000usize, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("orderkey_only", rows),
            &rows,
            |b, &rows| {
                b.iter(|| {
                    let g = LineitemGenerator::new(LineitemParams {
                        rows,
                        seed: 7,
                        lines_per_order: 4,
                    });
                    g.generate_columns(black_box(&["orderkey"])).rows()
                })
            },
        );
    }
    group.bench_function("full_16_columns_10k", |b| {
        b.iter(|| {
            let g = LineitemGenerator::new(LineitemParams {
                rows: 10_000,
                seed: 7,
                lines_per_order: 4,
            });
            g.generate().rows()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lru, bench_pages, bench_lineitem);
criterion_main!(benches);
