//! Pinned interleaver perf baseline: memoized-bound + dominance-pruning
//! knapsack solver vs the retained pre-optimization reference.
//!
//! Runs both implementations on the same seeded workloads in the same
//! process and writes `BENCH_interleave.json` (schema
//! `flowtune.bench_interleave.v1`, documented in `EXPERIMENTS.md`). The
//! committed full-run file at the repository root pins the DESIGN §5i
//! acceptance criterion (enforced by `tests/bench_baselines.rs`). The
//! golden equivalence suite in `flowtune-interleave` separately proves
//! both solvers produce element-wise identical solutions; this binary
//! re-asserts that on every instance it times, then measures.
//!
//! Scenario families:
//!
//! * `solve/random` — independent sizes (1..=30) and values: bound
//!   pruning already works well here, so this row keeps the state
//!   table honest on instances where it has little to do.
//! * `solve/correlated` — values ~ 10x size + noise: near-equal
//!   densities blunt the Dantzig bound, the tree grows, and many DFS
//!   prefixes land on the same (depth, remaining) state for dominance
//!   pruning to collapse.
//! * `solve/equal_density` — identical items (the subset-sum-like
//!   adversary of Algorithm 3's docs): equal densities defeat bound
//!   pruning entirely; only the state table keeps the search
//!   polynomial.
//! * `pack/montage` — end-to-end Algorithm 2: `LpInterleaver` over a
//!   real scheduled skyline vs the reference packer.
//!
//! Flags:
//!
//! * `--smoke` — small instances and few samples; exercises every code
//!   path in seconds for CI. Smoke numbers are not a baseline.
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_interleave.json` in the current directory).
//!
//! Exits nonzero if any benchmark fails to produce samples or the
//! reference implementation was never exercised.

use flowtune_bench::compare::{compare, parse_bench_args, render_json};
use flowtune_common::json::Json;
use flowtune_common::{BuildOpId, IndexId, SimDuration, SimRng};
use flowtune_dataflow::App;
use flowtune_interleave::{reference, solve_knapsack, BuildOp, LpInterleaver};
use flowtune_sched::{BuildRef, SchedulerConfig, SkylineScheduler};
use std::hint::black_box;

const Q: SimDuration = SimDuration::from_secs(60);

/// A seeded batch of knapsack instances solved once per iteration.
struct Instance {
    capacity: u64,
    sizes: Vec<u64>,
    values: Vec<f64>,
}

fn random_instances(count: usize, items: u64, max_size: u64, seed: u64) -> Vec<Instance> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.uniform_u64(items / 2, items) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, max_size)).collect();
            let values: Vec<f64> = (0..n).map(|_| rng.uniform_u64(0, 100) as f64).collect();
            let total: u64 = sizes.iter().sum();
            Instance {
                capacity: total / 3,
                sizes,
                values,
            }
        })
        .collect()
}

/// Strongly correlated items (value = 10*size + 30), the classic hard
/// family for Dantzig-bound branch and bound: the constant offset
/// makes small items look denser than they pack, so the LP bound stays
/// loose, the tree grows — and the narrow size range makes DFS
/// prefixes collide on the same (depth, remaining) state constantly,
/// the dominance table's home turf.
fn correlated_instances(count: usize, items: u64, seed: u64) -> Vec<Instance> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.uniform_u64(items / 2, items) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| rng.uniform_u64(3, 12)).collect();
            let values: Vec<f64> = sizes.iter().map(|&s| (s * 10 + 30) as f64).collect();
            let total: u64 = sizes.iter().sum();
            Instance {
                capacity: total / 3,
                sizes,
                values,
            }
        })
        .collect()
}

/// Identical items: size 3, value 7, capacity chosen so the fractional
/// root bound is integrally unreachable (the search cannot finish
/// early) and bound pruning gets no traction. Three sizes around
/// `items` for a stabler timing row — the reference tree grows ~4x per
/// added item while the state table caps the optimized search at
/// O(items x capacity).
fn equal_density_instances(items: usize) -> Vec<Instance> {
    [items, items - 1, items - 2]
        .into_iter()
        .map(|n| Instance {
            capacity: (n as u64 / 2) * 3 + 1,
            sizes: vec![3; n],
            values: vec![7.0; n],
        })
        .collect()
}

fn solve_all_optimized(instances: &[Instance]) -> u64 {
    let mut acc = 0u64;
    for inst in instances {
        acc += solve_knapsack(inst.capacity, &inst.sizes, &inst.values).size;
    }
    acc
}

fn solve_all_reference(instances: &[Instance]) -> u64 {
    let mut acc = 0u64;
    for inst in instances {
        acc += reference::solve_knapsack(inst.capacity, &inst.sizes, &inst.values).size;
    }
    acc
}

/// Element-wise equivalence re-assertion over a whole family (the
/// debug-mode golden suite covers the same ground; this run covers the
/// exact instances being timed).
fn assert_family_equivalent(name: &str, instances: &[Instance]) {
    for (i, inst) in instances.iter().enumerate() {
        let got = solve_knapsack(inst.capacity, &inst.sizes, &inst.values);
        let want = reference::solve_knapsack(inst.capacity, &inst.sizes, &inst.values);
        assert_eq!(got.chosen, want.chosen, "{name}[{i}]: chosen sets differ");
        assert!(
            got.value == want.value,
            "{name}[{i}]: values differ ({} vs {})",
            got.value,
            want.value
        );
        assert_eq!(got.size, want.size, "{name}[{i}]: packed sizes differ");
    }
}

fn build_ops(n: u32, seed: u64) -> Vec<BuildOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 40)),
            gain: 0.5 + rng.uniform_u64(0, 1000) as f64 / 100.0,
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, out_path) = parse_bench_args(&args, "BENCH_interleave.json");
    // Item counts stay <= 18 so the reference's worst case (< 2^19
    // nodes) finishes far under the node budget: every timed row is a
    // complete, equivalence-checked search on both sides.
    let (items, instances, dag_ops, builds, samples) = if smoke {
        (10u64, 5usize, 30usize, 16u32, 3usize)
    } else {
        (18, 25, 100, 80, 10)
    };
    flowtune_bench::banner(
        "bench_interleave",
        "DESIGN 5i: memoized-bound + dominance-pruning knapsack vs retained reference",
    );
    println!(
        "mode: {}   items/instance: <= {items}   instances/family: {instances}   samples/bench: {samples}",
        if smoke { "smoke" } else { "full" }
    );
    println!();

    let mut comparisons = Vec::new();
    let mut ok = true;

    let families: Vec<(String, Vec<Instance>)> = vec![
        (
            format!("solve/random/n{items}"),
            random_instances(instances, items, 30, 0xB11),
        ),
        (
            format!("solve/correlated/n{items}"),
            correlated_instances(instances, items, 0xB12),
        ),
        (
            format!("solve/equal_density/n{items}"),
            equal_density_instances(items as usize),
        ),
    ];
    for (name, insts) in &families {
        assert_family_equivalent(name, insts);
        compare(
            "interleave",
            name,
            samples,
            || {
                black_box(solve_all_optimized(black_box(insts)));
            },
            || {
                black_box(solve_all_reference(black_box(insts)));
            },
            &mut comparisons,
            &mut ok,
        );
    }

    // End-to-end Algorithm 2 pack over a real scheduled skyline.
    {
        let mut rng = SimRng::seed_from_u64(0xB13);
        let dag = App::Montage.generate(dag_ops, &[], &mut rng);
        let scheduler = SkylineScheduler::new(SchedulerConfig::default());
        let skyline = scheduler.schedule(&dag);
        let pending = build_ops(builds, 0xB14);
        let interleaver = LpInterleaver::new(Q);
        // Equivalence of the full pack on every schedule in the skyline.
        for (i, s) in skyline.iter().enumerate() {
            let mut opt = s.clone();
            let opt_placed = interleaver.interleave(&mut opt, &pending);
            let mut rf = s.clone();
            let ref_placed = reference::pack_reference(Q, &mut rf, &pending);
            assert_eq!(opt_placed, ref_placed, "pack[{i}]: placed ops differ");
            assert_eq!(opt, rf, "pack[{i}]: packed schedules differ");
        }
        let first = skyline.first().cloned();
        if let Some(base) = first {
            compare(
                "interleave",
                &format!("pack/montage/{dag_ops}ops_{builds}builds"),
                samples,
                || {
                    let mut s = base.clone();
                    black_box(interleaver.interleave(&mut s, black_box(&pending)));
                },
                || {
                    let mut s = base.clone();
                    black_box(reference::pack_reference(Q, &mut s, black_box(&pending)));
                },
                &mut comparisons,
                &mut ok,
            );
        } else {
            eprintln!("error: scheduler produced an empty skyline");
            ok = false;
        }
    }

    if !ok {
        eprintln!("error: one or more benchmarks failed");
        std::process::exit(1);
    }
    if comparisons.is_empty() {
        eprintln!("error: the reference implementation was never exercised");
        std::process::exit(1);
    }

    let json = render_json(
        "flowtune.bench_interleave.v1",
        if smoke { "smoke" } else { "full" },
        &[("knapsack_items", Json::Int(items as i64))],
        &comparisons,
        &[],
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!();
    let min_solve = comparisons
        .iter()
        .filter(|c| c.name.starts_with("solve/"))
        .map(|c| c.speedup())
        .fold(f64::INFINITY, f64::min);
    println!(
        "solve speedups: min {min_solve:.2}x across {} rows   reference rows: {}",
        comparisons
            .iter()
            .filter(|c| c.name.starts_with("solve/"))
            .count(),
        comparisons.len()
    );
    println!("wrote {out_path}");
}
