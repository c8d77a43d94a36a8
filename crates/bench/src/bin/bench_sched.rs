//! Pinned scheduler perf baseline: optimized incremental skyline
//! scheduler vs the retained pre-optimization reference.
//!
//! Runs both implementations on the same seeded workloads in the same
//! process and writes `BENCH_sched.json` (schema
//! `flowtune.bench_sched.v1`, documented in `EXPERIMENTS.md`). The
//! committed full-run file at the repository root pins the DESIGN §5f
//! acceptance criterion: >= 2x median speedup on the 100-op
//! scientific-DAG `schedule()` benchmark (enforced by
//! `tests/bench_baselines.rs`). The golden equivalence suite in
//! `flowtune-sched` separately proves both implementations produce
//! byte-identical skylines, so this binary only measures time — except
//! at the 1k-op scale row, where the debug-mode suite cannot afford
//! the reference and equivalence is re-asserted here in release mode
//! before timing (DESIGN §5i).
//!
//! Scale grid (full mode): a 1k-op comparison row plus optimized-only
//! 5k/10k rows (the reference needs tens of seconds *per run* at 1k
//! and would need hours beyond it); the parallel expansion path is
//! asserted equal to the sequential one at every scale-grid size.
//!
//! Flags:
//!
//! * `--smoke` — small DAGs and few samples; exercises every code path
//!   in seconds for CI. Smoke numbers are not a baseline.
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_sched.json` in the current directory).
//!
//! Exits nonzero if any benchmark fails to produce samples or the
//! reference implementation was never exercised.

use flowtune_bench::compare::{compare, measure_standalone, parse_bench_args, render_json};
use flowtune_common::json::Json;
use flowtune_common::{IndexId, OpId, SimDuration, SimRng};
use flowtune_dataflow::{App, Dag};
use flowtune_sched::reference::ReferenceSkylineScheduler;
use flowtune_sched::skyline::OptionalOp;
use flowtune_sched::{BuildRef, SchedulerConfig, SkylineScheduler};
use std::hint::black_box;

fn optional_ops(n: u32, seed: u64) -> Vec<OptionalOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| OptionalOp {
            op: OpId(100_000 + i),
            duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 120)),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
        })
        .collect()
}

fn app_dag(app: App, ops: usize) -> Dag {
    app.generate(ops, &[], &mut SimRng::seed_from_u64(1))
}

fn config(width: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_skyline: width,
        ..SchedulerConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, out_path) = parse_bench_args(&args, "BENCH_sched.json");
    let (ops, opt_n, samples) = if smoke { (30, 8, 3) } else { (100, 32, 15) };
    flowtune_bench::banner(
        "bench_sched",
        "DESIGN 5f/5i: incremental skyline search vs retained reference",
    );
    println!(
        "mode: {}   dag ops: {ops}   samples/bench: {samples}",
        if smoke { "smoke" } else { "full" }
    );
    println!();

    let mut comparisons = Vec::new();
    let mut standalone = Vec::new();
    let mut ok = true;

    // Headline: schedule() on each application's 100-op DAG, width 8 —
    // the committed baseline's >= 2x criterion reads these rows.
    for app in App::ALL {
        let dag = app_dag(app, ops);
        let fast = SkylineScheduler::new(config(8));
        let slow = ReferenceSkylineScheduler::new(config(8));
        compare(
            "sched",
            &format!("schedule/{}", app.name()),
            samples,
            || {
                black_box(fast.schedule(black_box(&dag)));
            },
            || {
                black_box(slow.schedule(black_box(&dag)));
            },
            &mut comparisons,
            &mut ok,
        );
    }

    // Optional build operators: stresses preemption + tie-collapse.
    {
        let dag = app_dag(App::Montage, ops);
        let optional = optional_ops(opt_n, 7);
        let fast = SkylineScheduler::new(config(8));
        let slow = ReferenceSkylineScheduler::new(config(8));
        compare(
            "sched",
            "schedule_with_optional/montage",
            samples,
            || {
                black_box(fast.schedule_with_optional(black_box(&dag), black_box(&optional)));
            },
            || {
                black_box(slow.schedule_with_optional(black_box(&dag), black_box(&optional)));
            },
            &mut comparisons,
            &mut ok,
        );
    }

    // Width ablation, including the once-panicking width 1.
    {
        let dag = app_dag(App::Montage, ops);
        for width in [1usize, 8, 24] {
            let fast = SkylineScheduler::new(config(width));
            let slow = ReferenceSkylineScheduler::new(config(width));
            compare(
                "sched",
                &format!("width/{width}"),
                samples,
                || {
                    black_box(fast.schedule(black_box(&dag)));
                },
                || {
                    black_box(slow.schedule(black_box(&dag)));
                },
                &mut comparisons,
                &mut ok,
            );
        }
    }

    // Scale grid (DESIGN §5i). The comparison scale gets a release-mode
    // equivalence re-assertion (the in-crate golden suite pins 60–100
    // ops; the debug-mode reference is infeasible at 1k); every scale
    // additionally asserts the forced-parallel expansion path equals
    // the sequential one.
    let (cmp_scale, solo_scales, scale_samples) = if smoke {
        (60usize, vec![120usize], 3usize)
    } else {
        (1000, vec![5000, 10_000], 3)
    };
    {
        let dag = app_dag(App::Montage, cmp_scale);
        let fast = SkylineScheduler::new(config(8));
        let slow = ReferenceSkylineScheduler::new(config(8));
        println!("asserting optimized == reference at {cmp_scale} ops (one run each)...");
        assert_eq!(
            fast.schedule(&dag),
            slow.schedule(&dag),
            "optimized scheduler diverged from reference at {cmp_scale} ops"
        );
        compare(
            "sched",
            &format!("scale/montage/{cmp_scale}"),
            scale_samples,
            || {
                black_box(fast.schedule(black_box(&dag)));
            },
            || {
                black_box(slow.schedule(black_box(&dag)));
            },
            &mut comparisons,
            &mut ok,
        );
    }
    for n in solo_scales {
        let dag = app_dag(App::Montage, n);
        let fast = SkylineScheduler::new(config(8));
        let par = SkylineScheduler::new(SchedulerConfig {
            max_skyline: 8,
            expand_threads: 4,
            expand_threshold: 1,
            ..SchedulerConfig::default()
        });
        println!("asserting parallel == sequential at {n} ops (one run each)...");
        assert_eq!(
            fast.schedule(&dag),
            par.schedule(&dag),
            "parallel expansion diverged from sequential at {n} ops"
        );
        measure_standalone(
            "sched",
            &format!("scale/montage/{n}"),
            scale_samples,
            || {
                black_box(fast.schedule(black_box(&dag)));
            },
            &mut standalone,
            &mut ok,
        );
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
        "flowtune.bench_sched.v1",
        if smoke { "smoke" } else { "full" },
        &[("dag_ops", Json::Int(ops as i64))],
        &comparisons,
        &standalone,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!();
    let headline: Vec<f64> = comparisons
        .iter()
        .filter(|c| c.name.starts_with("schedule/"))
        .map(|c| c.speedup())
        .collect();
    let min_headline = headline.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "headline schedule() speedups: min {min_headline:.2}x across {} apps   reference rows: {}",
        headline.len(),
        comparisons.len()
    );
    println!("wrote {out_path}");
}
