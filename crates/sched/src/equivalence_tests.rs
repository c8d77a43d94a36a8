//! Golden equivalence suite: the optimized incremental skyline
//! scheduler must produce **byte-identical** skylines to the retained
//! pre-optimization implementation ([`crate::reference`]) — same
//! schedules, same assignment order within each schedule, same front
//! order — for every `App` workload, with and without optional build
//! operators, across sizes and skyline widths (DESIGN §5f).
//!
//! Any behavioural drift in the cached-objective/delta-expansion rework
//! shows up here as a precise schedule diff, not as a downstream
//! simulation anomaly.

// Redundant with the `#[cfg(test)]` on the module declaration, but
// carries the gate in-file where flowtune-analyze's per-file scan
// (its test-code exemption) can see it.
#![cfg(test)]

use flowtune_common::{IndexId, OpId, SimDuration, SimRng};
use flowtune_dataflow::{App, Dag};

use crate::reference::ReferenceSkylineScheduler;
use crate::schedule::{BuildRef, Schedule};
use crate::skyline::{OptionalOp, SchedulerConfig, SkylineScheduler};

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

fn assert_identical(dag: &Dag, config: &SchedulerConfig, optional: &[OptionalOp], label: &str) {
    let fast = SkylineScheduler::new(config.clone());
    let slow = ReferenceSkylineScheduler::new(config.clone());
    let got: Vec<Schedule> = fast.schedule_with_optional(dag, optional);
    let want: Vec<Schedule> = slow.schedule_with_optional(dag, optional);
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: skyline widths differ ({} vs {})",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{label}: schedule {i} differs");
    }
}

fn app_dag(app: App, ops: usize, seed: u64) -> Dag {
    let mut rng = SimRng::seed_from_u64(seed);
    app.generate(ops, &[], &mut rng)
}

#[test]
fn equivalent_on_all_apps_at_60_ops() {
    let config = SchedulerConfig {
        max_skyline: 8,
        ..SchedulerConfig::default()
    };
    for app in App::ALL {
        let dag = app_dag(app, 60, 0xE0);
        assert_identical(&dag, &config, &[], &format!("{}:60:plain", app.name()));
        let optional = optional_ops(24, 0xE1);
        assert_identical(
            &dag,
            &config,
            &optional,
            &format!("{}:60:optional", app.name()),
        );
    }
}

#[test]
fn equivalent_on_all_apps_at_100_ops() {
    let config = SchedulerConfig {
        max_skyline: 8,
        ..SchedulerConfig::default()
    };
    for app in App::ALL {
        let dag = app_dag(app, 100, 0xE2);
        assert_identical(&dag, &config, &[], &format!("{}:100:plain", app.name()));
        let optional = optional_ops(32, 0xE3);
        assert_identical(
            &dag,
            &config,
            &optional,
            &format!("{}:100:optional", app.name()),
        );
    }
}

#[test]
fn equivalent_at_default_width_with_heavy_optional_load() {
    // The default 24-wide skyline with more optional ops than slots:
    // stresses tie-collapse between skeleton-equivalent partials and
    // preemption of placed tails.
    let config = SchedulerConfig::default();
    let dag = app_dag(App::Montage, 60, 0xE4);
    let optional = optional_ops(48, 0xE5);
    assert_identical(&dag, &config, &optional, "montage:60:wide-optional");
}

#[test]
fn equivalent_across_skyline_widths_including_one() {
    // Width 1 exercises the fixed division-by-zero cap in both
    // implementations; widths 2/4 exercise the even-spread keep list.
    let dag = app_dag(App::Cybershake, 60, 0xE6);
    for width in [1usize, 2, 4, 16] {
        let config = SchedulerConfig {
            max_skyline: width,
            ..SchedulerConfig::default()
        };
        let optional = optional_ops(12, 0xE7);
        assert_identical(&dag, &config, &[], &format!("cybershake:width{width}"));
        assert_identical(
            &dag,
            &config,
            &optional,
            &format!("cybershake:width{width}:optional"),
        );
    }
}

#[test]
fn equivalent_with_forced_parallel_expansion() {
    // Force the worker pool onto every step (threshold 1) with several
    // thread counts: the sharded enumeration plus ordered concat must
    // reproduce the reference output exactly, optional ops included.
    // Thread count must never matter — that is the determinism
    // contract of DESIGN §5i.
    let dag = app_dag(App::Montage, 80, 0xEA);
    let optional = optional_ops(16, 0xEB);
    for threads in [2usize, 3, 8] {
        let config = SchedulerConfig {
            max_skyline: 8,
            expand_threads: threads,
            expand_threshold: 1,
            ..SchedulerConfig::default()
        };
        assert_identical(&dag, &config, &[], &format!("montage:par{threads}"));
        assert_identical(
            &dag,
            &config,
            &optional,
            &format!("montage:par{threads}:optional"),
        );
    }
}

#[test]
fn parallel_equals_sequential_on_larger_dags() {
    // Beyond reference-feasible sizes the parallel path is pinned
    // against the sequential optimized path (which the suites above
    // pin against the reference transitively at smaller sizes);
    // bench_sched re-asserts reference equivalence at 1k ops in
    // release mode where the reference is affordable.
    for (app, n) in [(App::Cybershake, 400), (App::Montage, 300)] {
        let dag = app_dag(app, n, 0xEC);
        let optional = optional_ops(40, 0xED);
        let seq = SkylineScheduler::new(SchedulerConfig {
            max_skyline: 8,
            expand_threads: 1,
            ..SchedulerConfig::default()
        });
        let par = SkylineScheduler::new(SchedulerConfig {
            max_skyline: 8,
            expand_threads: 4,
            expand_threshold: 1,
            ..SchedulerConfig::default()
        });
        assert_eq!(
            seq.schedule(&dag),
            par.schedule(&dag),
            "{}:{n}: parallel diverged",
            app.name()
        );
        assert_eq!(
            seq.schedule_with_optional(&dag, &optional),
            par.schedule_with_optional(&dag, &optional),
            "{}:{n}: parallel diverged with optional ops",
            app.name()
        );
    }
}

#[test]
fn equivalent_on_zero_duration_and_tight_quantum_edge_cases() {
    // Zero-duration ops produce (s, s) container spans — the `e >= s`
    // billing edge — and a 7s quantum misaligns every lease boundary.
    use flowtune_dataflow::{Edge, OpSpec};
    let ops: Vec<OpSpec> = (0..12)
        .map(|i| {
            OpSpec::new(
                OpId(i),
                format!("op{i}"),
                SimDuration::from_secs((i as u64 * 5) % 3),
            )
        })
        .collect();
    let edges: Vec<Edge> = (1..12)
        .map(|i| Edge {
            from: OpId((i / 2) as u32),
            to: OpId(i as u32),
            bytes: (i as u64 % 3) * 800_000_000,
        })
        .collect();
    let dag = Dag::new(ops, edges).unwrap();
    let config = SchedulerConfig {
        quantum: SimDuration::from_secs(7),
        max_skyline: 6,
        ..SchedulerConfig::default()
    };
    let optional = optional_ops(10, 0xE8);
    assert_identical(&dag, &config, &[], "edge:plain");
    assert_identical(&dag, &config, &optional, "edge:optional");
}

/// Run `schedule()` under a fresh recorder; returns the skyline with
/// the `sched.parallel_steps` and `sched.steps` counters (`None` when
/// observability is compiled out).
fn schedule_counting(sched: &SkylineScheduler, dag: &Dag) -> (Vec<Schedule>, Option<(u64, u64)>) {
    flowtune_obs::install();
    let skyline = sched.schedule(dag);
    let counters = flowtune_obs::uninstall().map(|rec| {
        let m = rec.metrics();
        (m.counter("sched.parallel_steps"), m.counter("sched.steps"))
    });
    (skyline, counters)
}

#[test]
fn pool_engaging_mid_run_is_equivalent() {
    // The first steps have a handful of candidates; the threshold of
    // 40 is reached partway through, where the pool is spawned and the
    // rest of the search resumes through it. The output must not show
    // the switch.
    let dag = app_dag(App::Montage, 100, 0xEE);
    let optional = optional_ops(24, 0xEF);
    let seq = SkylineScheduler::new(SchedulerConfig {
        max_skyline: 8,
        expand_threads: 1,
        ..SchedulerConfig::default()
    });
    for threads in [2usize, 3, 4] {
        let config = SchedulerConfig {
            max_skyline: 8,
            expand_threads: threads,
            expand_threshold: 40,
            ..SchedulerConfig::default()
        };
        assert_identical(&dag, &config, &[], &format!("montage:mid{threads}"));
        assert_identical(
            &dag,
            &config,
            &optional,
            &format!("montage:mid{threads}:optional"),
        );
        let par = SkylineScheduler::new(config);
        let (got, counters) = schedule_counting(&par, &dag);
        assert_eq!(got, seq.schedule(&dag), "montage:mid{threads}: diverged");
        assert_eq!(
            par.schedule_with_optional(&dag, &optional),
            seq.schedule_with_optional(&dag, &optional),
            "montage:mid{threads}: diverged with optional ops"
        );
        if let Some((parallel, steps)) = counters {
            assert!(
                0 < parallel && parallel < steps,
                "pool must engage partway: {parallel} parallel of {steps} steps"
            );
        }
    }
}

#[test]
fn pool_stays_idle_below_the_threshold() {
    // Several threads configured, but no step reaches the default
    // threshold: no step may go through the pool.
    let dag = app_dag(App::Montage, 30, 0xF0);
    let sched = SkylineScheduler::new(SchedulerConfig {
        expand_threads: 4,
        ..SchedulerConfig::default()
    });
    let (got, counters) = schedule_counting(&sched, &dag);
    assert!(!got.is_empty());
    if let Some((parallel, steps)) = counters {
        assert_eq!(steps, dag.len() as u64);
        assert_eq!(parallel, 0, "pool engaged below the threshold");
    }
}
