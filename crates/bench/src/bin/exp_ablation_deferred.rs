//! Ablation: slot-only interleaving vs deferred batch building (the
//! paper's §7 "delayed building" future work).
//!
//! Two parts:
//!
//! 1. **Library-level short-slot scenario** — when idle slots are shorter
//!    than most build operators, slot interleaving strands gain on the
//!    table; the deferred queue accumulates the unplaceable operators
//!    and flushes a paid batch once its gain covers the lease.
//! 2. **Service-level sanity check** under the paper's defaults — there,
//!    partitioned builds are deliberately small enough to fit slots (the
//!    paper's core premise), so deferral is expected to change nothing.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_common::{BuildOpId, IndexId, Money, SimDuration};
use flowtune_core::tablefmt::render_table;
use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;
use flowtune_interleave::{BuildOp, DeferredBuildQueue};
use flowtune_sched::BuildRef;

fn short_slot_scenario() {
    println!("part 1: short-slot scenario (slots 8-20 s, builds 25-55 s)");
    println!();
    let quantum = SimDuration::from_secs(60);
    let vm_price = Money::from_dollars(0.1);
    // Ten dataflow rounds, each exposing only short slots; one build op
    // per round wants to run, each worth $0.15 of gain.
    let slots_per_round: [u64; 3] = [8, 14, 20]; // seconds
    let mut stranded_gain = 0.0;
    let mut batched_gain = 0.0;
    let mut batch_cost = Money::ZERO;
    let mut queue = DeferredBuildQueue::new(quantum, vm_price);
    let mut batches = 0;
    for round in 0..10u32 {
        let op = BuildOp {
            id: BuildOpId(round),
            build: BuildRef {
                index: IndexId(round),
                part: 0,
            },
            duration: SimDuration::from_secs(25 + (round as u64 * 7) % 31),
            gain: 0.15,
        };
        let fits = slots_per_round
            .iter()
            .any(|&s| s >= op.duration.as_secs_f64() as u64);
        assert!(!fits, "scenario must make slots too short");
        // Slot-only: the op is stranded forever.
        stranded_gain += op.gain;
        // Deferred: queue it; flush when profitable.
        queue.defer([op]);
        if let Some(batch) = queue.try_flush() {
            batches += 1;
            batched_gain += batch.ops.iter().map(|o| o.gain).sum::<f64>();
            batch_cost += batch.cost;
        }
    }
    let rows = vec![
        vec![
            "variant".into(),
            "gain realised ($)".into(),
            "lease paid ($)".into(),
            "net ($)".into(),
        ],
        vec![
            "slot-only".into(),
            "0.000".into(),
            "0.000".into(),
            format!("0.000 (stranded {stranded_gain:.3})"),
        ],
        vec![
            "deferred batches".into(),
            format!("{batched_gain:.3}"),
            format!("{:.3}", batch_cost.as_dollars()),
            format!(
                "{:+.3} ({batches} batches)",
                batched_gain - batch_cost.as_dollars()
            ),
        ],
    ];
    print!("{}", render_table(&rows));
    assert!(
        batched_gain - batch_cost.as_dollars() > 0.0,
        "batches must be net-positive"
    );
    println!();
}

fn service_sanity(quanta: u64) {
    println!("part 2: service under paper defaults (builds fit slots by design)");
    println!();
    let mut rows = vec![vec![
        "variant".to_string(),
        "#dataflows finished".to_string(),
        "cost / dataflow ($)".to_string(),
        "builds completed".to_string(),
    ]];
    for (label, deferred) in [("slot-only", false), ("with deferred batches", true)] {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = quanta;
        config.policy = IndexPolicy::Gain { delete: true };
        config.workload = WorkloadKind::paper_phases();
        config.deferred_builds = deferred;
        let r = QaasService::new(config).run().expect("service run failed");
        rows.push(vec![
            label.to_string(),
            r.dataflows_finished.to_string(),
            format!("{:.3}", r.cost_per_dataflow()),
            r.builds_completed.to_string(),
        ]);
    }
    print!("{}", render_table(&rows));
    println!();
    println!("expected: near-identical — partitioned builds are sized to fit idle slots, which is the paper's whole point; deferral only matters when they don't (part 1)");
}

fn main() {
    let _obs = flowtune_bench::obs_guard();
    let quanta = flowtune_bench::horizon_quanta();
    flowtune_bench::banner(
        "Ablation: deferred batch builds",
        "slot-only interleaving vs gain-justified paid batches (§7)",
    );
    let smoke_tag = if flowtune_bench::smoke() {
        " (smoke)"
    } else {
        ""
    };
    println!("horizon: {quanta} quanta{smoke_tag}");
    println!();
    short_slot_scenario();
    service_sanity(quanta);
}
