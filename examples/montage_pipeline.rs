//! The full planning pipeline on one Montage dataflow, step by step:
//! generate → skyline-schedule → inspect the Pareto front and its idle
//! slots → interleave build-index operators → execute on the simulated
//! cloud.
//!
//! ```bash
//! cargo run --release -p flowtune-core --example montage_pipeline
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use std::collections::BTreeMap;

use flowtune_cloud::{IndexAvailability, Simulator};
use flowtune_common::{BuildOpId, DataflowId, ExperimentParams, SimRng, SimTime};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_dataflow::App;
use flowtune_interleave::{BuildOp, LpInterleaver};
use flowtune_sched::{idle_slots, total_fragmentation, BuildRef, SkylineScheduler};

fn main() {
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let quantum = setup.params.cloud.quantum;

    // 1. Generate a Montage dataflow reading its files' partitions.
    let mut factory_rng = SimRng::seed_from_u64(99);
    let reads = setup.filedb.partitions_of(App::Montage);
    let dag = App::Montage.generate(100, &reads, &mut factory_rng);
    println!(
        "dataflow: {} operators, {} edges, critical path {:.1} s, total work {:.1} s",
        dag.len(),
        dag.edges().len(),
        dag.critical_path().as_secs_f64(),
        dag.total_work().as_secs_f64()
    );

    // 2. Skyline scheduling: the Pareto front over (time, money).
    let scheduler = SkylineScheduler::new(setup.scheduler_config(12));
    let skyline = scheduler.schedule(&dag);
    println!("\nskyline ({} schedules):", skyline.len());
    for s in &skyline {
        println!(
            "  time {:>7.1}s  money {:>3} quanta  containers {:>2}  idle {:>6.1}s",
            s.makespan().as_secs_f64(),
            s.leased_quanta(quantum),
            s.containers().len(),
            total_fragmentation(s, quantum).as_secs_f64()
        );
    }

    // 3. The service executes the fastest schedule; look at its slots.
    let mut schedule = skyline.into_iter().next().expect("non-empty skyline");
    let slots = idle_slots(&schedule, quantum);
    println!("\nfastest schedule has {} idle slots:", slots.len());
    for slot in slots.iter().take(8) {
        println!(
            "  {} [{:.1}s, {:.1}s)  ({:.1}s)",
            slot.container,
            slot.start.as_secs_f64(),
            slot.end.as_secs_f64(),
            slot.duration().as_secs_f64()
        );
    }

    // 4. Interleave build-index operators for this dataflow's indexes.
    let mut factory = flowtune_dataflow::DataflowFactory::new(
        setup.filedb.clone(),
        100,
        SimRng::seed_from_u64(100),
    );
    let df = factory.make(DataflowId(0), App::Montage, SimTime::ZERO);
    let mut pending = Vec::new();
    for u in df.index_uses.iter().take(12) {
        for (part, duration, _) in setup.catalog.remaining_build_ops(u.index) {
            pending.push(BuildOp {
                id: BuildOpId(pending.len() as u32),
                build: BuildRef {
                    index: u.index,
                    part: part as u32,
                },
                duration,
                gain: u.speedup,
            });
        }
    }
    let before = total_fragmentation(&schedule, quantum);
    let placed = LpInterleaver::new(quantum).interleave(&mut schedule, &pending);
    let after = total_fragmentation(&schedule, quantum);
    println!(
        "\ninterleaved {} of {} pending build ops; fragmentation {:.2} -> {:.2} quanta",
        placed.len(),
        pending.len(),
        before.as_quanta(quantum),
        after.as_quanta(quantum)
    );

    // 5. Execute on the simulated cloud.
    let sim = Simulator::new(setup.params.cloud.clone(), &setup.filedb);
    let report = sim
        .execute(
            &df.dag,
            &schedule,
            &df.index_uses,
            &IndexAvailability::new(),
            &BTreeMap::new(),
        )
        .expect("simulation failed");
    println!(
        "\nexecuted: makespan {:.1}s, {} leased quanta ({}), {} builds completed, {} killed",
        report.makespan.as_secs_f64(),
        report.leased_quanta,
        report.compute_cost,
        report.completed_builds.len(),
        report.killed_builds.len()
    );
}
