//! Exploration: heterogeneous VM pools (the paper's §7 future work).
//!
//! Schedules each application over (a) the paper's homogeneous pool
//! (standard VMs only) and (b) a mixed pool with eco (0.5×, $0.04/q)
//! and fast (2×, $0.25/q) types. Prints the extremes of the two Pareto
//! fronts: a mixed pool stretches the front at *both* ends — faster
//! fastest schedules and cheaper cheapest schedules.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_common::{Money, SimDuration, SimRng};
use flowtune_core::tablefmt::render_table;
use flowtune_dataflow::App;
use flowtune_sched::{HeterogeneousScheduler, VmType};

fn main() {
    let _obs = flowtune_bench::obs_guard();
    flowtune_bench::banner(
        "Exploration: heterogeneous pools",
        "skyline scheduling over mixed VM types (§7 future work)",
    );
    let q = SimDuration::from_secs(60);
    let homo = HeterogeneousScheduler::new(vec![VmType::standard()]);
    let mixed = HeterogeneousScheduler::new(vec![
        VmType::new("eco", 0.5, Money::from_dollars(0.04)),
        VmType::standard(),
        VmType::new("fast", 2.0, Money::from_dollars(0.25)),
    ]);
    let mut rows = vec![vec![
        "app".to_string(),
        "pool".to_string(),
        "fastest (quanta)".to_string(),
        "fastest cost ($)".to_string(),
        "cheapest ($)".to_string(),
        "cheapest time (quanta)".to_string(),
    ]];
    let smoke = flowtune_bench::smoke();
    let apps: &[App] = if smoke { &App::ALL[..1] } else { &App::ALL };
    for app in apps {
        let dag = app.generate(
            if smoke { 30 } else { 100 },
            &[],
            &mut SimRng::seed_from_u64(17),
        );
        for (label, scheduler) in [("standard only", &homo), ("eco+std+fast", &mixed)] {
            let front = scheduler.schedule(&dag);
            let fastest = front.first().expect("non-empty front");
            let cheapest = front.last().expect("non-empty front");
            rows.push(vec![
                app.name().to_string(),
                label.to_string(),
                format!("{:.2}", fastest.makespan().as_quanta(q)),
                format!("{:.2}", fastest.money(q).as_dollars()),
                format!("{:.2}", cheapest.money(q).as_dollars()),
                format!("{:.2}", cheapest.makespan().as_quanta(q)),
            ]);
        }
    }
    print!("{}", render_table(&rows));
    println!();
    println!("a mixed pool stretches the Pareto front at both ends: fast VMs shorten the critical path, eco VMs cheapen the serial end");
}
