//! Figure 6: sensitivity of the offline (skyline) scheduler to
//! estimation errors.
//!
//! Schedules each dataflow from *estimated* operator runtimes and data
//! sizes, then executes with actuals perturbed by ±e %. Reports the
//! relative difference between actual and estimated execution time,
//! monetary cost and fragmentation, averaged over dataflows of all
//! three applications.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use std::collections::BTreeMap;

use flowtune_cloud::{perturb_dag, IndexAvailability, Simulator};
use flowtune_common::{ExperimentParams, OnlineStats, SimRng};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_core::tablefmt::render_table;
use flowtune_sched::{total_fragmentation, SkylineScheduler};

fn main() {
    let _obs = flowtune_bench::obs_guard();
    flowtune_bench::banner(
        "Figure 6",
        "offline scheduler robustness to estimation errors",
    );
    let mut setup = ExperimentSetup::new(ExperimentParams::default());
    let scheduler = SkylineScheduler::new(setup.scheduler_config(8));
    let quantum = setup.params.cloud.quantum;
    let vm_price = setup.params.cloud.vm_price_per_quantum;

    let mut rows = vec![vec![
        "error %".to_string(),
        "Δtime % (cpu err)".to_string(),
        "Δmoney % (cpu err)".to_string(),
        "Δfrag % (cpu err)".to_string(),
        "Δtime % (data err)".to_string(),
        "Δmoney % (data err)".to_string(),
        "Δfrag % (data err)".to_string(),
    ]];
    let dags = setup.one_dag_per_app(42);
    let smoke = flowtune_bench::smoke();
    let grid: &[u32] = if smoke {
        &[0, 20, 80]
    } else {
        &[0, 5, 10, 20, 40, 60, 80, 100]
    };
    let seeds = if smoke { 2u64 } else { 5 };
    for &error_pct in grid {
        let e = (error_pct as f64 / 100.0).min(0.999);
        let mut cells = vec![format!("{error_pct}")];
        for (time_err, data_err) in [(e, 0.0), (0.0, e)] {
            let mut dt = OnlineStats::new();
            let mut dm = OnlineStats::new();
            let mut dfrag = OnlineStats::new();
            for (_, dag) in &dags {
                let schedule = scheduler.schedule(dag).remove(0);
                let est_time = schedule.makespan().as_secs_f64();
                let est_money = schedule.money(quantum, vm_price).as_dollars();
                let est_frag = total_fragmentation(&schedule, quantum)
                    .as_secs_f64()
                    .max(1.0);
                for seed in 0..seeds {
                    let mut rng = SimRng::seed_from_u64(seed * 77 + error_pct as u64);
                    let actual = perturb_dag(dag, time_err, data_err, &mut rng);
                    let sim = Simulator::new(setup.params.cloud.clone(), &setup.filedb);
                    let exec = sim
                        .execute(
                            &actual,
                            &schedule,
                            &[],
                            &IndexAvailability::new(),
                            &BTreeMap::new(),
                        )
                        .expect("simulation failed");
                    dt.push((exec.makespan.as_secs_f64() - est_time).abs() / est_time * 100.0);
                    let money = exec.compute_cost.as_dollars();
                    dm.push((money - est_money).abs() / est_money * 100.0);
                    dfrag.push(
                        (exec.fragmentation.as_secs_f64() - est_frag).abs() / est_frag * 100.0,
                    );
                }
            }
            cells.push(format!("{:.1}", dt.mean()));
            cells.push(format!("{:.1}", dm.mean()));
            cells.push(format!("{:.1}", dfrag.mean()));
        }
        rows.push(cells);
    }
    print!("{}", render_table(&rows));
    println!();
    println!("paper finding: estimates are robust up to ~20 % error; very large errors degrade the offline plan");
}
