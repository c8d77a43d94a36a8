//! Figure 9: a Montage execution timeline with interleaved build
//! operators, plus the fragmentation reduction (paper: 7.14 quanta idle
//! before interleaving, 1.6 after).
//!
//! Prints an ASCII timeline: one row per container, `#` for dataflow
//! operators, `+` for build operators, `.` for idle leased time.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment, bench and example code fails fast on setup errors"
)]

use flowtune_common::{BuildOpId, ExperimentParams, IndexId, SimDuration, SimRng, SimTime};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_dataflow::App;
use flowtune_interleave::{BuildOp, LpInterleaver};
use flowtune_sched::{total_fragmentation, BuildRef, Schedule, SkylineScheduler};

fn render_timeline(schedule: &Schedule, quantum: SimDuration) -> String {
    let mut out = String::new();
    let end = schedule
        .assignments()
        .iter()
        .map(|a| a.end)
        .max()
        .unwrap_or(SimTime::ZERO)
        .quantum_ceil(quantum);
    let cols = 96usize;
    let total = (end - SimTime::ZERO).as_millis().max(1);
    for c in schedule.containers() {
        let mut row = vec![' '; cols];
        let (ls, le) = schedule.leased_span(c, quantum).expect("container leased");
        let pos = |t: SimTime| {
            (((t - SimTime::ZERO).as_millis() as f64 / total as f64) * cols as f64) as usize
        };
        for cell in row.iter_mut().take(pos(le).min(cols)).skip(pos(ls)) {
            *cell = '.';
        }
        for a in schedule.on_container(c) {
            let (s, e) = (pos(a.start), pos(a.end).min(cols));
            let ch = if a.is_optional() { '+' } else { '#' };
            for cell in row.iter_mut().take(e.max(s + 1).min(cols)).skip(s) {
                *cell = ch;
            }
        }
        out.push_str(&format!(
            "{:>4} |{}|\n",
            c.to_string(),
            row.iter().collect::<String>()
        ));
    }
    out
}

fn main() {
    let _obs = flowtune_bench::obs_guard();
    flowtune_bench::banner(
        "Figure 9",
        "Montage timeline with build-index operators (green = '+')",
    );
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let quantum = setup.params.cloud.quantum;
    let smoke = flowtune_bench::smoke();
    let mut rng = SimRng::seed_from_u64(9);
    let dag = App::Montage.generate(if smoke { 30 } else { 100 }, &[], &mut rng);
    let scheduler = SkylineScheduler::new(setup.scheduler_config(8));
    let mut schedule = scheduler.schedule(&dag).remove(0);

    let before = total_fragmentation(&schedule, quantum);
    let pending: Vec<BuildOp> = (0..if smoke { 40u32 } else { 160 })
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(4 + (i as u64 * 11) % 22),
            gain: 1.0 + (i as f64 * 0.43) % 3.0,
        })
        .collect();
    let placed = LpInterleaver::new(quantum).interleave(&mut schedule, &pending);
    let after = total_fragmentation(&schedule, quantum);

    print!("{}", render_timeline(&schedule, quantum));
    println!();
    println!("legend: '#' dataflow op, '+' build op, '.' idle leased time");
    println!(
        "build ops placed: {}; fragmentation: {:.2} quanta -> {:.2} quanta (paper: 7.14 -> 1.6)",
        placed.len(),
        before.as_quanta(quantum),
        after.as_quanta(quantum)
    );
}
