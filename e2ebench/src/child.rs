//! The two kinds of child process. Each measures one sub-seed in a
//! fresh process and prints `key value` lines for the parent.

use std::time::Instant;

use flowtune_core::QaasService;

use crate::outcome::Outcome;
use crate::replay::replay;
use crate::span::Spans;
use crate::workload::Workload;

/// Program counters the traced run reads from `flowtune_obs`.
pub const COUNTERS: [&str; 10] = [
    "tuner.gain_evals",
    "tuner.decisions",
    "sched.candidates",
    "sched.partials_expanded",
    "sched.parallel_steps",
    "interleave.slots_offered",
    "interleave.knapsack_nodes",
    "cloud.executions",
    "cloud.killed_ops",
    "cloud.leased_quanta",
];

/// Peak resident set size of this process, in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Set-ups per run child: the service is built this many times and
/// the last one runs, so each child gives several set-up samples.
const SETUPS: usize = 3;

/// One untraced service run: `QaasService::new` then `run`, timed.
pub fn run(workload: Workload, sub_seed: u64) -> Result<(), String> {
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let mut service = None;
    for i in 0..SETUPS {
        let config = workload.config(sub_seed);
        let t = Instant::now();
        let built = QaasService::new(config);
        setup_ns.push(t.elapsed().as_nanos().to_string());
        if i + 1 == SETUPS {
            service = Some(built);
        }
    }
    let mut service = service.ok_or("no service was built")?;
    let t = Instant::now();
    let report = service.run().map_err(|e| e.to_string())?;
    let run_ns = t.elapsed().as_nanos();
    println!("setup_ns {}", setup_ns.join(","));
    println!("run_ns {run_ns}");
    println!("rss_kib {}", peak_rss_kib()?);
    println!("outcome {}", Outcome::from_report(&report).encode());
    Ok(())
}

/// The traced replay of one sub-seed: first with the `flowtune_obs`
/// recorder off (for span times, in a process as fresh as the real
/// run's), then with it installed (for the program's counters).
pub fn trace(workload: Workload, sub_seed: u64) -> Result<(), String> {
    let config = workload.config(sub_seed);

    let mut spans = Spans::new();
    let t = Instant::now();
    let timed = replay(&config, &mut spans, false)?;
    let wall_ns = t.elapsed().as_nanos();
    let rounds = spans.reconcile()?;
    println!("outcome {}", Outcome::from_report(&timed.report).encode());
    println!("wall_ns {wall_ns}");
    println!("rounds {rounds}");
    let mut scratch = Spans::new();
    let counted = replay(&config, &mut scratch, true)?;
    let recorder = counted
        .recorder
        .ok_or("the counting replay ran without a recorder")?;
    println!(
        "count_outcome {}",
        Outcome::from_report(&counted.report).encode()
    );
    for name in COUNTERS {
        println!("counter {name} {}", recorder.metrics().counter(name));
    }
    drop(recorder);

    let s = &timed.stats;
    let stats = [
        ("lp_calls", s.lp_calls),
        ("lp_violations", s.lp_violations),
        ("ops_offered", s.ops_offered),
        ("placed", s.placed),
        ("history_len_max", s.history_len_max),
        ("pages_live_max", s.pages_live_max),
        ("verdicts", s.verdicts),
        ("clean_verdicts", s.clean_verdicts),
        ("pool_hits", s.pool.hits),
        ("pool_misses", s.pool.misses),
        ("pool_evictions", s.pool.evictions),
        ("page_reads", s.pool.page_reads),
        ("page_writes", s.pool.page_writes),
        ("retries", timed.report.retries as u64),
        ("verify_pages", timed.report.verify_pages_scanned),
    ];
    for (name, v) in stats {
        println!("stat {name} {v}");
    }
    for (name, t) in spans.totals() {
        let durations: Vec<String> = t.durations_ns.iter().map(u64::to_string).collect();
        println!("span {name} {} {}", t.self_ns, durations.join(","));
    }
    Ok(())
}
