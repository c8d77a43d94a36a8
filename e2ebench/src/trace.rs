//! The traced run: per-layer metrics from replays of the traced
//! sub-seeds, each reconciled with a real run of the same sub-seed.

use std::collections::BTreeMap;

use crate::child::COUNTERS;
use crate::workload::Workload;
use crate::{check_expected, spawn_child, Metric, Verdict};

/// Pooled figures of every traced sub-seed.
#[derive(Debug, Default)]
struct Pool {
    /// Per span name: total self time, ns, and every duration, ns.
    spans: BTreeMap<String, (u64, Vec<u64>)>,
    counters: BTreeMap<String, u64>,
    /// Replay statistics: summed, except `*_max` which take the max.
    stats: BTreeMap<String, u64>,
    real_ns: u64,
    traced_ns: u64,
}

impl Pool {
    fn self_ms(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0, |s| s.0) as f64 / 1e6
    }

    fn durations(&self, span: &str) -> Vec<f64> {
        self.spans
            .get(span)
            .map(|s| s.1.iter().map(|&d| d as f64).collect())
            .unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn parse_u64(text: &str, what: &str) -> Result<u64, String> {
    text.parse().map_err(|e| format!("{what} {text:?}: {e}"))
}

/// Trace one sub-seed, run number `run`, into `pool`, checking it
/// against a real run.
fn trace_one(
    pool: &mut Pool,
    verdict: &mut Verdict,
    run: usize,
    workload: Workload,
    sub_seed: u64,
) -> Result<(), String> {
    let name = workload.name();
    let real = spawn_child("run", workload, sub_seed)?;
    let traced = spawn_child("trace", workload, sub_seed)?;
    verdict.attempted += 1;

    let want = real.outcome("outcome")?;
    check_expected(verdict, run, workload, sub_seed, &want)?;
    for key in ["outcome", "count_outcome"] {
        let got = traced.outcome(key)?;
        if got != want {
            verdict.fail(run, format!(
                "{name} sub-seed {sub_seed}: replay ({key}) {} does not reconcile with the real run {}",
                got.encode(),
                want.encode()
            ));
        }
    }
    let mut stats: BTreeMap<&str, u64> = BTreeMap::new();
    for line in traced.all("stat") {
        let (k, v) = line.split_once(' ').ok_or("malformed stat line")?;
        stats.insert(k, parse_u64(v, k)?);
    }
    let violations = *stats
        .get("lp_violations")
        .ok_or("trace child printed no lp_violations")?;
    if violations > 0 {
        verdict.fail(
            run,
            format!(
                "{name} sub-seed {sub_seed}: the LP interleaver changed makespan or leased quanta \
                 in {violations} rounds"
            ),
        );
    }
    for (k, v) in stats {
        let e = pool.stats.entry(k.to_owned()).or_default();
        *e = if k.ends_with("_max") {
            (*e).max(v)
        } else {
            *e + v
        };
    }
    for line in traced.all("counter") {
        let (k, v) = line.split_once(' ').ok_or("malformed counter line")?;
        *pool.counters.entry(k.to_owned()).or_default() += parse_u64(v, k)?;
    }
    for line in traced.all("span") {
        let mut parts = line.split(' ');
        let (Some(k), Some(self_ns), Some(ds)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("malformed span line {line:?}"));
        };
        let e = pool.spans.entry(k.to_owned()).or_default();
        e.0 += parse_u64(self_ns, k)?;
        for d in ds.split(',') {
            e.1.push(parse_u64(d, k)?);
        }
    }
    // The real child builds the service several times; count one set-up.
    let setup_ns = real.numbers("setup_ns")?;
    pool.real_ns += setup_ns.last().copied().unwrap_or(0) + real.number("run_ns")?;
    pool.traced_ns += traced.number("wall_ns")?;
    Ok(())
}

/// The per-layer measurement of `workload` at `seed`.
pub fn measure(workload: Workload, seed: u64) -> Result<Verdict, String> {
    let mut pool = Pool::default();
    let mut verdict = Verdict::default();
    for j in 0..workload.traced_runs() {
        trace_one(
            &mut pool,
            &mut verdict,
            j,
            workload,
            Workload::sub_seed(seed, j),
        )?;
    }
    // Every program counter must have been read.
    for name in COUNTERS {
        pool.counters.entry(name.to_owned()).or_default();
    }

    let p = &pool;
    let skyline_us: Vec<f64> = p
        .durations("sched.skyline")
        .iter()
        .map(|d| d / 1e3)
        .collect();
    let round_ms: Vec<f64> = p.durations("core.round").iter().map(|d| d / 1e6).collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    verdict.metrics = vec![
        m("tuner.decide_ms", p.self_ms("tuner.decide"), "ms"),
        m("tuner.gains_ms", p.self_ms("tuner.gains"), "ms"),
        m("tuner.history_ms", p.self_ms("tuner.history"), "ms"),
        m("tuner.gain_evals", p.counter("tuner.gain_evals"), "count"),
        m("tuner.decisions", p.counter("tuner.decisions"), "count"),
        m("tuner.history_len_max", p.stat("history_len_max"), "count"),
        m("sched.skyline_ms", p.self_ms("sched.skyline"), "ms"),
        m("sched.skyline_p50_us", percentile(&skyline_us, 50.0), "us"),
        m("sched.skyline_p95_us", percentile(&skyline_us, 95.0), "us"),
        m("sched.candidates", p.counter("sched.candidates"), "count"),
        m(
            "sched.partials_expanded",
            p.counter("sched.partials_expanded"),
            "count",
        ),
        m(
            "sched.expand_ratio",
            ratio(
                p.counter("sched.partials_expanded"),
                p.counter("sched.candidates"),
            ),
            "ratio",
        ),
        m(
            "sched.parallel_steps",
            p.counter("sched.parallel_steps"),
            "count",
        ),
        m("interleave.lp_ms", p.self_ms("interleave.lp"), "ms"),
        m("interleave.online_ms", p.self_ms("interleave.online"), "ms"),
        m(
            "interleave.slots_offered",
            p.counter("interleave.slots_offered"),
            "count",
        ),
        m("interleave.ops_offered", p.stat("ops_offered"), "count"),
        m("interleave.placed", p.stat("placed"), "count"),
        m(
            "interleave.place_ratio",
            ratio(p.stat("placed"), p.stat("ops_offered")),
            "ratio",
        ),
        m(
            "interleave.knapsack_nodes",
            p.counter("interleave.knapsack_nodes"),
            "count",
        ),
        m("interleave.lp_calls", p.stat("lp_calls"), "count"),
        m("cloud.simulate_ms", p.self_ms("cloud.simulate"), "ms"),
        m("cloud.executions", p.counter("cloud.executions"), "count"),
        m("cloud.killed_ops", p.counter("cloud.killed_ops"), "count"),
        m(
            "cloud.leased_quanta",
            p.counter("cloud.leased_quanta"),
            "count",
        ),
        m("index.commit_ms", p.self_ms("index.commit"), "ms"),
        m("index.verify_ms", p.self_ms("index.verify"), "ms"),
        m("index.delete_ms", p.self_ms("index.delete"), "ms"),
        m(
            "index.verify_clean_ratio",
            ratio(p.stat("clean_verdicts"), p.stat("verdicts")),
            "ratio",
        ),
        m("index.pages_live_max", p.stat("pages_live_max"), "count"),
        m("storage.page_writes", p.stat("page_writes"), "count"),
        m("storage.page_reads", p.stat("page_reads"), "count"),
        m("storage.verify_pages", p.stat("verify_pages"), "count"),
        m("storage.pool_evictions", p.stat("pool_evictions"), "count"),
        m(
            "storage.pool_hit_ratio",
            ratio(
                p.stat("pool_hits"),
                p.stat("pool_hits") + p.stat("pool_misses"),
            ),
            "ratio",
        ),
        m("storage.bill_ms", p.self_ms("storage.bill"), "ms"),
        m("core.recover_ms", p.self_ms("core.recover"), "ms"),
        m("core.retries", p.stat("retries"), "count"),
        m("core.self_ms", p.self_ms("core.round"), "ms"),
        m("core.rounds_ms", round_ms.iter().sum(), "ms"),
        m("core.rounds", round_ms.len() as f64, "count"),
        m("core.round_p50_ms", percentile(&round_ms, 50.0), "ms"),
        m("core.round_p95_ms", percentile(&round_ms, 95.0), "ms"),
        m("dataflow.make_ms", p.self_ms("dataflow.make"), "ms"),
        m("setup.self_ms", p.self_ms("setup"), "ms"),
        m("setup.filedb_ms", p.self_ms("setup.filedb"), "ms"),
        m("setup.catalog_ms", p.self_ms("setup.catalog"), "ms"),
        m("setup.calibrate_ms", p.self_ms("setup.calibrate"), "ms"),
        m(
            "trace.overhead_frac",
            ratio(p.traced_ns as f64 - p.real_ns as f64, p.real_ns as f64),
            "fraction",
        ),
    ];
    Ok(verdict)
}
