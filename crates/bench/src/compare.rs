//! Shared optimized-vs-reference comparison harness for the pinned
//! perf baselines (`bench_sched`, `bench_interleave`).
//!
//! Both binaries time an optimized implementation against its retained
//! pre-optimization reference in the same process and serialize the
//! paired rows into a committed `BENCH_*.json` (schemas
//! `flowtune.bench_sched.v1` / `flowtune.bench_interleave.v1`,
//! documented field-by-field in `EXPERIMENTS.md`). Both documents are
//! `flowtune_common::json` values in its canonical rendering, with the
//! same layout across schemas, so `tests/bench_baselines.rs` can enforce
//! speedup bars on either file with the same parser.

use crate::micro::{run_captured, BenchStats};
use flowtune_common::json::Json;

/// One optimized-vs-reference pairing of [`BenchStats`] rows.
#[derive(Debug)]
pub struct Comparison {
    /// Scenario name (shared by both rows, minus the label prefix).
    pub name: String,
    /// Stats for the optimized implementation (`<prefix>/<name>`).
    pub optimized: BenchStats,
    /// Stats for the reference implementation (`reference/<name>`).
    pub reference: BenchStats,
}

impl Comparison {
    /// Median-over-median speedup of optimized vs reference.
    pub fn speedup(&self) -> f64 {
        self.reference.median_ns / self.optimized.median_ns
    }
}

/// Benchmark one scenario under both implementations; pushes the
/// paired comparison. Sets `ok` to false on a benchmark error (no
/// samples).
pub fn compare<F, G>(
    prefix: &str,
    name: &str,
    samples: usize,
    mut fast: F,
    mut slow: G,
    out: &mut Vec<Comparison>,
    ok: &mut bool,
) where
    F: FnMut(),
    G: FnMut(),
{
    let optimized = run_captured(&format!("{prefix}/{name}"), samples, |b| b.iter(&mut fast));
    let reference = run_captured(&format!("reference/{name}"), samples, |b| b.iter(&mut slow));
    match (optimized, reference) {
        (Some(optimized), Some(reference)) => {
            let c = Comparison {
                name: name.to_owned(),
                optimized,
                reference,
            };
            println!(
                "{:<44} optimized {:>10.1} us   reference {:>10.1} us   speedup {:>5.2}x",
                c.name,
                c.optimized.median_ns / 1e3,
                c.reference.median_ns / 1e3,
                c.speedup()
            );
            out.push(c);
        }
        _ => {
            eprintln!("error: benchmark {name} produced no samples");
            *ok = false;
        }
    }
}

/// Benchmark an optimized-only scenario (the reference is infeasible at
/// this scale); pushes a standalone stats row. Sets `ok` to false on a
/// benchmark error.
pub fn measure_standalone<F>(
    prefix: &str,
    name: &str,
    samples: usize,
    mut fast: F,
    out: &mut Vec<BenchStats>,
    ok: &mut bool,
) where
    F: FnMut(),
{
    match run_captured(&format!("{prefix}/{name}"), samples, |b| b.iter(&mut fast)) {
        Some(stats) => {
            println!(
                "{:<44} optimized {:>10.1} us   (no reference at this scale)",
                name,
                stats.median_ns / 1e3,
            );
            out.push(stats);
        }
        None => {
            eprintln!("error: benchmark {name} produced no samples");
            *ok = false;
        }
    }
}

/// `v` rounded to `decimals` places, as the baselines record it.
fn rounded(v: f64, decimals: usize) -> Json {
    Json::Float(format!("{v:.decimals$}").parse().unwrap_or(v))
}

fn stats_json(s: &BenchStats) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("median_ns".into(), rounded(s.median_ns, 1)),
        ("min_ns".into(), rounded(s.min_ns, 1)),
        ("max_ns".into(), rounded(s.max_ns, 1)),
        ("samples".into(), Json::Int(s.samples as i64)),
    ])
}

/// Render the `BENCH_*.json` document: schema and mode, any
/// schema-specific scalar fields (`extra`, emitted in order), all stats
/// rows (paired rows first, then standalone optimized-only rows), and
/// the paired comparisons.
pub fn render_json(
    schema: &str,
    mode: &str,
    extra: &[(&str, Json)],
    comparisons: &[Comparison],
    standalone: &[BenchStats],
) -> String {
    let mut benchmarks = Vec::new();
    let mut comps = Vec::new();
    for c in comparisons {
        benchmarks.push(stats_json(&c.optimized));
        benchmarks.push(stats_json(&c.reference));
        comps.push(Json::Obj(vec![
            ("name".into(), Json::Str(c.name.clone())),
            (
                "optimized_median_ns".into(),
                rounded(c.optimized.median_ns, 1),
            ),
            (
                "reference_median_ns".into(),
                rounded(c.reference.median_ns, 1),
            ),
            ("speedup".into(), rounded(c.speedup(), 2)),
        ]));
    }
    benchmarks.extend(standalone.iter().map(stats_json));
    let mut doc = vec![
        ("schema".into(), Json::Str(schema.to_owned())),
        ("mode".into(), Json::Str(mode.to_owned())),
    ];
    doc.extend(extra.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    doc.push(("benchmarks".into(), Json::Arr(benchmarks)));
    doc.push(("comparisons".into(), Json::Arr(comps)));
    format!("{}\n", Json::Obj(doc).render())
}

/// Parse `--smoke` / `--out <path>` from the argument list; returns
/// `(smoke, out_path)` with `default_out` when `--out` is absent.
pub fn parse_bench_args(args: &[String], default_out: &str) -> (bool, String) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path = default_out.to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            if let Some(p) = it.next() {
                out_path = p.clone();
            }
        }
    }
    (smoke, out_path)
}
