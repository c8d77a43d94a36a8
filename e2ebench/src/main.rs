//! End-to-end and per-layer benchmark of the flowtune QaaS service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-gain-lp --seed 7 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the benchmark runs passes over the workload's
//! sub-seeds, each service run in a fresh child process, until the
//! time is up, checks every outcome, and prints the end-to-end
//! metrics. With `--trace 1` it replays the sub-seeds of the traced
//! pass with a span around every layer call, reconciles each replay
//! with a real run, and prints the per-layer metrics. The last line of
//! stdout is one JSON object; the exit code is 1 when a check failed.
//! See `README.md` for the workloads and metrics.

mod child;
mod outcome;
mod replay;
mod span;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use outcome::Outcome;
use workload::Workload;

const USAGE: &str = "usage: flowtune-e2ebench --workload <paper-gain-lp|no-index|faults-online> \
--seed <n> --seconds <s> --trace <0|1>
       flowtune-e2ebench --record <seed>";

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line and the exit code it implies.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Service runs made (each one checked).
    pub attempted: u64,
    /// Indexes (in order of attempt) of the runs an output check failed.
    failed_runs: BTreeSet<usize>,
    pub metrics: Vec<Metric>,
}

impl Verdict {
    /// Count run number `run` as failed, for the reason `why`.
    pub fn fail(&mut self, run: usize, why: String) {
        eprintln!("check failed: {why}");
        self.failed_runs.insert(run);
    }

    pub fn correct(&self) -> bool {
        self.failed_runs.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_runs.len(),
            metrics.join(", ")
        )
    }
}

/// Parsed `key value...` lines a child printed.
#[derive(Debug)]
pub struct ChildOutput {
    lines: Vec<(String, String)>,
}

impl ChildOutput {
    /// The rest of the first line starting with `key`.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.lines
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("child printed no {key:?} line"))
    }

    /// Every line starting with `key`.
    pub fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.lines
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn number(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key)?;
        v.parse().map_err(|e| format!("{key} {v:?}: {e}"))
    }

    /// A comma-separated list of numbers.
    pub fn numbers(&self, key: &str) -> Result<Vec<u64>, String> {
        self.get(key)?
            .split(',')
            .map(|v| v.parse().map_err(|e| format!("{key} {v:?}: {e}")))
            .collect()
    }

    pub fn outcome(&self, key: &str) -> Result<Outcome, String> {
        Outcome::decode(self.get(key)?)
    }
}

/// Run this binary as a child: `--child <mode> <workload> <sub-seed>`.
pub fn spawn_child(mode: &str, workload: Workload, sub_seed: u64) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", mode, workload.name(), &sub_seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child for {} sub-seed {sub_seed} exited with {}",
            workload.name(),
            out.status
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    let lines = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    Ok(ChildOutput { lines })
}

/// Check the outcome of run number `run` against the outcome recorded
/// for its sub-seed, if there is one.
pub fn check_expected(
    verdict: &mut Verdict,
    run: usize,
    workload: Workload,
    sub_seed: u64,
    got: &Outcome,
) -> Result<(), String> {
    if let Some(want) = outcome::expected(workload.name(), sub_seed)? {
        if want != *got {
            verdict.fail(
                run,
                format!(
                    "{} sub-seed {sub_seed}: outcome {} differs from the recorded {}",
                    workload.name(),
                    got.encode(),
                    want.encode()
                ),
            );
        }
    }
    Ok(())
}

/// Median of `xs` (which must be non-empty); the mean of the middle
/// two for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed service run.
#[derive(Debug)]
struct RunSample {
    setup_s: Vec<f64>,
    run_s: f64,
    rss_mib: f64,
    outcome: Outcome,
}

fn timed_run(workload: Workload, sub_seed: u64) -> Result<RunSample, String> {
    let out = spawn_child("run", workload, sub_seed)?;
    Ok(RunSample {
        setup_s: out
            .numbers("setup_ns")?
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect(),
        run_s: out.number("run_ns")? as f64 / 1e9,
        rss_mib: out.number("rss_kib")? as f64 / 1024.0,
        outcome: out.outcome("outcome")?,
    })
}

/// The end-to-end measurement: passes over the sub-seeds until
/// `seconds` are used up (at least one pass), every run checked.
fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<Verdict, String> {
    let k = workload.runs_per_pass();
    let sub_seeds: Vec<u64> = (0..k).map(|j| Workload::sub_seed(seed, j)).collect();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut verdict = Verdict::default();
    let mut passes: Vec<Vec<RunSample>> = Vec::new();
    loop {
        let t = Instant::now();
        let mut pass = Vec::with_capacity(k);
        for &s in &sub_seeds {
            pass.push(timed_run(workload, s)?);
        }
        verdict.attempted += k as u64;
        passes.push(pass);
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    if passes.len() == 1 {
        // Too short for a second pass: repeat the first sub-seed once,
        // outside the pass metrics, so two runs of one seed are still
        // compared. Its set-up samples still count.
        let again = timed_run(workload, sub_seeds[0])?;
        verdict.attempted += 1;
        passes.push(vec![again]);
    }

    let first = &passes[0];
    for (j, run) in first.iter().enumerate() {
        check_expected(&mut verdict, j, workload, sub_seeds[j], &run.outcome)?;
    }
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (j, run) in pass.iter().enumerate() {
            if run.outcome != first[j].outcome {
                verdict.fail(
                    p * k + j,
                    format!(
                        "{} sub-seed {}: two runs disagree: {} vs {}",
                        workload.name(),
                        sub_seeds[j],
                        first[j].outcome.encode(),
                        run.outcome.encode()
                    ),
                );
            }
        }
    }

    let full: Vec<&Vec<RunSample>> = passes.iter().filter(|p| p.len() == k).collect();
    let per_pass = |f: &dyn Fn(&[RunSample]) -> f64| -> f64 {
        median(&full.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let sum = |p: &[RunSample], f: &dyn Fn(&Outcome) -> f64| -> f64 {
        p.iter().map(|r| f(&r.outcome)).sum()
    };
    let setups: Vec<f64> = passes
        .iter()
        .flatten()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let o = first.as_slice();
    let finished = sum(o, &|o| o.finished as f64);
    let issued = sum(o, &|o| o.issued as f64);
    verdict.metrics = vec![
        Metric {
            name: "dataflows_per_s",
            value: per_pass(&|p| {
                sum(p, &|o| o.issued as f64) / p.iter().map(|r| r.run_s).sum::<f64>()
            }),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: per_pass(&|p| p.iter().map(|r| r.rss_mib).sum::<f64>() / p.len() as f64),
            unit: "MiB",
        },
        Metric {
            name: "completed_frac",
            value: (issued - sum(o, &|o| o.failed as f64)) / issued,
            unit: "fraction",
        },
        Metric {
            name: "sim_makespan_q",
            value: sum(o, &Outcome::makespan_quanta) / finished,
            unit: "quanta",
        },
        Metric {
            name: "sim_cost_per_df",
            value: sum(o, &Outcome::cost_dollars) / finished,
            unit: "USD",
        },
    ];
    eprintln!(
        "{}: {} passes of {k} runs in {:.1} s",
        workload.name(),
        full.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(verdict)
}

/// Print the outcome of each workload at each sub-seed of `seed`, in
/// the form `expected.txt` stores.
fn record(seed: u64) -> Result<(), String> {
    for w in Workload::ALL {
        for j in 0..w.runs_per_pass() {
            let s = Workload::sub_seed(seed, j);
            let run = timed_run(w, s)?;
            println!("{} {s} {}", w.name(), run.outcome.encode());
        }
    }
    Ok(())
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

fn main_inner(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("--child") => {
            let [_, mode, w, s] = argv else {
                return Err(USAGE.to_owned());
            };
            let workload = Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
            let sub_seed: u64 = s.parse().map_err(|e| format!("sub-seed {s:?}: {e}"))?;
            match mode.as_str() {
                "run" => child::run(workload, sub_seed)?,
                "trace" => child::trace(workload, sub_seed)?,
                _ => return Err(format!("unknown child mode {mode:?}")),
            }
            return Ok(ExitCode::SUCCESS);
        }
        Some("--record") => {
            let seed = argv.get(1).and_then(|s| s.parse().ok()).ok_or(USAGE)?;
            record(seed)?;
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let args = parse_args(argv)?;
    let verdict = if args.trace {
        trace::measure(args.workload, args.seed)?
    } else {
        measure(args.workload, args.seed, args.seconds)?
    };
    println!("{}", verdict.json());
    Ok(if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
