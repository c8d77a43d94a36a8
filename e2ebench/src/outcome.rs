//! The simulated outcome of one service run: what the output checks
//! compare between runs, and what the traced replay must reproduce.

use flowtune_common::Money;
use flowtune_core::RunReport;

/// Outcomes recorded for the default seed (7) and the held-out seed
/// (11), one line per sub-seed: `<workload> <sub-seed> <outcome>`.
/// Regenerate with `--record <seed>` only when the simulated behaviour
/// is meant to change.
const EXPECTED: &str = include_str!("../expected.txt");

/// Exact simulated totals of one run. Money is in whole micro-dollars
/// and the makespan sum is compared bit for bit, so two runs agree only
/// when they made identical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub issued: u64,
    pub finished: u64,
    pub failed: u64,
    pub builds_completed: u64,
    pub compute_micros: i64,
    pub storage_micros: i64,
    pub verify_pages: u64,
    pub invalidated: u64,
    pub deleted: u64,
    pub retries: u64,
    pub makespan_bits: u64,
}

const FIELDS: [&str; 11] = [
    "issued",
    "finished",
    "failed",
    "builds_completed",
    "compute_micros",
    "storage_micros",
    "verify_pages",
    "invalidated",
    "deleted",
    "retries",
    "makespan_bits",
];

fn micros(m: Money) -> i64 {
    // Run totals stay far below 2^53 micro-dollars: the round trip is exact.
    (m.as_dollars() * 1e6).round() as i64
}

impl Outcome {
    pub fn from_report(r: &RunReport) -> Outcome {
        Outcome {
            issued: r.dataflows_issued as u64,
            finished: r.dataflows_finished as u64,
            failed: r.dataflows_failed as u64,
            builds_completed: r.builds_completed as u64,
            compute_micros: micros(r.compute_cost),
            storage_micros: micros(r.index_storage_cost),
            verify_pages: r.verify_pages_scanned,
            invalidated: r.partitions_invalidated as u64,
            deleted: r.indexes_deleted as u64,
            retries: r.retries as u64,
            makespan_bits: r.total_makespan_quanta.get().to_bits(),
        }
    }

    fn values(&self) -> [i128; 11] {
        [
            self.issued.into(),
            self.finished.into(),
            self.failed.into(),
            self.builds_completed.into(),
            self.compute_micros.into(),
            self.storage_micros.into(),
            self.verify_pages.into(),
            self.invalidated.into(),
            self.deleted.into(),
            self.retries.into(),
            self.makespan_bits.into(),
        ]
    }

    /// Total simulated makespan of the finished dataflows, in quanta.
    pub fn makespan_quanta(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }

    /// Compute plus index-storage spend, in dollars.
    pub fn cost_dollars(&self) -> f64 {
        (self.compute_micros + self.storage_micros) as f64 / 1e6
    }

    /// `key=value` tokens, the form children print and `expected.txt`
    /// stores.
    pub fn encode(&self) -> String {
        FIELDS
            .iter()
            .zip(self.values())
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parse the tokens [`Outcome::encode`] writes; other tokens are
    /// ignored, a missing field is an error.
    pub fn decode(text: &str) -> Result<Outcome, String> {
        let field = |name: &str| -> Result<i128, String> {
            text.split_whitespace()
                .find_map(|t| t.strip_prefix(name)?.strip_prefix('='))
                .ok_or_else(|| format!("outcome field {name} missing"))?
                .parse::<i128>()
                .map_err(|e| format!("outcome field {name}: {e}"))
        };
        let u = |name: &str| -> Result<u64, String> {
            u64::try_from(field(name)?).map_err(|e| format!("outcome field {name}: {e}"))
        };
        let i = |name: &str| -> Result<i64, String> {
            i64::try_from(field(name)?).map_err(|e| format!("outcome field {name}: {e}"))
        };
        Ok(Outcome {
            issued: u("issued")?,
            finished: u("finished")?,
            failed: u("failed")?,
            builds_completed: u("builds_completed")?,
            compute_micros: i("compute_micros")?,
            storage_micros: i("storage_micros")?,
            verify_pages: u("verify_pages")?,
            invalidated: u("invalidated")?,
            deleted: u("deleted")?,
            retries: u("retries")?,
            makespan_bits: u("makespan_bits")?,
        })
    }
}

/// The recorded outcome of `workload` at `sub_seed`, if one was
/// recorded.
pub fn expected(workload: &str, sub_seed: u64) -> Result<Option<Outcome>, String> {
    for line in EXPECTED.lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(w), Some(s), Some(rest)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if w == workload && s.parse::<u64>().ok() == Some(sub_seed) {
            return Outcome::decode(rest).map(Some);
        }
    }
    Ok(None)
}
