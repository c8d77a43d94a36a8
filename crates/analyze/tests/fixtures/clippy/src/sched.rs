//! The analyzer fixture's `flowtune-sched` lib.rs, line for line.

pub fn stamp() -> u64 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos() as u64
}

pub fn host() -> Option<String> {
    std::env::var("FLOWTUNE_FIXTURE_HOST").ok()
}

#[expect(clippy::disallowed_methods, reason = "stale: a clock constant is deterministic")]
pub const EPOCH: std::time::SystemTime = std::time::SystemTime::UNIX_EPOCH;
