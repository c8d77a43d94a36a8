//! The analyzer fixture's `flowtune-obs` lib.rs, line for line: hash
//! order, a wall clock and a panic on the simulation output path must
//! all fire.

use std::collections::HashMap;

pub fn metric_snapshot(counters: &HashMap<String, u64>) -> u64 {
    let started = std::time::Instant::now();
    let total: u64 = counters.values().sum();
    total + started.elapsed().as_millis() as u64
}

pub fn stamped(events: &[u64]) -> u64 {
    #[expect(clippy::unwrap_used, reason = "fixture proof that obs waivers work")]
    *events.last().unwrap()
}

pub fn seeded() -> u64 {
    42
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_linted_too() {
        let now = std::time::SystemTime::now();
        assert!(now.elapsed().is_ok());
    }
}
