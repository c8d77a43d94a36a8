//! Fixture for an out-of-line test-only module: the file-level
//! `#![cfg(test)]` below must exempt everything here, exactly like
//! the real flowtune-sched equivalence suite.

#![cfg(test)]

pub fn golden_diff(total_cost: f64, leased_quanta: u64) -> f64 {
    total_cost + leased_quanta as f64
}
