//! Clippy parity fixture: the analyzer fixture's determinism,
//! ordered-iteration and panic-hygiene sites, linted by clippy under
//! the workspace configuration (`tests/clippy_parity.rs`).

pub mod extra;
pub mod obs;
pub mod sched;
pub mod skyline;
pub mod tuner;
