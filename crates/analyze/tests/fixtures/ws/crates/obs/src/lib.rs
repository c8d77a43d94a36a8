//! Fixture `flowtune-obs`: the naming findings live in `names.rs`; this
//! file keeps the crate's declared dependency in use.

pub fn seeded() -> u32 {
    flowtune_common::seed()
}
