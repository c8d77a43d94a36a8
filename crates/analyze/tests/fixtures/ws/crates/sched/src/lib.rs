//! Fixture `flowtune-sched`: no source here uses the dependency or the
//! dev-dependency its manifest declares.

pub fn stamp() -> u64 {
    7
}
