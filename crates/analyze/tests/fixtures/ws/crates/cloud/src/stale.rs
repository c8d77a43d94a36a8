//! Waiver-audit fixture: stale, unknown-rule, and reason-less waivers.

// flowtune-allow(cast-discipline): nothing below casts a quantity any more
pub fn quiet() -> u64 {
    7
}

// flowtune-allow(no-such-rule): typo'd rule name, so the intended waiver is dead
pub const X: u64 = 1;

// flowtune-allow(newtype-discipline)
pub const Y: u64 = 2;

// flowtune-allow(waiver-audit): kept to document the suppression pattern
// flowtune-allow(cast-discipline): stale on purpose, audit-waived above
pub const Z: u64 = 3;
