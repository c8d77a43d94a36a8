//! The analyzer fixture's `flowtune-sched` skyline.rs, line for line:
//! the scheduler's cached-state shapes (DESIGN §5f), a hash-ordered gap
//! cache and a panicking cache fold, must keep firing. The derive sits
//! where a blank line was, so the line numbers stay the analyzer's.

use std::collections::HashMap;
#[derive(Debug)]
pub struct CachedPartial {
    pub gap_internal: HashMap<u32, u64>,
}

impl CachedPartial {
    pub fn idle_cached(&self) -> u64 {
        self.gap_internal.values().copied().max().unwrap()
    }

    pub fn money_delta(&self, container: u32) -> u64 {
        #[expect(clippy::expect_used, reason = "fixture proof cache waivers work")]
        *self.gap_internal.get(&container).expect("container leased")
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_linted_too() {
        let m: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        assert!(m.is_empty());
    }
}
