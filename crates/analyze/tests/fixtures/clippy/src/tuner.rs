//! The analyzer fixture's `flowtune-tuner` lib.rs, line for line; its
//! one fulfilled `#[expect]` is on line 5.

use std::collections::HashMap;
#[expect(clippy::disallowed_types, reason = "fixture proof that waivers suppress findings")]
use std::collections::HashSet;

pub fn lookup(m: &HashMap<u32, u32>) -> u32 {
    *m.get(&0).unwrap()
}

pub fn waived(v: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "the fixture caller always passes Some")]
    v.expect("fixture invariant")
}

pub fn pay(total_cost: f64) -> f64 {
    total_cost + 1.0
}

pub fn dedup(v: &[u32]) -> usize {
    let s: HashSet<u32> = v.iter().copied().collect();
    s.len()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_regions_are_linted_too() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(*m.get(&1).unwrap(), 2);
    }
}
