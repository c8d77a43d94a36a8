//! Fixture `flowtune-tuner`: a newtype-discipline violation plus its
//! test-region escape.

pub fn pay(total_cost: f64) -> f64 {
    total_cost + flowtune_common::seed() as f64
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_exempt() {
        let total_cost: f64 = 1.0;
        assert!(total_cost > 0.0);
    }
}
