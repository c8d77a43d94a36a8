//! The metrics registry: counters, gauges, and distributions.
//!
//! All maps are `BTreeMap` so JSON rendering iterates in a fixed order;
//! distribution summaries are computed from sorted sample copies. The
//! rendered document is deterministic byte-for-byte for a given recorded
//! sequence, which is what lets `ci/check.sh` diff it against a golden
//! file and what makes it suitable for seeding `BENCH_*.json`.

use std::collections::BTreeMap;

use flowtune_common::stats::{percentile_sorted, OnlineStats};

use flowtune_common::json::{push_f64, push_str};

/// A recorded distribution: running moments plus the raw samples (kept
/// so percentiles are exact, not approximated).
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    stats: OnlineStats,
    samples: Vec<f64>,
    nan_count: u64,
}

impl Distribution {
    /// Record one observation. NaN is counted separately and never
    /// pollutes the moments or percentiles.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            self.nan_count += 1;
        } else {
            self.stats.push(x);
            self.samples.push(x);
        }
    }

    /// Number of non-NaN observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Number of NaN observations rejected.
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// The running moments over non-NaN observations.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    fn render(&self, out: &mut String) {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        out.push_str("{\"count\":");
        out.push_str(&self.stats.count().to_string());
        out.push_str(",\"nan_count\":");
        out.push_str(&self.nan_count.to_string());
        out.push_str(",\"mean\":");
        push_f64(out, self.stats.mean());
        out.push_str(",\"min\":");
        push_f64(out, self.stats.min());
        out.push_str(",\"max\":");
        push_f64(out, self.stats.max());
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            out.push_str(",\"");
            out.push_str(label);
            out.push_str("\":");
            match percentile_sorted(&sorted, q) {
                Some(v) => push_f64(out, v),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
}

/// A registry of named counters, gauges, and distributions.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    distributions: BTreeMap<&'static str, Distribution>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge to its latest value.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Record one observation into the named distribution.
    pub fn observe(&mut self, name: &'static str, x: f64) {
        self.distributions.entry(name).or_default().observe(x);
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named distribution, if anything was observed into it.
    pub fn distribution(&self, name: &str) -> Option<&Distribution> {
        self.distributions.get(name)
    }

    /// Render the registry as a deterministic pretty-printed JSON
    /// document with `counters` / `gauges` / `distributions` sections,
    /// keys sorted, trailing newline included.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_str(&mut out, name);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_str(&mut out, name);
            out.push_str(": ");
            push_f64(&mut out, *v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"distributions\": {");
        for (i, (name, d)) in self.distributions.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_str(&mut out, name);
            out.push_str(": ");
            d.render(&mut out);
        }
        if !self.distributions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.count("sched.steps", 1);
        m.count("sched.steps", 2);
        assert_eq!(m.counter("sched.steps"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut m = MetricsRegistry::new();
        m.gauge("cloud.utilization", 0.25);
        m.gauge("cloud.utilization", 0.75);
        assert_eq!(m.gauge_value("cloud.utilization"), Some(0.75));
        assert_eq!(m.gauge_value("missing"), None);
    }

    #[test]
    fn distribution_rejects_nan_separately() {
        let mut d = Distribution::default();
        d.observe(1.0);
        d.observe(f64::NAN);
        d.observe(3.0);
        assert_eq!(d.count(), 2);
        assert_eq!(d.nan_count(), 1);
        assert_eq!(d.stats().min(), 1.0);
        assert_eq!(d.stats().max(), 3.0);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.count("b.second", 2);
        m.count("a.first", 1);
        m.gauge("g", 1.5);
        m.observe("d", 2.0);
        m.observe("d", 4.0);
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b);
        // Sorted: a.first precedes b.second regardless of insertion.
        let ia = a.find("a.first").unwrap();
        let ib = a.find("b.second").unwrap();
        assert!(ia < ib);
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"p50\":"));
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let m = MetricsRegistry::new();
        assert_eq!(
            m.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"distributions\": {}\n}\n"
        );
    }
}
