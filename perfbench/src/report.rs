//! The run's result: named metrics with units, the failure count, and the
//! one-line JSON object printed last.

use std::fmt::Write as _;

/// True when `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric; the name must be valid and unused, the value finite.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Counts units of work and failures.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One human-readable line per metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and every metric
    /// with its unit.  Values print with all their digits.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_use_only_the_allowed_characters() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("md.mul_add_ns.2d"));
        assert!(valid_name("eval-p1-dd-d7"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        for name in crate::WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut r = Report::default();
        r.tally(10, 1);
        r.put("latency_p50_ms", 1.25, "ms");
        r.put("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!((r.error_rate() - 0.1).abs() < 1e-12);
    }
}
