//! Metric names, the behaviour fingerprint, sample statistics and the
//! result line the benchmark prints last.

use hws_metrics::Metrics;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, printed on every untraced run of
/// every workload. `BENCHMARK.json` lists the same names (checked by the
/// self-test).
pub const END_TO_END: [(&str, &str); 8] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("od_instant_start_rate", "ratio"),
    ("rigid_turnaround_h", "h"),
    ("malleable_turnaround_h", "h"),
    ("utilization", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Times are self-time
/// shares of the traced wall time, so a layer that a workload never enters
/// reads 0 % rather than a fabricated time.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workload.setup", "s"),
    ("workload.next_job", "%"),
    ("sim.queue", "%"),
    ("sim.events_delivered", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.events_cancelled", "count"),
    ("core.admit", "%"),
    ("core.pass", "%"),
    ("core.passes", "count"),
    ("core.arrival", "%"),
    ("core.release", "%"),
    ("core.mechanism_events", "%"),
    ("core.hooks.on_arrival", "%"),
    ("core.hooks.on_notice", "%"),
    ("core.hooks.plan_for_prediction", "%"),
    ("core.hooks.admit_calls", "count"),
    ("core.peak_resident_jobs", "count"),
    ("metrics.compute", "%"),
    ("service.step_before", "%"),
    ("service.submit", "%"),
    ("service.query", "%"),
    ("service.snapshot", "%"),
    ("service.snapshot_bytes", "bytes"),
    ("service.restore", "%"),
    ("service.what_if_drain", "%"),
    ("trace.unattributed", "%"),
    ("trace.overhead", "%"),
    ("trace.cells_matched", "count"),
];

/// FNV-1a over the bit patterns of an explicit list of simulated
/// [`Metrics`] fields. The wall-clock `decision_*_us` fields are left out,
/// so the fingerprint is a pure function of the input and the scheduler.
pub fn fingerprint(m: &Metrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for x in [
        m.avg_turnaround_h,
        m.instant_start_rate,
        m.strict_instant_rate,
        m.utilization,
        m.raw_occupancy,
        m.span_hours,
        m.avg_wait_h,
        m.avg_bounded_slowdown,
    ] {
        eat(x.to_bits());
    }
    for k in [&m.rigid, &m.on_demand, &m.malleable] {
        eat(k.completed as u64);
        eat(k.avg_turnaround_h.to_bits());
        eat(k.preemption_ratio.to_bits());
    }
    for x in m.instant_by_category {
        eat(x.to_bits());
    }
    eat(m.completed_jobs as u64);
    eat(m.killed_jobs as u64);
    eat(m.total_failures);
    h
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile, reported only when at least 10 samples lie
/// beyond it; `None` otherwise.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    if (v.len() as f64) * (1.0 - q) < 10.0 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// One human-readable timing line: median and the highest of p95/p99 with
/// ten samples beyond it, always with the sample count.
pub fn timing_line(label: &str, unit: &str, samples: &[f64]) -> String {
    let mut line = format!("  {label:<28} n={:<6}", samples.len());
    if samples.is_empty() {
        return line;
    }
    let _ = write!(line, " p50 {:.3} {unit}", median(samples));
    for (name, q) in [("p99", 0.99), ("p95", 0.95)] {
        if let Some(p) = percentile(samples, q) {
            let _ = write!(line, "  {name} {p:.3} {unit}");
            break;
        }
    }
    line
}

/// What one run of a workload established.
pub struct Outcome {
    /// Checks made: every log submission, what-if and replay cell, and
    /// each cross-check between replays.
    pub attempted: u64,
    /// Checks that failed; any failure makes the run incorrect.
    pub failed: u64,
    /// Metric values by name; must cover exactly the expected names.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record one attempted operation and whether it succeeded, printing a
    /// failure loudly.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// The result line: every metric of `spec` in order, with its unit.
    /// A missing, extra or non-finite metric makes the result incorrect.
    pub fn json(&self, spec: &[(&str, &str)]) -> (bool, String) {
        let mut correct = self.failed == 0 && self.metrics.len() == spec.len();
        let mut body = Vec::with_capacity(spec.len());
        for (name, unit) in spec {
            let value = self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    eprintln!("CHECK FAILED: metric {name} missing or not finite");
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        (correct, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    /// Both metric lists must match `BENCHMARK.json` name for name and
    /// unit for unit, and the result line must print exactly those names.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, spec) in [
            ("\"end_to_end\"", &END_TO_END[..]),
            ("\"per_layer\"", &PER_LAYER[..]),
        ] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| (json_string(entry, "name"), json_string(entry, "unit")))
                .collect();
            let expected: Vec<(String, String)> = spec
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{section} in BENCHMARK.json");

            let out = Outcome {
                attempted: 1,
                failed: 0,
                metrics: spec.iter().map(|(n, _)| (*n, 1.5)).collect(),
            };
            let (correct, line) = out.json(spec);
            assert!(correct);
            for (name, unit) in spec {
                let printed = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
                assert!(line.contains(&printed), "{printed} not in {line}");
            }
        }
    }

    /// The string value of `"key": "..."` inside one JSON object's text.
    fn json_string(entry: &str, key: &str) -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} in {entry}"));
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("opening quote") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    }
}
