//! The metric tables (mirrored by `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pe_cycles_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A metric that does
/// not apply to a workload (the service layers on an engine workload)
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.ns_per_cycle", "ns"),
    ("net.ns_per_message", "ns"),
    ("mem.ns_per_cycle", "ns"),
    ("mem.ns_per_request", "ns"),
    ("pe.ns_per_cycle", "ns"),
    ("pe.ns_per_instruction", "ns"),
    ("core.flush_ns_per_cycle", "ns"),
    ("core.other_ns_per_cycle", "ns"),
    ("core.bytes_per_pe", "B"),
    ("core.snapshot.encode_ms", "ms"),
    ("core.snapshot.decode_ms", "ms"),
    ("core.snapshot.bytes", "B"),
    ("serve.restore_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.slices_ms_mean", "ms"),
    ("serve.slice_ms_mean", "ms"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.parse_us_mean", "us"),
    ("serve.report_us_mean", "us"),
    ("serve.cache_checkpoints", "count"),
    ("serve.cache_evictions", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("core.trace_overhead", "ratio"),
    ("serve.trace_overhead", "ratio"),
    ("sim.cycles", "count"),
    ("core.fast_forwarded_cycles", "count"),
    ("net.injected_requests", "count"),
    ("net.combines", "count"),
    ("net.inject_stalls", "count"),
    ("pe.instructions", "count"),
    ("pe.idle_cycles", "count"),
    ("mem.queue_depth_max", "count"),
];

/// What one run measured and how many of its operations failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {why}");
    }

    /// Records the check `ok`; a false one is a failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(&why());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of the traced or untraced table.
    /// A missing end-to-end value or a non-finite value is a failure,
    /// never a silent zero.
    pub fn render(mut self, trace: bool) -> String {
        if self.attempted == 0 {
            self.fail("no operation was attempted");
        }
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.fail(&format!("metric {name} is {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.fail(&format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and the metric lists of `BENCHMARK.json` must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
