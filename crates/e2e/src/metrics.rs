//! The metric tables — the same names, units, directions and bounds as
//! `BENCHMARK.json` (a unit test keeps the two in step) — and the result
//! line every run prints.

use crate::json::{num, quote};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; defined, and never zero, on every
/// workload. Printed by the untraced run.
pub const END_TO_END: &[Def] = &[
    gated("latency_p50_ms", "ms", Better::Lower, 0.25),
    gated("images_per_s", "1/s", Better::Higher, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.1),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer numbers, printed by the traced run. A metric that does not
/// apply to a workload (no wire on a model loop) reads 0 there.
pub const PER_LAYER: &[Def] = &[
    higher("client.samples", "count"),
    lower("client.latency_p50_ms", "ms"),
    lower("client.latency_p90_ms", "ms"),
    lower("client.latency_p99_ms", "ms"),
    lower("client.latency_max_ms", "ms"),
    lower("client.lat_p50_ms.low", "ms"),
    lower("client.lat_p50_ms.mid", "ms"),
    lower("client.lat_p50_ms.high", "ms"),
    lower("client.lat_p90_ms.low", "ms"),
    lower("client.lat_p90_ms.mid", "ms"),
    lower("client.lat_p90_ms.high", "ms"),
    lower("client.gen_late_p90_ms", "ms"),
    higher("client.images_per_s", "1/s"),
    higher("client.goodput_rps", "1/s"),
    higher("client.max_rate_ok_rps", "1/s"),
    lower("client.busy", "count"),
    lower("client.deadline", "count"),
    lower("client.errors", "count"),
    lower("client.fail_share", "%"),
    lower("proc.cpu_ms_per_op", "ms"),
    lower("models.build_ms", "ms"),
    lower("graph.passes_ms", "ms"),
    lower("graph.nodes_in", "count"),
    lower("graph.nodes_out", "count"),
    lower("graph.transforms", "count"),
    lower("search.local_ms", "ms"),
    lower("search.global_ms", "ms"),
    lower("search.workloads", "count"),
    lower("search.warm_db_compile_ms", "ms"),
    lower("search.analytical_regret", "x"),
    lower("compile.total_ms", "ms"),
    lower("compile.fallbacks", "count"),
    higher("quantize.convs_int8", "count"),
    lower("quantize.convs_f32", "count"),
    lower("quantize.max_abs_err", "1"),
    lower("quantize.extra_ms", "ms"),
    lower("memory.arena_mb", "MB"),
    higher("memory.saved_pct", "%"),
    lower("memory.scratch_kb", "KB"),
    lower("exec.conv2d_ms", "ms"),
    lower("exec.layout_transform_ms", "ms"),
    lower("exec.quantize_ms", "ms"),
    lower("exec.dequantize_ms", "ms"),
    lower("exec.dense_ms", "ms"),
    lower("exec.pool_ms", "ms"),
    lower("exec.other_ms", "ms"),
    higher("exec.profile_cover", "x"),
    lower("exec.allocs_per_run", "count"),
    lower("exec.batch_run_ms", "ms"),
    lower("exec.output_max_abs_err", "1"),
    higher("kernels.conv_gmacs_per_s", "GMAC/s"),
    lower("kernels.conv_mb_moved", "MB"),
    lower("kernels.dense3x3_us", "us"),
    lower("kernels.dense1x1_us", "us"),
    lower("kernels.pointwise_us", "us"),
    lower("kernels.depthwise3x3_us", "us"),
    lower("kernels.int8_dense3x3_us", "us"),
    lower("kernels.int8_pointwise_us", "us"),
    higher("kernels.quantize_gbps", "GB/s"),
    higher("tensor.transform_gbps", "GB/s"),
    lower("threadpool.region_overhead_us", "us"),
    lower("threadpool.regions_per_run", "count"),
    higher("threadpool.speedup_2t", "x"),
    lower("serve.engine_latency_p50_ms", "ms"),
    lower("serve.overhead_ms", "ms"),
    higher("serve.mean_batch", "count"),
    higher("serve.batch_fill", "x"),
    lower("serve.queue_hwm", "count"),
    lower("serve.shed", "count"),
    lower("serve.deadline_exceeded", "count"),
    lower("serve.respawns", "count"),
    lower("shard.stolen", "count"),
    higher("shard.speedup_2r", "x"),
    lower("net.wire_overhead_ms", "ms"),
    lower("net.encode_us", "us"),
    lower("net.decode_us", "us"),
    lower("net.bytes_per_req", "B"),
    lower("net.connect_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.dropped_spans", "count"),
];

/// The metric values one run collected, by name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// One run's verdict and metrics.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being every entry of `table` and nothing
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if a value was set under a name `table` does not list, or —
    /// for the end-to-end table — if a metric is missing, zero or not
    /// finite: either is a bug in the benchmark, not a measurement.
    pub fn to_json(&self, table: &[Def]) -> String {
        for (name, _) in &self.values.0 {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric {name} is not in the table"
            );
        }
        let gated = table.iter().any(|d| d.bound.is_some());
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                let v = match self.values.get(d.name) {
                    Some(v) if v.is_finite() => v,
                    _ if gated => panic!("end-to-end metric {} was not measured", d.name),
                    _ => 0.0,
                };
                assert!(!gated || v != 0.0, "end-to-end metric {} is zero", d.name);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(d.name),
                    num(v),
                    quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn assert_table_matches(table: &[Def], listed: &[Json]) {
        assert_eq!(table.len(), listed.len());
        for (d, j) in table.iter().zip(listed) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let m = manifest();
        assert_table_matches(END_TO_END, m.get("end_to_end").unwrap().as_array());
        assert_table_matches(PER_LAYER, m.get("per_layer").unwrap().as_array());
        let workloads: Vec<&str> = m
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_lists_every_named_metric_and_no_other() {
        let m = manifest();
        for (table, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let mut values = Values::default();
            for d in table {
                values.set(d.name, 1.5);
            }
            let line = Outcome {
                correct: true,
                attempted: 3,
                failed: 0,
                values,
            }
            .to_json(table);
            let parsed = Json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<&str> = parsed
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let named: Vec<&str> = m
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|j| j.get("name").and_then(Json::as_str).unwrap())
                .collect();
            assert_eq!(printed, named);
        }
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn an_unnamed_metric_is_refused() {
        let mut values = Values::default();
        values.set("made.up", 1.0);
        let _ = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values,
        }
        .to_json(PER_LAYER);
    }
}
