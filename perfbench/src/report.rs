//! Metric names, units and the result line.
//!
//! The two lists below are the contract with `BENCHMARK.json`: a timed
//! run (`--trace 0`) prints exactly [`END_TO_END`], a traced run
//! (`--trace 1`) exactly [`PER_LAYER`], in this order.

use crate::env::json_str;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics of the traced pass: name, unit.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("net.call_ms.p50", "ms"),
    ("net.call_ms.p99", "ms"),
    ("net.self_ms.p50", "ms"),
    ("net.self_ms.p99", "ms"),
    ("net.req_bytes", "bytes"),
    ("net.resp_bytes", "bytes"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.rejects", "count"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.compute_ms.p99", "ms"),
    ("serve.fast_path_frac", "ratio"),
    ("serve.errors", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("topk.calls", "count"),
    ("topk.run_ms.p50", "ms"),
    ("topk.run_ms.p99", "ms"),
    ("topk.expansions", "count"),
    ("topk.active_nodes", "count"),
    ("topk.active_edges", "count"),
    ("topk.nonconverged", "count"),
    ("topk.allocs", "count"),
    ("core.calls", "count"),
    ("core.run_ms.p50", "ms"),
    ("core.run_ms.p99", "ms"),
    ("core.iterations", "count"),
    ("core.allocs", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.build_s", "s"),
    ("gen.late_ms.p99", "ms"),
    ("gen.measures", "count"),
    ("gen.requests", "count"),
    ("trace.overhead", "ratio"),
    ("error_frac", "ratio"),
    ("check.responses", "count"),
    ("check.hits", "count"),
    ("check.misses", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `declared`: every declared name with its
    /// unit, in order. Errs if a declared metric is missing or not
    /// finite, or if a value was set that is not declared.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut parts = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The last line of a run's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of each entry of the array under `key` in a
    /// `BENCHMARK.json` text (entries are flat objects).
    fn entries<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open + 1..close]
            .split('}')
            .filter(|entry| entry.contains("\"name\""))
            .collect()
    }

    /// The string value of `key` in one entry.
    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("closing quote");
        rest[open..open + len].to_string()
    }

    fn metrics_in(json: &str, key: &str) -> Vec<(String, String)> {
        entries(json, key)
            .into_iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn output_names_exactly_the_declared_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(metrics_in(json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(metrics_in(json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = entries(json, "workloads")
            .into_iter()
            .map(|e| field(e, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn render_requires_exactly_the_declared_set() {
        let declared = [("a_ms", "ms"), ("b", "count")];
        let mut v = Values::default();
        v.set("a_ms", 1.25);
        assert!(v
            .render(&declared)
            .unwrap_err()
            .contains("b was not measured"));
        v.set("b", 3.0);
        assert_eq!(
            v.render(&declared).unwrap(),
            "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}"
        );
        v.set("c", 0.0);
        assert!(v
            .render(&declared)
            .unwrap_err()
            .contains("c is not declared"));
        let mut nan = Values::default();
        nan.set("a_ms", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.render(&declared).is_err());
    }

    #[test]
    fn every_timed_run_emits_the_end_to_end_set() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.0);
        }
        assert!(v.render(&END_TO_END).is_ok());
        assert!(v.render(&PER_LAYER).is_err());
        let line = result_line(true, 10, 0, "{}");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
