//! The metric tables and the JSON the benchmark prints.

use std::fmt::{self, Write};

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("server_peak_rss_mb", "MB"),
    ("mae_e4", "1e-4V"),
    ("f1", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("serve.server_latency_mean_ms", "ms"),
    ("serve.forward_mean_ms", "ms"),
    ("serve.nonforward_mean_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.batch_mean_size", "count"),
    ("serve.forwards_per_request", "ratio"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.feature_cache_hit_ratio", "ratio"),
    ("serve.http.parse_ms", "ms"),
    ("serve.proto.decode_ms", "ms"),
    ("serve.proto.fingerprint_ms", "ms"),
    ("serve.proto.encode_ms", "ms"),
    ("serve.proto.request_kb", "KB"),
    ("spice.parse_ms", "ms"),
    ("spice.nodes", "count"),
    ("features.stack_ms", "ms"),
    ("features.adjust_ms", "ms"),
    ("features.eff_resistance_ms", "ms"),
    ("features.pad_distance_ms", "ms"),
    ("solver.stamp_ms", "ms"),
    ("solver.cg_ms", "ms"),
    ("solver.cg_iters", "count"),
    ("core.pointcloud_ms", "ms"),
    ("core.points", "count"),
    ("core.prepare_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("par.forward_1t_ms", "ms"),
    ("tensor.forward_eager_ms", "ms"),
    ("tensor.lazy.programs_per_forward", "count"),
    ("tensor.lazy.fresh_allocs_per_forward", "count"),
];

/// A JSON value, enough for the benchmark's output.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Arr(vec![Json::Int(3), Json::Bool(true)])),
            ("c\"", Json::str("x\ny")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.25, "b": [3, true], "c\"": "x\u000ay", "d": null}"#
        );
    }

    /// `BENCHMARK.json` must list exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
