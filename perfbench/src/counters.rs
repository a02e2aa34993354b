//! Server counters scraped from `GET /metrics`, their deltas over a timed
//! window, and the guards that reject a window whose counters show the
//! wrong workload (a cold workload that hit a cache, a warm one that ran
//! the model).
//!
//! Only counters, sums and counts are read. The quantile lines report
//! bucket upper bounds, not measured quantiles, so they are skipped.

use std::collections::BTreeMap;

/// One `/metrics` scrape: series name (labels included) → value.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Parses the Prometheus-style exposition text.
    #[must_use]
    pub fn parse(text: &str) -> Counters {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.contains("quantile=") {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    map.insert(name.trim().to_string(), v);
                }
            }
        }
        Counters(map)
    }

    fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("/metrics has no series {name}"))
    }
}

/// Counter deltas over one timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Deltas {
    /// Successful predictions.
    pub ok: f64,
    /// Predictions answered with an error frame.
    pub errors: f64,
    /// Result-cache hits and misses.
    pub result_hits: f64,
    pub result_misses: f64,
    /// Feature-cache hits and misses.
    pub feature_hits: f64,
    pub feature_misses: f64,
    /// Forward passes saved by in-batch deduplication.
    pub dedup_saved: f64,
    /// Forward passes of the workload's model, and their summed seconds.
    pub forwards: f64,
    pub forward_s: f64,
    /// Server-observed predict latency: summed seconds and count.
    pub latency_s: f64,
    pub latency_count: f64,
    /// Drained batches and the jobs in them.
    pub batches: f64,
    pub batched_jobs: f64,
}

impl Deltas {
    /// `after − before` for every series the benchmark reads; `model` is
    /// the registry name the requests addressed.
    ///
    /// # Errors
    ///
    /// When a series is missing from either scrape.
    pub fn between(before: &Counters, after: &Counters, model: &str) -> Result<Deltas, String> {
        let d = |name: &str| -> Result<f64, String> { Ok(after.get(name)? - before.get(name)?) };
        // A model's series appear with its first request; count them as 0
        // before that.
        let dm = |name: &str| -> Result<f64, String> {
            let key = format!("{name}{{model=\"{model}\"}}");
            Ok(after.get(&key)? - before.get(&key).unwrap_or(0.0))
        };
        Ok(Deltas {
            ok: d("lmmir_predict_ok_total")?,
            errors: d("lmmir_predict_error_total")?,
            result_hits: d("lmmir_result_cache_hits_total")?,
            result_misses: d("lmmir_result_cache_misses_total")?,
            feature_hits: d("lmmir_cache_hits_total")?,
            feature_misses: d("lmmir_cache_misses_total")?,
            dedup_saved: d("lmmir_dedup_saved_total")?,
            forwards: dm("lmmir_model_forward_seconds_count")?,
            forward_s: dm("lmmir_model_forward_seconds_sum")?,
            latency_s: d("lmmir_predict_latency_seconds_sum")?,
            latency_count: d("lmmir_predict_latency_seconds_count")?,
            batches: d("lmmir_batches_total")?,
            batched_jobs: d("lmmir_batched_jobs_total")?,
        })
    }

    /// Result-cache hits over lookups (0 without lookups).
    #[must_use]
    pub fn result_hit_ratio(&self) -> f64 {
        ratio(self.result_hits, self.result_hits + self.result_misses)
    }

    /// Feature-cache hits over lookups (0 without lookups).
    #[must_use]
    pub fn feature_hit_ratio(&self) -> f64 {
        ratio(self.feature_hits, self.feature_hits + self.feature_misses)
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Lowest result-cache hit ratio a warm window may show.
pub const WARM_MIN_HIT_RATIO: f64 = 0.99;

/// Checks that a window's counters match its workload.
///
/// `client_ok` counts the 200 responses the clients received and
/// `client_error_frames` the error responses; the server must have
/// counted the same.
///
/// # Errors
///
/// A description of every guard the window failed.
pub fn check(
    cold: bool,
    d: &Deltas,
    client_ok: u64,
    client_error_frames: u64,
) -> Result<(), String> {
    let mut failed = Vec::new();
    #[allow(clippy::cast_precision_loss)]
    let (client_ok, client_error_frames) = (client_ok as f64, client_error_frames as f64);
    if d.ok != client_ok {
        failed.push(format!(
            "server counted {} successful predictions, clients received {client_ok}",
            d.ok
        ));
    }
    if d.errors != client_error_frames {
        failed.push(format!(
            "server counted {} predict errors, clients received {client_error_frames}",
            d.errors
        ));
    }
    if cold {
        if d.result_hits != 0.0 || d.feature_hits != 0.0 {
            failed.push(format!(
                "cold window hit a cache: {} result-cache and {} feature-cache hits",
                d.result_hits, d.feature_hits
            ));
        }
        if d.dedup_saved != 0.0 {
            failed.push(format!(
                "cold window deduplicated {} forwards",
                d.dedup_saved
            ));
        }
        if d.forwards != d.ok {
            failed.push(format!(
                "cold window ran {} forwards for {} requests",
                d.forwards, d.ok
            ));
        }
    } else {
        if d.result_hit_ratio() < WARM_MIN_HIT_RATIO {
            failed.push(format!(
                "warm window result-cache hit ratio {:.4} < {WARM_MIN_HIT_RATIO}",
                d.result_hit_ratio()
            ));
        }
        if d.forwards != 0.0 {
            failed.push(format!("warm window ran {} forwards", d.forwards));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_window(n: f64) -> Deltas {
        Deltas {
            ok: n,
            result_misses: n,
            feature_misses: n,
            forwards: n,
            ..Deltas::default()
        }
    }

    fn warm_window(n: f64) -> Deltas {
        Deltas {
            ok: n,
            result_hits: n,
            ..Deltas::default()
        }
    }

    #[test]
    fn accepts_matching_windows() {
        assert_eq!(check(true, &cold_window(40.0), 40, 0), Ok(()));
        assert_eq!(check(false, &warm_window(900.0), 900, 0), Ok(()));
    }

    #[test]
    fn rejects_a_warm_delta_on_a_cold_workload() {
        let err = check(true, &warm_window(900.0), 900, 0).unwrap_err();
        assert!(err.contains("hit a cache"), "{err}");
        assert!(err.contains("0 forwards for 900 requests"), "{err}");
        let mut dedup = cold_window(40.0);
        dedup.dedup_saved = 2.0;
        dedup.forwards = 38.0;
        assert!(check(true, &dedup, 40, 0).is_err());
    }

    #[test]
    fn rejects_a_cold_delta_on_the_warm_workload() {
        assert!(check(false, &cold_window(40.0), 40, 0).is_err());
    }

    #[test]
    fn server_and_client_counts_must_agree() {
        let mut d = cold_window(40.0);
        assert!(check(true, &d, 41, 0).is_err());
        d.errors = 1.0;
        assert!(check(true, &d, 40, 0).is_err());
        assert_eq!(check(true, &d, 40, 1), Ok(()));
    }

    #[test]
    fn parses_series_and_skips_quantile_lines() {
        let text = "lmmir_predict_ok_total 12\n\
                    lmmir_predict_latency_seconds{quantile=\"0.5\"} 1.000000\n\
                    lmmir_model_forward_seconds_sum{model=\"lmmir\"} 0.250000\n";
        let c = Counters::parse(text);
        assert_eq!(c.get("lmmir_predict_ok_total"), Ok(12.0));
        assert_eq!(
            c.get("lmmir_model_forward_seconds_sum{model=\"lmmir\"}"),
            Ok(0.25)
        );
        assert!(c
            .get("lmmir_predict_latency_seconds{quantile=\"0.5\"}")
            .is_err());
    }
}
