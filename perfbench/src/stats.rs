//! Order statistics over measured samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is too thin to say anything.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted` samples, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Samples a batch needs for its p95 to have [`MIN_TAIL`] samples beyond.
pub const BATCH_SAMPLES: usize = 20 * MIN_TAIL;
/// Most batches a window is split into.
pub const MAX_BATCHES: usize = 10;

/// One batch of consecutive completions of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Requests completed in the batch.
    pub samples: usize,
    /// Completions per second, from the previous batch's last completion
    /// (or the window start) to this batch's last.
    pub rate: f64,
    /// Latency percentiles of the batch, seconds.
    pub p50: Option<f64>,
    pub p95: Option<f64>,
}

/// Splits `(completion, latency)` samples, in completion order, into as
/// many consecutive batches as keep [`BATCH_SAMPLES`] each (at least one,
/// at most [`MAX_BATCHES`]).
///
/// The end-to-end timings are medians over these batches: interference
/// from outside the program that slows a few seconds of a window then
/// moves at most the batches it falls in, not the reported value.
#[must_use]
pub fn batches(samples: &[(f64, f64)]) -> Vec<Batch> {
    let n = samples.len();
    let k = (n / BATCH_SAMPLES).clamp(1, MAX_BATCHES);
    let mut out = Vec::with_capacity(k);
    let (mut lo, mut since) = (0, 0.0);
    for b in 1..=k {
        let part = &samples[lo..n * b / k];
        let until = part.last().map_or(since, |s| s.0);
        let mut lat: Vec<f64> = part.iter().map(|s| s.1).collect();
        lat.sort_by(f64::total_cmp);
        #[allow(clippy::cast_precision_loss)]
        let rate = if until > since {
            part.len() as f64 / (until - since)
        } else {
            0.0
        };
        out.push(Batch {
            samples: part.len(),
            rate,
            p50: percentile(&lat, 0.5),
            p95: percentile(&lat, 0.95),
        });
        lo = n * b / k;
        since = until;
    }
    out
}

/// Median over `batches` of `f`, or `None` when a batch lacks it.
#[must_use]
pub fn batch_median(batches: &[Batch], f: impl Fn(&Batch) -> Option<f64>) -> Option<f64> {
    median(&batches.iter().map(f).collect::<Option<Vec<f64>>>()?)
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190, with exactly 10 beyond it.
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(199), 0.95), None);
        // The median needs 20 samples: rank 10 with 10 beyond.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        for n in 1..400 {
            if let Some(v) = percentile(&ramp(n), 0.95) {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let beyond = n - v as usize;
                assert!(
                    beyond >= MIN_TAIL,
                    "n={n} reported p95 with {beyond} beyond"
                );
            }
        }
    }

    /// A steady stream of `n` requests, one every `gap` seconds, each
    /// taking `latency` seconds.
    fn steady(n: usize, gap: f64, latency: f64) -> Vec<(f64, f64)> {
        (1..=n).map(|i| (i as f64 * gap, latency)).collect()
    }

    #[test]
    fn batches_keep_enough_samples_for_p95() {
        assert_eq!(batches(&steady(199, 0.1, 0.05)).len(), 1);
        assert_eq!(batches(&steady(199, 0.1, 0.05))[0].p95, None);
        assert_eq!(batches(&steady(600, 0.1, 0.05)).len(), 3);
        assert_eq!(batches(&steady(100_000, 0.001, 0.05)).len(), MAX_BATCHES);
        let b = batches(&steady(600, 0.1, 0.05));
        assert!(b
            .iter()
            .all(|b| b.samples == 200 && (b.rate - 10.0).abs() < 1e-9));
        assert_eq!(batch_median(&b, |b| b.p95), Some(0.05));
    }

    #[test]
    fn a_burst_in_one_batch_does_not_move_the_medians() {
        let mut s = steady(600, 0.1, 0.05);
        // The first third runs at half speed and double latency.
        for (i, sample) in s.iter_mut().enumerate().take(200) {
            *sample = ((i + 1) as f64 * 0.2, 0.1);
        }
        for sample in s.iter_mut().skip(200) {
            sample.0 += 20.0;
        }
        let b = batches(&s);
        assert!((batch_median(&b, |b| Some(b.rate)).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(batch_median(&b, |b| b.p50), Some(0.05));
        assert_eq!(batch_median(&b, |b| b.p95), Some(0.05));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
