//! Workload definitions and the seeded designs each one sends.
//!
//! Every design is a pure function of `(workload, seed, stream, index)`:
//! the same seed always yields byte-identical request bodies, and designs
//! of different seeds or streams never share content, so no request can
//! hit a cache filled by another run or another phase.

use lmmir_pdn::{Case, CaseKind, CaseSpec};
use lmmir_serve::PredictRequest;

/// Side of the square input every benchmark checkpoint is trained at.
pub const CKPT_SIZE: usize = 32;
/// Seed `serve demo-ckpt` trains the benchmark checkpoints with.
pub const CKPT_SEED: u64 = 7;
/// Designs the warm workload repeats.
pub const WARM_DESIGNS: usize = 4;
/// Seed of the quality subset. It is fixed, not taken from `--seed`, so
/// the quality metrics compare one set of designs across every run.
pub const QUALITY_SEED: u64 = 0x005E_ED0F_9A11;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LMM-IR, unique 32×32 designs: forward-bound.
    ColdLmmir,
    /// CFIRSTNET, unique large designs: feature-preparation-bound.
    ColdCfirstLarge,
    /// LMM-IR, four repeated designs: result-cache hits, front end only.
    WarmLmmir,
}

/// Which sequence of designs a request is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The timed window (and the replayed trace).
    Timed,
    /// Untimed requests that warm the server before the window.
    Warmup,
    /// The fixed quality and parity subset.
    Quality,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdLmmir,
        Workload::ColdCfirstLarge,
        Workload::WarmLmmir,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLmmir => "cold_lmmir",
            Workload::ColdCfirstLarge => "cold_cfirst_large",
            Workload::WarmLmmir => "warm_lmmir",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Architecture `serve demo-ckpt --arch` trains.
    #[must_use]
    pub fn arch(self) -> &'static str {
        match self {
            Workload::ColdLmmir | Workload::WarmLmmir => "LMM-IR",
            Workload::ColdCfirstLarge => "CFIRSTNET",
        }
    }

    /// Registry name the server loads the checkpoint under; every request
    /// addresses the model by it.
    #[must_use]
    pub fn model(self) -> &'static str {
        match self {
            Workload::ColdLmmir | Workload::WarmLmmir => "lmmir",
            Workload::ColdCfirstLarge => "cfirstnet",
        }
    }

    /// Side of the square designs, in µm (= pixels).
    #[must_use]
    pub fn design_px(self) -> usize {
        match self {
            Workload::ColdLmmir | Workload::WarmLmmir => 32,
            Workload::ColdCfirstLarge => 64,
        }
    }

    /// Whether every timed request must miss both server caches.
    #[must_use]
    pub fn cold(self) -> bool {
        !matches!(self, Workload::WarmLmmir)
    }

    /// Designs in the quality subset (each is golden-solved per run).
    #[must_use]
    pub fn quality_designs(self) -> usize {
        16
    }

    /// Timed designs the traced replay runs through every layer.
    #[must_use]
    pub fn replay_designs(self) -> usize {
        match self {
            Workload::ColdLmmir | Workload::WarmLmmir => 6,
            Workload::ColdCfirstLarge => 3,
        }
    }

    /// `(epochs, cases)` `serve demo-ckpt` trains the checkpoint for: the
    /// fewest that leave the quality subset with dozens of true hotspot
    /// pixels, so the F1 guard is not decided by a single pixel.
    #[must_use]
    pub fn ckpt_training(self) -> (usize, usize) {
        match self {
            Workload::ColdLmmir | Workload::WarmLmmir => (20, 4),
            Workload::ColdCfirstLarge => (30, 8),
        }
    }

    /// The generating spec of design `index` of `stream` under `seed`.
    #[must_use]
    pub fn spec(self, seed: u64, stream: Stream, index: usize) -> CaseSpec {
        let (tag, seed) = match stream {
            Stream::Timed => ("t", seed),
            Stream::Warmup => ("w", seed),
            Stream::Quality => ("q", QUALITY_SEED),
        };
        let stream_key: u64 = match stream {
            Stream::Timed => 1,
            Stream::Warmup => 2,
            Stream::Quality => 3,
        };
        let case_seed = mix(mix(seed) ^ mix((stream_key << 56) ^ index as u64));
        let px = self.design_px();
        CaseSpec::new(
            format!("{}-s{seed}-{tag}{index}", self.name()),
            px,
            px,
            case_seed,
            CaseKind::Hidden,
        )
    }

    /// The predict request for a generated case, addressed to this
    /// workload's model.
    #[must_use]
    pub fn request(self, case: &Case) -> PredictRequest {
        let mut req = PredictRequest::from_case(case);
        req.model = self.model().to_string();
        req
    }

    /// Encoded request body of design `index` of `stream` under `seed`.
    #[must_use]
    pub fn body(self, seed: u64, stream: Stream, index: usize) -> Vec<u8> {
        self.request(&self.spec(seed, stream, index).generate())
            .encode()
    }

    /// Encoded request bodies of designs `range` of `stream` under `seed`.
    #[must_use]
    pub fn bodies(self, seed: u64, stream: Stream, range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        range.map(|i| self.body(seed, stream, i)).collect()
    }
}

/// SplitMix64 finalizer: spreads nearby integers over the whole range.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_serve::PredictRequest;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in Workload::ALL {
            let a = w.bodies(11, Stream::Timed, 0..3);
            let b = w.bodies(11, Stream::Timed, 0..3);
            assert_eq!(a, b, "{}", w.name());
        }
    }

    fn fingerprints(w: Workload, seed: u64, stream: Stream, n: usize) -> HashSet<u64> {
        w.bodies(seed, stream, 0..n)
            .iter()
            .map(|b| PredictRequest::decode(b).unwrap().fingerprint())
            .collect()
    }

    #[test]
    fn different_seeds_and_streams_give_disjoint_fingerprints() {
        let w = Workload::ColdLmmir;
        let a = fingerprints(w, 1, Stream::Timed, 24);
        let b = fingerprints(w, 2, Stream::Timed, 24);
        let warm = fingerprints(w, 1, Stream::Warmup, 24);
        let quality = fingerprints(w, 1, Stream::Quality, w.quality_designs());
        assert_eq!(a.len(), 24, "designs within one seed must be unique");
        assert!(a.is_disjoint(&b), "seeds 1 and 2 share a design");
        assert!(a.is_disjoint(&warm) && a.is_disjoint(&quality));
        assert!(warm.is_disjoint(&quality));
    }

    #[test]
    fn quality_subset_ignores_the_workload_seed() {
        let w = Workload::WarmLmmir;
        assert_eq!(
            fingerprints(w, 1, Stream::Quality, 2),
            fingerprints(w, 99, Stream::Quality, 2)
        );
    }

    #[test]
    fn requests_name_the_registry_model() {
        for w in Workload::ALL {
            let req = PredictRequest::decode(&w.body(3, Stream::Timed, 0)).unwrap();
            assert_eq!(req.model, w.model());
            assert_eq!(req.width as usize, w.design_px());
            assert!(req.netlist.is_some());
        }
    }
}
