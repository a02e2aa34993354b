//! # lmmir-bench
//!
//! The reproduction harness: one binary per table/figure of the paper plus
//! Criterion micro-benchmarks.
//!
//! | artifact | binary |
//! |---|---|
//! | Table I (capability matrix) | `cargo run -p lmmir-bench --bin table1` |
//! | Table II (testcase statistics) | `cargo run --release -p lmmir-bench --bin table2` |
//! | Table III (main comparison) | `cargo run --release -p lmmir-bench --bin table3` |
//! | Fig. 4 (ablations) | `cargo run --release -p lmmir-bench --bin fig4` |
//! | Fig. 5 (IR-map visualization) | `cargo run --release -p lmmir-bench --bin fig5` |
//!
//! All binaries honour environment overrides (see [`Harness::from_env`])
//! so the suite can be scaled up on faster machines:
//! `LMMIR_SCALE`, `LMMIR_INPUT`, `LMMIR_EPOCHS`, `LMMIR_FAKE`, `LMMIR_REAL`,
//! `LMMIR_SEED`.

use lmm_ir::{
    build_dataset, first_place, iredge, irpnet, second_place, ArchSpec, IrPredictor, LmmIr,
    LmmIrConfig, Sample, TrainConfig,
};
use lmmir_pdn::{hidden_suite, training_suite};
use lmmir_solver::SolveIrDropError;

/// The compared models (columns of Table III), in the paper's column
/// order.
pub const TABLE3_COLUMNS: [ArchSpec; 5] = [
    ArchSpec::FirstPlace,
    ArchSpec::SecondPlace,
    ArchSpec::Iredge,
    ArchSpec::IrpNet,
    ArchSpec::LmmIr,
];

/// Column label of a compared model: its canonical name, except that the
/// paper's own model prints as "Ours".
#[must_use]
pub fn label(arch: ArchSpec) -> &'static str {
    match arch {
        ArchSpec::LmmIr => "Ours",
        other => other.name(),
    }
}

/// Scaled reproduction configuration shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Geometric scale of the hidden suite relative to Table II (1.0 =
    /// full contest size).
    pub scale: f64,
    /// Number of fake training cases.
    pub n_fake: usize,
    /// Number of real training cases.
    pub n_real: usize,
    /// Master seed.
    pub seed: u64,
    /// Training configuration.
    pub train: TrainConfig,
    /// LMM-IR model configuration (baselines derive their input size from
    /// it so every model sees identical inputs).
    pub lmm: LmmIrConfig,
}

impl Harness {
    /// Laptop-scale defaults (≈ minutes per table on a 2-core box).
    #[must_use]
    pub fn quick() -> Self {
        Harness {
            scale: 1.0 / 8.0,
            n_fake: 10,
            n_real: 4,
            seed: 20_230_901,
            train: TrainConfig::quick(),
            lmm: LmmIrConfig::quick(),
        }
    }

    /// Quick defaults with environment overrides applied.
    ///
    /// # Panics
    ///
    /// Panics when an override variable is set but does not parse —
    /// `LMMIR_EPOCHS=abc` aborting loudly beats silently benchmarking with
    /// the defaults the caller thought they had overridden.
    #[must_use]
    pub fn from_env() -> Self {
        let mut h = Harness::quick();
        fn read<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok().map(|v| {
                v.parse().unwrap_or_else(|_| {
                    panic!(
                        "invalid {key}={v:?}: expected a {}",
                        std::any::type_name::<T>()
                    )
                })
            })
        }
        if let Some(s) = read::<f64>("LMMIR_SCALE") {
            h.scale = s;
        }
        if let Some(s) = read::<usize>("LMMIR_INPUT") {
            h.lmm.input_size = s;
        }
        if let Some(s) = read::<usize>("LMMIR_EPOCHS") {
            h.train.epochs = s;
        }
        if let Some(s) = read::<usize>("LMMIR_FAKE") {
            h.n_fake = s;
        }
        if let Some(s) = read::<usize>("LMMIR_REAL") {
            h.n_real = s;
        }
        if let Some(s) = read::<u64>("LMMIR_SEED") {
            h.seed = s;
        }
        h
    }

    /// Builds (generates + golden-solves + featurizes) the training set.
    ///
    /// # Errors
    ///
    /// Returns the first golden-solve failure.
    pub fn build_training(&self) -> Result<Vec<Sample>, SolveIrDropError> {
        let specs = training_suite(self.n_fake, self.n_real, self.scale, self.seed);
        build_dataset(&specs, self.lmm.input_size)
    }

    /// Builds the ten hidden evaluation cases (Table II suite).
    ///
    /// # Errors
    ///
    /// Returns the first golden-solve failure.
    pub fn build_hidden(&self) -> Result<Vec<Sample>, SolveIrDropError> {
        let specs = hidden_suite(self.scale, self.seed);
        build_dataset(&specs, self.lmm.input_size)
    }

    /// Instantiates a Table III column with deterministic weights; LMM-IR
    /// is built from [`Harness::lmm`].
    ///
    /// # Panics
    ///
    /// Panics when `arch` is not one of [`TABLE3_COLUMNS`].
    #[must_use]
    pub fn build_model(&self, arch: ArchSpec) -> Box<dyn IrPredictor> {
        let s = self.lmm.input_size;
        let seed = self.seed ^ 0x5EED;
        match arch {
            ArchSpec::FirstPlace => Box::new(first_place(s, seed)),
            ArchSpec::SecondPlace => Box::new(second_place(s, seed)),
            ArchSpec::Iredge => Box::new(iredge(s, seed)),
            ArchSpec::IrpNet => Box::new(irpnet(s, seed)),
            ArchSpec::LmmIr => {
                let mut cfg = self.lmm.clone();
                cfg.seed = seed;
                Box::new(LmmIr::new(cfg))
            }
            other => panic!("{} is not a Table III column", other.name()),
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::quick()
    }
}

/// One Table III row: case name plus `(F1, MAE·1e-4, TAT s)` per column.
pub type Table3Row = (&'static str, [(f64, f64, f64); 5]);

/// Paper Table III: per-case `(F1, MAE·1e-4, TAT s)` for each model column,
/// in [`TABLE3_COLUMNS`] order; used for side-by-side printouts and the
/// EXPERIMENTS.md record.
// Verbatim transcription of published numbers; some happen to look like
// mathematical constants.
#[allow(clippy::approx_constant)]
pub const PAPER_TABLE3: [Table3Row; 10] = [
    (
        "testcase7",
        [
            (0.78, 0.66, 14.61),
            (0.56, 0.78, 3.22),
            (0.16, 5.77, 1.53),
            (0.17, 2.39, 2.87),
            (0.72, 0.63, 2.82),
        ],
    ),
    (
        "testcase8",
        [
            (0.82, 0.82, 12.64),
            (0.80, 1.13, 2.70),
            (0.20, 4.20, 1.27),
            (0.10, 2.30, 2.43),
            (0.84, 0.84, 2.57),
        ],
    ),
    (
        "testcase9",
        [
            (0.59, 0.41, 18.84),
            (0.55, 0.73, 4.25),
            (0.04, 4.71, 2.42),
            (0.00, 5.05, 3.46),
            (0.47, 0.42, 4.63),
        ],
    ),
    (
        "testcase10",
        [
            (0.53, 0.66, 19.05),
            (0.15, 1.14, 4.13),
            (0.01, 4.76, 2.67),
            (0.00, 2.02, 2.89),
            (0.60, 0.71, 4.43),
        ],
    ),
    (
        "testcase13",
        [
            (0.00, 2.07, 9.60),
            (0.67, 1.25, 1.25),
            (0.38, 8.42, 1.64),
            (0.01, 5.78, 1.22),
            (0.52, 1.52, 1.15),
        ],
    ),
    (
        "testcase14",
        [
            (0.00, 4.22, 10.07),
            (0.10, 2.32, 1.40),
            (0.05, 7.43, 1.99),
            (0.00, 2.33, 1.13),
            (0.44, 3.24, 1.11),
        ],
    ),
    (
        "testcase15",
        [
            (0.09, 0.97, 12.99),
            (0.00, 1.92, 2.15),
            (0.10, 5.48, 1.77),
            (0.00, 5.51, 2.88),
            (0.54, 1.49, 2.20),
        ],
    ),
    (
        "testcase16",
        [
            (0.53, 1.60, 12.12),
            (0.48, 3.44, 2.19),
            (0.31, 10.21, 0.97),
            (0.01, 5.78, 2.21),
            (0.55, 3.33, 2.43),
        ],
    ),
    (
        "testcase19",
        [
            (0.50, 0.91, 19.05),
            (0.49, 1.20, 4.55),
            (0.05, 4.62, 2.52),
            (0.01, 2.71, 3.14),
            (0.61, 0.74, 4.60),
        ],
    ),
    (
        "testcase20",
        [
            (0.71, 1.18, 18.75),
            (0.74, 1.07, 4.58),
            (0.02, 7.24, 3.39),
            (0.00, 5.91, 3.12),
            (0.54, 0.64, 4.61),
        ],
    ),
];

/// Paper Table III `Avg` row (same column order).
#[allow(clippy::approx_constant)]
pub const PAPER_TABLE3_AVG: [(f64, f64, f64); 5] = [
    (0.46, 1.35, 14.77),
    (0.45, 1.50, 3.04),
    (0.13, 6.28, 2.02),
    (0.03, 3.98, 2.54),
    (0.58, 1.35, 3.05),
];

/// Formats a fixed-width table cell.
#[must_use]
pub fn cell(v: f64, width: usize, decimals: usize) -> String {
    format!("{v:>width$.decimals$}")
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kinds_cover_table_columns() {
        let labels = TABLE3_COLUMNS.map(label);
        assert_eq!(
            labels,
            ["1st Place", "2nd Place", "IREDGe", "IRPnet", "Ours"]
        );
    }

    #[test]
    fn paper_table_has_ten_cases() {
        assert_eq!(PAPER_TABLE3.len(), 10);
        // Spot check against the paper.
        let (id, rows) = PAPER_TABLE3[3];
        assert_eq!(id, "testcase10");
        assert_eq!(rows[4], (0.60, 0.71, 4.43));
    }

    #[test]
    fn harness_builds_all_models() {
        let mut h = Harness::quick();
        h.lmm.input_size = 16;
        h.lmm.widths = vec![4, 8];
        for arch in TABLE3_COLUMNS {
            let m = h.build_model(arch);
            assert_eq!(m.input_size(), 16);
            assert!(!m.parameters().is_empty());
        }
    }

    /// Serializes tests that touch the process-global environment.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn env_overrides_apply() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("LMMIR_EPOCHS", "3");
        std::env::set_var("LMMIR_SCALE", "0.0625");
        let h = Harness::from_env();
        assert_eq!(h.train.epochs, 3);
        assert!((h.scale - 0.0625).abs() < 1e-12);
        std::env::remove_var("LMMIR_EPOCHS");
        std::env::remove_var("LMMIR_SCALE");
    }

    #[test]
    fn malformed_env_override_panics_with_key_and_value() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("LMMIR_EPOCHS", "abc");
        let err = std::panic::catch_unwind(Harness::from_env).unwrap_err();
        std::env::remove_var("LMMIR_EPOCHS");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("LMMIR_EPOCHS") && msg.contains("abc"),
            "panic must name the offending key and value: {msg}"
        );
    }

    #[test]
    fn cell_formats_width() {
        assert_eq!(cell(1.23456, 8, 2), "    1.23");
    }
}
