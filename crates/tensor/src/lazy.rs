//! Exists only for the `perfbench` replay harness, which links these names.
//! Elementwise ops always compute immediately; both counters read 0.

/// Counters read by the harness; always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Always 0.
    pub programs: usize,
    /// Always 0.
    pub fresh_allocs: usize,
}

/// Calls `f`.
pub fn with_eager<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Does nothing.
pub fn reset_stats() {}

/// Zeroed counters.
#[must_use]
pub fn stats() -> Stats {
    Stats::default()
}
