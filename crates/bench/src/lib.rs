//! # corrfuse-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig1_motivating` | Figure 1b/1c + worked examples |
//! | `fig4_reverb` / `fig4_restaurant` / `fig4_book` | Figure 4a/b/c |
//! | `fig5_elastic` | Figure 5a |
//! | `fig5_runtime` | Figure 5b |
//! | `fig6_synthetic` | Figure 6a/6b/6c |
//! | `fig7_correlated` | Figure 7 |
//! | `corr_discovery` | §5.1 discovered correlations |
//! | `book_accucopy` | §5.1 ACCU/ACCUCOPY comparison |
//! | `run_all` | everything above, in order |
//!
//! Criterion benches (in `benches/`) measure the runtime side: method
//! costs (Figure 5b), elastic level cost curves, exact-vs-approximation
//! scaling, joint-quality memoisation, and baseline throughput.
//!
//! Set `CORRFUSE_QUICK=1` to shrink repetition counts (CI smoke runs).

#![forbid(unsafe_code)]

use corrfuse_core::dataset::Dataset;
use corrfuse_core::error::Result;

pub mod harness;

/// Fixed seeds so every run regenerates identical replicas.
pub mod seeds {
    /// REVERB replica seed.
    pub const REVERB: u64 = 41;
    /// RESTAURANT replica seed.
    pub const RESTAURANT: u64 = 42;
    /// Synthetic sweep base seed.
    pub const SYNTH: u64 = 4242;
}

/// The REVERB replica used by all benches.
pub fn reverb() -> Result<Dataset> {
    corrfuse_synth::replicas::reverb(seeds::REVERB)
}

/// The RESTAURANT replica used by all benches.
pub fn restaurant() -> Result<Dataset> {
    corrfuse_synth::replicas::restaurant(seeds::RESTAURANT)
}

/// The BOOK replica used by all benches.
pub fn book() -> Result<Dataset> {
    corrfuse_synth::replicas::book_default()
}

/// A reduced BOOK replica for quick runs and criterion benches.
pub fn book_small() -> Result<Dataset> {
    corrfuse_synth::replicas::book(&corrfuse_synth::replicas::BookConfig {
        n_books: 80,
        n_sources: 120,
        ..Default::default()
    })
}

/// Repetition count for synthetic sweeps: 10 (the paper's setting) unless
/// `CORRFUSE_QUICK` is set.
pub fn sweep_reps() -> usize {
    if quick() {
        2
    } else {
        10
    }
}

/// Is quick mode enabled?
pub fn quick() -> bool {
    std::env::var("CORRFUSE_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_build() {
        assert_eq!(reverb().unwrap().n_sources(), 6);
        assert_eq!(restaurant().unwrap().n_sources(), 7);
        assert_eq!(book_small().unwrap().n_sources(), 120);
    }

    #[test]
    fn quick_mode_reduces_reps() {
        // Not set in the test environment by default.
        if !quick() {
            assert_eq!(sweep_reps(), 10);
        }
    }
}
