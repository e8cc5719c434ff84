//! The scoring engine: one code path for serial and parallel batch
//! scoring.
//!
//! Scoring a dataset is embarrassingly parallel — each triple's posterior
//! is independent — but the naive "split into `n_threads` equal ranges"
//! approach loses badly when work is skewed (exact-solver triples with
//! wide complements take orders of magnitude longer than singletons).
//! [`ScoringEngine`] instead chunks the index space and lets scoped worker
//! threads *steal* the next chunk from a shared atomic cursor, the same
//! dynamic schedule rayon's `par_iter` uses. The API is deliberately
//! rayon-shaped so the implementation can be swapped for rayon's pool
//! when external dependencies are available; in this offline workspace the
//! workers are `std::thread::scope` threads.
//!
//! Determinism: every triple's score is written to its own index of the
//! output buffer and is computed by the same closure in both modes, so
//! parallel output is **bitwise identical** to serial output regardless of
//! thread count or scheduling order.
//!
//! State reuse: workers share the fitted model immutably (`F: Sync`), so
//! per-cluster solver state — e.g. [`crate::joint::EmpiricalJoint`]'s
//! subset memo, whose fill table takes a pass's first reads behind one
//! lock — is warmed by every chunk and reused across the whole batch
//! instead of being rebuilt per thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::Result;

/// Number of triples a chunk covers by default. Small enough to balance
/// skewed workloads, large enough that the atomic cursor is cold.
pub const DEFAULT_CHUNK_SIZE: usize = 256;

/// Batches smaller than this always run serially: thread spawn overhead
/// dominates any possible win.
pub const MIN_PARALLEL_BATCH: usize = 64;

/// A batch scoring executor; see the module docs.
#[derive(Debug, Clone)]
pub struct ScoringEngine {
    threads: usize,
    chunk_size: usize,
}

impl ScoringEngine {
    /// Engine that scores on the calling thread only.
    pub fn serial() -> Self {
        ScoringEngine {
            threads: 1,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Engine parallel over `std::thread::available_parallelism` workers.
    pub fn parallel() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_threads(n)
    }

    /// Engine with an explicit worker count (`0` and `1` both mean serial).
    pub fn with_threads(threads: usize) -> Self {
        ScoringEngine {
            threads: threads.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Override the chunk size (mostly for tests and benches).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Evaluate `score(i)` for every `i in 0..n` and collect the results in
    /// index order. The first error (by chunk order) aborts the remaining
    /// work and is returned.
    pub fn map<F>(&self, n: usize, score: F) -> Result<Vec<f64>>
    where
        F: Fn(usize) -> Result<f64> + Sync,
    {
        let n_chunks = n.div_ceil(self.chunk_size);
        let workers = self.threads.min(n_chunks);
        // A single worker (small batch, one chunk, or serial engine) gains
        // nothing from the thread + slot scaffolding: run inline.
        if workers <= 1 || n < MIN_PARALLEL_BATCH {
            return (0..n).map(score).collect();
        }

        let mut out = vec![0.0f64; n];
        let cursor = AtomicUsize::new(0);
        // Lowest failing chunk index seen so far; chunks beyond it are
        // skipped, chunks before it still run so the *earliest* error is
        // the one reported regardless of scheduling.
        let min_failed = AtomicUsize::new(usize::MAX);
        let failure: Mutex<Option<(usize, crate::error::FusionError)>> = Mutex::new(None);

        {
            // Chunks are disjoint `&mut` windows of the output; each is
            // owned by whichever worker wins its cursor slot.
            let slots: Vec<Mutex<&mut [f64]>> =
                out.chunks_mut(self.chunk_size).map(Mutex::new).collect();
            let run_worker = || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    return;
                }
                if c > min_failed.load(Ordering::Relaxed) {
                    continue;
                }
                let mut slice = slots[c].lock().expect("chunk slot poisoned");
                let base = c * self.chunk_size;
                for (off, cell) in slice.iter_mut().enumerate() {
                    match score(base + off) {
                        Ok(v) => *cell = v,
                        Err(e) => {
                            min_failed.fetch_min(c, Ordering::Relaxed);
                            let mut f = failure.lock().expect("failure slot poisoned");
                            match f.as_ref() {
                                Some((prev, _)) if *prev <= c => {}
                                _ => *f = Some((c, e)),
                            }
                            break;
                        }
                    }
                }
            };
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
                for h in handles {
                    h.join().expect("scoring worker panicked");
                }
            });
        }

        match failure.into_inner().expect("failure slot poisoned") {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FusionError;

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        // A score function with enough floating-point texture that any
        // order-dependence would show.
        let f = |i: usize| Ok(((i as f64).sin() * 1e6).cos() / (i as f64 + 0.5));
        let n = 10_000;
        let serial = ScoringEngine::serial().map(n, f).unwrap();
        for threads in [2, 3, 8, 64] {
            let par = ScoringEngine::with_threads(threads)
                .with_chunk_size(17)
                .map(n, f)
                .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn small_batches_run_serially() {
        let engine = ScoringEngine::with_threads(8);
        let out = engine.map(10, |i| Ok(i as f64)).unwrap();
        assert_eq!(out, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        assert!(ScoringEngine::parallel()
            .map(0, |_| Ok(1.0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn errors_propagate_from_parallel_workers() {
        let engine = ScoringEngine::with_threads(4).with_chunk_size(8);
        let err = engine
            .map(1000, |i| {
                if i == 137 {
                    Err(FusionError::TripleOutOfRange(i))
                } else {
                    Ok(0.0)
                }
            })
            .unwrap_err();
        assert_eq!(err, FusionError::TripleOutOfRange(137));
    }

    #[test]
    fn earliest_chunk_error_wins() {
        // Two failing indices; the one in the earlier chunk must be
        // reported no matter which worker hits its chunk first.
        let engine = ScoringEngine::with_threads(8).with_chunk_size(4);
        for _ in 0..20 {
            let err = engine
                .map(1000, |i| {
                    if i == 100 || i == 900 {
                        Err(FusionError::TripleOutOfRange(i))
                    } else {
                        Ok(0.0)
                    }
                })
                .unwrap_err();
            assert_eq!(err, FusionError::TripleOutOfRange(100));
        }
    }

    #[test]
    fn thread_zero_means_serial() {
        assert_eq!(ScoringEngine::with_threads(0).threads(), 1);
        let out = ScoringEngine::with_threads(0)
            .map(5, |i| Ok(i as f64))
            .unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn parallel_uses_the_default_chunk() {
        assert!(ScoringEngine::parallel().threads() >= 1);
        assert_eq!(ScoringEngine::parallel().chunk_size(), DEFAULT_CHUNK_SIZE);
    }
}
