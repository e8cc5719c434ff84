//! # corrfuse-core
//!
//! Correlation-aware data fusion (truth discovery), reproducing
//! *"Fusing Data with Correlations"* (Pochampally, Das Sarma, Dong, Meliou,
//! Srivastava — SIGMOD 2014).
//!
//! Many applications integrate data from sources that are individually
//! unreliable *and* mutually correlated: extractors sharing rules make the
//! same mistakes (positive correlation), sources covering complementary
//! domains rarely overlap (negative correlation). Voting and classic
//! independence-based fusion mis-handle both. This crate implements the
//! paper's models under **independent-triple, open-world** semantics:
//!
//! * [`independent::PrecRecModel`] — **PrecRec** (§3): Bayesian fusion from
//!   per-source precision/recall, Theorem 3.1.
//! * [`exact::ExactSolver`] — **PrecRecCorr** (§4.1): exact inclusion–
//!   exclusion over joint source quality, Theorem 4.2.
//! * [`aggressive::AggressiveSolver`] — linear-time approximation (§4.2).
//! * [`elastic::ElasticSolver`] — level-λ elastic approximation (§4.3,
//!   Algorithm 1), trading accuracy for cost between the two.
//! * [`cluster`] — pairwise-correlation source clustering for datasets
//!   with hundreds of sources (§5).
//! * [`solver::CorrelationSolver`] — the trait all of the above solvers
//!   implement; [`fuser::Fuser`] dispatches every method through it.
//! * [`engine::ScoringEngine`] — chunk-stealing batch scorer shared by the
//!   serial and parallel paths (parallel output is bitwise identical).
//! * [`fuser::Fuser`] — one-stop API combining all of the above.
//!
//! This crate is the model layer of the corrfuse stack (core → stream →
//! serve → net); `docs/ARCHITECTURE.md` describes the layering and
//! states the workspace-wide trust-anchor invariant every layer is
//! pinned to. The core math itself — the dataset → quality →
//! joint-counts → solver → score pipeline, the subset-memo design, the
//! incremental count and lift-graph maintenance, and what exactly makes
//! the incremental path bitwise-trustworthy — is documented as a book in
//! `docs/INTERNALS.md`.
//!
//! ## Quick start
//!
//! ```
//! use corrfuse_core::dataset::DatasetBuilder;
//! use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
//!
//! let mut b = DatasetBuilder::new();
//! // Two extractors agree on a fact, a third provides a conflicting one.
//! let (s1, t1) = b.observe_named("extractor-A", "Obama", "profession", "president");
//! let s2 = b.source("extractor-B");
//! b.observe(s2, t1);
//! let t2 = b.triple("Obama", "died", "1982");
//! b.observe(s1, t2);
//! b.label(t1, true);
//! b.label(t2, false);
//! let ds = b.build().unwrap();
//!
//! let fuser = Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, ds.gold().unwrap()).unwrap();
//! let scores = fuser.score_all(&ds).unwrap();
//! assert!(scores[t1.index()] > scores[t2.index()]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggressive;
pub mod bits;
pub mod cluster;
pub mod dataset;
pub mod elastic;
pub mod engine;
pub mod error;
pub mod exact;
pub mod fuser;
pub mod independent;
pub mod io;
pub mod joint;
pub mod prob;
pub mod quality;
pub mod rng;
pub mod solver;
pub mod subset;
pub mod testkit;
pub mod triple;

pub use dataset::{Dataset, DatasetBuilder, Domain, GoldLabels, ObserveOutcome, SourceId};
pub use engine::ScoringEngine;
pub use error::{FusionError, Result};
pub use fuser::{ClusterStrategy, Fuser, FuserConfig, Method};
pub use joint::{CacheStats, EmpiricalJoint, JointQuality, SourceSet};
pub use quality::SourceQuality;
pub use solver::{CorrelationSolver, PrecRecSolver};
pub use triple::{Triple, TripleId};
