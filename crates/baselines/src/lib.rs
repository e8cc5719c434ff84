//! # corrfuse-baselines
//!
//! The comparison methods the SIGMOD'14 evaluation runs against:
//!
//! * [`voting`] — UNION-K (UNION-50 = majority voting);
//! * [`estimates`] — COSINE, 2-ESTIMATES and 3-ESTIMATES
//!   (Galland et al., WSDM 2010);
//! * [`ltm`] — the Latent Truth Model with collapsed Gibbs sampling
//!   (Zhao et al., PVLDB 2012);
//! * [`accu`] — single-truth ACCU and copy-aware ACCUCOPY
//!   (Dong et al., PVLDB 2009), used for the BOOK comparison;
//! * [`claims`] — the positive/negative claim mapping shared by the
//!   iterative methods.
//!
//! Each baseline is implemented from its original publication; none of them
//! model broad correlations, which is precisely the gap the core crate's
//! PrecRecCorr fills.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accu;
pub mod claims;
pub mod estimates;
pub mod ltm;
pub mod voting;

pub use estimates::{cosine, three_estimates, two_estimates, EstimatesConfig};
pub use ltm::{LtmConfig, LtmResult};
pub use voting::UnionK;
