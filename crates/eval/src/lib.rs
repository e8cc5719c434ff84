//! # corrfuse-eval
//!
//! Evaluation infrastructure for the corrfuse reproduction:
//!
//! * [`metrics`] — precision/recall/F1 confusion accounting;
//! * [`curves`] — tie-aware PR and ROC curves with AUC-PR / AUC-ROC;
//! * [`calibration`] — Brier score and reliability diagrams (quantifies
//!   the paper's "probabilities fall in extreme ranges" observation);
//! * [`report`] — fixed-width text tables shared by all binaries;
//! * [`harness`] — the method registry ([`harness::MethodSpec`]) that runs
//!   any fusion method or baseline on any dataset with timing;
//! * [`experiments`] — one runner per paper figure/table (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibration;
pub mod curves;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;

pub use harness::{evaluate_all, evaluate_method, run_method, MethodReport, MethodSpec};
pub use metrics::{Confusion, Prf};
