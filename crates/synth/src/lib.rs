//! # corrfuse-synth
//!
//! Synthetic data generation for correlation-aware data fusion:
//!
//! * [`motivating`] — the paper's Figure 1 example, exactly;
//! * [`generator`] — parametric worlds with controlled per-source
//!   precision/recall and positive/complementary correlation groups
//!   (drives the Figure 6/7 experiments);
//! * [`replicas`] — statistical twins of the REVERB, RESTAURANT and BOOK
//!   datasets (drives the Figure 4/5 experiments; see DESIGN.md §5 for the
//!   substitution rationale);
//! * [`stream_events`] — slices a generated world into a seed snapshot
//!   plus ingest-event micro-batches (drives the `corrfuse-stream`
//!   equivalence tests and throughput bench);
//! * [`churn`] — adversarial label-churn batches over a full world
//!   (labels flipping back and forth, claims shifting provider sets;
//!   drives the incremental-core equivalence property and the
//!   `joint_incremental` bench);
//! * [`multi_tenant`] — interleaved per-tenant event streams with
//!   Zipf-skewed tenant sizes (drives the `corrfuse-serve` router tests
//!   and benches);
//! * [`remote`] — per-producer connection scripts (sends + forced
//!   reconnects) over a multi-tenant stream (drives the `corrfuse-net`
//!   loopback tests and the `net_throughput` bench);
//! * [`wide_world`](mod@wide_world) — many sources partitioned into narrow domains with
//!   one planted correlation clique per domain (drives the sparse
//!   lift-graph / sketch-tier scaling tests and the `wide_world` bench);
//! * [`follower`] — a multi-tenant workload plus a deterministic
//!   replication-fault schedule (disconnects, journal rotations, follower
//!   cold restarts; drives the `corrfuse-replica` equivalence suite and
//!   the `replica_read_scaling` bench);
//! * [`migration`] — a multi-tenant workload plus a deterministic
//!   tenant-migration chaos schedule (live migrations, crash-aborted
//!   migrations, journal rotations, duplicate ingest bursts; drives the
//!   `corrfuse-serve` migration equivalence suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod follower;
pub mod generator;
pub mod migration;
pub mod motivating;
pub mod multi_tenant;
pub mod remote;
pub mod replicas;
pub mod stream_events;
pub mod wide_world;

pub use churn::{label_churn_stream, ChurnSpec};
pub use follower::{follower_scenario, Fault, FollowerScenario, FollowerScenarioSpec};
pub use generator::{generate, GroupKind, GroupSpec, Polarity, SourceSpec, SynthSpec};
pub use migration::{migration_scenario, MigrationFault, MigrationScenario, MigrationScenarioSpec};
pub use multi_tenant::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};
pub use remote::{
    remote_producer_scripts, ProducerAction, ProducerScript, RemoteSpec, RemoteWorkload,
};
pub use stream_events::{event_stream, StreamSpec};
pub use wide_world::{wide_world, WideWorldSpec};

use corrfuse_core::error::{FusionError, Result};

/// Validate a fraction parameter in `(0, 1)`.
pub(crate) fn check_fraction(what: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(FusionError::InvalidProbability { what, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_validation() {
        assert!(check_fraction("f", 0.5).is_ok());
        assert!(check_fraction("f", 0.0).is_err());
        assert!(check_fraction("f", 1.0).is_err());
        assert!(check_fraction("f", f64::NAN).is_err());
    }
}
