//! Deterministic virtual-time chaos harness for the AMUSE event service.
//!
//! The paper's e-health scenarios — nurses walking out of radio range,
//! body-sensor networks rejoining a ward cell, lossy personal-area links
//! — are timing bugs waiting to happen, and wall-clock integration tests
//! can neither reproduce them nor explore them quickly. This crate runs
//! the whole stack (simulated radio network, reliable channels,
//! discovery service, member agents) against a [`smc_types::ManualClock`]
//! instead of real time:
//!
//! * **virtual time** — a 30-second scenario steps through in
//!   milliseconds, and nothing in the run reads `Instant::now()`, so the
//!   schedule is bit-identical for a given seed;
//! * **scenario scripts** — [`Scenario`] describes seeded fault
//!   schedules (loss bursts, partitions, duplicate storms, crash/restart,
//!   broadcast-domain moves, link-profile changes, whole-core crashes) at
//!   scripted virtual times;
//! * **delivery oracle** — [`DeliveryOracle`] records every publish,
//!   delivery and membership transition and checks the paper's §II-C
//!   guarantees (exactly-once, per-sender FIFO, no delivery after purge),
//!   reporting the seed and event trace when one breaks.
//!
//! ```
//! use std::time::Duration;
//! use smc_harness::{run, Scenario};
//!
//! let scenario = Scenario::random(7, 3, Duration::from_secs(4), 4);
//! let report = run(&scenario);
//! report.assert_clean(); // panics with seed + trace on a violation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod oracle;
mod planes;
mod scenario;
mod world;

pub use oracle::{DeliveryOracle, OracleViolation, TraceEvent, ViolationKind};
pub use scenario::{
    shrink_scenario, ChaosOp, CoreComponent, CorruptTarget, LinkProfileKind, Scenario, ScriptedOp,
};
pub use world::{
    default_discovery, run, run_with_options, CellReport, HealthOptions, HealthOutcome, RunOptions,
    RunReport, SupervisionOptions, TelemetryPlaneReport,
};
