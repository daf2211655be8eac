//! Autonomic self-observation for the SMC: the monitor→analyze→react
//! loop the paper's management architecture calls for, built on the
//! telemetry layer.
//!
//! PR 3 made the cell *observable* (trace journeys, a metrics registry);
//! nothing read any of it. This crate closes the loop:
//!
//! * **Detectors** ([`detect`]): thresholded delta analyses over the
//!   registry and hop stream — retransmit storms, proxy-queue growth,
//!   WAL append stalls, delivery-latency p99 regressions, membership
//!   flapping.
//! * **State machines** ([`state`]): each watched component walks
//!   `Healthy → Degraded → Failed` with hysteresis, so one blip never
//!   flaps state.
//! * **The monitor** ([`monitor`]): clock-driven sampling that turns
//!   detector verdicts into [`HealthTransition`]s and typed `smc.health`
//!   events the policy service can react to ([`health_event`]) — the
//!   built-in reaction quenches a degraded publisher.
//! * **The operator surface** ([`http`]): a dependency-free blocking
//!   status server behind one route table (`/metrics`, `/health`,
//!   `/journey`, `/cells`, `/supervision`, `/tails`, `/slo`, and the
//!   `/` index listing them).
//! * **The black box** ([`recorder`]): a bounded flight recorder of
//!   registry snapshots, hops and notes, dumped to a file on chaos
//!   violations or core crashes.
//! * **The supervisor** ([`supervise`]): the repair half of the loop —
//!   a dependency-aware service registry plus a passive, deterministic
//!   supervisor that answers `Failed` transitions with restarts and
//!   escalates up the graph when a restart doesn't clear the detector.
//! * **Peer supervision** ([`peer`]): the loop's survival of its own
//!   host — cells heartbeat leases to sibling cells over the event
//!   fabric; when one lapses, watchers arbitrate a claim by lowest
//!   member id, the winner adopts the silent cell and drives repair
//!   remotely, and releases the moment the lease resumes.
//!
//! Everything samples an injected clock, so the virtual-time chaos
//! harness drives the whole loop deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect;
pub mod http;
pub mod monitor;
pub mod peer;
pub mod recorder;
pub mod state;
pub mod supervise;

pub use detect::{
    default_detectors, ComponentDown, DeliveryLatency, Detector, MembershipFlap, Observation,
    QueueGrowth, RetransmitStorm, SampleCtx, SloBurn, WalStall,
};
pub use http::{StatusServer, StatusSources, SupervisionStatus};
pub use monitor::{
    health_event, ComponentStatus, HealthConfig, HealthMonitor, HealthReport, HealthTransition,
};
pub use peer::{peer_lease_json, PeerAction, PeerLease, PeerReport, PeerSupervisor};
pub use recorder::FlightRecorder;
pub use state::{ComponentHealth, HealthState, Hysteresis};
pub use supervise::{
    RepairAction, ServiceRegistry, ServiceSpec, SuperviseConfig, SupervisionReport, Supervisor,
};
