//! The SMC policy service: Ponder-style authorisation and obligation
//! policies for autonomic management (paper §II-A).
//!
//! * [`AuthorisationPolicy`] — what a role may publish, subscribe to, or
//!   command (deny overrides permit);
//! * [`ObligationPolicy`] — event-condition-action rules, with conditions
//!   written in a small expression language ([`Expr`]);
//! * [`PolicyService`] — the store: add/remove/enable/disable at runtime,
//!   evaluate obligations against events, check authorisations, and hand
//!   out per-device-type deployment bundles ([`PolicySet`]) when the
//!   discovery service admits a new member.
//!
//! The service is deliberately passive: [`PolicyService::on_event`]
//! returns [`FiredAction`]s; executing them against the bus is the cell
//! wiring's job (`smc-core`), keeping this crate free of networking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expr;
pub mod lang;
pub mod model;
pub mod service;

pub use expr::{CmpOp, Expr, ParseError};
pub use lang::{parse_policies, write_policies};
pub use model::{
    glob_matches, ActionClass, ActionSpec, AuthorisationPolicy, ObligationPolicy, Policy,
    PolicySet, ValueTemplate,
};
pub use service::{
    ehealth_baseline, health_quench_policies, peer_repair_policies, supervision_policies,
    telemetry_quench_exemptions, Decision, FiredAction, PolicyService,
};
