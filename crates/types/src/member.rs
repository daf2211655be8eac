//! Membership records and the well-known management events.
//!
//! The discovery service announces membership changes by publishing
//! `New Member` and `Purge Member` events on the bus; the proxy bootstrap
//! and the policy service both subscribe to them. This module defines the
//! canonical event types and attribute names so all components agree.

use bytes::{BufMut, BytesMut};
use std::fmt;

use crate::codec::{Decode, Encode, Reader, WriteExt};
use crate::error::CodecError;
use crate::event::Event;
use crate::id::ServiceId;

/// Well-known event type names and attribute keys.
pub mod wellknown {
    /// Event type announcing a newly admitted member.
    pub const NEW_MEMBER: &str = "smc.member.new";
    /// Event type announcing a permanently departed member.
    pub const PURGE_MEMBER: &str = "smc.member.purge";
    /// Attribute: 48-bit member service id (int).
    pub const MEMBER_ID: &str = "member.id";
    /// Attribute: member device type (string).
    pub const DEVICE_TYPE: &str = "member.device_type";
    /// Attribute: member display name (string).
    pub const DISPLAY_NAME: &str = "member.name";
    /// Attribute: comma-separated member roles (string).
    pub const ROLES: &str = "member.roles";
    /// Attribute: human-readable purge reason (string).
    pub const REASON: &str = "reason";
    /// Event type for management commands (e.g. threshold changes).
    pub const COMMAND: &str = "smc.command";
    /// Event type for alarms raised by policies or sensors.
    pub const ALARM: &str = "smc.alarm";
    /// Event type for generic sensor readings.
    pub const SENSOR_READING: &str = "smc.sensor.reading";
    /// Event type for health-state transitions published by the
    /// autonomic health monitor.
    pub const HEALTH: &str = "smc.health";
    /// Attribute: the component whose health changed (string, e.g.
    /// `channel:device0`, `wal`, `membership`).
    pub const HEALTH_COMPONENT: &str = "health.component";
    /// Attribute: the detector that drove the transition (string).
    pub const HEALTH_DETECTOR: &str = "health.detector";
    /// Attribute: previous health state (string: `healthy`, `degraded`,
    /// `failed`).
    pub const HEALTH_FROM: &str = "health.from";
    /// Attribute: new health state (string).
    pub const HEALTH_TO: &str = "health.to";
    /// Attribute: human-readable detector detail (string).
    pub const HEALTH_DETAIL: &str = "health.detail";
    /// Attribute: raw service id of the member behind the component, when
    /// the component maps to one (int) — the hook obligation policies use
    /// to aim a quench at the offending publisher.
    pub const HEALTH_MEMBER: &str = "health.member";
    /// Event type for peer-supervision protocol traffic between cells:
    /// heartbeat-leases, watcher claims, adoptions, releases, and the
    /// remote repair/reconcile commands an adopter issues.
    pub const SUPERVISION: &str = "smc.supervision";
    /// Attribute: the supervision message kind (string: `lease`, `claim`,
    /// `adopt`, `release`, `repair`, `reconcile`).
    pub const SUP_KIND: &str = "supervision.kind";
    /// Attribute: member id of the cell the message is about (int).
    pub const SUP_TARGET: &str = "supervision.target";
    /// Attribute: member id of the cell speaking — the lease holder,
    /// claimant, or adopter (int).
    pub const SUP_SENDER: &str = "supervision.sender";
    /// Attribute: heartbeat-lease time-to-live in microseconds (int).
    pub const SUP_TTL: &str = "supervision.ttl";
    /// Attribute: the component a remote repair command targets (string).
    pub const SUP_COMPONENT: &str = "supervision.component";
    /// Attribute: the repair attempt number (int).
    pub const SUP_ATTEMPT: &str = "supervision.attempt";
    /// Event type for telemetry-plane traffic: delta-encoded metric
    /// snapshots, exported trace hops and SLO burn reports flowing from
    /// every cell to the ward observer over the bus itself.
    pub const TELEMETRY: &str = "smc.telemetry";
    /// Attribute: the telemetry message kind (string: `metric-delta`,
    /// `trace-export`, `slo-report`).
    pub const TEL_KIND: &str = "telemetry.kind";
    /// Attribute: member id of the exporting cell (int).
    pub const TEL_CELL: &str = "telemetry.cell";
    /// Attribute: the cell's export sequence number (int).
    pub const TEL_SEQ: &str = "telemetry.seq";
    /// Attribute: SLO name an `slo-report` speaks about (string).
    pub const TEL_SLO: &str = "telemetry.slo";
    /// Attribute: burn-rate window in microseconds (int).
    pub const TEL_WINDOW: &str = "telemetry.window";
    /// Attribute: burn rate ×1000 (int; 1000 = exactly on budget).
    pub const TEL_BURN: &str = "telemetry.burn";
    /// Attribute: remaining error budget ×1000 (int).
    pub const TEL_BUDGET: &str = "telemetry.budget";
    /// Attribute: raw episode trace id, attached to supervision
    /// `repair` events so the repaired cell can record its hops under
    /// the same journey the adopter is narrating (int).
    pub const TEL_EPISODE: &str = "telemetry.episode";
}

/// Why a member was purged from the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PurgeReason {
    /// The member announced it was leaving.
    Left,
    /// The member's lease expired (silence beyond the grace period).
    LeaseExpired,
    /// An operator or policy evicted the member.
    Evicted,
}

impl fmt::Display for PurgeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PurgeReason::Left => "left",
            PurgeReason::LeaseExpired => "lease-expired",
            PurgeReason::Evicted => "evicted",
        };
        f.write_str(s)
    }
}

/// Static description of a service, supplied when it joins the cell.
///
/// Carried in join requests and `New Member` events; the device type keys
/// proxy bootstrap (which proxy class to create) and policy deployment
/// (which policies to push to the newcomer).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceInfo {
    /// The service's transport-derived identifier.
    pub id: ServiceId,
    /// Device type, e.g. `"sensor.heart-rate"` or `"actuator.insulin-pump"`.
    pub device_type: String,
    /// Human-readable name, e.g. `"chest strap #2"`.
    pub display_name: String,
    /// Management roles the service holds, e.g. `["sensor"]`.
    pub roles: Vec<String>,
}

impl ServiceInfo {
    /// Creates a service description.
    pub fn new(id: ServiceId, device_type: impl Into<String>) -> Self {
        ServiceInfo {
            id,
            device_type: device_type.into(),
            display_name: String::new(),
            roles: Vec::new(),
        }
    }

    /// Sets the display name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.display_name = name.into();
        self
    }

    /// Adds a role (builder style).
    pub fn with_role(mut self, role: impl Into<String>) -> Self {
        self.roles.push(role.into());
        self
    }

    /// Returns `true` if the service holds `role`.
    pub fn has_role(&self, role: &str) -> bool {
        self.roles.iter().any(|r| r == role)
    }
}

impl Encode for ServiceInfo {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        buf.put_str(&self.device_type);
        buf.put_str(&self.display_name);
        buf.put_u16_le(self.roles.len() as u16);
        for role in &self.roles {
            buf.put_str(role);
        }
    }
}

impl Decode for ServiceInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = ServiceId::decode(r)?;
        let device_type = r.str()?;
        let display_name = r.str()?;
        let n = r.collection_len()?;
        // A role is at least its two-byte length.
        let mut roles = Vec::with_capacity(n.min(r.remaining() / 2));
        for _ in 0..n {
            roles.push(r.str()?);
        }
        Ok(ServiceInfo {
            id,
            device_type,
            display_name,
            roles,
        })
    }
}

/// Builds the `New Member` event the discovery service publishes when it
/// admits `info` into the cell.
pub fn new_member_event(info: &ServiceInfo) -> Event {
    Event::builder(wellknown::NEW_MEMBER)
        .attr(wellknown::MEMBER_ID, info.id.raw() as i64)
        .attr(wellknown::DEVICE_TYPE, info.device_type.clone())
        .attr(wellknown::DISPLAY_NAME, info.display_name.clone())
        .attr(wellknown::ROLES, info.roles.join(","))
        .build()
}

/// Builds the `Purge Member` event announcing that `member` has left for
/// good.
pub fn purge_member_event(member: ServiceId, reason: PurgeReason) -> Event {
    Event::builder(wellknown::PURGE_MEMBER)
        .attr(wellknown::MEMBER_ID, member.raw() as i64)
        .attr(wellknown::REASON, reason.to_string())
        .build()
}

/// Extracts the member id carried by a membership event, if present.
pub fn member_id_of(event: &Event) -> Option<ServiceId> {
    event
        .attr(wellknown::MEMBER_ID)
        .and_then(|v| v.as_int())
        .map(|raw| ServiceId::from_raw(raw as u64))
}

/// Extracts the device type carried by a `New Member` event, if present.
pub fn device_type_of(event: &Event) -> Option<&str> {
    event.attr(wellknown::DEVICE_TYPE).and_then(|v| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    #[test]
    fn service_info_round_trip() {
        let info = ServiceInfo::new(ServiceId::from_raw(5), "sensor.hr")
            .with_name("chest strap")
            .with_role("sensor")
            .with_role("alarm-source");
        let back: ServiceInfo = from_bytes(&to_bytes(&info)).unwrap();
        assert_eq!(back, info);
        assert!(back.has_role("sensor"));
        assert!(!back.has_role("nurse"));
    }

    #[test]
    fn new_member_event_carries_identity() {
        let info = ServiceInfo::new(ServiceId::from_raw(0xBEEF), "sensor.spo2").with_role("sensor");
        let e = new_member_event(&info);
        assert_eq!(e.event_type(), wellknown::NEW_MEMBER);
        assert_eq!(member_id_of(&e), Some(ServiceId::from_raw(0xBEEF)));
        assert_eq!(device_type_of(&e), Some("sensor.spo2"));
        assert_eq!(
            e.attr(wellknown::ROLES).and_then(|v| v.as_str()),
            Some("sensor")
        );
    }

    #[test]
    fn purge_member_event_carries_reason() {
        let e = purge_member_event(ServiceId::from_raw(7), PurgeReason::LeaseExpired);
        assert_eq!(e.event_type(), wellknown::PURGE_MEMBER);
        assert_eq!(member_id_of(&e), Some(ServiceId::from_raw(7)));
        assert_eq!(
            e.attr(wellknown::REASON).and_then(|v| v.as_str()),
            Some("lease-expired")
        );
    }

    #[test]
    fn member_id_of_rejects_foreign_events() {
        let e = Event::new("random");
        assert_eq!(member_id_of(&e), None);
        assert_eq!(device_type_of(&e), None);
    }

    #[test]
    fn purge_reason_display() {
        assert_eq!(PurgeReason::Left.to_string(), "left");
        assert_eq!(PurgeReason::Evicted.to_string(), "evicted");
    }
}
