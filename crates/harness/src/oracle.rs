//! The delivery-semantics oracle.
//!
//! Records every publish, acceptance, delivery and membership transition
//! the harness observes, in virtual-time order, and checks the paper's
//! delivery guarantees (§II-C) as the trace grows:
//!
//! * **exactly-once** — no application message is delivered twice;
//! * **per-sender FIFO** — deliveries from one sender arrive in publish
//!   order;
//! * **no delivery after purge** — once discovery purges a member, the
//!   bus accepts none of its traffic until it is re-admitted. This is
//!   judged where the bus accepts an event, in the bus's order: a purge
//!   may overtake, on its way to a subscriber, events the bus accepted
//!   before it.
//!
//! On a violation the oracle reports the scenario seed and the tail of
//! the event trace, which — because runs are deterministic — is enough
//! to replay the failure exactly.

use std::collections::HashMap;
use std::fmt;

use smc_telemetry::Journey;
use smc_types::ServiceId;

/// One observed fact, stamped with virtual micros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A device handed a message to its channel.
    Publish {
        /// Virtual time in micros.
        at: u64,
        /// The publishing endpoint.
        sender: ServiceId,
        /// The sender's application sequence number.
        seq: u64,
    },
    /// The cell's bus accepted a message for routing.
    Accept {
        /// Virtual time in micros.
        at: u64,
        /// The publishing endpoint.
        sender: ServiceId,
        /// The sender's application sequence number.
        seq: u64,
    },
    /// A subscriber received a message.
    Deliver {
        /// Virtual time in micros.
        at: u64,
        /// The publishing endpoint.
        sender: ServiceId,
        /// The sender's application sequence number.
        seq: u64,
    },
    /// Discovery admitted a member.
    Joined {
        /// Virtual time in micros.
        at: u64,
        /// The admitted endpoint.
        member: ServiceId,
    },
    /// Discovery purged a member.
    Purged {
        /// Virtual time in micros.
        at: u64,
        /// The purged endpoint.
        member: ServiceId,
    },
    /// A scripted fault fired (free-form description).
    Fault {
        /// Virtual time in micros.
        at: u64,
        /// What the script did.
        what: String,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Publish { at, sender, seq } => {
                write!(f, "{at:>12} publish  {sender} #{seq}")
            }
            TraceEvent::Deliver { at, sender, seq } => {
                write!(f, "{at:>12} deliver  {sender} #{seq}")
            }
            TraceEvent::Accept { at, sender, seq } => {
                write!(f, "{at:>12} accept   {sender} #{seq}")
            }
            TraceEvent::Joined { at, member } => write!(f, "{at:>12} joined   {member}"),
            TraceEvent::Purged { at, member } => write!(f, "{at:>12} purged   {member}"),
            TraceEvent::Fault { at, what } => write!(f, "{at:>12} fault    {what}"),
        }
    }
}

/// A broken delivery guarantee, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct OracleViolation {
    /// The scenario seed that produced the run.
    pub seed: u64,
    /// Which guarantee broke.
    pub kind: ViolationKind,
    /// Human-readable description of the offending delivery.
    pub detail: String,
    /// The offending delivery, if the violation has one: `(sender, seq)`
    /// — enough to derive its [`smc_types::TraceId`].
    pub offender: Option<(ServiceId, u64)>,
    /// The offending event's hop-by-hop journey, attached by the harness
    /// after the run when a trace sink was recording.
    pub journey: Option<Journey>,
    /// The trace up to and including the violation.
    pub trace: Vec<TraceEvent>,
}

/// The delivery guarantee a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A message was delivered more than once.
    DuplicateDelivery,
    /// Deliveries from one sender arrived out of publish order.
    FifoViolation,
    /// A message was delivered for a purged, not-readmitted member.
    DeliveryAfterPurge,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "delivery oracle violation: {:?} (seed {})",
            self.kind, self.seed
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  trace tail:")?;
        let skip = self.trace.len().saturating_sub(40);
        if skip > 0 {
            writeln!(f, "    … {skip} earlier events elided …")?;
        }
        for ev in &self.trace[skip..] {
            writeln!(f, "    {ev}")?;
        }
        if let Some(journey) = &self.journey {
            writeln!(f, "  offending event's journey:")?;
            for line in journey.to_string().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct SenderState {
    /// Highest delivered application seq (0 = none yet).
    last_delivered: u64,
    /// Member right now (admitted more recently than purged)?
    member: bool,
    /// Highest seq the bus accepted while the sender was a member.
    accepted: u64,
    published: u64,
    delivered: u64,
}

/// Records the run and checks delivery semantics incrementally.
///
/// All `record_*` methods must be called in virtual-time order — the
/// harness's single-threaded step loop guarantees that.
#[derive(Debug)]
pub struct DeliveryOracle {
    seed: u64,
    trace: Vec<TraceEvent>,
    senders: HashMap<ServiceId, SenderState>,
    violation: Option<OracleViolation>,
}

impl DeliveryOracle {
    /// An empty oracle for a run produced by `seed`.
    pub fn new(seed: u64) -> Self {
        DeliveryOracle {
            seed,
            trace: Vec::new(),
            senders: HashMap::new(),
            violation: None,
        }
    }

    /// The full trace so far.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The trace rendered one event per line — the byte-comparable form
    /// used by determinism assertions.
    pub fn trace_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.trace {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// The first violation observed, if any.
    pub fn violation(&self) -> Option<&OracleViolation> {
        self.violation.as_ref()
    }

    /// Mutable access to the violation — the harness uses it to attach
    /// the offending event's journey once the run has finished.
    pub fn violation_mut(&mut self) -> Option<&mut OracleViolation> {
        self.violation.as_mut()
    }

    /// Panics with the full seed + trace report if a guarantee broke.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!("{v}");
        }
    }

    /// Messages recorded as published, per sender.
    pub fn published(&self, sender: ServiceId) -> u64 {
        self.senders.get(&sender).map_or(0, |s| s.published)
    }

    /// Messages recorded as delivered, per sender.
    pub fn delivered(&self, sender: ServiceId) -> u64 {
        self.senders.get(&sender).map_or(0, |s| s.delivered)
    }

    fn fail(&mut self, kind: ViolationKind, detail: String, offender: Option<(ServiceId, u64)>) {
        if self.violation.is_none() {
            self.violation = Some(OracleViolation {
                seed: self.seed,
                kind,
                detail,
                offender,
                journey: None,
                trace: self.trace.clone(),
            });
        }
    }

    /// Records a scripted fault (context for trace readers).
    pub fn record_fault(&mut self, at: u64, what: impl Into<String>) {
        self.trace.push(TraceEvent::Fault {
            at,
            what: what.into(),
        });
    }

    /// Records a member admission.
    pub fn record_joined(&mut self, at: u64, member: ServiceId) {
        self.trace.push(TraceEvent::Joined { at, member });
        self.senders.entry(member).or_default().member = true;
    }

    /// Records a member purge.
    pub fn record_purged(&mut self, at: u64, member: ServiceId) {
        self.trace.push(TraceEvent::Purged { at, member });
        self.senders.entry(member).or_default().member = false;
    }

    /// Records a device handing message `seq` to its channel.
    pub fn record_publish(&mut self, at: u64, sender: ServiceId, seq: u64) {
        self.trace.push(TraceEvent::Publish { at, sender, seq });
        self.senders.entry(sender).or_default().published += 1;
    }

    /// Records the bus accepting message `seq` from `sender`, checking
    /// that the sender is a member.
    pub fn record_accepted(&mut self, at: u64, sender: ServiceId, seq: u64) {
        self.trace.push(TraceEvent::Accept { at, sender, seq });
        let state = self.senders.entry(sender).or_default();
        if state.member {
            state.accepted = state.accepted.max(seq);
        } else {
            self.fail(
                ViolationKind::DeliveryAfterPurge,
                format!("message #{seq} from {sender} accepted while purged / never admitted"),
                Some((sender, seq)),
            );
        }
    }

    /// Records a subscriber receiving message `seq` from `sender`,
    /// checking every guarantee. Membership is judged as of the bus's
    /// acceptance when one was recorded, and as of now otherwise.
    pub fn record_delivery(&mut self, at: u64, sender: ServiceId, seq: u64) {
        self.trace.push(TraceEvent::Deliver { at, sender, seq });
        let state = self.senders.entry(sender).or_default();
        state.delivered += 1;
        let last = state.last_delivered;
        let member = state.member || seq <= state.accepted;
        if seq == last && last != 0 {
            self.fail(
                ViolationKind::DuplicateDelivery,
                format!("message #{seq} from {sender} delivered twice"),
                Some((sender, seq)),
            );
        } else if seq < last {
            self.fail(
                ViolationKind::FifoViolation,
                format!("message #{seq} from {sender} delivered after #{last}"),
                Some((sender, seq)),
            );
        } else {
            self.senders
                .get_mut(&sender)
                .expect("sender state exists")
                .last_delivered = seq;
        }
        if !member {
            self.fail(
                ViolationKind::DeliveryAfterPurge,
                format!("message #{seq} from {sender} delivered while purged / never admitted"),
                Some((sender, seq)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ServiceId {
        ServiceId::from_raw(n)
    }

    #[test]
    fn clean_run_passes() {
        let mut o = DeliveryOracle::new(1);
        o.record_joined(10, id(7));
        o.record_publish(20, id(7), 1);
        o.record_delivery(30, id(7), 1);
        o.record_publish(40, id(7), 2);
        o.record_delivery(50, id(7), 2);
        o.assert_clean();
        assert_eq!(o.published(id(7)), 2);
        assert_eq!(o.delivered(id(7)), 2);
    }

    #[test]
    fn duplicate_is_flagged_with_seed_and_trace() {
        let mut o = DeliveryOracle::new(99);
        o.record_joined(1, id(3));
        o.record_publish(2, id(3), 1);
        o.record_delivery(3, id(3), 1);
        o.record_delivery(4, id(3), 1);
        let v = o.violation().expect("duplicate must be flagged");
        assert_eq!(v.kind, ViolationKind::DuplicateDelivery);
        assert_eq!(v.seed, 99);
        assert!(v.trace.len() >= 4);
        let text = v.to_string();
        assert!(text.contains("seed 99"));
        assert!(text.contains("deliver"));
    }

    #[test]
    fn reorder_is_flagged() {
        let mut o = DeliveryOracle::new(5);
        o.record_joined(1, id(3));
        o.record_delivery(2, id(3), 2);
        o.record_delivery(3, id(3), 1);
        assert_eq!(o.violation().unwrap().kind, ViolationKind::FifoViolation);
    }

    #[test]
    fn delivery_after_purge_is_flagged() {
        let mut o = DeliveryOracle::new(5);
        o.record_joined(1, id(3));
        o.record_purged(2, id(3));
        o.record_delivery(3, id(3), 1);
        assert_eq!(
            o.violation().unwrap().kind,
            ViolationKind::DeliveryAfterPurge
        );
    }

    #[test]
    fn acceptance_after_purge_is_flagged() {
        let mut o = DeliveryOracle::new(5);
        o.record_joined(1, id(3));
        o.record_purged(2, id(3));
        o.record_accepted(3, id(3), 1);
        assert_eq!(
            o.violation().unwrap().kind,
            ViolationKind::DeliveryAfterPurge
        );
    }

    /// A purge may overtake, on the way to a subscriber, an event the bus
    /// accepted before it: the delivery is judged as of the acceptance.
    #[test]
    fn a_purge_may_overtake_an_accepted_event() {
        let mut o = DeliveryOracle::new(5);
        o.record_joined(1, id(3));
        o.record_accepted(2, id(3), 1);
        o.record_purged(3, id(3));
        o.record_delivery(4, id(3), 1);
        o.assert_clean();
        o.record_delivery(5, id(3), 2);
        assert_eq!(
            o.violation().unwrap().kind,
            ViolationKind::DeliveryAfterPurge
        );
    }

    #[test]
    fn readmission_clears_the_purge() {
        let mut o = DeliveryOracle::new(5);
        o.record_joined(1, id(3));
        o.record_purged(2, id(3));
        o.record_joined(3, id(3));
        o.record_delivery(4, id(3), 1);
        o.assert_clean();
    }
}
