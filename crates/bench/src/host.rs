//! The bus host of the paper's testbed: the PDA's CPU model and the
//! boundary where it is charged.
//!
//! The paper ran the bus on an iPAQ hx4700 under an interpreting JVM and
//! blames Fig 4's slope on packet copying through the OS, the JVM and the
//! engine. [`CpuProfile`] reproduces that cost by performing copies.
//! [`BusHost`] charges it where the PDA paid it: at the bus endpoint's
//! receive boundary, on the bus's receive thread, before the bus routes
//! the event. How many boundaries an event crosses on each engine's path
//! is an input the testbed declares ([`crossings`]); the production bus
//! neither knows nor counts it.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_match::EngineKind;
use smc_transport::{Datagram, Frame, Transport};
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{Error, Event, Packet, Result, ServiceId};

/// A crude CPU cost model for a constrained device.
///
/// The paper's absolute numbers come from a 624 MHz PDA running an
/// interpreting JVM: every buffer crossing the OS/JVM/engine boundary was
/// copied, and copies dominated the response-time slope. `CpuProfile`
/// reproduces that by *actually performing* `copy_rounds` redundant copies
/// of each buffer plus a fixed per-dispatch overhead, so measured curves
/// have the paper's shape without pretending to its exact hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuProfile {
    /// How many redundant full-buffer copies to perform per charge.
    pub copy_rounds: u32,
    /// Fixed busy-work per dispatch, in iterations of a cheap spin.
    pub dispatch_spin: u32,
}

impl CpuProfile {
    /// No artificial cost: measure the host as-is.
    pub fn native() -> Self {
        CpuProfile {
            copy_rounds: 0,
            dispatch_spin: 0,
        }
    }

    /// Approximation of the iPAQ hx4700 + Blackdown JVM 1.3.1 stack: many
    /// interpreted per-byte copies and a hefty per-call overhead. One
    /// `charge` models one buffer crossing an OS/JVM/engine boundary on
    /// that hardware; [`BusHost`] charges it once per boundary the
    /// engine's path crosses.
    pub fn ipaq_hx4700() -> Self {
        CpuProfile {
            copy_rounds: 160_000,
            dispatch_spin: 2_000_000,
        }
    }

    /// Performs the modelled work for handling `bytes` of packet data.
    ///
    /// Returns a checksum so the optimiser cannot elide the copies.
    pub fn charge(&self, bytes: &[u8]) -> u64 {
        let mut acc: u64 = 0;
        if self.copy_rounds > 0 && !bytes.is_empty() {
            let mut scratch = vec![0u8; bytes.len()];
            for round in 0..self.copy_rounds {
                scratch.copy_from_slice(bytes);
                // Touch the copy so it is observably used.
                acc = acc
                    .wrapping_add(scratch[round as usize % scratch.len()] as u64)
                    .wrapping_mul(1099511628211);
            }
        }
        for i in 0..self.dispatch_spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        }
        std::hint::black_box(acc)
    }

    /// Whether this profile performs no work.
    pub fn is_native(&self) -> bool {
        self.copy_rounds == 0 && self.dispatch_spin == 0
    }
}

/// How many OS / JVM / engine boundaries a published event's payload
/// crosses on the bus host: four on the Siena path (socket → bus types →
/// the engine's notification form and back, the translation §V blames
/// for its slowdown), one on the dedicated C matcher's.
pub fn crossings(engine: EngineKind) -> u32 {
    match engine {
        EngineKind::Siena => 4,
        _ => 1,
    }
}

/// The bus endpoint's transport as the paper's PDA ran it: every
/// datagram that reaches the bus passes [`BusHost::charge`] on the
/// receive thread before the bus sees it.
#[derive(Debug)]
pub struct BusHost {
    inner: Arc<dyn Transport>,
    cpu: CpuProfile,
    crossings: u32,
    /// The first publish the host could not charge.
    refused: Mutex<Option<String>>,
}

impl BusHost {
    /// Wraps the bus endpoint `inner`, charging `cpu` `crossings` times
    /// per published event.
    pub fn new(inner: Arc<dyn Transport>, cpu: CpuProfile, crossings: u32) -> Self {
        BusHost {
            inner,
            cpu,
            crossings,
            refused: Mutex::new(None),
        }
    }

    /// Charges the model for one received datagram and returns the
    /// bytes it handed the model: a `Publish` that arrived in one
    /// fragment is charged `crossings` times, each on its event's
    /// payload; any other frame or packet, or any datagram under the
    /// native profile, costs nothing.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] for the first fragment of a `Publish` cut into
    /// several: its event is only whole after reassembly, and a publish
    /// must not pass uncharged.
    pub fn charge(&self, datagram: &[u8]) -> Result<usize> {
        if self.cpu.is_native() {
            return Ok(0);
        }
        let Ok(Frame::Data {
            frag_index,
            frag_count,
            payload,
            ..
        }) = from_bytes::<Frame>(datagram)
        else {
            return Ok(0);
        };
        if frag_count > 1 {
            if frag_index == 0 && starts_a_publish(&payload) {
                return Err(Error::Invalid(format!(
                    "a publish in {frag_count} fragments reached the bus host, \
                     which charges only a publish in one"
                )));
            }
            return Ok(0);
        }
        let Ok(Packet::Publish { event, .. }) = Packet::from_message(payload) else {
            return Ok(0);
        };
        for _ in 0..self.crossings {
            self.cpu.charge(event.payload());
        }
        Ok(self.crossings as usize * event.payload().len())
    }

    /// Fails if the host has let a publish through that it could not
    /// charge.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] naming the first such publish.
    pub fn check(&self) -> Result<()> {
        match &*self.refused.lock() {
            Some(why) => Err(Error::Invalid(why.clone())),
            None => Ok(()),
        }
    }
}

impl Transport for BusHost {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }

    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        self.inner.send(to, payload)
    }

    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        self.inner.broadcast(payload)
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        let datagram = self.inner.recv(timeout)?;
        if let Err(Error::Invalid(why)) = self.charge(&datagram.payload) {
            self.refused.lock().get_or_insert(why);
        }
        Ok(datagram)
    }

    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// Whether `message` begins as an encoded `Publish` does, with or without
/// the acknowledgement request.
fn starts_a_publish(message: &[u8]) -> bool {
    let probe = Event::builder("").build();
    [Packet::publish(probe.clone()), Packet::publish_acked(probe)]
        .iter()
        .any(|p| message.first() == to_bytes(p).first())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_profile_charges() {
        let native = CpuProfile::native();
        assert!(native.is_native());
        native.charge(&[1, 2, 3]); // no-op, must not panic
        let pda = CpuProfile::ipaq_hx4700();
        assert!(!pda.is_native());
        let x = pda.charge(&[7u8; 64]);
        let _ = x;
        // Empty buffer must not panic even with copy rounds.
        pda.charge(&[]);
    }
}
