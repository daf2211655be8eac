//! Link and device profiles reproducing the paper's testbed.
//!
//! The evaluation ran the event bus on an iPAQ hx4700 PDA linked to a
//! laptop over IP-over-USB: average link latency **1.5 ms** (0.6–2.3 ms),
//! raw link throughput **≈575 KB/s**. [`LinkConfig::usb_ip_link`] encodes
//! that link; [`CpuProfile::ipaq_hx4700`] approximates the PDA's
//! per-byte copying cost (the paper attributes the response-time slope to
//! packet-data copying through the OS, the JVM and the engine).

use std::time::Duration;

/// Parameters of a (simulated) network link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation latency added to every datagram.
    pub latency: Duration,
    /// Maximum additional random latency (uniform in `0..=jitter`).
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub duplicate: f64,
    /// Serial link bandwidth in bytes/second; `None` = infinite.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Fixed per-datagram framing overhead charged against bandwidth
    /// (IP + UDP headers ≈ 28 bytes).
    pub per_packet_overhead: usize,
    /// Maximum datagram payload.
    pub mtu: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            bandwidth_bytes_per_sec: None,
            per_packet_overhead: 28,
            mtu: 1400,
        }
    }
}

impl LinkConfig {
    /// An ideal link: zero delay, no loss, infinite bandwidth.
    ///
    /// Datagrams are delivered synchronously, which makes tests
    /// deterministic.
    pub fn ideal() -> Self {
        LinkConfig::default()
    }

    /// The paper's PDA–laptop IP-over-USB link: 0.6–2.3 ms one-way latency
    /// (1.5 ms average) and a raw capacity of ≈575 KB/s.
    pub fn usb_ip_link() -> Self {
        LinkConfig {
            latency: Duration::from_micros(600),
            jitter: Duration::from_micros(1700),
            loss: 0.0,
            duplicate: 0.0,
            bandwidth_bytes_per_sec: Some(575_000),
            per_packet_overhead: 28,
            mtu: 8192,
        }
    }

    /// A Bluetooth 1.2 style link (the paper's wireless work-in-progress):
    /// ~20 ms latency, ~80 KB/s, light loss.
    pub fn bluetooth_link() -> Self {
        LinkConfig {
            latency: Duration::from_millis(15),
            jitter: Duration::from_millis(10),
            loss: 0.005,
            duplicate: 0.0,
            bandwidth_bytes_per_sec: Some(80_000),
            per_packet_overhead: 17,
            mtu: 672,
        }
    }

    /// A ZigBee / 802.15.4 style link (the paper's intended target):
    /// 250 kbit/s, small MTU, noticeable loss.
    pub fn zigbee_link() -> Self {
        LinkConfig {
            latency: Duration::from_millis(5),
            jitter: Duration::from_millis(5),
            loss: 0.01,
            duplicate: 0.0,
            bandwidth_bytes_per_sec: Some(31_250),
            per_packet_overhead: 25,
            mtu: 100,
        }
    }

    /// Returns a copy with the loss probability set (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Returns a copy with the duplicate probability set (builder style).
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate must be a probability");
        self.duplicate = p;
        self
    }

    /// Returns a copy with fixed latency and no jitter (builder style).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self.jitter = Duration::ZERO;
        self
    }

    /// Transmission (serialisation) time of an `n`-byte payload on this
    /// link, excluding propagation latency.
    pub fn transmission_time(&self, payload_len: usize) -> Duration {
        match self.bandwidth_bytes_per_sec {
            Some(bw) if bw > 0 => {
                let wire_bytes = (payload_len + self.per_packet_overhead) as u64;
                Duration::from_nanos(wire_bytes.saturating_mul(1_000_000_000) / bw)
            }
            _ => Duration::ZERO,
        }
    }

    /// Whether this link delivers instantly (lets the simulator bypass the
    /// timer thread for deterministic tests).
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.jitter.is_zero() && self.bandwidth_bytes_per_sec.is_none()
    }
}

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

impl Default for CpuProfile {
    fn default() -> Self {
        CpuProfile::native()
    }
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
    /// that hardware; the bus charges it once per boundary its engine
    /// path crosses.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_instant() {
        assert!(LinkConfig::ideal().is_instant());
        assert!(!LinkConfig::usb_ip_link().is_instant());
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let link = LinkConfig::usb_ip_link();
        let t1 = link.transmission_time(1000);
        let t2 = link.transmission_time(2000);
        assert!(t2 > t1);
        // 1000+28 bytes at 575 KB/s ≈ 1.78 ms.
        assert!(
            t1 > Duration::from_micros(1_500) && t1 < Duration::from_micros(2_100),
            "{t1:?}"
        );
    }

    #[test]
    fn infinite_bandwidth_transmits_instantly() {
        assert_eq!(
            LinkConfig::ideal().transmission_time(1_000_000),
            Duration::ZERO
        );
    }

    #[test]
    fn builders_validate() {
        let l = LinkConfig::ideal().with_loss(0.5).with_duplicates(0.1);
        assert_eq!(l.loss, 0.5);
        assert_eq!(l.duplicate, 0.1);
        let l = l.with_latency(Duration::from_millis(3));
        assert_eq!(l.latency, Duration::from_millis(3));
        assert_eq!(l.jitter, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_out_of_range_panics() {
        let _ = LinkConfig::ideal().with_loss(1.5);
    }

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

    #[test]
    fn presets_have_sane_shapes() {
        for link in [
            LinkConfig::usb_ip_link(),
            LinkConfig::bluetooth_link(),
            LinkConfig::zigbee_link(),
        ] {
            assert!(link.mtu > 0);
            assert!(link.bandwidth_bytes_per_sec.unwrap() > 0);
            assert!((0.0..1.0).contains(&link.loss));
        }
        // Relative speeds: USB > Bluetooth > ZigBee.
        let t = |l: &LinkConfig| l.transmission_time(500);
        assert!(t(&LinkConfig::usb_ip_link()) < t(&LinkConfig::bluetooth_link()));
        assert!(t(&LinkConfig::bluetooth_link()) < t(&LinkConfig::zigbee_link()));
    }
}
