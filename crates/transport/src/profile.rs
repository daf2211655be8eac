//! Link profiles: the paper's testbed link and the radios §VI plans for.
//!
//! The evaluation ran the event bus on an iPAQ hx4700 PDA linked to a
//! laptop over IP-over-USB: average link latency **1.5 ms** (0.6–2.3 ms),
//! raw link throughput **≈575 KB/s**. [`LinkConfig::usb_ip_link`] encodes
//! that link, and [`crate::SimNetwork`] applies it to the datagrams it
//! carries. The PDA's copying cost is not a property of the link; the
//! testbed that reproduces Fig 4 (`smc-bench`) models it at the bus
//! host's receive boundary.

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
