//! Byte-level device protocols and their cell-side proxy codecs.
//!
//! "Testing of the proxy architecture has consisted of building test
//! sensors … allowing the proxies to translate/acknowledge data as
//! required." Each sensor family here defines a tiny binary frame format
//! (what the real strap/clip/cuff firmware would emit) and a matching
//! [`DeviceCodec`] the cell installs to translate frames into typed
//! events and commands back into frames.

use smc_core::DeviceCodec;
use smc_core::ProxyFactory;
use smc_types::{wellknown, Error, Event, Filter, Result};

/// Frame tags of the supported device families.
pub mod frame_tags {
    /// Heart-rate strap uplink.
    pub const HEART_RATE: u8 = 0x10;
    /// SpO2 clip uplink.
    pub const SPO2: u8 = 0x20;
    /// Blood-pressure cuff uplink.
    pub const BLOOD_PRESSURE: u8 = 0x30;
    /// Temperature patch uplink.
    pub const TEMPERATURE: u8 = 0x40;
    /// Downlink threshold-set command.
    pub const SET_THRESHOLD: u8 = 0xC1;
}

/// Device-type strings used by the standard codecs.
pub mod device_types {
    /// Heart-rate chest strap.
    pub const HEART_RATE: &str = "sensor.heart-rate";
    /// Pulse-oximeter clip.
    pub const SPO2: &str = "sensor.spo2";
    /// Blood-pressure cuff.
    pub const BLOOD_PRESSURE: &str = "sensor.blood-pressure";
    /// Skin temperature patch.
    pub const TEMPERATURE: &str = "sensor.temperature";
    /// Insulin pump actuator.
    pub const INSULIN_PUMP: &str = "actuator.insulin-pump";
    /// Defibrillator actuator.
    pub const DEFIBRILLATOR: &str = "actuator.defibrillator";
    /// Bedside/nurse monitor station.
    pub const MONITOR: &str = "monitor.station";
}

// --- frame encoders (device firmware side) ----------------------------------

/// Encodes a heart-rate frame: `[0x10, bpm_lo, bpm_hi]`.
pub fn heart_rate_frame(bpm: f64) -> Vec<u8> {
    let v = bpm.round().clamp(0.0, u16::MAX as f64) as u16;
    let b = v.to_le_bytes();
    vec![frame_tags::HEART_RATE, b[0], b[1]]
}

/// Encodes an SpO2 frame: `[0x20, spo2_pct, pulse_lo, pulse_hi]`.
pub fn spo2_frame(spo2: f64, pulse: f64) -> Vec<u8> {
    let p = (pulse.round().clamp(0.0, u16::MAX as f64) as u16).to_le_bytes();
    vec![
        frame_tags::SPO2,
        spo2.round().clamp(0.0, 100.0) as u8,
        p[0],
        p[1],
    ]
}

/// Encodes a blood-pressure frame: `[0x30, sys_lo, sys_hi, dia_lo, dia_hi]`.
pub fn blood_pressure_frame(systolic: f64, diastolic: f64) -> Vec<u8> {
    let s = (systolic.round().clamp(0.0, u16::MAX as f64) as u16).to_le_bytes();
    let d = (diastolic.round().clamp(0.0, u16::MAX as f64) as u16).to_le_bytes();
    vec![frame_tags::BLOOD_PRESSURE, s[0], s[1], d[0], d[1]]
}

/// Encodes a temperature frame in tenths of °C: `[0x40, t_lo, t_hi]`.
pub fn temperature_frame(celsius: f64) -> Vec<u8> {
    let tenths = ((celsius * 10.0).round().clamp(0.0, u16::MAX as f64)) as u16;
    let b = tenths.to_le_bytes();
    vec![frame_tags::TEMPERATURE, b[0], b[1]]
}

/// Decodes a downlink threshold command frame produced by the codecs:
/// `[0xC1, which, value_lo, value_hi]` → `(which, value)`.
pub fn decode_threshold_frame(frame: &[u8]) -> Option<(u8, u16)> {
    match frame {
        [t, which, lo, hi] if *t == frame_tags::SET_THRESHOLD => {
            Some((*which, u16::from_le_bytes([*lo, *hi])))
        }
        _ => None,
    }
}

// --- proxy codecs (cell side) ------------------------------------------------

fn reading(sensor: &str) -> smc_types::EventBuilder {
    Event::builder(wellknown::SENSOR_READING).attr("sensor", sensor)
}

fn threshold_downlink(event: &Event) -> Result<Option<Vec<u8>>> {
    if event.event_type() != wellknown::COMMAND {
        return Ok(None);
    }
    let which = event.attr("which").and_then(|v| v.as_int()).unwrap_or(0) as u8;
    let value = event.attr("value").and_then(|v| v.as_int()).unwrap_or(0) as u16;
    let b = value.to_le_bytes();
    Ok(Some(vec![frame_tags::SET_THRESHOLD, which, b[0], b[1]]))
}

macro_rules! sensor_codec {
    ($(#[$doc:meta])* $name:ident, $tag:expr, $decode:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $name;

        impl DeviceCodec for $name {
            fn decode_uplink(&self, raw: &[u8]) -> Result<Vec<Event>> {
                let decode: fn(&[u8]) -> Option<Event> = $decode;
                match raw.first() {
                    Some(&t) if t == $tag => decode(raw)
                        .map(|e| vec![e])
                        .ok_or_else(|| Error::Invalid("malformed sensor frame".into())),
                    _ => Err(Error::Invalid("unexpected frame tag".into())),
                }
            }

            fn encode_downlink(&self, event: &Event) -> Result<Option<Vec<u8>>> {
                threshold_downlink(event)
            }

            fn initial_subscriptions(&self) -> Vec<Filter> {
                // Dumb sensors listen for management commands only.
                vec![Filter::for_type(wellknown::COMMAND)]
            }
        }
    };
}

sensor_codec!(
    /// Translates heart-rate strap frames.
    HeartRateCodec, frame_tags::HEART_RATE,
    |raw| match raw {
        [_, lo, hi] => Some(
            reading("heart-rate")
                .attr("bpm", u16::from_le_bytes([*lo, *hi]) as i64)
                .build(),
        ),
        _ => None,
    }
);

sensor_codec!(
    /// Translates pulse-oximeter frames.
    Spo2Codec, frame_tags::SPO2,
    |raw| match raw {
        [_, spo2, lo, hi] => Some(
            reading("spo2")
                .attr("spo2", *spo2 as i64)
                .attr("pulse", u16::from_le_bytes([*lo, *hi]) as i64)
                .build(),
        ),
        _ => None,
    }
);

sensor_codec!(
    /// Translates blood-pressure cuff frames.
    BloodPressureCodec, frame_tags::BLOOD_PRESSURE,
    |raw| match raw {
        [_, sl, sh, dl, dh] => Some(
            reading("blood-pressure")
                .attr("systolic", u16::from_le_bytes([*sl, *sh]) as i64)
                .attr("diastolic", u16::from_le_bytes([*dl, *dh]) as i64)
                .build(),
        ),
        _ => None,
    }
);

sensor_codec!(
    /// Translates temperature patch frames (tenths of °C).
    TemperatureCodec, frame_tags::TEMPERATURE,
    |raw| match raw {
        [_, lo, hi] => Some(
            reading("temperature")
                .attr("celsius", u16::from_le_bytes([*lo, *hi]) as f64 / 10.0)
                .build(),
        ),
        _ => None,
    }
);

/// Registers all standard e-health codecs with a cell's proxy factory.
///
/// Devices of unknown types still work — they get passthrough proxies —
/// but the four dumb sensor families gain translating proxies, which is
/// exactly the paper's "complex proxies for simple sensors".
pub fn register_standard_codecs(factory: &ProxyFactory) {
    factory.register(device_types::HEART_RATE, |_| Box::new(HeartRateCodec));
    factory.register(device_types::SPO2, |_| Box::new(Spo2Codec));
    factory.register(device_types::BLOOD_PRESSURE, |_| {
        Box::new(BloodPressureCodec)
    });
    factory.register(device_types::TEMPERATURE, |_| Box::new(TemperatureCodec));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heart_rate_frame_round_trip() {
        let frame = heart_rate_frame(131.4);
        let events = HeartRateCodec.decode_uplink(&frame).unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.event_type(), wellknown::SENSOR_READING);
        assert_eq!(e.attr("sensor").unwrap().as_str(), Some("heart-rate"));
        assert_eq!(e.attr("bpm").unwrap().as_int(), Some(131));
    }

    #[test]
    fn spo2_frame_round_trip() {
        let frame = spo2_frame(88.6, 112.0);
        let e = &Spo2Codec.decode_uplink(&frame).unwrap()[0];
        assert_eq!(e.attr("spo2").unwrap().as_int(), Some(89));
        assert_eq!(e.attr("pulse").unwrap().as_int(), Some(112));
    }

    #[test]
    fn blood_pressure_frame_round_trip() {
        let frame = blood_pressure_frame(121.0, 79.0);
        let e = &BloodPressureCodec.decode_uplink(&frame).unwrap()[0];
        assert_eq!(e.attr("systolic").unwrap().as_int(), Some(121));
        assert_eq!(e.attr("diastolic").unwrap().as_int(), Some(79));
    }

    #[test]
    fn temperature_frame_round_trip() {
        let frame = temperature_frame(37.27);
        let e = &TemperatureCodec.decode_uplink(&frame).unwrap()[0];
        assert_eq!(e.attr("celsius").unwrap().as_double(), Some(37.3));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(HeartRateCodec
            .decode_uplink(&[frame_tags::HEART_RATE])
            .is_err());
        assert!(HeartRateCodec.decode_uplink(&[0x99, 1, 2]).is_err());
        assert!(Spo2Codec.decode_uplink(&[frame_tags::SPO2, 1]).is_err());
        assert!(TemperatureCodec.decode_uplink(&[]).is_err());
    }

    #[test]
    fn threshold_command_downlink() {
        let cmd = Event::builder(wellknown::COMMAND)
            .attr("which", 1i64)
            .attr("value", 120i64)
            .build();
        let frame = HeartRateCodec.encode_downlink(&cmd).unwrap().unwrap();
        assert_eq!(decode_threshold_frame(&frame), Some((1, 120)));
        // Non-command events are not translated to raw frames.
        assert_eq!(
            HeartRateCodec
                .encode_downlink(&Event::new("smc.alarm"))
                .unwrap(),
            None
        );
        assert_eq!(decode_threshold_frame(&[1, 2]), None);
    }

    #[test]
    fn codecs_subscribe_to_commands() {
        let c = Spo2Codec;
        let subs = c.initial_subscriptions();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].event_type(), Some(wellknown::COMMAND));
    }

    #[test]
    fn factory_registration_covers_sensor_families() {
        let factory = ProxyFactory::new();
        register_standard_codecs(&factory);
        assert_eq!(factory.len(), 4);
        let info =
            smc_types::ServiceInfo::new(smc_types::ServiceId::from_raw(1), device_types::SPO2);
        let codec = factory.codec_for(&info);
        let frame = spo2_frame(97.0, 70.0);
        assert_eq!(codec.decode_uplink(&frame).unwrap().len(), 1);
    }

    #[test]
    fn frame_values_clamp() {
        assert_eq!(heart_rate_frame(-5.0), vec![frame_tags::HEART_RATE, 0, 0]);
        assert_eq!(spo2_frame(150.0, 0.0)[1], 100);
    }
}
