//! Simulated e-health devices for exercising the SMC end-to-end.
//!
//! The paper's evaluation hardware (chest straps, SpO2 clips, cuffs,
//! iPAQ PDAs) is simulated here:
//!
//! * [`traces`] — synthetic physiological signals with scripted clinical
//!   episodes (tachycardia, hypoxia, fever…);
//! * [`devices`] — the byte-level frame formats those devices emit, and
//!   the cell-side [`DeviceCodec`](smc_core::DeviceCodec)s that translate
//!   them ("complex proxies for simple sensors");
//! * [`runner`] — threads that animate sensors and actuators against a
//!   live cell, plus a whole-patient harness ([`runner::Patient`]);
//! * [`ecg`] — bulk ECG streaming that bypasses the bus, as the paper
//!   assumes for high-rate monitoring data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod devices;
pub mod ecg;
pub mod runner;
pub mod traces;

pub use devices::{device_types, register_standard_codecs};
pub use ecg::{EcgBlock, EcgStreamer, EcgViewer};
pub use runner::{ActuatorRunner, ActuatorState, Patient, SensorKind, SensorRunner};
pub use traces::{
    EcgTrace, Episode, EpisodeKind, HeartRateTrace, Scenario, Spo2Trace, TemperatureTrace,
    VitalTrace,
};
