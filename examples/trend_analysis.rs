//! Deterioration analysis over recorded cell traffic — the paper's
//! data-mining motivation: "to determine problem situations or
//! deterioration of well-being over time" and to let researchers study
//! "body changes that take place prior to a specific problem".
//!
//! A [`Recorder`] — an in-process sink that keeps every event it is
//! given — subscribes to all sensor readings; after a scripted infection
//! develops, the analysis detects the temperature and heart-rate drift
//! *before* the alarm threshold fires.
//!
//! ```text
//! cargo run --example trend_analysis
//! ```

use std::sync::{Arc, Mutex};
use std::time::Duration;

use amuse::core::{EventSink, SmcCell, SmcConfig};
use amuse::transport::{LinkConfig, SimNetwork};
use amuse::types::{parse_filter, Event, Filter, ServiceId};
use smc_sensors::runner::{SensorKind, SensorRunner};
use smc_sensors::{register_standard_codecs, Episode, EpisodeKind, Scenario};

/// The analysis service's record of bus traffic, oldest first.
#[derive(Debug, Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl EventSink for Recorder {
    fn deliver(&self, event: &Event) -> amuse::types::Result<()> {
        self.events.lock().unwrap().push(event.clone());
        Ok(())
    }
}

impl Recorder {
    fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Every recorded event matching `filter`, oldest first.
    fn query(&self, filter: &Filter) -> Vec<Event> {
        let events = self.events.lock().unwrap();
        events
            .iter()
            .filter(|e| filter.matches(e))
            .cloned()
            .collect()
    }

    /// Statistics of numeric attribute `attr` over the events matching
    /// `filter`; `None` when none carries it.
    fn summarise(&self, filter: &Filter, attr: &str) -> Option<Summary> {
        let values: Vec<f64> = self
            .query(filter)
            .iter()
            .filter_map(|e| e.attr(attr).and_then(|v| v.as_numeric()))
            .filter(|v| !v.is_nan())
            .collect();
        let last = *values.last()?;
        Some(Summary {
            count: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            last,
        })
    }
}

/// Summary statistics over one numeric attribute.
#[derive(Debug)]
struct Summary {
    count: usize,
    min: f64,
    max: f64,
    mean: f64,
    last: f64,
}

impl Summary {
    /// Crude deterioration signal: the latest value's offset from the
    /// mean, in units of the value range (0 when flat). Positive means
    /// trending above its history — the home-monitoring use case
    /// ("deterioration of well-being over time") watches this.
    fn drift(&self) -> f64 {
        let range = self.max - self.min;
        if range == 0.0 {
            0.0
        } else {
            (self.last - self.mean) / range
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    register_standard_codecs(cell.proxy_factory());

    // The analysis service: an in-process subscriber recording readings.
    let store = Arc::new(Recorder::default());
    cell.subscribe_local(
        ServiceId::from_raw(0xA11A),
        parse_filter("smc.sensor.reading")?,
        store.clone(),
    )?;

    // A slow-burn infection: fever and mild tachycardia ramping in.
    let scenario = Scenario::stable("developing-infection")
        .with(Episode::new(
            EpisodeKind::Fever,
            Duration::from_secs(2),
            Duration::from_secs(60),
            0.5,
        ))
        .with(Episode::new(
            EpisodeKind::Tachycardia,
            Duration::from_secs(2),
            Duration::from_secs(60),
            0.25,
        ));
    let patch = SensorRunner::start(
        &net,
        SensorKind::Temperature,
        &scenario,
        3,
        Duration::from_millis(40),
    )?;
    let strap = SensorRunner::start(
        &net,
        SensorKind::HeartRate,
        &scenario,
        4,
        Duration::from_millis(40),
    )?;

    std::thread::sleep(Duration::from_secs(6));

    let temp_filter = parse_filter(r#"smc.sensor.reading : sensor == "temperature""#)?;
    let hr_filter = parse_filter(r#"smc.sensor.reading : sensor == "heart-rate""#)?;

    let temp = store
        .summarise(&temp_filter, "celsius")
        .expect("temperature data");
    let hr = store.summarise(&hr_filter, "bpm").expect("heart-rate data");

    println!("recorded {} readings", store.len());
    println!(
        "temperature: n={} range {:.1}–{:.1} °C, mean {:.2}, latest {:.1}, drift {:+.2}",
        temp.count,
        temp.min,
        temp.max,
        temp.mean,
        temp.last,
        temp.drift()
    );
    println!(
        "heart rate:  n={} range {:.0}–{:.0} bpm, mean {:.1}, latest {:.0}, drift {:+.2}",
        hr.count,
        hr.min,
        hr.max,
        hr.mean,
        hr.last,
        hr.drift()
    );

    // The point: both channels drift upward together well before any
    // fixed threshold (38 °C / 120 bpm) fires — the early-warning signal
    // the paper's data-mining motivation describes.
    assert!(temp.drift() > 0.1, "temperature should be trending up");
    assert!(hr.drift() > 0.1, "heart rate should be trending up");
    if temp.drift() > 0.1 && hr.drift() > 0.1 {
        println!("⚠ correlated upward drift on two channels: flag for clinician review");
    }

    // The raw series is also available for offline study.
    let recent = store.query(&temp_filter);
    println!(
        "latest temperature samples: {:?}",
        recent
            .iter()
            .rev()
            .take(5)
            .filter_map(|e| e.attr("celsius").and_then(|v| v.as_double()))
            .collect::<Vec<_>>()
    );

    patch.stop();
    strap.stop();
    cell.shutdown();
    println!("trend analysis demo complete");
    Ok(())
}
