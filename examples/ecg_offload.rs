//! Bulk ECG streaming outside the event bus (paper §I: "we do not
//! consider that all communication within an SMC is routed via the event
//! bus … monitored data, such as from a heart ECG monitor … could be
//! sent to a remote station for viewing and analysis").
//!
//! The management plane (membership, alarms) rides the bus; the 250 Hz
//! waveform rides raw datagrams with loss accounting.
//!
//! ```text
//! cargo run --example ecg_offload
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{RemoteClient, SmcCell, SmcConfig};
use amuse::discovery::AgentConfig;
use amuse::transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use amuse::types::{wellknown, Event, Filter, ServiceId, ServiceInfo};
use smc_sensors::{EcgStreamer, EcgTrace, EcgViewer};

const TIMEOUT: Duration = Duration::from_secs(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lossy radio environment: fine for ECG (gaps tolerated), while the
    // bus's reliability layer hides the loss from management traffic.
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.1), 99);
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );

    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role("demo"),
            ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
            AgentConfig::default(),
            TIMEOUT,
        )
    };
    let ecg_monitor = connect("sensor.ecg")?;
    let station = connect("monitor.station")?;
    station.subscribe(Filter::for_type(wellknown::ALARM), TIMEOUT)?;

    // The waveform itself bypasses the bus: streamer → viewer, raw.
    let stream_tx = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let stream_rx = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let mut streamer = EcgStreamer::new(
        Arc::clone(&stream_tx),
        stream_rx.local_id(),
        EcgTrace::new(7, 250.0),
        125, // half a second of samples per block
    );
    let mut viewer = EcgViewer::new(stream_rx);

    for _ in 0..40 {
        streamer.send_block()?;
    }
    let mut peak: f64 = 0.0;
    while let Ok(block) = viewer.next_block(Duration::from_millis(200)) {
        peak = block.samples.iter().cloned().fold(peak, f64::max);
    }
    println!(
        "streamed {} blocks; viewer received {}, lost {} (loss tolerated by design)",
        streamer.blocks_sent(),
        viewer.blocks_received(),
        viewer.blocks_lost()
    );
    println!("max waveform amplitude seen: {peak:.2} mV (R peaks ≈ 1.2)");
    assert!(viewer.blocks_received() > 0);
    assert!(peak > 1.0);

    // Meanwhile the management plane still works, reliably, on the same
    // lossy network: the ECG monitor raises an artefact alarm via the bus.
    ecg_monitor.publish(
        Event::builder(wellknown::ALARM)
            .attr("kind", "lead-off")
            .build(),
        TIMEOUT,
    )?;
    let alarm = station.next_event(TIMEOUT)?;
    println!("management alarm arrived over the reliable bus: {alarm}");

    ecg_monitor.shutdown();
    station.shutdown();
    cell.shutdown();
    println!("ecg offload demo complete");
    Ok(())
}
