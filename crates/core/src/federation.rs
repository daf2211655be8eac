//! Peer-to-peer federation of self-managed cells.
//!
//! The paper (§I) requires that "autonomous, self-managed cells must be
//! composable to form larger cells but also need to collaborate and
//! integrate with each other in peer-to-peer relationships". A
//! [`FederationLink`] realises the peer-to-peer case: it joins a *remote*
//! cell as an ordinary member (subject to that cell's discovery,
//! authentication and policies), subscribes to an agreed filter, and
//! republishes matching events into the *local* cell.
//!
//! Loop protection: every federated event is tagged with the cells it has
//! traversed; a link never forwards an event that already visited its
//! destination. Two cells bridging each other therefore exchange events
//! exactly once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_discovery::AgentConfig;
use smc_transport::ReliableChannel;
use smc_types::{CellId, Error, Event, Filter, Result, ServiceId, ServiceInfo};

use crate::client::RemoteClient;
use crate::smc::SmcCell;

/// Attribute recording the cells an event has traversed (comma-separated
/// cell ids).
pub const FEDERATION_PATH_ATTR: &str = "federation.path";

/// Returns the cells listed in an event's federation path.
pub fn federation_path(event: &Event) -> Vec<CellId> {
    event
        .attr(FEDERATION_PATH_ATTR)
        .and_then(|v| v.as_str())
        .map(|s| {
            s.split(',')
                .filter_map(|part| part.parse::<u64>().ok().map(CellId))
                .collect()
        })
        .unwrap_or_default()
}

/// Counters describing a federation link's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct FederationStats {
    pub imported: u64,
    pub loops_suppressed: u64,
}

/// A one-directional import bridge: events matching `filter` in the
/// remote cell are republished into the local cell.
///
/// Build one in each direction for a symmetric peering.
#[derive(Debug)]
pub struct FederationLink {
    local: Arc<SmcCell>,
    client: Arc<RemoteClient>,
    remote_cell: CellId,
    imported: Arc<AtomicU64>,
    loops_suppressed: Arc<AtomicU64>,
    running: Arc<AtomicBool>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FederationLink {
    /// Connects `local` to the remote cell reachable over `channel`
    /// (usually an endpoint on the remote cell's network) and imports
    /// events matching `filter`.
    ///
    /// # Errors
    ///
    /// Propagates join/subscribe failures from the remote cell — a
    /// federation link is an ordinary member there and can be refused by
    /// its authenticator or policies.
    pub fn connect(
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        filter: Filter,
        join_timeout: Duration,
    ) -> Result<Arc<Self>> {
        Self::connect_with(local, channel, None, filter, join_timeout)
    }

    /// Like [`FederationLink::connect`], but only joins the named remote
    /// cell — required when several cells share one radio environment.
    ///
    /// # Errors
    ///
    /// As for [`FederationLink::connect`].
    pub fn connect_scoped(
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        remote: CellId,
        filter: Filter,
        join_timeout: Duration,
    ) -> Result<Arc<Self>> {
        if remote == local.cell_id() {
            return Err(Error::Invalid(
                "refusing to federate a cell with itself".into(),
            ));
        }
        Self::connect_with(local, channel, Some(remote), filter, join_timeout)
    }

    fn connect_with(
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        cell_filter: Option<CellId>,
        filter: Filter,
        join_timeout: Duration,
    ) -> Result<Arc<Self>> {
        let info = ServiceInfo::new(ServiceId::NIL, "smc.federation-link")
            .with_name(format!("federation link of {}", local.cell_id()))
            .with_role("federation");
        let agent_config = AgentConfig {
            cell_filter,
            ..AgentConfig::default()
        };
        let client = RemoteClient::connect(info, channel, agent_config, join_timeout)?;
        let remote_cell = client.cell().ok_or(Error::NotMember)?;
        if remote_cell == local.cell_id() {
            client.shutdown();
            return Err(Error::Invalid(
                "refusing to federate a cell with itself".into(),
            ));
        }
        client.subscribe(filter, join_timeout)?;

        let imported = Arc::new(AtomicU64::new(0));
        let loops_suppressed = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));
        let link = Arc::new(FederationLink {
            local: Arc::clone(&local),
            client: Arc::clone(&client),
            remote_cell,
            imported: Arc::clone(&imported),
            loops_suppressed: Arc::clone(&loops_suppressed),
            running: Arc::clone(&running),
            worker: Mutex::new(None),
        });

        let worker_link = Arc::downgrade(&link);
        let worker_running = Arc::clone(&running);
        let worker_client = Arc::clone(&client);
        let handle = std::thread::Builder::new()
            .name(format!(
                "federation-{}-from-{}",
                local.cell_id(),
                remote_cell
            ))
            .spawn(move || FederationLink::pump(&worker_link, &worker_running, &worker_client))
            .expect("spawn federation worker");
        *link.worker.lock() = Some(handle);
        Ok(link)
    }

    /// The remote cell this link imports from.
    pub fn remote_cell(&self) -> CellId {
        self.remote_cell
    }

    /// This link's member identity inside the remote cell.
    pub fn remote_identity(&self) -> ServiceId {
        self.client.local_id()
    }

    /// Link counters.
    pub fn stats(&self) -> FederationStats {
        FederationStats {
            imported: self.imported.load(Ordering::Relaxed),
            loops_suppressed: self.loops_suppressed.load(Ordering::Relaxed),
        }
    }

    /// Holds only a weak reference (upgraded transiently per event, never
    /// across the blocking wait) so dropping the last external handle
    /// stops the worker instead of leaking it.
    fn pump(weak: &std::sync::Weak<Self>, running: &AtomicBool, client: &RemoteClient) {
        loop {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            match client.next_event(Duration::from_millis(50)) {
                Ok(event) => {
                    let Some(link) = weak.upgrade() else { return };
                    link.import(event);
                }
                Err(Error::Timeout) => {}
                Err(_) => return,
            }
        }
    }

    fn import(&self, event: Event) {
        let mut path = federation_path(&event);
        let local_cell = self.local.cell_id();
        if path.contains(&local_cell) {
            // The event has already been through this cell: a loop.
            self.loops_suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !path.contains(&self.remote_cell) {
            path.push(self.remote_cell);
        }
        path.push(local_cell);
        let path_text: Vec<String> = path.iter().map(|c| c.raw().to_string()).collect();
        let imported = event.with_attr(FEDERATION_PATH_ATTR, path_text.join(","));
        // Count before republishing so an observer woken by the delivery
        // sees the updated stats. Republished under the local cell's
        // identity: local subscribers see one coherent FIFO stream per
        // link.
        self.imported.fetch_add(1, Ordering::Relaxed);
        let _ = self.local.publish_local(imported);
    }

    /// Leaves the remote cell and stops importing.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.client.leave("federation link closed");
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FederationLink {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parsing() {
        let e = Event::builder("x")
            .attr(FEDERATION_PATH_ATTR, "1,2,9")
            .build();
        assert_eq!(federation_path(&e), vec![CellId(1), CellId(2), CellId(9)]);
        assert!(federation_path(&Event::new("x")).is_empty());
        let odd = Event::builder("x")
            .attr(FEDERATION_PATH_ATTR, "1,zz,3")
            .build();
        assert_eq!(federation_path(&odd), vec![CellId(1), CellId(3)]);
    }
}
