//! Links between self-managed cells.
//!
//! The paper (§I) requires that "autonomous, self-managed cells must be
//! composable to form larger cells but also need to collaborate and
//! integrate with each other in peer-to-peer relationships". Both are one
//! [`CellLink`]: the local cell joins a *remote* cell as an ordinary
//! member (subject to that cell's discovery, authentication and
//! policies) and forwards the events one filter selects, one way:
//!
//! * [`CellLink::import`] — a peer import: remote events are republished
//!   into the local cell. Build one each way for a symmetric peering.
//! * [`CellLink::export`] — a child export: the local (child) cell appears
//!   in the remote (parent) cell as one member device of type `smc.cell`.
//!   Child events go up under the link's identity — one stream per child
//!   — and management commands addressed to the link are re-issued inside
//!   the child to every member whose device type matches the command's
//!   [`TARGET_TYPE_ARG`]: the level-of-abstraction jump the paper
//!   describes.
//!
//! Every forwarded event carries [`PATH_ATTR`]: the cells it has been
//! published in, origin first. A link never forwards an event whose path
//! already holds its destination, so any cycle of links — a symmetric
//! peering, a ring, a mis-configured hierarchy — delivers an event once
//! per cell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use smc_discovery::AgentConfig;
use smc_transport::ReliableChannel;
use smc_types::{CellId, Error, Event, Filter, Result, ServiceId, ServiceInfo, SubscriptionId};

use crate::client::{CommandRequest, RemoteClient};
use crate::smc::SmcCell;

/// Attribute listing the cells an event has been published in, origin
/// first (comma-separated cell ids).
pub const PATH_ATTR: &str = "cell.path";

/// Command argument naming the device-type glob a command relayed down an
/// export link targets inside the child.
pub const TARGET_TYPE_ARG: &str = "target-type";

/// How long the worker waits for remote traffic before it looks again
/// whether the link is still open.
const POLL: Duration = Duration::from_millis(50);

/// Returns the cells listed in an event's [`PATH_ATTR`], origin first.
pub fn cell_path(event: &Event) -> Vec<CellId> {
    event
        .attr(PATH_ATTR)
        .and_then(|v| v.as_str())
        .map(|s| {
            s.split(',')
                .filter_map(|part| part.parse::<u64>().ok().map(CellId))
                .collect()
        })
        .unwrap_or_default()
}

/// Counters describing a link's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct LinkStats {
    pub forwarded: u64,
    pub loops_suppressed: u64,
    pub commands_relayed: u64,
}

/// Which way a link forwards events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Remote → local, through a subscription in the remote cell.
    Import,
    /// Local → remote, through a subscription in the local cell.
    Export,
}

/// One cell's membership in another, forwarding one filter's events one
/// way. Closed by [`CellLink::close`] or by dropping it.
#[derive(Debug)]
pub struct CellLink {
    shared: Arc<Shared>,
    /// An export link's subscription in the local cell.
    subscription: Option<SubscriptionId>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// What the worker and an export link's local sink use.
#[derive(Debug)]
struct Shared {
    local: Arc<SmcCell>,
    client: Arc<RemoteClient>,
    remote_cell: CellId,
    direction: Direction,
    running: AtomicBool,
    stats: Mutex<LinkStats>,
}

impl CellLink {
    /// A peer import: joins the cell `remote` over `channel` (an endpoint
    /// on the remote cell's network), subscribes there to `filter`, and
    /// republishes what arrives into `local` under the local bus
    /// endpoint's identity — one FIFO stream per link.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] if `remote` is `local` itself; otherwise
    /// join/subscribe failures from the remote cell, which can refuse the
    /// link like any member (authenticator, policies).
    pub fn import(
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        remote: CellId,
        filter: Filter,
        timeout: Duration,
    ) -> Result<Self> {
        Self::open(Direction::Import, local, channel, remote, filter, timeout)
    }

    /// A child export: joins the parent cell `remote` over `channel` as
    /// one member of type `smc.cell`, publishes `local` events matching
    /// `filter` into it, and relays commands addressed to the link down
    /// into `local` by [`TARGET_TYPE_ARG`].
    ///
    /// # Errors
    ///
    /// As for [`CellLink::import`].
    pub fn export(
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        remote: CellId,
        filter: Filter,
        timeout: Duration,
    ) -> Result<Self> {
        Self::open(Direction::Export, local, channel, remote, filter, timeout)
    }

    fn open(
        direction: Direction,
        local: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        remote: CellId,
        filter: Filter,
        timeout: Duration,
    ) -> Result<Self> {
        if remote == local.cell_id() {
            return Err(Error::Invalid("a cell cannot link to itself".into()));
        }
        let (device_type, role) = match direction {
            Direction::Import => ("smc.federation-link", "federation"),
            Direction::Export => ("smc.cell", "cell"),
        };
        let info = ServiceInfo::new(ServiceId::NIL, device_type)
            .with_name(format!("{role} link of {}", local.cell_id()))
            .with_role(role);
        let agent_config = AgentConfig {
            cell_filter: Some(remote),
            ..AgentConfig::default()
        };
        let client = RemoteClient::connect(info, channel, agent_config, timeout)?;
        // From here on an early return drops the link, which closes it.
        let mut link = CellLink {
            shared: Arc::new(Shared {
                local: Arc::clone(&local),
                client,
                remote_cell: remote,
                direction,
                running: AtomicBool::new(true),
                stats: Mutex::default(),
            }),
            subscription: None,
            worker: Mutex::new(None),
        };
        let client = &link.shared.client;
        match direction {
            Direction::Import => {
                client.subscribe(filter, timeout)?;
            }
            Direction::Export => {
                let sink = Arc::clone(&link.shared);
                let sink = Arc::new(move |event: &Event| sink.forward(event));
                link.subscription = Some(local.subscribe_local(client.local_id(), filter, sink)?);
            }
        }
        let worker = Arc::clone(&link.shared);
        let handle = std::thread::Builder::new()
            .name(format!("link-{}-{remote}", local.cell_id()))
            .spawn(move || worker.pump())
            .expect("spawn cell link worker");
        *link.worker.lock() = Some(handle);
        Ok(link)
    }

    /// This link's member identity inside the remote cell.
    pub fn remote_identity(&self) -> ServiceId {
        self.shared.client.local_id()
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        *self.shared.stats.lock()
    }

    /// Removes the link's subscription in the local cell, leaves the
    /// remote cell and stops the worker. Dropping the link does the same;
    /// a second call does nothing.
    pub fn close(&self) {
        if !self.shared.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(id) = self.subscription {
            let _ = self.shared.local.bus().unsubscribe(id);
        }
        self.shared.client.leave("cell link closed");
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CellLink {
    fn drop(&mut self) {
        self.close();
    }
}

impl Shared {
    /// An import link's worker forwards remote events; an export link's
    /// relays commands (its events leave through the local sink).
    fn pump(&self) {
        while self.running.load(Ordering::SeqCst) {
            let step = match self.direction {
                Direction::Import => self.client.next_event(POLL).map(|event| {
                    let _ = self.forward(&event);
                }),
                Direction::Export => self.client.next_command(POLL).map(|cmd| self.relay(&cmd)),
            };
            match step {
                Ok(()) | Err(Error::Timeout) => {}
                Err(_) => return,
            }
        }
    }

    /// Forwards `event` from source to destination cell under the path
    /// and loop rules; the direction decides only which cell is which.
    fn forward(&self, event: &Event) -> Result<()> {
        let (from, to) = match self.direction {
            Direction::Import => (self.remote_cell, self.local.cell_id()),
            Direction::Export => (self.local.cell_id(), self.remote_cell),
        };
        let mut path = cell_path(event);
        if path.contains(&to) {
            self.stats.lock().loops_suppressed += 1;
            return Ok(());
        }
        if path.is_empty() {
            path.push(from);
        }
        path.push(to);
        let text: Vec<String> = path.iter().map(|c| c.raw().to_string()).collect();
        let mut out = event.with_attr(PATH_ATTR, text.join(","));
        // Restamped by whoever publishes it: the local bus endpoint, or
        // the link's member identity in the remote cell.
        out.stamp(ServiceId::NIL, 0, 0);
        // Count before publishing so an observer woken by the delivery
        // sees the updated stats.
        self.stats.lock().forwarded += 1;
        let sent = match self.direction {
            Direction::Import => self.local.publish_local(out).map(|_| ()),
            Direction::Export => self.client.publish_nowait(out).map(|_| ()),
        };
        if sent.is_err() {
            self.stats.lock().forwarded -= 1;
        }
        sent
    }

    /// Re-issues a command addressed to the link to every local member
    /// whose device type matches its [`TARGET_TYPE_ARG`] (every member
    /// without one), less the routing argument.
    fn relay(&self, cmd: &CommandRequest) {
        let glob = cmd.args.get(TARGET_TYPE_ARG).and_then(|v| v.as_str());
        let glob = glob.unwrap_or("*");
        let mut args = cmd.args.clone();
        args.remove(TARGET_TYPE_ARG);
        let members = self.local.members().into_iter();
        for member in members.filter(|m| smc_policy::glob_matches(glob, &m.device_type)) {
            // Count before sending so an observer woken by the command
            // sees the updated stats.
            self.stats.lock().commands_relayed += 1;
            let sent = self.local.send_command(member.id, &cmd.name, args.clone());
            if sent.is_err() {
                self.stats.lock().commands_relayed -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parsing() {
        let e = Event::builder("x").attr(PATH_ATTR, "1,2,9").build();
        assert_eq!(cell_path(&e), vec![CellId(1), CellId(2), CellId(9)]);
        assert!(cell_path(&Event::new("x")).is_empty());
        let odd = Event::builder("x").attr(PATH_ATTR, "1,zz,3").build();
        assert_eq!(cell_path(&odd), vec![CellId(1), CellId(3)]);
    }
}
