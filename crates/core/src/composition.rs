//! Hierarchical composition of self-managed cells.
//!
//! The paper (§I) requires cells to be "composable to form larger cells
//! … across multiple levels of abstraction relating to hierarchical
//! service relationships". Where [`crate::federation`] is the
//! peer-to-peer case, [`CompositionLink`] is the hierarchical one: a
//! *child* cell (say, one patient's body-area network) appears in a
//! *parent* cell (the ward) as a **single member device** of type
//! `smc.cell`.
//!
//! * Upward: child events matching the export filter are published into
//!   the parent, tagged with the child's identity — the ward sees one
//!   coherent stream per patient instead of dozens of raw devices.
//! * Downward: management `Command`s addressed to the child's member id
//!   in the parent are re-issued inside the child to every member whose
//!   device type matches the command's `target-type` argument — the
//!   level-of-abstraction jump the paper describes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_discovery::AgentConfig;
use smc_transport::ReliableChannel;
use smc_types::{AttributeSet, CellId, Error, Event, Filter, Result, ServiceId, ServiceInfo};

use crate::client::RemoteClient;
use crate::smc::SmcCell;

/// Attribute stamped onto exported events: the comma-separated ids of
/// the cells the event has bubbled out of, innermost first.
pub const CHILD_CELL_ATTR: &str = "composition.path";

/// Command argument naming the device-type glob a downward command
/// targets inside the child.
pub const TARGET_TYPE_ARG: &str = "target-type";

/// Counters describing a composition link's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CompositionStats {
    pub exported: u64,
    pub commands_relayed: u64,
}

/// Joins a child cell into a parent cell as one member.
#[derive(Debug)]
pub struct CompositionLink {
    child: Arc<SmcCell>,
    client: Arc<RemoteClient>,
    parent_cell: CellId,
    exported: Arc<AtomicU64>,
    commands_relayed: Arc<AtomicU64>,
    running: Arc<AtomicBool>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl CompositionLink {
    /// Attaches `child` to the parent cell reachable over `channel`
    /// (an endpoint on the parent's network), exporting child events
    /// matching `export` upward.
    ///
    /// # Errors
    ///
    /// Propagates join/subscribe failures from the parent; the link is an
    /// ordinary member there and subject to its admission control.
    pub fn attach(
        child: Arc<SmcCell>,
        channel: Arc<ReliableChannel>,
        parent: CellId,
        export: Filter,
        join_timeout: Duration,
    ) -> Result<Arc<Self>> {
        if parent == child.cell_id() {
            return Err(Error::Invalid("a cell cannot be its own parent".into()));
        }
        let info = ServiceInfo::new(ServiceId::NIL, "smc.cell")
            .with_name(format!("composed cell {}", child.cell_id()))
            .with_role("cell");
        let agent_config = AgentConfig {
            cell_filter: Some(parent),
            ..AgentConfig::default()
        };
        let client = RemoteClient::connect(info, channel, agent_config, join_timeout)?;
        let parent_cell = client.cell().ok_or(Error::NotMember)?;

        let exported = Arc::new(AtomicU64::new(0));
        let commands_relayed = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));
        let link = Arc::new(CompositionLink {
            child: Arc::clone(&child),
            client: Arc::clone(&client),
            parent_cell,
            exported: Arc::clone(&exported),
            commands_relayed: Arc::clone(&commands_relayed),
            running: Arc::clone(&running),
            workers: Mutex::new(Vec::new()),
        });

        // Upward: an in-process subscription in the child whose sink
        // republishes into the parent through the link's membership. The
        // traversal path makes multi-level bubbling work while cutting
        // any cycle a mis-configured hierarchy would create.
        let up_client = Arc::clone(&client);
        let up_exported = Arc::clone(&exported);
        let child_cell_id = child.cell_id();
        child.subscribe_local(
            client.local_id(),
            export,
            Arc::new(move |event: &Event| {
                let mut path = composition_path(event);
                if path.contains(&parent_cell) || path.contains(&child_cell_id) {
                    // The event already traversed the destination (or this
                    // cell): a hierarchy cycle — stop it here.
                    return Ok(());
                }
                path.push(child_cell_id);
                let text: Vec<String> = path.iter().map(|c| c.raw().to_string()).collect();
                let mut out = event.with_attr(CHILD_CELL_ATTR, text.join(","));
                // Fresh stamp under the link's identity in the parent.
                out.stamp(ServiceId::NIL, 0, 0);
                // Count before publishing so an observer woken by the
                // delivery sees the updated stats.
                up_exported.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = up_client.publish_nowait(out) {
                    up_exported.fetch_sub(1, Ordering::Relaxed);
                    return Err(e);
                }
                Ok(())
            }),
        )?;

        // Downward: parent commands addressed to the link fan out inside
        // the child by device type.
        let down_link = Arc::downgrade(&link);
        let down_running = Arc::clone(&running);
        let down_client = Arc::clone(&client);
        let handle = std::thread::Builder::new()
            .name(format!("composition-{child_cell_id}-in-{parent_cell}"))
            .spawn(move || CompositionLink::pump_commands(&down_link, &down_running, &down_client))
            .expect("spawn composition worker");
        link.workers.lock().push(handle);
        Ok(link)
    }

    /// The parent cell this link joined.
    pub fn parent_cell(&self) -> CellId {
        self.parent_cell
    }

    /// The link's member identity inside the parent.
    pub fn parent_identity(&self) -> ServiceId {
        self.client.local_id()
    }

    /// Link counters.
    pub fn stats(&self) -> CompositionStats {
        CompositionStats {
            exported: self.exported.load(Ordering::Relaxed),
            commands_relayed: self.commands_relayed.load(Ordering::Relaxed),
        }
    }

    /// Holds only a weak reference (upgraded transiently per command,
    /// never across the blocking wait) so dropping the last external
    /// handle stops the worker instead of leaking it.
    fn pump_commands(weak: &std::sync::Weak<Self>, running: &AtomicBool, client: &RemoteClient) {
        loop {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            match client.next_command(Duration::from_millis(50)) {
                Ok(cmd) => {
                    let Some(this) = weak.upgrade() else { return };
                    let target_glob = cmd
                        .args
                        .get(TARGET_TYPE_ARG)
                        .and_then(|v| v.as_str())
                        .unwrap_or("*")
                        .to_owned();
                    // Forward everything except the routing argument.
                    let mut args = AttributeSet::new();
                    for (name, value) in cmd.args.iter() {
                        if name != TARGET_TYPE_ARG {
                            args.insert(name, value.clone());
                        }
                    }
                    let targets: Vec<ServiceId> = this
                        .child
                        .members()
                        .into_iter()
                        .filter(|m| smc_policy::glob_matches(&target_glob, &m.device_type))
                        .map(|m| m.id)
                        .collect();
                    for target in targets {
                        // Count before sending so an observer woken by the
                        // command sees the updated stats.
                        this.commands_relayed.fetch_add(1, Ordering::Relaxed);
                        if this
                            .child
                            .send_command(target, &cmd.name, args.clone())
                            .is_err()
                        {
                            this.commands_relayed.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(Error::Timeout) => {}
                Err(_) => return,
            }
        }
    }

    /// Detaches from the parent and stops relaying.
    pub fn detach(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.client.leave("composition detached");
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CompositionLink {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
    }
}

/// The cells an exported event bubbled out of, innermost first.
pub fn composition_path(event: &Event) -> Vec<CellId> {
    event
        .attr(CHILD_CELL_ATTR)
        .and_then(|v| v.as_str())
        .map(|s| {
            s.split(',')
                .filter_map(|part| part.parse::<u64>().ok().map(CellId))
                .collect()
        })
        .unwrap_or_default()
}

/// The *immediate* child cell an exported event arrived from (the last
/// hop), if any.
pub fn child_cell_of(event: &Event) -> Option<CellId> {
    composition_path(event).last().copied()
}
