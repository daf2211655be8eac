//! The reliability layer: acknowledged, exactly-once, per-sender-FIFO
//! message delivery over an unreliable datagram [`Transport`].
//!
//! The paper's delivery semantics (§II-C) require that every event reach
//! each interested member **exactly once** and that events from one sender
//! arrive **in the order sent**. Rather than re-implementing that per
//! component, every hop (publisher proxy → bus, bus → subscriber proxy,
//! discovery handshakes) runs over a [`ReliableChannel`]:
//!
//! * every message gets a per-peer sequence number within a session
//!   *epoch*; receivers deliver strictly in sequence order;
//! * every fragment is acknowledged; unacknowledged fragments are
//!   retransmitted with exponential backoff (for as long as the caller
//!   wants — proxies retry until the member is purged);
//! * an acknowledgement for newly accepted, in-order data is *held* per
//!   peer and leaves inside the next data frame sent to that peer, on
//!   the next poll tick, or at once when half a window of messages is
//!   owed — whichever comes first;
//! * duplicates (from the network or from retransmission) are suppressed
//!   and re-acknowledged at once, as are out-of-order arrivals: both
//!   tell the sender about a gap or a lost acknowledgement;
//! * messages larger than the transport MTU are fragmented and
//!   reassembled;
//! * a message that is next in order is handed to the channel's owner by
//!   the thread that took its last datagram off the transport — a call
//!   into the owner's [`Handler`], or, on a channel nobody claimed, a
//!   push onto the inbox [`ReliableChannel::recv`] reads.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use smc_telemetry::{Hop, Tracer};
use smc_types::codec::{with_scratch, MAX_COLLECTION_LEN};
use smc_types::{
    system_clock, Error, MessageBuf, Result, ServiceId, SharedBytes, SharedClock, SnapshotCell,
    TraceId,
};

use crate::frame::{
    ack_entries, decode_datagram, encode_ack_frame, fragment_count, fragment_range,
    put_ack_batch_frame, put_data_header, put_unreliable_frame, CumulativeAck, Frame,
    ACK_BATCH_HEADER_LEN, ACK_ENTRY_LEN, FRAME_HEADER_LEN,
};
use crate::transport::{recv_noting_backlog, Cork, Datagram, Transport};

/// Multiplier applied to a message's RTO after each retransmission.
const BACKOFF: u32 = 2;

/// Retransmission and flow-control parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial retransmission timeout.
    pub initial_rto: Duration,
    /// Upper bound on the RTO.
    pub max_rto: Duration,
    /// Give up after this many retransmissions of a message (`None` =
    /// retry forever, the proxy behaviour).
    pub max_retries: Option<u32>,
    /// Maximum messages in flight per peer; excess sends queue.
    ///
    /// The receiving side reads its **own** `window` as the sender's
    /// when it decides how many acknowledgements to hold (half of it),
    /// so the two ends of a channel are assumed to agree on it. A sender
    /// with a smaller window than its receiver still gets everything
    /// acknowledged, but a one-way stream from it is paced by the
    /// receiver's poll tick rather than the link.
    pub window: usize,
    /// How long `recv` polls the transport between retransmission scans.
    /// Also the tick on which held acknowledgements are flushed. A
    /// datagram that arrives just before a tick is due returns the poll
    /// early without a scan and the next poll can run its full length,
    /// so an acknowledgement is held for up to **two** intervals:
    /// `2 * poll_interval` must not exceed `initial_rto` (checked at
    /// construction).
    pub poll_interval: Duration,
    /// Maximum out-of-order messages buffered per peer before the
    /// receiver starts dropping (the sender retransmits them later).
    pub reorder_buffer: usize,
    /// Suppress duplicates and enforce in-order delivery (the normal,
    /// correct behaviour). Disabling this intentionally breaks the
    /// exactly-once / FIFO guarantees — it exists so delivery-semantics
    /// oracles can prove they detect a faulty channel.
    pub dedup: bool,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            initial_rto: Duration::from_millis(60),
            max_rto: Duration::from_secs(2),
            max_retries: None,
            window: 64,
            poll_interval: Duration::from_millis(20),
            reorder_buffer: 256,
            dedup: true,
        }
    }
}

/// Observer of a channel's durable state transitions, implemented by the
/// write-ahead log so exactly-once and FIFO survive a process crash.
///
/// The channel calls these hooks at the moments that matter for
/// crash-consistency:
///
/// * [`on_deliver`](ChannelJournal::on_deliver) records the receive
///   cursor past a message **before** any of its fragments is
///   acknowledged. A channel whose journal
///   [covers routing](ChannelJournal::covers_routing) calls it once the
///   application consumed the message ([`ReliableChannel::consumed`]),
///   after whatever the message caused was journalled; any other channel
///   calls it before handing the message up. If journalling fails the
///   message stays unacknowledged, so the sender retransmits, and the
///   append is retried when the duplicate arrives — a message a peer saw
///   acknowledged is therefore durably behind the cursor (and, on a
///   channel that covers routing, durably routed).
/// * [`on_enqueue`](ChannelJournal::on_enqueue) is called **before** a
///   message joins the outbound queue; a failure fails the send.
/// * [`on_requeue`](ChannelJournal::on_requeue) is the crash-recovery
///   variant of `on_enqueue` ([`ReliableChannel::send_recovered`]): the
///   payload is already retained under `prior_seq`, so the journal
///   renumbers the retained entry instead of storing a second copy.
/// * [`on_acked`](ChannelJournal::on_acked) / [`on_forget`](ChannelJournal::on_forget)
///   trim retained outbound state. Their errors are ignored: replaying a
///   stale enqueue after a crash only causes a retransmission the
///   receiver's cursor suppresses. `on_acked` takes every message one
///   acknowledgement frame (or one expiry pass) retires, in one call; no
///   receipt of those messages resolves before it returns.
pub trait ChannelJournal: Send + Sync + std::fmt::Debug {
    /// The receiver's cursor for `peer`'s session `epoch` is about to
    /// move past message `seq`, and the message's fragments to be
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// An error vetoes the acknowledgement; the channel keeps the message
    /// unacknowledged (and, at delivery, undelivered) and retries later.
    fn on_deliver(&self, peer: ServiceId, epoch: u64, seq: u64) -> Result<()>;
    /// Whether the application journals what each message causes before
    /// it marks it [consumed](ReliableChannel::consumed). When `true` the
    /// channel hands a message up without journalling it and moves the
    /// cursor — and acknowledges — only at consumption: a crash before
    /// that leaves the message unacknowledged, and its sender resends it.
    fn covers_routing(&self) -> bool {
        false
    }
    /// A message with (predicted) sequence number `seq` is about to be
    /// queued for `peer`. The payload is lent as the channel holds it: a
    /// journal that keeps it writes its bytes where it wants them
    /// ([`SharedBytes::put_range`]).
    ///
    /// # Errors
    ///
    /// An error aborts the send before any state changes.
    fn on_enqueue(&self, peer: ServiceId, seq: u64, payload: &SharedBytes) -> Result<()>;
    /// A recovered payload, retained by the journal under `prior_seq`, is
    /// about to re-enter the queue for `peer` under the fresh (predicted)
    /// number `seq`.
    ///
    /// # Errors
    ///
    /// An error aborts the send before any state changes.
    fn on_requeue(&self, peer: ServiceId, prior_seq: u64, seq: u64) -> Result<()> {
        let _ = (peer, prior_seq, seq);
        Ok(())
    }
    /// Outbound messages `seqs` to `peer` were fully acknowledged or
    /// abandoned and no longer need to be retained: what one
    /// acknowledgement frame retires (its cumulative front first, then
    /// each message its fragment acknowledgements complete, in that
    /// order), or the messages one retransmission pass abandons. Never
    /// empty. The channel resolves their receipts, records their
    /// `RxAcked` hops and refills the window only after this returns.
    ///
    /// # Errors
    ///
    /// Errors are ignored by the channel (see trait docs).
    fn on_acked(&self, peer: ServiceId, seqs: &[u64]) -> Result<()>;
    /// All outbound state for `peer` was deliberately dropped.
    ///
    /// # Errors
    ///
    /// Errors are ignored by the channel (see trait docs).
    fn on_forget(&self, peer: ServiceId) -> Result<()>;
}

/// Unacknowledged outbound state per peer, as returned by
/// [`ReliableChannel::outbound_pending`]: each entry pairs a peer with
/// its `(sequence, payload)` list, oldest first.
pub type PendingOutbound = Vec<(ServiceId, Vec<(u64, Vec<u8>)>)>;

smc_telemetry::metric_set! {
    /// [`ChannelStats`] as the channel keeps them: one atomic per counter,
    /// so the send and receive paths count without taking a lock.
    /// `Relaxed` throughout — these are statistics and publish no other
    /// data.
    struct Counters {
        /// Reliable messages accepted for sending.
        counter msgs_sent: "smc_channel_msgs_sent_total",
        /// Reliable messages fully acknowledged.
        counter msgs_acked: "smc_channel_msgs_acked_total",
        /// Reliable messages delivered to the application.
        counter msgs_delivered: "smc_channel_msgs_delivered_total",
        /// Messages abandoned after `max_retries`.
        counter msgs_expired: "smc_channel_msgs_expired_total",
        /// Fragment retransmissions.
        counter retransmits: "smc_channel_retransmits_total",
        /// Duplicate fragments suppressed on receive.
        counter duplicates_suppressed: "smc_channel_duplicates_suppressed_total",
        /// Unreliable payloads sent (including broadcasts).
        counter unreliable_sent: "smc_channel_unreliable_sent_total",
        /// Unreliable payloads received.
        counter unreliable_received: "smc_channel_unreliable_received_total",
    }
    /// Counters describing a channel's activity.
    pub struct ChannelStats {}
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A message handed up by [`ReliableChannel::recv`] or to the channel's
/// [`Handler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incoming {
    /// An exactly-once, in-order message from `from`.
    Reliable {
        /// The sending endpoint.
        from: ServiceId,
        /// The sender-assigned sequence number — the handle the consumer
        /// passes back to [`ReliableChannel::consumed`] once it finished
        /// processing the message.
        seq: u64,
        /// The reassembled message bytes.
        payload: MessageBuf,
    },
    /// A fire-and-forget payload (e.g. a discovery beacon).
    Unreliable {
        /// The sending endpoint.
        from: ServiceId,
        /// The payload bytes.
        payload: MessageBuf,
        /// Whether it arrived by broadcast.
        broadcast: bool,
    },
}

impl Incoming {
    /// The sender, regardless of reliability class.
    pub fn from(&self) -> ServiceId {
        match self {
            Incoming::Reliable { from, .. } | Incoming::Unreliable { from, .. } => *from,
        }
    }

    /// The payload, regardless of reliability class.
    pub fn payload(&self) -> &[u8] {
        match self {
            Incoming::Reliable { payload, .. } | Incoming::Unreliable { payload, .. } => payload,
        }
    }

    /// The payload itself — the buffer the message arrived in, which goes
    /// back to the link when it is dropped — for a consumer that keeps it
    /// (`Packet::from_message`).
    pub fn into_payload(self) -> MessageBuf {
        match self {
            Incoming::Reliable { payload, .. } | Incoming::Unreliable { payload, .. } => payload,
        }
    }
}

/// What a channel's owner does with each message, installed with
/// [`ReliableChannel::set_handler`].
///
/// It runs on the thread that received the message — the channel's
/// receive thread, or the caller of [`ReliableChannel::step`] — one
/// message at a time, in delivery order, with none of the channel's
/// state locks held: it may send, read cursors, mark messages consumed
/// and close its own channel. Until it returns, that thread receives
/// nothing more, acknowledges nothing and retransmits nothing, so a
/// handler must not wait for a message only its own channel can deliver.
///
/// On a receive thread it runs inside a drain: the thread handles every
/// datagram its link already queued (a window at most) under one cork,
/// and whatever is sent over the mem link meanwhile — by the handler, on
/// any channel — leaves when the drain ends. So a handler must not wait
/// for a reply to anything it sent over the mem link either: the request
/// has not left yet.
pub type Handler = Box<dyn FnMut(Incoming) + Send>;

/// Where the delivery step puts a message.
enum Consumer {
    /// Nobody claimed the channel: [`ReliableChannel::recv`] and
    /// [`ReliableChannel::try_recv`] read the other end.
    Inbox(Sender<Incoming>),
    /// The owner's handler.
    Handler(Handler),
    /// The channel is shut down. Dropping the handler here is what breaks
    /// a channel → handler → owner → channel reference cycle; dropping
    /// the inbox sender is what makes `recv` report [`Error::Closed`].
    Closed,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Consumer::Inbox(_) => "Inbox",
            Consumer::Handler(_) => "Handler",
            Consumer::Closed => "Closed",
        })
    }
}

thread_local! {
    /// The channel whose delivery step this thread is inside (the address
    /// of its [`Shared`]; 0 = none). [`ReliableChannel::close`] reads it:
    /// a handler closing its own channel — or dropping the last handle of
    /// the owner that does — must neither join the thread it runs on nor
    /// take the lock it runs under.
    static DELIVERING: Cell<usize> = const { Cell::new(0) };
}

/// Marks this thread as inside `shared`'s delivery step until dropped.
struct DeliveryScope {
    outer: usize,
}

impl DeliveryScope {
    fn enter(shared: &Shared) -> Self {
        DeliveryScope {
            outer: DELIVERING.replace(shared as *const Shared as usize),
        }
    }
}

impl Drop for DeliveryScope {
    fn drop(&mut self) {
        DELIVERING.set(self.outer);
    }
}

/// Resolves when a reliable send is fully acknowledged (or abandoned).
/// Asked for with [`ReliableChannel::send_with_receipt`].
#[derive(Debug)]
pub struct Receipt {
    rx: Receiver<Result<()>>,
}

impl Receipt {
    /// Waits up to `timeout` for the acknowledgement.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if not acknowledged in time; [`Error::Closed`]
    /// if the channel shut down or the peer was forgotten first.
    pub fn wait(&self, timeout: Duration) -> Result<()> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(Error::Closed),
        }
    }

    /// Returns the outcome if already resolved, without blocking.
    pub fn poll(&self) -> Option<Result<()>> {
        self.rx.try_recv().ok()
    }
}

#[derive(Debug)]
struct OutMessage {
    /// The whole message, shared with whoever produced it (the bus
    /// fan-out keeps one encoded buffer per publish; enqueueing here
    /// costs a reference count, not a copy).
    payload: SharedBytes,
    /// The size the message was cut to: fragment `i` is
    /// `fragment_range(payload.len(), max_frag, i)`, sliced out at
    /// (re)transmit time.
    max_frag: usize,
    frag_count: u16,
    acked: AckedSet,
    unacked: usize,
    receipt: Option<Sender<Result<()>>>,
    /// Clock micros of the last (re)transmission.
    last_tx: u64,
    rto: Duration,
    retries: u32,
    /// Causal trace of the payload ([`TraceId::NONE`] when untraced).
    trace: TraceId,
}

/// Which fragments of a message are acknowledged. The first 64 are a
/// word in the message itself — every message the cell sends fits — and
/// only a longer message has a bitmap on the heap for the rest.
#[derive(Debug)]
struct AckedSet {
    first: u64,
    rest: Vec<u64>,
}

impl AckedSet {
    fn new(frag_count: u16) -> Self {
        AckedSet {
            first: 0,
            rest: vec![0; (frag_count as usize).saturating_sub(64).div_ceil(64)],
        }
    }

    fn contains(&self, i: usize) -> bool {
        let word = match i / 64 {
            0 => self.first,
            w => self.rest[w - 1],
        };
        word >> (i % 64) & 1 == 1
    }

    /// Marks fragment `i`; `false` if it already was.
    fn insert(&mut self, i: usize) -> bool {
        let word = match i / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        };
        let bit = 1 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// A queued message, the optional receipt to resolve on ack, and the
/// payload's causal trace.
type QueuedMessage = (SharedBytes, Option<Sender<Result<()>>>, TraceId);

#[derive(Debug, Default)]
struct PeerOut {
    next_seq: u64,
    /// The send window: messages sent and not yet acknowledged, in
    /// sequence order. A ring whose buffer outlives the messages in it:
    /// once it has held a window's worth, sending asks nothing of the
    /// heap.
    inflight: VecDeque<(u64, OutMessage)>,
    queued: VecDeque<QueuedMessage>,
}

impl PeerOut {
    /// Where message `seq` sits in the window, if it is there.
    fn find(&self, seq: u64) -> Option<usize> {
        self.inflight.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }
}

/// One fragment as it arrived: its index and its datagram, whose bytes
/// from `at` on are the fragment's.
#[derive(Debug)]
struct Fragment {
    index: u16,
    at: usize,
    datagram: Datagram,
}

/// Fragments received so far, sorted by index.
type Fragments = Vec<Fragment>;

#[derive(Debug)]
struct Partial {
    frag_count: u16,
    /// What arrived — never a slot per fragment the first datagram
    /// claimed, which nothing has validated.
    frags: Fragments,
    /// Payload bytes held in `frags`: the size of the reassembled message.
    bytes: usize,
}

/// What one arriving fragment did to its message's reassembly.
enum Reassembly {
    /// Fragments are still missing (or this one contradicted the ones
    /// already held and was ignored as corrupt).
    Pending,
    /// The fragment was already held.
    Duplicate,
    /// That was the last missing fragment: here is the message.
    Whole(MessageBuf),
}

impl PeerIn {
    /// Where the acknowledged prefix ends: the first message handed up
    /// and not yet acknowledged, or the next one to deliver. The cursor a
    /// checkpoint records.
    fn acked_below(&self) -> u64 {
        self.unconsumed.front().map_or(self.expected, |m| m.seq)
    }

    /// Files `fragment` of message `seq`. A fragment that is not kept
    /// goes back to the link as it drops, and so do a message's fragments
    /// once they are copied into the whole — a buffer of the same link's,
    /// which goes back in its turn. A message that fits one datagram
    /// keeps its datagram's buffer, as its body.
    fn reassemble(&mut self, seq: u64, frag_count: u16, fragment: Fragment) -> Reassembly {
        // A message that fits one datagram — nearly all of them — is
        // whole as it arrives: nothing to keep, nothing to copy. (Were an
        // entry already open for `seq` it would claim more fragments, and
        // the check below rejects the mismatch.)
        if frag_count == 1 && !self.partial.contains_key(&seq) {
            return Reassembly::Whole(fragment.datagram.into_tail(fragment.at));
        }
        let spare = &mut self.spare;
        let partial = self.partial.entry(seq).or_insert_with(|| Partial {
            frag_count,
            frags: std::mem::take(spare),
            bytes: 0,
        });
        if partial.frag_count != frag_count {
            // Inconsistent metadata — treat as corrupt and ignore.
            return Reassembly::Pending;
        }
        // (The frame decoder refused an index outside `0..frag_count`.)
        let Err(i) = partial
            .frags
            .binary_search_by_key(&fragment.index, |f| f.index)
        else {
            return Reassembly::Duplicate;
        };
        partial.bytes += fragment.datagram.payload.len() - fragment.at;
        partial.frags.insert(i, fragment);
        if partial.frags.len() < frag_count as usize {
            return Reassembly::Pending;
        }
        let mut partial = self.partial.remove(&seq).expect("partial present");
        let mut whole = partial.frags[0].datagram.payload.sibling(partial.bytes);
        for Fragment { at, datagram, .. } in partial.frags.drain(..) {
            whole.extend_from_slice(&datagram.payload[at..]);
        }
        self.spare = partial.frags;
        Reassembly::Whole(whole)
    }
}

#[derive(Debug, Default)]
struct PeerIn {
    /// Sender session currently accepted; 0 = none seen yet (real epochs
    /// are always ≥ 1).
    epoch: u64,
    /// Next sequence number to deliver.
    expected: u64,
    /// Messages handed up and not yet acknowledged, oldest first: on a
    /// channel whose journal covers routing, each until it is consumed
    /// and the cursor past it journalled. Empty on every other channel.
    unconsumed: VecDeque<Unconsumed>,
    /// Fully reassembled messages (payload, fragment count) waiting for
    /// their turn.
    ready: BTreeMap<u64, (MessageBuf, u16)>,
    /// Messages still missing fragments.
    partial: HashMap<u64, Partial>,
    /// The emptied list of the last message reassembled, for the next.
    spare: Fragments,
}

/// A delivered message waiting for [`ReliableChannel::consumed`].
#[derive(Debug)]
struct Unconsumed {
    seq: u64,
    frag_count: u16,
    consumed: bool,
}

/// Acknowledgements owed to one peer and not yet on the wire.
#[derive(Debug, Default)]
struct HeldAcks {
    /// The peer session the entries echo; a hold never mixes epochs.
    epoch: u64,
    /// Every held `(seq, frag_index)`, oldest first — what a standalone
    /// flush sends. Cleared, never shrunk: the buffer is reused.
    frags: Vec<(u64, u16)>,
    /// Highest held sequence number delivered in order (0 = none): what
    /// a data frame can carry as a [`CumulativeAck`] instead.
    up_to: u64,
    /// Messages delivered since the hold began.
    msgs: usize,
}

impl HeldAcks {
    /// The hold for `epoch`, forgetting whatever a dead session was owed.
    fn for_epoch(&mut self, epoch: u64) -> &mut Self {
        if self.epoch != epoch {
            self.clear();
            self.epoch = epoch;
        }
        self
    }

    fn clear(&mut self) {
        self.frags.clear();
        self.up_to = 0;
        self.msgs = 0;
    }
}

#[derive(Debug)]
struct Shared {
    transport: Arc<dyn Transport>,
    out: Mutex<HashMap<ServiceId, PeerOut>>,
    peers_in: Mutex<HashMap<ServiceId, PeerIn>>,
    /// Acknowledgements waiting for a data frame to ride on. A leaf
    /// lock: taken under `out` (by `pump`) and under `peers_in` (by the
    /// receive path), never the other way round. Ordered, because a
    /// flush sends and every send draws from the simulated network's
    /// seeded rng.
    held: Mutex<BTreeMap<ServiceId, HeldAcks>>,
    /// Who takes delivered messages. The delivery step holds this lock
    /// across each hand-over and [`ReliableChannel::set_handler`] takes it
    /// to install, which is what orders "everything that arrived before
    /// the handler" ahead of "everything after". Taken with no other
    /// channel lock held.
    consumer: Mutex<Consumer>,
    stats: Counters,
    closed: AtomicBool,
    epoch: u64,
    config: ReliableConfig,
    clock: SharedClock,
    journal: Option<Arc<dyn ChannelJournal>>,
    /// Whether the journal [covers routing](ChannelJournal::covers_routing):
    /// messages are acknowledged at [`ReliableChannel::consumed`].
    covers_routing: bool,
    /// Hop recorder for traced payloads; disabled (free) by default.
    /// A copy-on-write snapshot, so the send and receive paths take it
    /// with one short load and hold no lock while recording.
    tracer: SnapshotCell<Tracer>,
}

/// Reliable messaging endpoint over any [`Transport`].
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
///
/// let net = SimNetwork::new(LinkConfig::ideal());
/// let a = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
/// let b = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
/// let receipt = a.send_with_receipt(b.local_id(), b"event".to_vec())?;
/// match b.recv(Some(Duration::from_secs(2)))? {
///     Incoming::Reliable { payload, .. } => assert_eq!(payload, b"event"),
///     other => panic!("unexpected {other:?}"),
/// }
/// receipt.wait(Duration::from_secs(2))?;
/// # Ok::<(), smc_types::Error>(())
/// ```
#[derive(Debug)]
pub struct ReliableChannel {
    shared: Arc<Shared>,
    inbox: Receiver<Incoming>,
    rx_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Present only on step-driven channels ([`ReliableChannel::with_clock`]):
    /// the receive/retransmit state the owner pumps via [`ReliableChannel::step`].
    manual_rx: Option<Mutex<RxWorker>>,
}

/// Epochs must grow across restarts within a process; a global counter
/// added to a time base guarantees strict monotonicity either way.
/// Starts at 1 because receivers use epoch 0 to mean "no session seen
/// yet" ([`PeerIn::default`]) — a real epoch of 0 would skip session
/// adoption and wedge delivery.
static EPOCH_BUMP: AtomicU64 = AtomicU64::new(1);

impl ReliableChannel {
    /// Wraps `transport` in a reliable channel and starts its receive
    /// thread.
    pub fn new(transport: Arc<dyn Transport>, config: ReliableConfig) -> Arc<Self> {
        ReliableChannel::build(transport, config, system_clock(), false, None, Vec::new())
    }

    /// Like [`ReliableChannel::new`], but journalling every durable state
    /// transition to `journal` and seeding the receive cursors from
    /// `restored` — the crash-recovery path.
    ///
    /// Each `(peer, epoch, expected)` entry in `restored` re-adopts a
    /// pre-crash sender session: duplicates of messages acknowledged
    /// before the crash are suppressed and re-acknowledged instead of
    /// being delivered again.
    pub fn new_journaled(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        journal: Arc<dyn ChannelJournal>,
        restored: Vec<(ServiceId, u64, u64)>,
    ) -> Arc<Self> {
        let clock = system_clock();
        ReliableChannel::build(transport, config, clock, false, Some(journal), restored)
    }

    /// Wraps `transport` in a **step-driven** reliable channel timed by
    /// `clock`.
    ///
    /// No receive thread is spawned. The owner must call
    /// [`ReliableChannel::step`] after advancing the clock (and after the
    /// network delivered datagrams) to drain the transport, send acks and
    /// retransmit whatever timed out. Single-threaded stepping plus a
    /// seeded network makes whole scenarios bit-identical per seed.
    ///
    /// # Panics
    ///
    /// As every constructor does, if `2 * config.poll_interval` exceeds
    /// `config.initial_rto`: a held acknowledgement waits up to two poll
    /// intervals for the tick, and must beat the sender's first timeout.
    pub fn with_clock(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
    ) -> Arc<Self> {
        ReliableChannel::build(transport, config, clock, true, None, Vec::new())
    }

    /// The step-driven equivalent of [`ReliableChannel::new_journaled`]:
    /// journalled, cursor-restored and timed by `clock`.
    pub fn with_clock_journaled(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
        journal: Arc<dyn ChannelJournal>,
        restored: Vec<(ServiceId, u64, u64)>,
    ) -> Arc<Self> {
        ReliableChannel::build(transport, config, clock, true, Some(journal), restored)
    }

    fn build(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
        manual: bool,
        journal: Option<Arc<dyn ChannelJournal>>,
        restored: Vec<(ServiceId, u64, u64)>,
    ) -> Arc<Self> {
        assert!(
            2 * config.poll_interval <= config.initial_rto,
            "poll_interval ({:?}) must be at most half of initial_rto ({:?})",
            config.poll_interval,
            config.initial_rto
        );
        let epoch = clock.now_micros() + EPOCH_BUMP.fetch_add(1, Ordering::Relaxed);
        let (inbox_tx, inbox_rx) = unbounded();
        let mut peers_in = HashMap::new();
        for (peer, peer_epoch, expected) in restored {
            peers_in.insert(
                peer,
                PeerIn {
                    epoch: peer_epoch,
                    expected,
                    ..PeerIn::default()
                },
            );
        }
        let shared = Arc::new(Shared {
            transport,
            out: Mutex::new(HashMap::new()),
            peers_in: Mutex::new(peers_in),
            held: Mutex::new(BTreeMap::new()),
            consumer: Mutex::new(Consumer::Inbox(inbox_tx)),
            stats: Counters::default(),
            closed: AtomicBool::new(false),
            epoch,
            config,
            clock,
            covers_routing: journal.as_ref().is_some_and(|j| j.covers_routing()),
            journal,
            tracer: SnapshotCell::new(Arc::new(Tracer::disabled())),
        });
        let worker = RxWorker {
            shared: Arc::clone(&shared),
            handover: Vec::new(),
            retired: Retired::default(),
            peer_ids: Vec::new(),
        };
        if manual {
            return Arc::new(ReliableChannel {
                shared,
                inbox: inbox_rx,
                rx_thread: Mutex::new(None),
                manual_rx: Some(Mutex::new(worker)),
            });
        }
        let channel = Arc::new(ReliableChannel {
            shared,
            inbox: inbox_rx,
            rx_thread: Mutex::new(None),
            manual_rx: None,
        });
        let handle = std::thread::Builder::new()
            .name(format!("reliable-rx-{}", channel.local_id()))
            .spawn(move || worker.run())
            .expect("spawn reliable rx thread");
        *channel.rx_thread.lock() = Some(handle);
        channel
    }

    /// Drives a step-driven channel: sends the acknowledgements still
    /// held from the previous step (the owner's turn in between was their
    /// chance to ride on a data frame — no virtual time needs to pass),
    /// drains every datagram currently in the transport, processes it
    /// (acks, reassembly, in-order delivery — into the inbox, or through
    /// the installed [`Handler`] before this call returns) and retransmits
    /// whatever the clock says is due.
    ///
    /// Returns the number of datagrams processed.
    ///
    /// # Panics
    ///
    /// Panics if the channel was built with [`ReliableChannel::new`]
    /// (its receive thread owns this state).
    pub fn step(&self) -> usize {
        self.step_waiting(Duration::ZERO)
    }

    /// [`ReliableChannel::step`], waiting up to `wait` for the first
    /// datagram: what lets one thread block on a step-driven channel. The
    /// wait is held to the poll interval, so the acknowledgements the step
    /// holds are flushed by the next one before the sender's first timeout.
    pub fn step_waiting(&self, wait: Duration) -> usize {
        let mut worker = self
            .manual_rx
            .as_ref()
            .expect("step() requires a channel built with ReliableChannel::with_clock")
            .lock();
        self.shared.flush_held();
        let mut wait = wait.min(self.shared.config.poll_interval);
        let mut processed = 0;
        while let Ok(datagram) = self.shared.transport.recv(Some(wait)) {
            wait = Duration::ZERO;
            processed += 1;
            worker.receive(datagram);
            worker.deliver();
        }
        worker.retransmit_due();
        processed
    }

    /// Whether the channel is step-driven ([`ReliableChannel::with_clock`])
    /// rather than served by a receive thread of its own.
    pub fn is_step_driven(&self) -> bool {
        self.manual_rx.is_some()
    }

    /// The underlying endpoint's identifier.
    pub fn local_id(&self) -> ServiceId {
        self.shared.transport.local_id()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.shared.transport
    }

    /// Installs (or replaces) the hop tracer. Subsequent transmit,
    /// retransmit, ack and expiry events of traced messages are recorded
    /// against their [`TraceId`].
    pub fn set_tracer(&self, tracer: Tracer) {
        self.shared.tracer.store(Arc::new(tracer));
    }

    /// The currently installed hop tracer (disabled unless
    /// [`ReliableChannel::set_tracer`] was called).
    pub fn tracer(&self) -> Tracer {
        (*self.shared.tracer.load()).clone()
    }

    /// Queues `payload` for exactly-once, in-order delivery to `to`.
    ///
    /// The payload may be anything convertible into a [`SharedBytes`] —
    /// a `Vec<u8>` or `Arc<[u8]>` works, and an already-shared message
    /// (`codec::to_shared`'s buffer, an event packet held as its event:
    /// `Packet::into_shared`, the bus's `encode_deliver`) is enqueued
    /// without copying.
    ///
    /// Returning means queued, not delivered: the channel retransmits
    /// until the peer acknowledges or is forgotten. A caller that has to
    /// know asks for a receipt ([`ReliableChannel::send_with_receipt`]).
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send(&self, to: ServiceId, payload: impl Into<SharedBytes>) -> Result<()> {
        self.send_inner(to, payload.into(), None, TraceId::NONE, None)
    }

    /// Like [`ReliableChannel::send`], with the payload's causal trace:
    /// the channel records `WalAppended` / `TxSent` / `TxRetransmit` /
    /// `RxAcked` / `Dropped` hops for it on the installed tracer.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send_traced(
        &self,
        to: ServiceId,
        payload: impl Into<SharedBytes>,
        trace: TraceId,
    ) -> Result<()> {
        self.send_inner(to, payload.into(), None, trace, None)
    }

    /// The crash-recovery variant of [`ReliableChannel::send`]: queues a
    /// payload the journal already retains under `prior_seq` (from the
    /// crashed incarnation's outbound queue). The journal renumbers its
    /// retained entry to this send's fresh sequence number instead of
    /// storing a duplicate copy — so a second crash resends the queue
    /// exactly once more, never twice.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send_recovered(&self, to: ServiceId, payload: Vec<u8>, prior_seq: u64) -> Result<()> {
        self.send_inner(to, payload.into(), Some(prior_seq), TraceId::NONE, None)
    }

    /// Like [`ReliableChannel::send`], returning a [`Receipt`] that
    /// resolves when the peer acknowledged every fragment (or the message
    /// was abandoned). The receipt is a one-shot queue of its own, which
    /// is why a send does not come with one unasked.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send_with_receipt(
        &self,
        to: ServiceId,
        payload: impl Into<SharedBytes>,
    ) -> Result<Receipt> {
        let (tx, rx) = bounded(1);
        self.send_inner(to, payload.into(), None, TraceId::NONE, Some(tx))?;
        Ok(Receipt { rx })
    }

    fn send_inner(
        &self,
        to: ServiceId,
        payload: SharedBytes,
        requeued_from: Option<u64>,
        trace: TraceId,
        receipt: Option<Sender<Result<()>>>,
    ) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let mut out = self.shared.out.lock();
        let peer = out.entry(to).or_default();
        let tracer = self.shared.tracer.load();
        if let Some(journal) = &self.shared.journal {
            // Sequence numbers are assigned when `pump` promotes the
            // message into the window, strictly in queue order under
            // this lock — so the eventual number is predictable now,
            // and the journal entry can carry it before any bytes hit
            // the wire.
            let seq = peer.next_seq + peer.queued.len() as u64 + 1;
            tracer.record(trace, Hop::WalQueued);
            match requeued_from {
                Some(prior_seq) => journal.on_requeue(to, prior_seq, seq)?,
                None => journal.on_enqueue(to, seq, &payload)?,
            }
            tracer.record(trace, Hop::WalAppended);
        }
        peer.queued.push_back((payload, receipt, trace));
        tracer.record(trace, Hop::OutQueued);
        bump(&self.shared.stats.msgs_sent);
        let now = self.shared.clock.now_micros();
        self.shared.pump(now, to, peer, &tracer);
        Ok(())
    }

    /// Like [`ReliableChannel::send`] but blocks until acknowledged.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if not acknowledged within `timeout`;
    /// [`Error::Closed`] if the channel shut down.
    pub fn send_blocking(
        &self,
        to: ServiceId,
        payload: impl Into<SharedBytes>,
        timeout: Duration,
    ) -> Result<()> {
        self.send_with_receipt(to, payload)?.wait(timeout)
    }

    /// Sends a fire-and-forget payload (no ordering, no retransmission).
    ///
    /// # Errors
    ///
    /// Propagates transport errors; loss in the network is not an error.
    pub fn send_unreliable(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        bump(&self.shared.stats.unreliable_sent);
        with_scratch(|frame| {
            put_unreliable_frame(frame, payload);
            self.shared.transport.send(to, frame)
        })
    }

    /// Broadcasts a fire-and-forget payload.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn broadcast_unreliable(&self, payload: &[u8]) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        bump(&self.shared.stats.unreliable_sent);
        with_scratch(|frame| {
            put_unreliable_frame(frame, payload);
            self.shared.transport.broadcast(frame)
        })
    }

    /// Claims the channel: from now on every message is handed to
    /// `handler` by the thread that received it, instead of joining the
    /// inbox. See [`Handler`] for what it may and may not do.
    ///
    /// Messages that arrived before this call go through `handler`
    /// first, on the calling thread, in arrival order, before any later
    /// one does (the receiving thread waits out the hand-over). A second
    /// call replaces the handler. [`ReliableChannel::close`] drops it.
    pub fn set_handler(&self, mut handler: Handler) {
        let mut consumer = self.shared.consumer.lock();
        let _scope = DeliveryScope::enter(&self.shared);
        while !self.shared.closed.load(Ordering::SeqCst) {
            let Ok(earlier) = self.inbox.try_recv() else {
                break;
            };
            handler(earlier);
        }
        *consumer = if self.shared.closed.load(Ordering::SeqCst) {
            Consumer::Closed
        } else {
            Consumer::Handler(handler)
        };
    }

    /// Receives the next message, blocking up to `timeout` (forever when
    /// `None`).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on timeout, [`Error::Closed`] after shutdown —
    /// or once the channel has a [`Handler`], which takes every message.
    pub fn recv(&self, timeout: Option<Duration>) -> Result<Incoming> {
        match timeout {
            Some(t) => self.inbox.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => Error::Timeout,
                RecvTimeoutError::Disconnected => Error::Closed,
            }),
            None => self.inbox.recv().map_err(|_| Error::Closed),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming> {
        self.inbox.try_recv().ok()
    }

    /// Number of messages (queued + in flight) not yet acknowledged by
    /// `peer`.
    pub fn pending(&self, peer: ServiceId) -> usize {
        let out = self.shared.out.lock();
        out.get(&peer)
            .map_or(0, |p| p.inflight.len() + p.queued.len())
    }

    /// Drops all outbound state for `peer` (queued and in-flight
    /// messages). Pending receipts resolve with [`Error::Closed`].
    ///
    /// This is the proxy-destruction path: on `Purge Member` the proxy
    /// destroys "any outbound data awaiting delivery".
    pub fn forget_peer(&self, peer: ServiceId) {
        let removed = self.shared.out.lock().remove(&peer);
        if let Some(peer_out) = removed {
            // Journal the discard only for a deliberate forget (purge). A
            // shutdown (`close` flips `closed` first) must *retain* the
            // queued data so recovery can resume retransmission.
            if let Some(journal) = &self.shared.journal {
                if !self.shared.closed.load(Ordering::SeqCst) {
                    let _ = journal.on_forget(peer);
                }
            }
            let tracer = self.shared.tracer.load();
            for (_, msg) in peer_out.inflight {
                tracer.record(
                    msg.trace,
                    Hop::Dropped {
                        reason: "member-purged",
                    },
                );
                if let Some(tx) = msg.receipt {
                    let _ = tx.send(Err(Error::Closed));
                }
            }
            for (_, receipt, trace) in peer_out.queued {
                tracer.record(
                    trace,
                    Hop::Dropped {
                        reason: "member-purged",
                    },
                );
                if let Some(tx) = receipt {
                    let _ = tx.send(Err(Error::Closed));
                }
            }
        }
    }

    /// A snapshot of the channel counters.
    pub fn stats(&self) -> ChannelStats {
        self.shared.stats.snapshot()
    }

    /// The receive cursors: one `(peer, epoch, expected)` triple per
    /// sender session seen (or restored), sorted by peer id.
    ///
    /// Everything below `expected` has been acknowledged — on a channel
    /// whose journal covers routing, consumed; a snapshot of these
    /// triples is what recovery feeds back into
    /// [`ReliableChannel::new_journaled`] to keep exactly-once across a
    /// restart.
    pub fn rx_cursors(&self) -> Vec<(ServiceId, u64, u64)> {
        let peers = self.shared.peers_in.lock();
        let mut cursors: Vec<(ServiceId, u64, u64)> = peers
            .iter()
            .filter(|(_, p)| p.epoch != 0)
            .map(|(&id, p)| (id, p.epoch, p.acked_below()))
            .collect();
        cursors.sort_unstable_by_key(|&(id, _, _)| id);
        cursors
    }

    /// Marks inbound message `seq` from `peer`'s current session as
    /// fully processed by the application.
    ///
    /// On a channel whose journal
    /// [covers routing](ChannelJournal::covers_routing) this is the
    /// message's acknowledgement: once every message before it is
    /// consumed too, the journal records the cursor past it and only
    /// then are its fragments acknowledged. A failed append acknowledges
    /// nothing; the sender's retransmission retries it. On other
    /// channels this is a no-op.
    pub fn consumed(&self, peer: ServiceId, seq: u64) {
        if !self.shared.covers_routing {
            return;
        }
        let mut peers_in = self.shared.peers_in.lock();
        let Some(state) = peers_in.get_mut(&peer) else {
            return;
        };
        if let Some(message) = state.unconsumed.iter_mut().find(|m| m.seq == seq) {
            message.consumed = true;
            self.shared.commit_consumed(peer, state);
        }
    }

    /// Unacknowledged outbound messages per peer: in-flight messages
    /// (reassembled from their fragments) followed by queued ones, each
    /// with its assigned or predicted sequence number, oldest first.
    /// Peers are sorted by id.
    ///
    /// This is the state a snapshot must retain so that recovery can
    /// resend everything the crashed process still owed its peers.
    pub fn outbound_pending(&self) -> PendingOutbound {
        let out = self.shared.out.lock();
        let mut peer_ids: Vec<ServiceId> = out.keys().copied().collect();
        peer_ids.sort_unstable();
        let mut pending = Vec::new();
        for id in peer_ids {
            let peer = &out[&id];
            let mut msgs: Vec<(u64, Vec<u8>)> = peer
                .inflight
                .iter()
                .map(|(seq, m)| (*seq, m.payload.to_vec()))
                .collect();
            let mut seq = peer.next_seq;
            for (payload, _, _) in &peer.queued {
                seq += 1;
                msgs.push((seq, payload.to_vec()));
            }
            if !msgs.is_empty() {
                pending.push((id, msgs));
            }
        }
        pending
    }

    /// Whether [`ReliableChannel::close`] was called (or the channel
    /// dropped).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Shuts the channel down: closes the transport, stops the receive
    /// thread and drops the installed [`Handler`]. Unacknowledged
    /// messages are dropped, and so are held acknowledgements — nothing
    /// more is sent, which is what lets the harness use this as a crash
    /// (the peer retransmits and is answered, or not, by whoever comes
    /// back).
    ///
    /// Called from inside the channel's own handler it returns without
    /// waiting: the delivery step it was called from drops the handler
    /// when the handler returns, and the receive thread ends there.
    pub fn close(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.transport.close();
        let peers: Vec<ServiceId> = self.shared.out.lock().keys().copied().collect();
        for p in peers {
            self.forget_peer(p);
        }
        if DELIVERING.get() == Arc::as_ptr(&self.shared) as usize {
            return;
        }
        // The receive thread itself (a turn its transport gives its
        // owner) does not wait for itself: the loop ends when it returns.
        if let Some(handle) = self.rx_thread.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        *self.shared.consumer.lock() = Consumer::Closed;
    }
}

impl Drop for ReliableChannel {
    fn drop(&mut self) {
        // Close without joining: the last handle can be dropped by the
        // channel's own handler, on the receive thread — which ends, and
        // drops the consumer, once it sees the flag.
        if !self.shared.closed.swap(true, Ordering::SeqCst) {
            self.shared.transport.close();
        }
    }
}

impl Shared {
    /// Promotes queued messages into the send window and transmits their
    /// fragments. Callers hold the out-map lock.
    fn pump(&self, now: u64, to: ServiceId, peer: &mut PeerOut, tracer: &Tracer) {
        let max_frag = self
            .transport
            .max_datagram()
            .saturating_sub(FRAME_HEADER_LEN)
            .max(1);
        while peer.inflight.len() < self.config.window {
            let Some((payload, receipt, trace)) = peer.queued.pop_front() else {
                break;
            };
            let seq = peer.next_seq + 1;
            peer.next_seq = seq;
            let frag_count = fragment_count(payload.len(), max_frag);
            tracer.record(trace, Hop::TxSent);
            let msg = OutMessage {
                acked: AckedSet::new(frag_count),
                unacked: frag_count as usize,
                payload,
                max_frag,
                frag_count,
                receipt,
                last_tx: now,
                rto: self.config.initial_rto,
                retries: 0,
                trace,
            };
            self.transmit(to, seq, &msg);
            peer.inflight.push_back((seq, msg));
        }
    }

    /// Puts every unacknowledged fragment of `msg` on the wire, the first
    /// carrying whatever acknowledgement `to` is owed. Each fragment's
    /// bytes are written from the shared payload — an event packet's from
    /// the event's own body — into a frame in this thread's encode
    /// scratch, which the transport reads it from: no owned copy of the
    /// message or the fragment, no buffer for the frame. On the mem link
    /// the fragments reach `to` in one hand-over (a [`Cork`]). Returns
    /// how many fragments went out.
    fn transmit(&self, to: ServiceId, seq: u64, msg: &OutMessage) -> u64 {
        let mut ack = self.take_piggyback(to);
        let mut sent = 0;
        let _cork = Cork::hold();
        let len = msg.payload.len();
        for i in (0..msg.frag_count).filter(|&i| !msg.acked.contains(i as usize)) {
            let fragment = fragment_range(len, msg.max_frag, i);
            with_scratch(|frame| {
                put_data_header(
                    frame,
                    ack.take(),
                    self.epoch,
                    seq,
                    i,
                    msg.frag_count,
                    fragment.len(),
                );
                msg.payload.put_range(fragment, frame);
                let _ = self.transport.send(to, frame);
            });
            sent += 1;
        }
        sent
    }

    /// What the next data frame to `to` carries for the reverse
    /// direction: everything held up to the last in-order delivery. The
    /// held fragments it covers are dropped; fragments of a message still
    /// being reassembled stay for the tick.
    fn take_piggyback(&self, to: ServiceId) -> Option<CumulativeAck> {
        let mut held = self.held.lock();
        let held = held.get_mut(&to)?;
        if held.up_to == 0 {
            return None;
        }
        let ack = CumulativeAck {
            epoch: held.epoch,
            up_to: held.up_to,
        };
        held.frags.retain(|&(seq, _)| seq > ack.up_to);
        held.up_to = 0;
        held.msgs = 0;
        Some(ack)
    }

    /// Acknowledges one fragment at once. The frame is built on the
    /// stack.
    fn send_ack(&self, to: ServiceId, epoch: u64, seq: u64, frag_index: u16) {
        let _ = self
            .transport
            .send(to, &encode_ack_frame(epoch, seq, frag_index));
    }

    /// Sends everything held for `to` as standalone acknowledgements:
    /// one [`Frame::Ack`], or [`Frame::AckBatch`] frames chunked to
    /// respect both the codec's collection cap and the transport
    /// datagram size, each written into this thread's encode scratch.
    fn flush(&self, to: ServiceId, held: &mut HeldAcks) {
        match held.frags[..] {
            [] => {}
            [(seq, frag_index)] => self.send_ack(to, held.epoch, seq, frag_index),
            _ => {
                let per_datagram = self
                    .transport
                    .max_datagram()
                    .saturating_sub(ACK_BATCH_HEADER_LEN)
                    / ACK_ENTRY_LEN;
                let chunk = per_datagram.clamp(1, MAX_COLLECTION_LEN);
                for chunk in held.frags.chunks(chunk) {
                    with_scratch(|frame| {
                        put_ack_batch_frame(frame, held.epoch, chunk);
                        let _ = self.transport.send(to, frame);
                    });
                }
            }
        }
        held.clear();
    }

    /// Sends every held acknowledgement that found no data frame to ride
    /// on — the poll tick of a threaded channel, the start of a step of a
    /// step-driven one.
    fn flush_held(&self) {
        for (&peer, held) in self.held.lock().iter_mut() {
            self.flush(peer, held);
        }
    }

    /// Hands `messages` to the consumer, one at a time, in order. A
    /// consumer that closed the channel gets nothing more and is dropped
    /// here: [`ReliableChannel::close`] could not do it from inside.
    fn deliver(&self, messages: impl Iterator<Item = Incoming>) {
        let mut consumer = self.consumer.lock();
        let _scope = DeliveryScope::enter(self);
        for message in messages {
            match &mut *consumer {
                Consumer::Inbox(inbox) => {
                    let _ = inbox.send(message);
                }
                Consumer::Handler(handler) => handler(message),
                Consumer::Closed => {}
            }
            if self.closed.load(Ordering::SeqCst) {
                *consumer = Consumer::Closed;
            }
        }
    }

    /// Holds the acknowledgement of in-order message `seq` from `to`'s
    /// session `epoch` — with `frag_count` fragment acks, when the
    /// receiver acknowledges whole messages rather than fragments as they
    /// arrive — and sends what is held once half a window of messages is
    /// owed, so a one-way stream is never paced by the poll tick (and a
    /// window of one is acknowledged message by message). The window is
    /// this end's own: both ends are assumed to be configured alike.
    fn hold_ack(&self, to: ServiceId, epoch: u64, seq: u64, frag_count: u16) {
        let mut held = self.held.lock();
        let held = held.entry(to).or_default().for_epoch(epoch);
        held.frags.extend((0..frag_count).map(|i| (seq, i)));
        held.up_to = seq;
        held.msgs += 1;
        if held.msgs >= (self.config.window / 2).max(1) {
            self.flush(to, held);
        }
    }

    /// Journals `from`'s cursor past the run of consumed messages at the
    /// front of its unconsumed list, then acknowledges them. A failed
    /// append acknowledges nothing: the run stays listed, and the next
    /// consumption or duplicate retries it. Called under `peers_in`, so
    /// a checkpoint never reads the cursor without its record.
    fn commit_consumed(&self, from: ServiceId, peer: &mut PeerIn) {
        let run = peer.unconsumed.iter().take_while(|m| m.consumed).count();
        let (Some(journal), Some(last)) = (&self.journal, run.checked_sub(1)) else {
            return;
        };
        if journal
            .on_deliver(from, peer.epoch, peer.unconsumed[last].seq)
            .is_err()
        {
            return;
        }
        for message in peer.unconsumed.drain(..run) {
            self.hold_ack(from, peer.epoch, message.seq, message.frag_count);
        }
    }

    /// Delivers every consecutive complete message starting at
    /// `expected`, beginning with the one that just `arrived` (if any):
    /// when that is the next in sequence — the common case — it is handed
    /// up from the hand and never enters `ready`.
    ///
    /// With a journal attached the message is acknowledged whole, never
    /// before its cursor is recorded: here, before it is handed up — a
    /// journal error leaves it buffered and unacknowledged, so the sender
    /// retransmits and delivery is retried — or, when the journal covers
    /// routing, at [`ReliableChannel::consumed`]: the message joins the
    /// unconsumed list and nothing is journalled or copied now.
    ///
    /// "Handed up" is a push onto `handover`: the caller holds `peers_in`,
    /// and the consumer is called only after it let go
    /// ([`RxWorker::deliver`]).
    fn drain_in_order(
        &self,
        handover: &mut Vec<Incoming>,
        from: ServiceId,
        peer: &mut PeerIn,
        arrived: Option<(u64, MessageBuf, u16)>,
    ) {
        let mut in_hand = None;
        if let Some((seq, msg, frag_count)) = arrived {
            if seq == peer.expected {
                in_hand = Some((msg, frag_count));
            } else {
                peer.ready.insert(seq, (msg, frag_count));
            }
        }
        loop {
            let seq = peer.expected;
            let Some((msg, frag_count)) = in_hand.take().or_else(|| peer.ready.remove(&seq)) else {
                break;
            };
            match &self.journal {
                Some(_) if self.covers_routing => {
                    peer.unconsumed.push_back(Unconsumed {
                        seq,
                        frag_count,
                        consumed: false,
                    });
                }
                Some(journal) => {
                    if journal.on_deliver(from, peer.epoch, seq).is_err() {
                        peer.ready.insert(seq, (msg, frag_count));
                        break;
                    }
                    self.hold_ack(from, peer.epoch, seq, frag_count);
                }
                None => self.hold_ack(from, peer.epoch, seq, 0),
            }
            peer.expected = seq + 1;
            bump(&self.stats.msgs_delivered);
            handover.push(Incoming::Reliable {
                from,
                seq,
                payload: msg,
            });
        }
    }
}

/// The receive/retransmit worker.
#[derive(Debug)]
struct RxWorker {
    shared: Arc<Shared>,
    /// Messages one frame made deliverable, filled under `peers_in` and
    /// emptied by [`RxWorker::deliver`] once it is released. Cleared,
    /// never shrunk: the buffer is reused.
    handover: Vec<Incoming>,
    /// Messages one acknowledgement frame or one expiry pass retires,
    /// reused the same way.
    retired: Retired,
    /// The peers one retransmission pass visits, in order; reused.
    peer_ids: Vec<ServiceId>,
}

/// Outbound messages retired together: journalled with one
/// [`ChannelJournal::on_acked`] call, then resolved. Cleared, never
/// shrunk: a retirement asks nothing of the heap once the buffers have
/// held a window's worth.
#[derive(Debug, Default)]
struct Retired {
    seqs: Vec<u64>,
    msgs: Vec<OutMessage>,
}

impl Retired {
    fn push(&mut self, seq: u64, msg: OutMessage) {
        self.seqs.push(seq);
        self.msgs.push(msg);
    }

    /// Journals the retired messages to `peer` in one call and only then
    /// resolves each one: acknowledged, or abandoned when `expired`.
    fn settle(&mut self, shared: &Shared, peer: ServiceId, tracer: &Tracer, expired: bool) {
        if let Some(journal) = &shared.journal {
            let _ = journal.on_acked(peer, &self.seqs);
        }
        self.seqs.clear();
        let (hop, counter) = if expired {
            (
                Hop::Dropped { reason: "expired" },
                &shared.stats.msgs_expired,
            )
        } else {
            (Hop::RxAcked, &shared.stats.msgs_acked)
        };
        for msg in self.msgs.drain(..) {
            tracer.record(msg.trace, hop);
            // Count before resolving the receipt so a caller woken by
            // `send_blocking` observes the updated stats.
            bump(counter);
            if let Some(tx) = msg.receipt {
                let _ = tx.send(if expired { Err(Error::Timeout) } else { Ok(()) });
            }
        }
    }
}

impl RxWorker {
    /// The receive thread's body. Whichever way the loop ends, the
    /// consumer goes with it: the handler and what it owns are dropped,
    /// `recv` reports the channel closed.
    fn run(mut self) {
        let poll = self.shared.config.poll_interval;
        let mut last_scan = self.shared.clock.now_micros();
        while !self.shared.closed.load(Ordering::SeqCst) {
            match recv_noting_backlog(&*self.shared.transport, Some(poll)) {
                Ok((datagram, backlog)) => self.drain(datagram, backlog),
                Err(Error::Timeout) => {}
                Err(_) => break,
            }
            let now = self.shared.clock.now_micros();
            if Duration::from_micros(now.saturating_sub(last_scan)) >= poll {
                // Retransmissions first: they can carry what is held.
                self.retransmit_due();
                self.shared.flush_held();
                last_scan = now;
            }
        }
        *self.shared.consumer.lock() = Consumer::Closed;
    }

    /// Handles `datagram` and, while its link says more is queued behind
    /// it (`backlog`), the datagrams after it — one window of them at
    /// most, so the tick is never starved — under one [`Cork`]: what the
    /// channel and its consumer send over the mem link meanwhile leaves
    /// when the drain ends, in one hand-over per endpoint, and wakes each
    /// receiving thread once.
    fn drain(&mut self, datagram: Datagram, backlog: bool) {
        let _cork = Cork::hold();
        let mut next = Some((datagram, backlog));
        let mut budget = self.shared.config.window.max(1);
        while let Some((datagram, backlog)) = next.take() {
            self.receive(datagram);
            self.deliver();
            budget -= 1;
            if backlog && budget > 0 {
                next = recv_noting_backlog(&*self.shared.transport, Some(Duration::ZERO)).ok();
            }
        }
    }

    /// The delivery step: hands what the last frame made deliverable to
    /// the channel's consumer, with `peers_in` released.
    fn deliver(&mut self) {
        if !self.handover.is_empty() {
            self.shared.deliver(self.handover.drain(..));
        }
    }

    /// Acts on one received datagram. Its buffer goes back to the link
    /// as it drops, unless it is kept: as an unreliable payload, as a
    /// message that fits it, or as a fragment until its message is whole.
    /// A corrupt datagram is dropped silently.
    fn receive(&mut self, datagram: Datagram) {
        let from = datagram.from;
        let Ok((frame, bytes)) = decode_datagram(&datagram.payload) else {
            return;
        };
        // Where the payload starts: nothing follows it.
        let at = datagram.payload.len() - bytes.len();
        match frame {
            Frame::Unreliable { .. } => {
                bump(&self.shared.stats.unreliable_received);
                self.handover.push(Incoming::Unreliable {
                    from,
                    broadcast: datagram.broadcast,
                    payload: datagram.into_tail(at),
                });
            }
            Frame::Ack {
                epoch,
                seq,
                frag_index,
            } => {
                self.handle_acks(from, epoch, 0, [(seq, frag_index)]);
            }
            Frame::AckBatch { epoch, .. } => {
                self.handle_acks(from, epoch, 0, ack_entries(bytes));
            }
            Frame::Data {
                epoch,
                seq,
                frag_index,
                frag_count,
                ack,
                ..
            } => {
                // The ack first: it may open the window this data's
                // reply needs.
                if let Some(ack) = ack {
                    self.handle_acks(from, ack.epoch, ack.up_to, []);
                }
                let fragment = Fragment {
                    index: frag_index,
                    at,
                    datagram,
                };
                self.handle_data(from, epoch, seq, frag_count, fragment);
            }
        }
    }

    /// Applies acknowledgements from `from` under a single out-lock
    /// acquisition: every in-flight message numbered `up_to` or below
    /// (the cumulative form a data frame carries; 0 = none), then a run
    /// of `(seq, frag_index)` pairs ([`Frame::Ack`] is one pair,
    /// [`Frame::AckBatch`] the coalesced form). Acknowledgements echoing
    /// any epoch but this session's are ignored. What they complete is
    /// retired in one journal call.
    fn handle_acks(
        &mut self,
        from: ServiceId,
        epoch: u64,
        up_to: u64,
        acks: impl IntoIterator<Item = (u64, u16)>,
    ) {
        let shared = &*self.shared;
        if epoch != shared.epoch {
            return;
        }
        let retired = &mut self.retired;
        let mut out = shared.out.lock();
        let Some(peer) = out.get_mut(&from) else {
            return;
        };
        while peer.inflight.front().is_some_and(|&(seq, _)| seq <= up_to) {
            let (seq, msg) = peer.inflight.pop_front().expect("the front is there");
            retired.push(seq, msg);
        }
        for (seq, frag_index) in acks {
            let Some(at) = peer.find(seq) else {
                continue;
            };
            let msg = &mut peer.inflight[at].1;
            if frag_index < msg.frag_count && msg.acked.insert(frag_index as usize) {
                msg.unacked -= 1;
                if msg.unacked == 0 {
                    let (seq, msg) = peer.inflight.remove(at).expect("completed message exists");
                    retired.push(seq, msg);
                }
            }
        }
        if retired.seqs.is_empty() {
            return;
        }
        let tracer = shared.tracer.load();
        retired.settle(shared, from, &tracer, false);
        // Window slots freed: promote queued messages, once for the
        // whole batch.
        let now = shared.clock.now_micros();
        shared.pump(now, from, peer, &tracer);
    }

    /// Files one data fragment; one the channel does not keep goes back
    /// to the link as it drops.
    fn handle_data(
        &mut self,
        from: ServiceId,
        epoch: u64,
        seq: u64,
        frag_count: u16,
        fragment: Fragment,
    ) {
        let frag_index = fragment.index;
        // Journalled receivers acknowledge nothing until the cursor past
        // the message is durably recorded; without a journal a fragment is acknowledged
        // as it is accepted. Either way the acknowledgement of in-order
        // data is held for a data frame to carry; only with dedup
        // disabled does the original ack-everything-on-arrival behaviour
        // apply unchanged.
        let journaled = self.shared.journal.is_some() && self.shared.config.dedup;
        let mut peers_in = self.shared.peers_in.lock();
        let peer = peers_in.entry(from).or_default();
        if epoch < peer.epoch {
            // Stray frame from a dead session: ignore entirely.
            return;
        }
        if epoch > peer.epoch {
            // The peer restarted: adopt the new session.
            //
            // A journalled receiver picks where to start carefully: a
            // genuinely fresh sender session numbers from 1 and can have
            // at most `window` messages outstanding, so a first-seen
            // sequence number beyond the window can only mean the sender
            // was already mid-stream and *our* cursor is gone (recovery
            // without a usable log). Adopting at the observed point
            // avoids re-buffering the peer's whole history; anything the
            // crashed process already delivered that resurfaces at or
            // above it is what the delivery oracle flags as a duplicate.
            let expected = if journaled && seq > self.shared.config.window as u64 {
                seq
            } else {
                1
            };
            *peer = PeerIn {
                epoch,
                expected,
                ..PeerIn::default()
            };
        }
        // Capacity check FIRST: a fragment we cannot buffer must be
        // dropped *without* acknowledging it, or the sender would mark it
        // delivered and never retransmit — wedging the FIFO stream
        // forever once the gap in front of it closes. (Reachable because
        // buffered-but-undelivered messages are acked, so the sender's
        // window keeps sliding past `expected` while a retransmission is
        // pending.)
        if seq >= peer.expected
            && !peer.ready.contains_key(&seq)
            && (seq - peer.expected) as usize > self.shared.config.reorder_buffer
        {
            return;
        }

        if !self.shared.config.dedup {
            // Intentionally-broken mode for oracle validation: ack on
            // arrival and hand every fragment batch up as soon as it
            // completes, with no duplicate suppression and no reordering.
            // Retransmitted messages get delivered again; gaps are not
            // waited for.
            self.shared.send_ack(from, epoch, seq, frag_index);
            if let Reassembly::Whole(payload) = peer.reassemble(seq, frag_count, fragment) {
                bump(&self.shared.stats.msgs_delivered);
                self.handover
                    .push(Incoming::Reliable { from, seq, payload });
            }
            return;
        }

        // A duplicate is re-acknowledged at once: its original ack may
        // have been lost, and the sender is already retransmitting.
        if seq < peer.expected || peer.ready.contains_key(&seq) {
            bump(&self.shared.stats.duplicates_suppressed);
            if !journaled || seq < peer.acked_below() {
                // (Journalled: its cursor is already recorded.)
                self.shared.send_ack(from, epoch, seq, frag_index);
            } else if seq < peer.expected {
                // Delivered, its cursor not yet recorded: retry the append
                // in case it failed at consumption.
                self.shared.commit_consumed(from, peer);
            } else {
                // Buffered but not yet journalled: don't ack, but retry
                // the drain in case it stalled on a journal error earlier.
                self.shared
                    .drain_in_order(&mut self.handover, from, peer, None);
            }
            return;
        }
        let in_order = seq == peer.expected;
        let reassembly = peer.reassemble(seq, frag_count, fragment);
        if !journaled {
            if in_order && !matches!(reassembly, Reassembly::Duplicate) {
                let mut held = self.shared.held.lock();
                let held = held.entry(from).or_default().for_epoch(epoch);
                held.frags.push((seq, frag_index));
            } else {
                // New data ahead of a gap is acknowledged at once too:
                // the sender should learn which of its window arrived.
                // Only the next message in sequence waits for a ride.
                self.shared.send_ack(from, epoch, seq, frag_index);
            }
        }
        match reassembly {
            Reassembly::Pending => {}
            Reassembly::Duplicate => bump(&self.shared.stats.duplicates_suppressed),
            // Deliver everything now in order.
            Reassembly::Whole(msg) => {
                let arrived = Some((seq, msg, frag_count));
                self.shared
                    .drain_in_order(&mut self.handover, from, peer, arrived);
            }
        }
    }

    fn retransmit_due(&mut self) {
        let shared = &*self.shared;
        let mut out = shared.out.lock();
        // An idle channel — the common case on every tick — has nothing
        // to resend or promote.
        if out
            .values()
            .all(|peer| peer.inflight.is_empty() && peer.queued.is_empty())
        {
            return;
        }
        let now = shared.clock.now_micros();
        let config = &shared.config;
        let tracer = shared.tracer.load();
        // Sorted peer order: every (re)transmission consumes draws from
        // the simulated network's seeded rng, so iteration order must not
        // depend on hash-map layout for runs to be reproducible.
        let peer_ids = &mut self.peer_ids;
        peer_ids.clear();
        peer_ids.extend(out.keys().copied());
        peer_ids.sort_unstable();
        let retired = &mut self.retired;
        for &peer_id in peer_ids.iter() {
            let peer = out.get_mut(&peer_id).expect("peer present");
            for (seq, msg) in peer.inflight.iter_mut() {
                if msg.unacked == 0
                    || Duration::from_micros(now.saturating_sub(msg.last_tx)) < msg.rto
                {
                    continue;
                }
                if let Some(max) = config.max_retries {
                    if msg.retries >= max {
                        retired.seqs.push(*seq);
                        continue;
                    }
                }
                msg.retries += 1;
                msg.last_tx = now;
                msg.rto = (msg.rto * BACKOFF).min(config.max_rto);
                // One hop per retransmission round, not per fragment.
                tracer.record(msg.trace, Hop::TxRetransmit);
                let resent = shared.transmit(peer_id, *seq, msg);
                shared
                    .stats
                    .retransmits
                    .fetch_add(resent, Ordering::Relaxed);
            }
            if !retired.seqs.is_empty() {
                for &seq in &retired.seqs {
                    let at = peer.find(seq).expect("expired message exists");
                    let (_, msg) = peer.inflight.remove(at).expect("expired message exists");
                    retired.msgs.push(msg);
                }
                // An abandoned message will never be acked; stop
                // retaining it. (If the journal entry outlives us anyway,
                // recovery resends it once and the receiver's cursor
                // decides — at-least-once is the worst case here, and
                // only for explicitly bounded-retry senders.)
                retired.settle(shared, peer_id, &tracer, true);
            }
            shared.pump(now, peer_id, peer, &tracer);
        }
    }
}
