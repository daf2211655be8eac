//! The durability layer of the SMC core: an append-only, checksummed,
//! segment-based write-ahead log plus a periodic snapshot.
//!
//! The paper's delivery guarantees (§II-C: exactly-once, per-sender
//! FIFO, queue-until-acked) are promises about *state* — receive
//! cursors, outbound proxy queues, subscriptions, membership. While that
//! state lives only in memory, the guarantees end at the first core
//! crash. This crate makes the state outlive the process:
//!
//! * [`Wal`] frames [`WalRecord`]s as `[len][crc32][payload]` into
//!   numbered segments behind a [`WalBackend`], optionally fsyncing each
//!   append, and compacts them with [`CoreSnapshot`]s;
//! * [`Wal::open`] recovers: decode the latest snapshot, replay every
//!   segment in order, skip checksum-corrupt records, stop at a torn
//!   tail — never panicking on damaged storage;
//! * [`WalChannelJournal`] adapts a [`Wal`] to the transport layer's
//!   [`ChannelJournal`] hooks, so a `ReliableChannel` journals cursors
//!   and outbound queues as it runs;
//! * [`Wal::membership_digest`] tells an anti-entropy pass, without a
//!   read of the log, which members the log folds to;
//! * backends: [`FileBackend`] (real files, `fsync`), [`MemBackend`]
//!   (deterministic, with injectable torn-tail / corrupt-record / fsync
//!   faults for the virtual-time harness), and [`NoopBackend`] (retains
//!   nothing — exists so tests can prove the oracle catches a core that
//!   recovers without a log).
//!
//! Crash-consistency argument, in one paragraph: a receiver journals
//! its cursor past a message (`RxCursor`) *before* it acknowledges any
//! of the message's fragments — on the bus channel, whose journal covers
//! routing, only once the application consumed the message, after the
//! `OutEnqueue` records its routing appended; on the discovery channel
//! at delivery — and the channel journals an outbound enqueue *before*
//! the message can reach the wire. So at every crash point, anything a
//! peer saw acknowledged is behind a journalled cursor, routed in the
//! log when it was an event (exactly-once delivery into the core holds
//! on replay); a message the crash caught before its cursor record was
//! never acknowledged, and its sender resends it; and anything accepted
//! for sending is either in the log or was never sent (queue-until-acked
//! holds). Checkpoints use [`Wal::snapshot_with`]: the active segment is
//! rotated *first* to pin a boundary, the state is captured after, and
//! only pre-boundary segments are removed — a record racing the
//! checkpoint either made it into the captured state or survives in a
//! retained segment, and replaying it on top is safe because every
//! [`CoreSnapshot::apply`] fold is idempotent. A fold
//! ([`Wal::recover_state`]) and a checkpoint exclude each other, so a
//! fold never reads one snapshot and the segment list of the next.
//! Trimming records (`OutAck`, `OutForget`) may be lost with the tail —
//! recovery then resends an already-delivered message. The `OutAck`s of
//! one acknowledgement frame are one batch ([`WalChannelJournal`]): one
//! write and one fsync, which a crash can tear only into a prefix of
//! whole records — the same state as a crash between two appends — and
//! no receipt of those messages resolves before the batch's append has
//! returned. A crash between
//! an event's `OutEnqueue` and its cursor record routes the event again
//! when its sender resends it: both are the documented at-least-once
//! downlink window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use smc_transport::ChannelJournal;
use smc_types::codec::{from_bytes, to_bytes, with_scratch, BytesMut, Encode};
use smc_types::{CoreSnapshot, Error, Result, ServiceId, SharedBytes, WalRecord};

/// Channel discriminator for the bus/device channel's journal records.
pub const CHAN_BUS: u8 = 0;
/// Channel discriminator for the discovery channel's journal records.
pub const CHAN_DISCOVERY: u8 = 1;
/// Channel discriminator for the peer-supervision channel's journal
/// records — heartbeat-leases, claims and remote repair commands get
/// the same durable exactly-once treatment as application traffic.
pub const CHAN_SUPERVISION: u8 = 2;
/// Channel discriminator for the telemetry-plane channel's journal
/// records — metric deltas, trace exports and SLO reports survive
/// partitions as a durable backlog that drains after heal, so the
/// observer's ward view converges instead of losing history.
pub const CHAN_TELEMETRY: u8 = 3;

/// Upper bound on one framed record's payload — far above any event the
/// bus carries, low enough that a torn length prefix is recognised
/// instead of driving a huge read.
pub const MAX_RECORD_LEN: usize = 1024 * 1024;

const RECORD_HEADER_LEN: usize = 8;

// --- crc32 -----------------------------------------------------------------

/// The slicing-by-8 tables: `t[0]` is the byte-at-a-time table, and
/// `t[k][b]` is byte `b`'s CRC followed by `k` zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3, as used by gzip/zlib) of `data`: eight bytes a
/// step, the tail a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let v = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ u64::from(c);
        let byte = |i: u32| (v >> (8 * i)) as u8 as usize;
        c = t[7][byte(0)]
            ^ t[6][byte(1)]
            ^ t[5][byte(2)]
            ^ t[4][byte(3)]
            ^ t[3][byte(4)]
            ^ t[2][byte(5)]
            ^ t[1][byte(6)]
            ^ t[0][byte(7)];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- backend trait ---------------------------------------------------------

/// Storage abstraction under the [`Wal`]: numbered append-only segments
/// plus one atomically-replaced snapshot blob.
///
/// Implementations decide what "durable" means — real files with `fsync`
/// ([`FileBackend`]), deterministic memory with injectable faults
/// ([`MemBackend`]), or nothing at all ([`NoopBackend`]).
pub trait WalBackend: Send + Sync + std::fmt::Debug {
    /// Ids of all existing segments, ascending.
    ///
    /// # Errors
    ///
    /// I/O failure listing the storage.
    fn segments(&self) -> Result<Vec<u64>>;
    /// Full contents of segment `id`.
    ///
    /// # Errors
    ///
    /// I/O failure or unknown segment.
    fn read_segment(&self, id: u64) -> Result<Vec<u8>>;
    /// Creates empty segment `id` (idempotent).
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn create_segment(&self, id: u64) -> Result<()>;
    /// Appends `data` to segment `id`.
    ///
    /// # Errors
    ///
    /// I/O failure or unknown segment.
    fn append(&self, id: u64, data: &[u8]) -> Result<()>;
    /// Makes segment `id`'s appended data durable (fsync).
    ///
    /// # Errors
    ///
    /// I/O failure — the caller treats the appended data as *not*
    /// durable and propagates the error.
    fn sync(&self, id: u64) -> Result<()>;
    /// Deletes segment `id` (idempotent).
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn remove_segment(&self, id: u64) -> Result<()>;
    /// The current snapshot blob, if one was ever written.
    ///
    /// # Errors
    ///
    /// I/O failure (a missing snapshot is `Ok(None)`).
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>>;
    /// Atomically replaces the snapshot blob.
    ///
    /// # Errors
    ///
    /// I/O failure; on error the previous snapshot must survive.
    fn write_snapshot(&self, data: &[u8]) -> Result<()>;
    /// Whether what is written can be read back — `false` only for
    /// [`NoopBackend`], whose log can vouch for no digest.
    fn retains(&self) -> bool {
        true
    }
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

// --- file backend ----------------------------------------------------------

/// A [`WalBackend`] over real files in one directory: `seg-NNNNNNNN.wal`
/// segments and a `snapshot.bin` blob replaced via write-to-temp+rename.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) the WAL directory at `dir`.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create wal dir", e))?;
        Ok(FileBackend { dir })
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:08}.wal"))
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    /// Fsyncs the WAL directory itself. Creating, removing or renaming a
    /// file only becomes durable once its *directory entry* is synced —
    /// without this, a power cut can surface the old directory state
    /// (e.g. segment deletions persisted but the snapshot rename not),
    /// losing durable state wholesale.
    fn sync_dir(&self) -> Result<()> {
        #[cfg(unix)]
        {
            let dir = fs::File::open(&self.dir).map_err(|e| io_err("open wal dir", e))?;
            dir.sync_all().map_err(|e| io_err("fsync wal dir", e))?;
        }
        Ok(())
    }
}

impl WalBackend for FileBackend {
    fn segments(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("list wal dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list wal dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
            {
                if let Ok(id) = id.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read_segment(&self, id: u64) -> Result<Vec<u8>> {
        fs::read(self.segment_path(id)).map_err(|e| io_err("read segment", e))
    }

    fn create_segment(&self, id: u64) -> Result<()> {
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.segment_path(id))
            .map(|_| ())
            .map_err(|e| io_err("create segment", e))?;
        self.sync_dir()
    }

    fn append(&self, id: u64, data: &[u8]) -> Result<()> {
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(self.segment_path(id))
            .map_err(|e| io_err("open segment", e))?;
        file.write_all(data)
            .map_err(|e| io_err("append segment", e))
    }

    fn sync(&self, id: u64) -> Result<()> {
        let file = fs::File::open(self.segment_path(id)).map_err(|e| io_err("open segment", e))?;
        file.sync_data().map_err(|e| io_err("fsync segment", e))
    }

    fn remove_segment(&self, id: u64) -> Result<()> {
        match fs::remove_file(self.segment_path(id)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove segment", e)),
        }
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        match fs::read(self.snapshot_path()) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read snapshot", e)),
        }
    }

    fn write_snapshot(&self, data: &[u8]) -> Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create snapshot", e))?;
            file.write_all(data)
                .map_err(|e| io_err("write snapshot", e))?;
            file.sync_data().map_err(|e| io_err("fsync snapshot", e))?;
        }
        fs::rename(&tmp, self.snapshot_path()).map_err(|e| io_err("rename snapshot", e))?;
        self.sync_dir()
    }
}

// --- memory backend --------------------------------------------------------

#[derive(Debug, Default)]
struct MemState {
    segments: BTreeMap<u64, Vec<u8>>,
    snapshot: Option<Vec<u8>>,
    /// `Some(n)`: the next `n` fsyncs succeed, every one after fails.
    fsyncs_until_failure: Option<u64>,
}

/// A deterministic in-memory [`WalBackend`] with injectable faults.
///
/// Cloning shares the underlying storage, so a harness can keep a handle
/// across a simulated crash and hand a clone to the recovering core —
/// exactly how a real process would find its files again.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Injects a torn tail write into the newest segment: a record
    /// header claiming more bytes than follow — what a power cut
    /// mid-`write` leaves behind.
    pub fn inject_torn_tail(&self) {
        let mut state = self.state.lock();
        if let Some(data) = state.segments.values_mut().next_back() {
            data.extend_from_slice(&1000u32.to_le_bytes());
            data.extend_from_slice(&0u32.to_le_bytes());
            data.extend_from_slice(&[0xEE; 10]);
        }
    }

    /// Flips one byte inside the payload of the last complete record of
    /// the newest non-empty segment, leaving its stored checksum stale.
    pub fn corrupt_tail_record(&self) {
        let mut state = self.state.lock();
        if let Some(data) = state.segments.values_mut().rev().find(|d| !d.is_empty()) {
            // Walk the frames to find the last record's payload offset.
            let mut pos = 0usize;
            let mut last_payload = None;
            while data.len() - pos >= RECORD_HEADER_LEN {
                let len =
                    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                if len > MAX_RECORD_LEN || pos + RECORD_HEADER_LEN + len > data.len() {
                    break;
                }
                last_payload = Some(pos + RECORD_HEADER_LEN);
                pos += RECORD_HEADER_LEN + len;
            }
            if let Some(offset) = last_payload {
                data[offset] ^= 0xFF;
            }
        }
    }

    /// Makes every fsync after the next `n` fail with an I/O error.
    pub fn fail_fsync_after(&self, n: u64) {
        self.state.lock().fsyncs_until_failure = Some(n);
    }

    /// Clears an injected fsync fault.
    pub fn heal_fsync(&self) {
        self.state.lock().fsyncs_until_failure = None;
    }
}

impl WalBackend for MemBackend {
    fn segments(&self) -> Result<Vec<u64>> {
        Ok(self.state.lock().segments.keys().copied().collect())
    }

    fn read_segment(&self, id: u64) -> Result<Vec<u8>> {
        self.state
            .lock()
            .segments
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("wal segment {id}")))
    }

    fn create_segment(&self, id: u64) -> Result<()> {
        self.state.lock().segments.entry(id).or_default();
        Ok(())
    }

    fn append(&self, id: u64, data: &[u8]) -> Result<()> {
        let mut state = self.state.lock();
        match state.segments.get_mut(&id) {
            Some(segment) => {
                segment.extend_from_slice(data);
                Ok(())
            }
            None => Err(Error::NotFound(format!("wal segment {id}"))),
        }
    }

    fn sync(&self, _id: u64) -> Result<()> {
        let mut state = self.state.lock();
        match &mut state.fsyncs_until_failure {
            Some(0) => Err(Error::Io("injected fsync failure".into())),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    fn remove_segment(&self, id: u64) -> Result<()> {
        self.state.lock().segments.remove(&id);
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        Ok(self.state.lock().snapshot.clone())
    }

    fn write_snapshot(&self, data: &[u8]) -> Result<()> {
        self.state.lock().snapshot = Some(data.to_vec());
        Ok(())
    }
}

// --- noop backend ----------------------------------------------------------

/// A [`WalBackend`] that retains nothing.
///
/// Recovery from it always finds an empty log — the "durability layer
/// disabled" configuration the acceptance tests use to prove the chaos
/// oracle actually detects a core that forgets its delivery state.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopBackend;

impl WalBackend for NoopBackend {
    fn segments(&self) -> Result<Vec<u64>> {
        Ok(Vec::new())
    }

    fn read_segment(&self, _id: u64) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn create_segment(&self, _id: u64) -> Result<()> {
        Ok(())
    }

    fn append(&self, _id: u64, _data: &[u8]) -> Result<()> {
        Ok(())
    }

    fn sync(&self, _id: u64) -> Result<()> {
        Ok(())
    }

    fn remove_segment(&self, _id: u64) -> Result<()> {
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        Ok(None)
    }

    fn write_snapshot(&self, _data: &[u8]) -> Result<()> {
        Ok(())
    }

    fn retains(&self) -> bool {
        false
    }
}

// --- the membership digest -------------------------------------------------

/// An order-independent digest of a set of keys: the wrapping sum of a
/// SplitMix64 hash of each key, so that a removal (adding the negated
/// hash) cancels its add, and two sets that differ digest apart but for a
/// 2^-64 collision.
pub fn digest(keys: impl IntoIterator<Item = u64>) -> u64 {
    keys.into_iter().map(mix).fold(0, u64::wrapping_add)
}

/// One key's share of a [`digest`]: SplitMix64's finaliser, offset so that
/// key 0 does not hash to 0.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// --- the log engine --------------------------------------------------------

/// Tuning knobs for the [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one exceeds this size.
    pub segment_max_bytes: usize,
    /// Fsync after every append (the durable default). Disabling trades
    /// the crash-consistency guarantee for throughput.
    pub sync_each_append: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 256 * 1024,
            sync_each_append: true,
        }
    }
}

/// What [`Wal::open`] rebuilt from storage.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The state to resume from: latest snapshot plus every replayed
    /// record folded in.
    pub snapshot: CoreSnapshot,
    /// Log records successfully replayed.
    pub replayed: u64,
    /// Records dropped for checksum or decode failures (including an
    /// undecodable snapshot blob).
    pub skipped: u64,
    /// Whether a torn tail ended a segment early.
    pub truncated: bool,
    /// Wall-clock duration of recovery, in microseconds. Reporting only
    /// — never feed it into a deterministic trace.
    pub recovery_micros: u64,
}

smc_telemetry::metric_set! {
    /// [`WalMetrics`] as the log counts them.
    struct WalCounters {
        /// Records appended to the write-ahead log.
        counter records_appended: "smc_wal_records_appended_total",
        /// Framed bytes appended to the write-ahead log.
        counter bytes_appended: "smc_wal_bytes_appended_total",
        /// Fsyncs performed by the write-ahead log.
        counter fsyncs: "smc_wal_fsyncs_total",
        /// Snapshots written by the write-ahead log.
        counter snapshots: "smc_wal_snapshots_total",
    }
    /// Counters describing a [`Wal`]'s activity since open.
    pub struct WalMetrics {}
}

#[derive(Debug)]
struct WalInner {
    active: u64,
    active_bytes: usize,
}

/// The result of folding a backend's snapshot and segments into one
/// [`CoreSnapshot`] — shared between [`Wal::open`] (which then starts a
/// fresh active segment) and [`Wal::recover_state`] (a pure read).
struct BackendFold {
    snapshot: CoreSnapshot,
    replayed: u64,
    skipped: u64,
    truncated: bool,
    last_segment: Option<u64>,
}

fn fold_backend(backend: &dyn WalBackend) -> Result<BackendFold> {
    let mut snapshot = CoreSnapshot::default();
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    let mut truncated = false;

    if let Some(blob) = backend.read_snapshot()? {
        match decode_snapshot(&blob) {
            Some(snap) => snapshot = snap,
            None => skipped += 1,
        }
    }

    let segment_ids = backend.segments()?;
    for &id in &segment_ids {
        let data = backend.read_segment(id)?;
        let mut pos = 0usize;
        while data.len() - pos >= RECORD_HEADER_LEN {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if len > MAX_RECORD_LEN || pos + RECORD_HEADER_LEN + len > data.len() {
                // Torn tail: the header (or payload) never finished
                // hitting storage. Nothing after it in this segment
                // is trustworthy.
                truncated = true;
                break;
            }
            let payload = &data[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
            pos += RECORD_HEADER_LEN + len;
            if crc32(payload) != crc {
                skipped += 1;
                continue;
            }
            match from_bytes::<WalRecord>(payload) {
                Ok(record) => {
                    snapshot.apply(&record);
                    replayed += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        if data.len() > pos {
            // Trailing sub-header bytes are also a torn tail.
            truncated = true;
        }
    }

    Ok(BackendFold {
        snapshot,
        replayed,
        skipped,
        truncated,
        last_segment: segment_ids.last().copied(),
    })
}

/// The write-ahead log: checksummed record framing and snapshot
/// compaction over a [`WalBackend`].
#[derive(Debug)]
pub struct Wal {
    backend: Arc<dyn WalBackend>,
    config: WalConfig,
    inner: Mutex<WalInner>,
    /// The digest of the folded membership ([`Wal::membership_digest`]).
    /// Its lock keeps a fold, a compaction and a membership append apart.
    membership: Mutex<Option<u64>>,
    counters: WalCounters,
}

impl Wal {
    /// Opens the log, running recovery: decodes the latest snapshot,
    /// replays every segment in id order (skipping corrupt records,
    /// stopping a segment at a torn tail), then starts a fresh active
    /// segment so damaged tails are never appended to.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures. Damaged *contents* (bad
    /// checksums, torn tails, undecodable snapshots) are not errors —
    /// they are tallied in [`Recovered`] and recovery continues.
    pub fn open(backend: Arc<dyn WalBackend>, config: WalConfig) -> Result<(Wal, Recovered)> {
        let started = Instant::now();
        let fold = fold_backend(backend.as_ref())?;

        // Always start a new active segment: a damaged tail stays frozen
        // in its old segment instead of being appended past.
        let active = fold.last_segment.map_or(1, |last| last + 1);
        backend.create_segment(active)?;

        let wal = Wal {
            membership: Mutex::new(vouch(backend.as_ref(), &fold.snapshot)),
            backend,
            config,
            inner: Mutex::new(WalInner {
                active,
                active_bytes: 0,
            }),
            counters: WalCounters::default(),
        };
        let recovered = Recovered {
            snapshot: fold.snapshot,
            replayed: fold.replayed,
            skipped: fold.skipped,
            truncated: fold.truncated,
            recovery_micros: started.elapsed().as_micros() as u64,
        };
        Ok((wal, recovered))
    }

    /// Re-reads durable state without disturbing the log: the latest
    /// snapshot plus every decodable record folded in, exactly as
    /// [`Wal::open`] would compute it, but with no new segment created
    /// and no mutation of the active one. This is the source of truth
    /// for anti-entropy reconciliation and component restarts — callers
    /// diff live state against it and repair divergence.
    ///
    /// No compaction runs during the fold: it reads a snapshot and the
    /// segments that snapshot did not cover, never a newer snapshot's
    /// segment list. The fold also resets [`Wal::membership_digest`].
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures; damaged contents are skipped,
    /// as during open.
    pub fn recover_state(&self) -> Result<CoreSnapshot> {
        let mut membership = self.membership.lock();
        let snapshot = fold_backend(self.backend.as_ref())?.snapshot;
        *membership = vouch(self.backend.as_ref(), &snapshot);
        Ok(snapshot)
    }

    /// The order-independent digest of the member ids the log folds to,
    /// kept at each `MemberJoined` / `MemberPurged` append and reset by
    /// every fold and compaction — so a caller can tell that its views
    /// agree with the log without reading it. `None` when the log cannot
    /// vouch for it: a membership append failed (it may or may not have
    /// landed), or the backend retains nothing.
    ///
    /// Between two folds it is exact for a log whose membership records
    /// each change the folded set; a second join of a member (or a purge
    /// of a non-member) moves it off the fold until the next fold.
    pub fn membership_digest(&self) -> Option<u64> {
        *self.membership.lock()
    }

    /// Appends one record, rotating segments as configured and fsyncing
    /// if `sync_each_append` is set.
    ///
    /// # Errors
    ///
    /// Backend append/fsync failures — on error the record must be
    /// treated as *not* durable (the channel layer then refuses to ack
    /// the state transition it describes).
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        let hash = match record {
            WalRecord::MemberJoined { info } => mix(info.id.raw()),
            WalRecord::MemberPurged { member } => mix(member.raw()).wrapping_neg(),
            _ => return self.append_with(|buf| record.encode(buf)),
        };
        let mut membership = self.membership.lock();
        let appended = self.append_with(|buf| record.encode(buf));
        *membership = membership
            .filter(|_| appended.is_ok())
            .map(|d| d.wrapping_add(hash));
        appended
    }

    /// [`Wal::append`] for a record the caller writes itself — `encode`
    /// must append exactly one [`WalRecord`] encoding to the buffer it is
    /// given (e.g. [`WalRecord::put_out_enqueue`], from a payload the
    /// caller only lends). The record is framed where it is encoded, in
    /// the thread's encode scratch, and the backend reads it from there.
    ///
    /// # Errors
    ///
    /// As for [`Wal::append`].
    pub fn append_with(&self, encode: impl FnOnce(&mut BytesMut)) -> Result<()> {
        self.append_batch(std::iter::once(encode), |encode, buf| encode(buf))
    }

    /// Appends one record per item, framed back to back in the thread's
    /// encode scratch, with one backend append and (if `sync_each_append`
    /// is set) one fsync for all of them. `encode` must append exactly one
    /// [`WalRecord`] encoding per item. An empty batch writes nothing.
    ///
    /// The batch is one write: a crash mid-write leaves a prefix of whole
    /// records and a torn tail, which recovery reads as a crash between
    /// two appends. A record past the tear is lost with the ones after it,
    /// so a batch suits records the log may lose together (trimming
    /// records — [`WalChannelJournal`] batches `OutAck`s this way).
    ///
    /// # Errors
    ///
    /// As for [`Wal::append`], for the batch as a whole: on error none of
    /// its records may be treated as durable. A record over
    /// [`MAX_RECORD_LEN`] fails the batch before anything is written.
    fn append_batch<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        mut encode: impl FnMut(T, &mut BytesMut),
    ) -> Result<()> {
        with_scratch(|framed| {
            let mut records = 0;
            for item in items {
                let start = framed.len();
                // Room for the header; filled in once the payload is there.
                framed.extend_from_slice(&[0; RECORD_HEADER_LEN]);
                encode(item, framed);
                let (header, payload) = framed[start..].split_at_mut(RECORD_HEADER_LEN);
                if payload.len() > MAX_RECORD_LEN {
                    return Err(Error::Invalid(format!(
                        "wal record of {} bytes",
                        payload.len()
                    )));
                }
                header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
                header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
                records += 1;
            }
            if records == 0 {
                return Ok(());
            }
            self.append_framed(framed, records)
        })
    }

    fn append_framed(&self, framed: &[u8], records: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.active_bytes > 0
            && inner.active_bytes + framed.len() > self.config.segment_max_bytes
        {
            let next = inner.active + 1;
            self.backend.create_segment(next)?;
            inner.active = next;
            inner.active_bytes = 0;
        }
        self.backend.append(inner.active, framed)?;
        inner.active_bytes += framed.len();
        let counters = &self.counters;
        counters
            .records_appended
            .fetch_add(records, Ordering::Relaxed);
        counters
            .bytes_appended
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        if self.config.sync_each_append {
            self.backend.sync(inner.active)?;
            counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes the snapshot produced by `capture` and compacts the log,
    /// correctly even while other threads keep appending.
    ///
    /// The race this guards against: naively capturing state and then
    /// deleting "all old segments" loses any record journalled between
    /// the capture and the deletion — it is in neither the snapshot nor
    /// the surviving log. Instead the active segment is rotated *first*,
    /// pinning a boundary: every record appended before the rotation
    /// sits in a segment below the boundary, and — because callers
    /// journal and advance the state the capture reads under one lock —
    /// its effect is visible to `capture`, which runs after. Only
    /// pre-boundary segments are removed, so a record that raced the
    /// capture survives in a retained segment; replaying it on top of
    /// the snapshot is safe because [`CoreSnapshot::apply`] is
    /// idempotent.
    ///
    /// `capture` runs *without* the append lock held (holding it would
    /// deadlock with journalling threads that hold channel locks across
    /// their appends) and should read the channel/bus state directly.
    /// It must not append a membership record: the whole call excludes
    /// folds ([`Wal::recover_state`]) and membership appends, so no
    /// membership record lands past the boundary and the captured
    /// members are what the log folds to afterwards.
    ///
    /// # Errors
    ///
    /// Backend I/O failures, or the error `capture` returns; on failure
    /// the previous snapshot and all segments remain current (the
    /// rotation may already have happened, which is harmless).
    pub fn snapshot_with<F>(&self, capture: F) -> Result<()>
    where
        F: FnOnce() -> Result<CoreSnapshot>,
    {
        let mut membership = self.membership.lock();
        let boundary = {
            let mut inner = self.inner.lock();
            let next = inner.active + 1;
            self.backend.create_segment(next)?;
            inner.active = next;
            inner.active_bytes = 0;
            next
        };
        let snapshot = capture()?;
        let payload = to_bytes(&snapshot);
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.backend.write_snapshot(&framed)?;
        // Old segments replay a suffix of what the snapshot holds, so a
        // removal that fails does not change what the members fold to.
        *membership = vouch(self.backend.as_ref(), &snapshot);
        for id in self.backend.segments()? {
            if id < boundary {
                self.backend.remove_segment(id)?;
            }
        }
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A snapshot of the log's activity counters.
    pub fn metrics(&self) -> WalMetrics {
        self.counters.snapshot()
    }

    /// Exports this log's counters into `registry` as `smc_wal_*` series,
    /// sampled at render time.
    pub fn register_with(self: &Arc<Self>, registry: &smc_telemetry::Registry) {
        registry.register_weak(self, |wal, out| wal.metrics().samples(&[], out));
    }
}

/// The membership digest of `snap`, if `backend` keeps what it is given.
fn vouch(backend: &dyn WalBackend, snap: &CoreSnapshot) -> Option<u64> {
    let ids = snap.members.iter().map(|m| m.id.raw());
    backend.retains().then(|| digest(ids))
}

fn decode_snapshot(blob: &[u8]) -> Option<CoreSnapshot> {
    if blob.len() < 4 {
        return None;
    }
    let crc = u32::from_le_bytes(blob[..4].try_into().expect("4 bytes"));
    let payload = &blob[4..];
    if crc32(payload) != crc {
        return None;
    }
    from_bytes::<CoreSnapshot>(payload).ok()
}

// --- channel journal adapter -----------------------------------------------

/// Adapts a shared [`Wal`] to one channel's [`ChannelJournal`] hooks,
/// tagging every record with the channel discriminator (one SMC core
/// journals several channels — bus and discovery — into one log).
#[derive(Debug)]
pub struct WalChannelJournal {
    wal: Arc<Wal>,
    chan: u8,
    covers_routing: bool,
}

impl WalChannelJournal {
    /// Journals channel `chan`'s state transitions into `wal`, its
    /// cursor as each message is delivered. Suitable for channels whose
    /// inbound traffic regenerates itself after a crash (discovery lease
    /// chatter); a message lost between ack and handling is simply sent
    /// again by the peer's next refresh.
    pub fn new(wal: Arc<Wal>, chan: u8) -> Self {
        WalChannelJournal {
            wal,
            chan,
            covers_routing: false,
        }
    }

    /// Like [`WalChannelJournal::new`], but the cursor moves past a
    /// message only once the application consumed it, after the records
    /// its routing appended ([`ChannelJournal::covers_routing`]).
    /// Required for channels carrying events that exist nowhere else once
    /// acknowledged — the bus channel: a crash before the cursor record
    /// leaves the event unacknowledged, and its sender resends it.
    pub fn covering_routing(wal: Arc<Wal>, chan: u8) -> Self {
        WalChannelJournal {
            wal,
            chan,
            covers_routing: true,
        }
    }
}

impl ChannelJournal for WalChannelJournal {
    fn on_deliver(&self, peer: ServiceId, epoch: u64, seq: u64) -> Result<()> {
        self.wal.append(&WalRecord::RxCursor {
            chan: self.chan,
            peer,
            epoch,
            expected: seq + 1,
        })
    }

    fn covers_routing(&self) -> bool {
        self.covers_routing
    }

    fn on_enqueue(&self, peer: ServiceId, seq: u64, payload: &SharedBytes) -> Result<()> {
        self.wal.append_with(|buf| {
            WalRecord::put_out_enqueue(buf, self.chan, peer, seq, payload);
        })
    }

    fn on_requeue(&self, peer: ServiceId, prior_seq: u64, seq: u64) -> Result<()> {
        self.wal.append(&WalRecord::OutRequeue {
            chan: self.chan,
            peer,
            prior_seq,
            seq,
        })
    }

    /// One `OutAck` per sequence number, in one append and one sync.
    fn on_acked(&self, peer: ServiceId, seqs: &[u64]) -> Result<()> {
        self.wal.append_batch(seqs, |&seq, buf| {
            WalRecord::OutAck {
                chan: self.chan,
                peer,
                seq,
            }
            .encode(buf)
        })
    }

    fn on_forget(&self, peer: ServiceId) -> Result<()> {
        self.wal.append(&WalRecord::OutForget {
            chan: self.chan,
            peer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> ServiceId {
        ServiceId::from_raw(n)
    }

    fn cursor(peer: u64, expected: u64) -> WalRecord {
        WalRecord::RxCursor {
            chan: CHAN_BUS,
            peer: sid(peer),
            epoch: 7,
            expected,
        }
    }

    fn open_mem(backend: &MemBackend) -> (Wal, Recovered) {
        Wal::open(Arc::new(backend.clone()), WalConfig::default()).expect("open")
    }

    /// CRC-32 one bit at a time, straight from the reflected polynomial.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `n` deterministic bytes drawn from `seed`.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| mix(seed ^ i << 20) as u8).collect()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        let data = noise(1, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "{len} bytes at offset {start}"
                );
            }
        }
        for seed in 0..64 {
            let len = 8 + (mix(seed) % 4089) as usize;
            let data = noise(seed, len);
            let slice = &data[(mix(!seed) % 8) as usize..];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "seed {seed}, {len} bytes"
            );
        }
    }

    /// A log framed by hand with the reference checksum replays record
    /// for record: the framing and the checksum are the format.
    #[test]
    fn a_log_framed_with_the_reference_checksum_replays_clean() {
        let records = [
            cursor(1, 5),
            WalRecord::OutEnqueue {
                chan: CHAN_BUS,
                peer: sid(2),
                seq: 1,
                payload: noise(3, 331),
            },
            WalRecord::OutAck {
                chan: CHAN_BUS,
                peer: sid(2),
                seq: 1,
            },
        ];
        let mut segment = Vec::new();
        for record in &records {
            let payload = to_bytes(record);
            segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            segment.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
            segment.extend_from_slice(&payload);
        }
        let backend = MemBackend::new();
        backend.create_segment(1).unwrap();
        backend.append(1, &segment).unwrap();
        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 3);
        assert_eq!(recovered.skipped, 0);
        assert!(!recovered.truncated);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 5)]
        );
        assert!(recovered.snapshot.outbound_for(CHAN_BUS).is_empty());
    }

    /// A batch of acknowledgements torn at any byte recovers the records
    /// that were whole before the tear, and nothing after it.
    #[test]
    fn a_torn_batch_recovers_a_prefix_of_whole_records() {
        const N: u64 = 8;
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let wal = Arc::new(wal);
        let journal = WalChannelJournal::new(Arc::clone(&wal), CHAN_BUS);
        for seq in 1..=N {
            journal
                .on_enqueue(sid(2), seq, &SharedBytes::from(vec![seq as u8; 40]))
                .unwrap();
        }
        let enqueued = backend.read_segment(1).unwrap().len();
        let seqs: Vec<u64> = (1..=N).collect();
        journal.on_acked(sid(2), &seqs).unwrap();
        let segment = backend.read_segment(1).unwrap();
        let batch = &segment[enqueued..];
        let record = batch.len() / N as usize;
        assert_eq!(record * N as usize, batch.len(), "equal-sized OutAcks");

        for k in 0..=batch.len() {
            let torn = MemBackend::new();
            torn.create_segment(1).unwrap();
            torn.append(1, &segment[..enqueued + k]).unwrap();
            let (_, recovered) = open_mem(&torn);
            let whole = (k / record) as u64;
            assert_eq!(recovered.replayed, N + whole, "cut at {k}");
            assert_eq!(recovered.skipped, 0, "cut at {k}");
            assert_eq!(recovered.truncated, k % record != 0, "cut at {k}");
            let left: Vec<u64> = recovered
                .snapshot
                .outbound_for(CHAN_BUS)
                .into_iter()
                .flat_map(|(_, queue)| queue.into_iter().map(|(seq, _)| seq))
                .collect();
            assert_eq!(left, (whole + 1..=N).collect::<Vec<_>>(), "cut at {k}");
        }
    }

    #[test]
    fn a_batch_is_one_append_and_one_fsync() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let wal = Arc::new(wal);
        let journal = WalChannelJournal::new(Arc::clone(&wal), CHAN_BUS);
        journal.on_acked(sid(2), &[3, 1, 2, 7, 5]).unwrap();
        let m = wal.metrics();
        assert_eq!(m.records_appended, 5);
        assert_eq!(m.fsyncs, 1);
        journal.on_acked(sid(2), &[]).unwrap();
        assert_eq!(wal.metrics(), m, "an empty batch writes nothing");

        backend.fail_fsync_after(0);
        let err = journal
            .on_acked(sid(2), &[8, 9])
            .expect_err("the batch's one fsync fails it");
        assert!(matches!(err, Error::Io(_)));
        assert_eq!(wal.metrics().fsyncs, 1);
    }

    #[test]
    fn reopen_replays_appended_records() {
        let backend = MemBackend::new();
        let (wal, first) = open_mem(&backend);
        assert_eq!(first.replayed, 0);
        wal.append(&cursor(1, 5)).unwrap();
        wal.append(&cursor(1, 6)).unwrap();
        wal.append(&WalRecord::OutEnqueue {
            chan: CHAN_BUS,
            peer: sid(2),
            seq: 1,
            payload: vec![9; 32],
        })
        .unwrap();
        drop(wal);

        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 3);
        assert_eq!(recovered.skipped, 0);
        assert!(!recovered.truncated);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 6)]
        );
        assert_eq!(
            recovered.snapshot.outbound_for(CHAN_BUS),
            vec![(sid(2), vec![(1, vec![9; 32])])]
        );
    }

    #[test]
    fn recover_state_reads_durable_truth_without_touching_log() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        wal.append(&cursor(1, 5)).unwrap();
        wal.append(&WalRecord::MemberJoined {
            info: smc_types::ServiceInfo::new(sid(9), "sensor.spo2"),
        })
        .unwrap();

        // A pure read: appended records are visible, and the read can
        // repeat without perturbing later appends or reopen.
        let truth = wal.recover_state().expect("recover");
        assert_eq!(truth.cursors_for(CHAN_BUS), vec![(sid(1), 7, 5)]);
        assert_eq!(truth.members.len(), 1);
        assert_eq!(truth.members[0].id, sid(9));

        wal.append(&cursor(1, 6)).unwrap();
        let truth = wal.recover_state().expect("recover again");
        assert_eq!(truth.cursors_for(CHAN_BUS), vec![(sid(1), 7, 6)]);

        drop(wal);
        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 3, "recover_state left the log intact");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        wal.append(&cursor(1, 5)).unwrap();
        wal.append(&cursor(1, 6)).unwrap();
        drop(wal);
        backend.inject_torn_tail();

        let (wal, recovered) = open_mem(&backend);
        assert!(recovered.truncated, "a torn tail must be reported");
        assert_eq!(recovered.replayed, 2, "records before the tear survive");
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 6)]
        );

        // New appends land in a fresh segment and survive another reopen.
        wal.append(&cursor(1, 7)).unwrap();
        drop(wal);
        let (_, again) = open_mem(&backend);
        assert_eq!(again.snapshot.cursors_for(CHAN_BUS), vec![(sid(1), 7, 7)]);
    }

    #[test]
    fn corrupt_record_is_skipped() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        wal.append(&cursor(1, 5)).unwrap();
        wal.append(&cursor(1, 6)).unwrap();
        drop(wal);
        backend.corrupt_tail_record();

        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.skipped, 1, "the corrupt record is dropped");
        assert_eq!(recovered.replayed, 1, "the intact record still replays");
        assert!(!recovered.truncated);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 5)]
        );
    }

    #[test]
    fn fsync_failure_propagates_to_append() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        backend.fail_fsync_after(1);
        wal.append(&cursor(1, 5)).unwrap();
        let err = wal
            .append(&cursor(1, 6))
            .expect_err("fsync fault must fail the append");
        assert!(matches!(err, Error::Io(_)));
        backend.heal_fsync();
        wal.append(&cursor(1, 6)).unwrap();
    }

    #[test]
    fn segments_rotate_and_all_replay() {
        let backend = MemBackend::new();
        let config = WalConfig {
            segment_max_bytes: 64,
            sync_each_append: true,
        };
        let (wal, _) = Wal::open(Arc::new(backend.clone()), config.clone()).unwrap();
        for i in 1..=20 {
            wal.append(&cursor(1, i)).unwrap();
        }
        drop(wal);
        assert!(
            backend.segments().unwrap().len() > 1,
            "64-byte segments must have rotated: {:?}",
            backend.segments().unwrap()
        );
        let (_, recovered) = Wal::open(Arc::new(backend.clone()), config).unwrap();
        assert_eq!(recovered.replayed, 20);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 20)]
        );
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        for i in 1..=5 {
            wal.append(&cursor(1, i)).unwrap();
        }
        let mut snap = CoreSnapshot::default();
        snap.apply(&cursor(1, 5));
        wal.snapshot_with(|| Ok(snap.clone())).unwrap();
        assert_eq!(
            backend.segments().unwrap().len(),
            1,
            "compaction removes old segments"
        );
        wal.append(&cursor(1, 6)).unwrap();
        assert_eq!(wal.metrics().snapshots, 1);
        drop(wal);

        let (_, recovered) = open_mem(&backend);
        assert_eq!(
            recovered.replayed, 1,
            "only the post-snapshot record replays"
        );
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 6)]
        );
    }

    #[test]
    fn corrupt_snapshot_recovers_empty_not_panicking() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let mut snap = CoreSnapshot::default();
        snap.apply(&cursor(1, 5));
        wal.snapshot_with(|| Ok(snap.clone())).unwrap();
        drop(wal);
        // Flip a payload byte so the snapshot checksum no longer holds.
        {
            let mut blob = backend.read_snapshot().unwrap().unwrap();
            let last = blob.len() - 1;
            blob[last] ^= 0xFF;
            backend.write_snapshot(&blob).unwrap();
        }
        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.skipped, 1, "the corrupt snapshot is counted");
        assert!(recovered.snapshot.cursors_for(CHAN_BUS).is_empty());
    }

    #[test]
    fn noop_backend_retains_nothing() {
        let backend = Arc::new(NoopBackend);
        let (wal, _) = Wal::open(backend.clone(), WalConfig::default()).unwrap();
        wal.append(&cursor(1, 5)).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.snapshot, CoreSnapshot::default());
    }

    #[test]
    fn metrics_count_appends_and_fsyncs() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        wal.append(&cursor(1, 1)).unwrap();
        wal.append(&cursor(1, 2)).unwrap();
        let m = wal.metrics();
        assert_eq!(m.records_appended, 2);
        assert_eq!(m.fsyncs, 2);
        assert!(m.bytes_appended > 2 * RECORD_HEADER_LEN as u64);
    }

    /// One log installed on a registry twice is still exported once (and
    /// a debug build says so, naming the first repeated series).
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "smc_wal_records_appended_total")
    )]
    fn registering_a_log_twice_renders_each_series_once() {
        let wal = Arc::new(open_mem(&MemBackend::new()).0);
        wal.append(&cursor(1, 1)).unwrap();
        let registry = smc_telemetry::Registry::new();
        wal.register_with(&registry);
        wal.register_with(&registry);
        let text = registry.render_text();
        let parsed = smc_telemetry::parse_text(&text).expect("exposition parses back");
        let series: Vec<(&str, f64)> = parsed.iter().map(|s| (s.name.as_str(), s.value)).collect();
        let m = wal.metrics();
        assert_eq!(
            series,
            [
                ("smc_wal_bytes_appended_total", m.bytes_appended as f64),
                ("smc_wal_fsyncs_total", 1.0),
                ("smc_wal_records_appended_total", 1.0),
                ("smc_wal_snapshots_total", 0.0),
            ]
        );
        assert_eq!(text.matches("# TYPE").count(), 4);
    }

    #[test]
    fn a_registry_does_not_keep_the_log_alive() {
        let wal = Arc::new(open_mem(&MemBackend::new()).0);
        let registry = smc_telemetry::Registry::new();
        wal.register_with(&registry);
        assert!(registry.render_text().contains("smc_wal_fsyncs_total 0"));
        drop(wal);
        assert_eq!(registry.render_text(), "");
    }

    #[test]
    fn file_backend_round_trips() {
        use std::sync::atomic::AtomicU64;
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smc-wal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let backend = Arc::new(FileBackend::open(&dir).unwrap());
        let (wal, _) = Wal::open(backend.clone(), WalConfig::default()).unwrap();
        wal.append(&cursor(1, 5)).unwrap();
        let mut snap = CoreSnapshot::default();
        snap.apply(&cursor(2, 9));
        wal.snapshot_with(|| Ok(snap.clone())).unwrap();
        wal.append(&cursor(1, 6)).unwrap();
        drop(wal);

        let (_, recovered) = Wal::open(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.replayed, 1);
        let mut cursors = recovered.snapshot.cursors_for(CHAN_BUS);
        cursors.sort_unstable_by_key(|&(id, _, _)| id);
        assert_eq!(cursors, vec![(sid(1), 7, 6), (sid(2), 7, 9)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_channel_journal_tags_records() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let wal = Arc::new(wal);
        let bus = WalChannelJournal::new(Arc::clone(&wal), CHAN_BUS);
        let disco = WalChannelJournal::new(Arc::clone(&wal), CHAN_DISCOVERY);
        bus.on_deliver(sid(1), 3, 9).unwrap();
        disco
            .on_enqueue(sid(2), 1, &SharedBytes::from(vec![5, 6]))
            .unwrap();
        bus.on_acked(sid(3), &[4]).unwrap();
        disco.on_forget(sid(2)).unwrap();
        drop(bus);
        drop(disco);
        drop(wal);

        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 4);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 3, 10)],
            "a deliver advances past the delivered seq"
        );
        assert!(recovered.snapshot.cursors_for(CHAN_DISCOVERY).is_empty());
        assert!(recovered.snapshot.outbound_for(CHAN_DISCOVERY).is_empty());
    }

    #[test]
    fn a_journal_covering_routing_writes_the_cursor_alone() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let wal = Arc::new(wal);
        let bus = WalChannelJournal::covering_routing(Arc::clone(&wal), CHAN_BUS);
        let disco = WalChannelJournal::new(Arc::clone(&wal), CHAN_DISCOVERY);
        assert!(bus.covers_routing() && !disco.covers_routing());
        bus.on_deliver(sid(1), 3, 9).unwrap();
        let one = wal.metrics().bytes_appended;
        disco.on_deliver(sid(1), 3, 9).unwrap();
        assert_eq!(
            wal.metrics().bytes_appended,
            2 * one,
            "one cursor record each, no payload"
        );
        drop((bus, disco, wal));

        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 2);
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 3, 10)]
        );
        assert_eq!(recovered.snapshot.outbound, vec![]);
    }

    #[test]
    fn snapshot_with_retains_records_appended_during_capture() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        let wal = Arc::new(wal);
        for i in 1..=3 {
            wal.append(&cursor(1, i)).unwrap();
        }
        // The capture closure plays a journalling thread that slips a
        // record in during the checkpoint window (after the boundary
        // rotation, before old segments are removed) which the captured
        // state does NOT include — the race REVIEW found: with
        // capture-then-delete-everything this record would vanish.
        let racer = Arc::clone(&wal);
        wal.snapshot_with(|| {
            racer.append(&cursor(1, 4)).unwrap();
            let mut snap = CoreSnapshot::default();
            snap.apply(&cursor(1, 3));
            Ok(snap)
        })
        .unwrap();

        let (_, recovered) = open_mem(&backend);
        assert_eq!(
            recovered.replayed, 1,
            "the racing record survives compaction in a retained segment"
        );
        assert_eq!(
            recovered.snapshot.cursors_for(CHAN_BUS),
            vec![(sid(1), 7, 4)],
            "replay on top of the snapshot lands the racing record's effect"
        );
    }

    #[test]
    fn snapshot_with_capture_error_leaves_log_intact() {
        let backend = MemBackend::new();
        let (wal, _) = open_mem(&backend);
        for i in 1..=3 {
            wal.append(&cursor(1, i)).unwrap();
        }
        let err = wal
            .snapshot_with(|| Err(Error::Invalid("capture failed".into())))
            .expect_err("capture error propagates");
        assert!(matches!(err, Error::Invalid(_)));
        assert_eq!(wal.metrics().snapshots, 0);
        drop(wal);

        let (_, recovered) = open_mem(&backend);
        assert_eq!(recovered.replayed, 3, "no segment was removed");
    }
}
