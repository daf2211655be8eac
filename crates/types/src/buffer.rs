//! Received buffers and the spare list they go home to.
//!
//! A link copies each datagram it receives into a buffer of the receiving
//! endpoint's [`Spares`] — one that a message received earlier was in —
//! and asks the heap only when none has room. The buffer travels up as a
//! [`MessageBuf`] that remembers its home: into the channel's reassembly,
//! into the message the channel hands up, into the event body adopted
//! from it. Whoever drops the last owner, on whichever thread, hands the
//! buffer back, so an endpoint in steady state receives into buffers it
//! already has.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How many spare buffers one endpoint keeps for its link to fill. Enough
/// for what an endpoint of a busy cell has received and not yet seen
/// dropped: a window of 16 four-fragment messages queued or in
/// reassembly, and half a send window of delivered messages waiting for
/// their acknowledgement.
pub const SPARE_BUFFERS: usize = 128;

/// The largest buffer a spare list keeps: UDP's largest datagram. A
/// larger one (a reassembled message of more) is freed when it comes
/// back.
pub const MAX_SPARE_LEN: usize = 60_000;

/// The most bytes one endpoint's spares hold together: 64 buffers of
/// [`MAX_SPARE_LEN`], whatever their number.
pub const SPARE_BYTES: usize = 64 * MAX_SPARE_LEN;

/// An endpoint's spare receive buffers, at most [`SPARE_BUFFERS`] of
/// them and [`SPARE_BYTES`] together, none larger than
/// [`MAX_SPARE_LEN`], the most recently given back on top. Filled by the
/// link, given back by whoever drops a [`MessageBuf`] — on any thread,
/// under any other lock — so the list has a lock of its own, a leaf:
/// nothing else is locked, and nothing is freed, while it is held.
#[derive(Clone, Default)]
pub struct Spares(Arc<Mutex<List>>);

/// The buffers, and their capacities' sum.
#[derive(Default)]
struct List {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

impl fmt::Debug for Spares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Spares({})", self.len())
    }
}

impl Spares {
    fn lock(&self) -> MutexGuard<'_, List> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `bytes` in the best-fitting spare that already has room for them
    /// — the one with the least capacity that is enough, the most
    /// recently given back of equals — or, when none has, in a buffer of
    /// exactly their size; either way a buffer that comes back here. A
    /// spare is never grown, and holds nothing of what it held before.
    pub fn copy(&self, bytes: &[u8]) -> MessageBuf {
        let mut buf = self.take(bytes.len());
        buf.bytes.extend_from_slice(bytes);
        buf
    }

    /// An empty buffer with room for `room` bytes, chosen as
    /// [`Spares::copy`] chooses one, that comes back here.
    pub fn take(&self, room: usize) -> MessageBuf {
        let spare = {
            let mut list = self.lock();
            best_fit(&list.bufs, room).map(|at| {
                let buf = list.bufs.remove(at);
                list.bytes -= buf.capacity();
                buf
            })
        };
        let bytes = match spare {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(room),
        };
        MessageBuf {
            bytes,
            home: Some(self.clone()),
        }
    }

    /// Keeps `buf` for a later datagram. A buffer over [`MAX_SPARE_LEN`]
    /// is not kept; at either bound the smaller of `buf` and the smallest
    /// spare is dropped, if that brings the list within both: the list
    /// keeps the buffers that fit the most datagrams. What is dropped is
    /// freed once the lock is released.
    fn give_back(&self, buf: Vec<u8>) {
        let room = buf.capacity();
        if room == 0 || room > MAX_SPARE_LEN {
            return;
        }
        let mut list = self.lock();
        if list.bufs.len() < SPARE_BUFFERS && list.bytes + room <= SPARE_BYTES {
            list.bufs.push(buf);
            list.bytes += room;
            return;
        }
        let smallest = (0..list.bufs.len()).min_by_key(|&at| list.bufs[at].capacity());
        let dropped = match smallest {
            Some(at)
                if list.bufs[at].capacity() < room
                    && list.bytes - list.bufs[at].capacity() + room <= SPARE_BYTES =>
            {
                let dropped = std::mem::replace(&mut list.bufs[at], buf);
                list.bytes = list.bytes - dropped.capacity() + room;
                dropped
            }
            _ => buf,
        };
        drop(list);
        drop(dropped);
    }

    /// How many spares the list holds.
    pub fn len(&self) -> usize {
        self.lock().bufs.len()
    }

    /// Returns `true` if the list holds no spare.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity of each spare, top of the list last.
    pub fn rooms(&self) -> Vec<usize> {
        self.lock().bufs.iter().map(Vec::capacity).collect()
    }
}

/// Where in `spares` the best fit for `len` bytes is. The search runs
/// from the top and stops at a spare of exactly `len`: the common case,
/// since a link's datagrams come in a few sizes and each spare was first
/// made for one of them.
fn best_fit(spares: &[Vec<u8>], len: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (at, spare) in spares.iter().enumerate().rev() {
        let room = spare.capacity();
        if room == len {
            return Some(at);
        }
        if room > len && best.is_none_or(|(_, least)| room < least) {
            best = Some((at, room));
        }
    }
    best.map(|(at, _)| at)
}

/// A message's bytes in a buffer of their own, which goes back to the
/// [`Spares`] it came from — if it came from one — when it is dropped.
/// Reads as a byte slice and compares as one; a buffer made from a `Vec`
/// has no home and is simply freed, and a clone's copy of the bytes goes
/// to the same home as the original.
#[derive(Clone, Default)]
pub struct MessageBuf {
    bytes: Vec<u8>,
    home: Option<Spares>,
}

impl MessageBuf {
    /// An empty buffer with room for `room` bytes that goes where this
    /// one goes: a spare of its home's, or a new buffer of no home.
    pub fn sibling(&self, room: usize) -> MessageBuf {
        match &self.home {
            Some(home) => home.take(room),
            None => Vec::with_capacity(room).into(),
        }
    }

    /// Appends `bytes`, growing the buffer if it has no room for them.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Removes the first `n` bytes, moving the rest to the front of the
    /// same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n` is more than the length.
    pub fn drain_front(&mut self, n: usize) {
        self.bytes.drain(..n);
    }

    /// The bytes as a `Vec` of the caller's; the buffer does not go home.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.home = None;
        std::mem::take(&mut self.bytes)
    }
}

impl Drop for MessageBuf {
    /// Hands the buffer back to its home, from whichever thread drops it.
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.give_back(std::mem::take(&mut self.bytes));
        }
    }
}

impl From<Vec<u8>> for MessageBuf {
    /// `bytes` in their own buffer, of no home.
    fn from(bytes: Vec<u8>) -> Self {
        MessageBuf { bytes, home: None }
    }
}

impl Deref for MessageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for MessageBuf {
    /// As the bytes print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.bytes, f)
    }
}

impl PartialEq for MessageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for MessageBuf {}

impl PartialEq<Vec<u8>> for MessageBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes == *other
    }
}

impl PartialEq<&[u8]> for MessageBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for MessageBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for MessageBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spare_is_the_best_fit_and_never_grown() {
        let spares = Spares::default();
        for size in [100, 1400, 600] {
            spares.give_back(Vec::with_capacity(size));
        }
        assert_eq!(spares.len(), 3);
        let buf = spares.copy(&[7; 500]);
        assert_eq!((buf.bytes.capacity(), &buf[..]), (600, &[7; 500][..]));
        // Nothing left has room for 1 401 bytes: a fresh, exact buffer.
        let fresh = spares.copy(&[1; 1401]);
        assert_eq!(fresh.bytes.capacity(), 1401);
        assert_eq!(spares.rooms(), [100, 1400]);
        // Both come back when they drop.
        drop((buf, fresh));
        assert_eq!(spares.rooms(), [100, 1400, 600, 1401]);
    }

    #[test]
    fn at_the_bound_the_smallest_buffer_goes() {
        let spares = Spares::default();
        for size in 1..=SPARE_BUFFERS + 1 {
            spares.give_back(Vec::with_capacity(size));
        }
        spares.give_back(Vec::with_capacity(1));
        let rooms = spares.rooms();
        assert_eq!(rooms.len(), SPARE_BUFFERS);
        assert_eq!(rooms.iter().min(), Some(&2));
        assert_eq!(rooms.iter().max(), Some(&(SPARE_BUFFERS + 1)));
    }

    #[test]
    fn the_list_keeps_its_bytes_within_the_budget() {
        let spares = Spares::default();
        for _ in 0..SPARE_BYTES / MAX_SPARE_LEN {
            spares.give_back(Vec::with_capacity(MAX_SPARE_LEN));
        }
        // Full in bytes: a smaller buffer is not kept, nor is a larger
        // one that would not fit in place of the smallest.
        spares.give_back(Vec::with_capacity(100));
        assert_eq!(spares.len(), SPARE_BYTES / MAX_SPARE_LEN);
        let mut rooms = spares.rooms();
        assert!(rooms.iter().all(|&room| room == MAX_SPARE_LEN));
        // One out, two smaller in: the first fits, the second does not.
        let out = spares.take(MAX_SPARE_LEN);
        spares.give_back(Vec::with_capacity(MAX_SPARE_LEN - 1));
        spares.give_back(Vec::with_capacity(10));
        rooms = spares.rooms();
        assert_eq!(rooms.iter().sum::<usize>(), SPARE_BYTES - 1);
        // The one taken out comes back in place of the smaller.
        drop(out);
        assert_eq!(spares.rooms(), [MAX_SPARE_LEN; SPARE_BYTES / MAX_SPARE_LEN]);
    }

    #[test]
    fn a_buffer_over_the_cap_is_freed() {
        let spares = Spares::default();
        let mut buf = spares.take(10);
        buf.extend_from_slice(&[0; MAX_SPARE_LEN + 1]);
        drop(buf);
        drop(spares.take(MAX_SPARE_LEN));
        assert_eq!(spares.rooms(), [MAX_SPARE_LEN]);
    }

    #[test]
    fn a_buffer_goes_home_from_another_thread() {
        let spares = Spares::default();
        let buf = spares.copy(b"event");
        std::thread::spawn(move || assert_eq!(buf, b"event"))
            .join()
            .unwrap();
        assert_eq!(spares.rooms(), [5]);
        // A sibling goes to the same home; a buffer of no home's, nowhere.
        let sibling = MessageBuf::from(vec![1; 8]).sibling(16);
        drop(spares.copy(b"x").sibling(64));
        drop(sibling);
        assert_eq!(spares.rooms(), [64, 5]);
    }

    #[test]
    fn a_buffer_taken_out_does_not_go_home() {
        let spares = Spares::default();
        let mut buf = spares.copy(&[1, 2, 3, 4]);
        buf.drain_front(1);
        assert_eq!(buf, vec![2, 3, 4]);
        assert_eq!(buf.into_vec(), vec![2, 3, 4]);
        assert!(spares.is_empty());
    }
}
