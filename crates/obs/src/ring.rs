//! Fixed-capacity event ring buffers (flight recorders).
//!
//! A [`TraceRing`] allocates its whole buffer at construction and then
//! never touches the heap again: recording into a non-full ring is a
//! `Vec::push` within reserved capacity, and a full ring overwrites its
//! oldest slot. The steady-state control loop therefore records events
//! with **zero allocations**, and a long run degrades gracefully into a
//! "last N events" flight recorder instead of growing without bound
//! (dropped-event count is kept so consumers can tell).
//!
//! Records are appended in epoch order, so the held records are sorted by
//! epoch oldest → newest, and [`TraceRing::extend_into`] can binary-search
//! for the start of a trailing epoch window instead of copying the whole
//! ring: a flight-recorder dump costs O(window), not O(capacity).

use crate::event::{Event, EventRecord};

/// A fixed-capacity ring of [`EventRecord`]s, oldest-overwriting.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<EventRecord>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Next per-ring sequence number.
    seq: u32,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (min 1),
    /// allocating the full buffer up front.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            seq: 0,
            dropped: 0,
        }
    }

    /// Records one event. Allocation-free: the slot was reserved at
    /// construction, and a full ring overwrites its oldest record.
    ///
    /// Epochs must be non-decreasing across calls (the order
    /// [`TraceRing::extend_into`] relies on); debug builds assert it.
    #[inline]
    pub fn record(&mut self, epoch: u64, core: u32, event: Event) {
        debug_assert!(
            self.newest().is_none_or(|r| r.epoch <= epoch),
            "trace ring records must arrive in epoch order"
        );
        let rec = EventRecord {
            epoch,
            core,
            seq: self.seq,
            event,
        };
        self.seq = self.seq.wrapping_add(1);
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records lost to overwriting (0 while the ring has never wrapped —
    /// the regime in which merged traces are comparable across shard
    /// counts).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recently recorded event, if any.
    fn newest(&self) -> Option<&EventRecord> {
        let n = self.buf.len();
        (n > 0).then(|| &self.buf[(self.head + n - 1) % n])
    }

    /// Appends the held records with `epoch >= since`, oldest → newest,
    /// onto `out` (`since = 0` copies the whole ring). Both halves of the
    /// wrapped buffer are epoch-sorted, so the window start is found by
    /// binary search and only the window is copied.
    pub fn extend_into(&self, since: u64, out: &mut Vec<EventRecord>) {
        for half in [&self.buf[self.head..], &self.buf[..self.head]] {
            let from = half.partition_point(|r| r.epoch < since);
            out.extend_from_slice(&half[from..]);
        }
    }

    /// Iterates the held records, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Forgets all records (capacity and allocation are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: f64) -> Event {
        Event::Epoch { power_w: p }
    }

    #[test]
    fn records_in_order_until_full() {
        let mut r = TraceRing::with_capacity(4);
        for i in 0..3 {
            r.record(i, 0, ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let epochs: Vec<u64> = r.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        let seqs: Vec<u32> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn wraps_overwriting_oldest() {
        let mut r = TraceRing::with_capacity(3);
        for i in 0..5 {
            r.record(i, 0, ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let epochs: Vec<u64> = r.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4]);
        let mut out = Vec::new();
        r.extend_into(0, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].epoch, 2);
        assert_eq!(out[2].epoch, 4);
        out.clear();
        r.extend_into(4, &mut out);
        assert_eq!(out.iter().map(|e| e.epoch).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn recording_never_allocates_past_construction() {
        let mut r = TraceRing::with_capacity(8);
        let cap_before = r.buf.capacity();
        for i in 0..100 {
            r.record(i, 1, ev(0.0));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut r = TraceRing::with_capacity(2);
        r.record(0, 0, ev(0.0));
        r.record(1, 0, ev(0.0));
        r.record(2, 0, ev(0.0));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), 2);
        r.record(9, 0, ev(1.0));
        assert_eq!(r.iter().next().unwrap().seq, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRing::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.record(0, 0, ev(0.0));
        r.record(1, 0, ev(0.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().epoch, 1);
    }
}
