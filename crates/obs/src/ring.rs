//! Segmented event rings (flight recorders).
//!
//! A [`TraceRing`] is K fixed segments, each a `Vec` reserved to S records
//! at construction and afterwards only pushed to and cleared, so the
//! steady-state control loop records events with **zero allocations** and
//! touches only the pages of the records it actually holds.
//!
//! `record` pushes into the current segment. When that segment is full, or
//! the record's epoch lies past the segment's epoch block, `record` turns
//! to the next segment: it clears it (counting its records in
//! [`TraceRing::dropped`]) and writes on there. Blocks are aligned runs of
//! `keep` epochs (`[b·keep, (b+1)·keep)`), so a segment never spans more
//! than `keep` epochs, and every ring of a run that shares `keep` cuts its
//! segments at the same epochs.
//!
//! Each ring's reader picks K, S and `keep`:
//!
//! - [`TraceRing::with_capacity`] (`keep` unbounded, 16 segments plus one
//!   spare) holds at least the last `capacity` records — the whole-run
//!   tracers of an observed run;
//! - [`TraceRing::windowed`] (two segments) holds every record of the last
//!   `keep` epochs and at most `2·keep` epochs, whenever the writer stays
//!   within its per-epoch bound — the rings whose only reader is a flight
//!   recorder dumping `keep` trailing epochs.
//!
//! Records are appended in epoch order, so the held records are sorted by
//! epoch oldest → newest, and [`TraceRing::extend_into`] binary-searches
//! each segment for the bounds of a half-open epoch range instead of
//! copying the whole ring: a flight-recorder dump reads one epoch at a
//! time at O(log capacity) a read, and copies only the records it writes.

use crate::config::RING_CAPACITY;
use crate::event::{Event, EventRecord};
use std::ops::Range;

/// Segments of a count-capped ring, besides its spare.
const SEGMENTS: usize = 16;

/// A ring of [`EventRecord`]s in K fixed segments, oldest-overwriting.
#[derive(Debug)]
pub struct TraceRing {
    /// The segments, used round-robin; each is reserved to `seg_len`.
    segs: Vec<Vec<EventRecord>>,
    /// Records per segment.
    seg_len: usize,
    /// Index of the segment being written; `cur + 1` (mod K) is the oldest.
    cur: usize,
    /// Epochs per block (`None`: one unbounded block).
    keep: Option<u64>,
    /// Last epoch of the current segment's block.
    until: u64,
    /// Next per-ring sequence number.
    seq: u32,
    /// Records cleared out of recycled segments.
    dropped: u64,
}

/// Last epoch of the `keep`-epoch block holding `epoch` (saturating in the
/// top block of the epoch range).
fn block_end(epoch: u64, keep: Option<u64>) -> u64 {
    keep.map_or(u64::MAX, |k| (epoch - epoch % k).saturating_add(k - 1))
}

/// The oldest epoch a [`TraceRing::windowed`] ring of `keep` epochs still
/// holds in full once it has recorded `newest`: the start of the block
/// before `newest`'s. A reader that floors its range's start here gets the
/// same epochs from every windowed ring of a run, sparse ones included.
pub fn window_start(newest: u64, keep: u64) -> u64 {
    let keep = keep.max(1);
    (newest - newest % keep).saturating_sub(keep)
}

impl TraceRing {
    /// A ring of `segments` segments (min 2) of `segment_len` records
    /// (min 1) each, whose segments span at most `keep` epochs (`None`:
    /// no epoch limit), all reserved up front.
    fn new(segments: usize, segment_len: usize, keep: Option<u64>) -> Self {
        let seg_len = segment_len.max(1);
        let keep = keep.map(|k| k.max(1));
        Self {
            segs: (0..segments.max(2))
                .map(|_| Vec::with_capacity(seg_len))
                .collect(),
            seg_len,
            cur: 0,
            keep,
            until: block_end(0, keep),
            seq: 0,
            dropped: 0,
        }
    }

    /// A count-capped ring holding at least the last `capacity` records
    /// (min 1): 16 segments of `capacity / 16` (rounded up) plus a spare,
    /// so up to one segment more once it wraps.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(SEGMENTS + 1, capacity.max(1).div_ceil(SEGMENTS), None)
    }

    /// A ring for a reader of the last `keep` epochs, whose writer records
    /// at most `per_epoch` records an epoch: two segments of
    /// `min(keep × per_epoch, RING_CAPACITY)` records, one block of `keep`
    /// epochs each. It holds every record of the last `keep` epochs
    /// whenever `keep × per_epoch ≤ RING_CAPACITY`.
    pub fn windowed(keep: u64, per_epoch: usize) -> Self {
        let per_epoch = u64::try_from(per_epoch).unwrap_or(u64::MAX);
        let seg_len = keep.saturating_mul(per_epoch).min(RING_CAPACITY as u64);
        Self::new(2, seg_len as usize, Some(keep))
    }

    /// Records one event. Allocation-free: segments were reserved at
    /// construction, and a turn clears the oldest one for reuse.
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
        if epoch > self.until || self.segs[self.cur].len() == self.seg_len {
            self.turn(epoch);
        }
        self.segs[self.cur].push(rec);
    }

    /// Moves to the next segment for a record at `epoch`, clearing it; an
    /// empty current segment just takes `epoch`'s block.
    #[cold]
    fn turn(&mut self, epoch: u64) {
        if !self.segs[self.cur].is_empty() {
            self.cur = (self.cur + 1) % self.segs.len();
            let seg = &mut self.segs[self.cur];
            self.dropped += seg.len() as u64;
            seg.clear();
        }
        self.until = block_end(epoch, self.keep);
    }

    /// The segments, oldest → newest.
    fn segments(&self) -> impl Iterator<Item = &Vec<EventRecord>> {
        let (newer, older) = self.segs.split_at(self.cur + 1);
        older.iter().chain(newer)
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.segs.iter().map(Vec::len).sum()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.segs[self.cur].is_empty()
    }

    /// The most records the ring can hold (segments × segment length).
    pub fn capacity(&self) -> usize {
        self.segs.len() * self.seg_len
    }

    /// Records cleared out of recycled segments (0 until the ring first
    /// turns onto a used segment — the regime in which merged traces are
    /// comparable across shard counts).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recently recorded event, if any.
    fn newest(&self) -> Option<&EventRecord> {
        self.segs[self.cur].last()
    }

    /// Appends the held records whose epoch lies in the half-open range
    /// `epochs`, oldest → newest, onto `out`; `0..u64::MAX` copies the
    /// whole ring (no run reaches epoch `u64::MAX`), and an empty range
    /// copies nothing. Every segment is epoch-sorted, so each one's range
    /// is found by binary search and only the range is copied.
    pub fn extend_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        for seg in self.segments() {
            let from = seg.partition_point(|r| r.epoch < epochs.start);
            let to = from + seg[from..].partition_point(|r| r.epoch < epochs.end);
            out.extend_from_slice(&seg[from..to]);
        }
    }

    /// Iterates the held records, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.segments().flatten()
    }

    /// Forgets all records (segments and their allocations are kept).
    pub fn clear(&mut self) {
        self.segs.iter_mut().for_each(Vec::clear);
        self.cur = 0;
        self.until = block_end(0, self.keep);
        self.seq = 0;
        self.dropped = 0;
    }
}

impl Clone for TraceRing {
    /// Clones the held records into segments reserved to the full segment
    /// length, so the clone records allocation-free too.
    fn clone(&self) -> Self {
        Self {
            segs: self
                .segs
                .iter()
                .map(|seg| {
                    let mut copy = Vec::with_capacity(self.seg_len);
                    copy.extend_from_slice(seg);
                    copy
                })
                .collect(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(p: f64) -> Event {
        Event::Epoch { power_w: p }
    }

    fn epochs(r: &TraceRing) -> Vec<u64> {
        r.iter().map(|e| e.epoch).collect()
    }

    #[test]
    fn records_in_order_until_full() {
        let mut r = TraceRing::with_capacity(4);
        for i in 0..3 {
            r.record(i, 0, ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert_eq!(epochs(&r), vec![0, 1, 2]);
        let seqs: Vec<u32> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn count_capped_ring_drops_a_whole_segment_at_a_time() {
        // 64 records: 16 segments of 4 plus a spare.
        let mut r = TraceRing::with_capacity(64);
        assert_eq!(r.capacity(), 68);
        for i in 0..68 {
            r.record(i, 0, ev(0.0));
        }
        assert_eq!((r.len(), r.dropped()), (68, 0));
        // The 69th record turns onto the oldest segment: its 4 go at once.
        r.record(68, 0, ev(0.0));
        assert_eq!((r.len(), r.dropped()), (65, 4));
        assert_eq!(epochs(&r), (4..69).collect::<Vec<_>>());
        let mut out = Vec::new();
        r.extend_into(66..u64::MAX, &mut out);
        assert_eq!(
            out.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            [66, 67, 68]
        );
        out.clear();
        r.extend_into(63..66, &mut out);
        assert_eq!(
            out.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            [63, 64, 65]
        );
    }

    #[test]
    fn windowed_ring_keeps_the_last_block_and_the_current_one() {
        // keep 4, at most 2 records an epoch: two segments of 8.
        let mut r = TraceRing::windowed(4, 2);
        assert_eq!(r.capacity(), 16);
        for e in 0..11 {
            r.record(e, 0, ev(0.0));
            r.record(e, 1, ev(0.0));
        }
        // Blocks [4, 8) and [8, 12) are held; [0, 4) was cleared.
        assert_eq!(r.dropped(), 8);
        assert_eq!(epochs(&r).first(), Some(&4));
        assert_eq!(r.len(), 14);
        let mut out = Vec::new();
        r.extend_into(7..u64::MAX, &mut out);
        assert_eq!(out.len(), 8);
        out.clear();
        r.extend_into(7..8, &mut out);
        assert_eq!(out.len(), 2);
        // A sparse writer keeps only its last two non-empty blocks.
        r.record(40, 0, ev(0.0));
        assert_eq!(epochs(&r)[..1], [8]);
        r.record(44, 0, ev(0.0));
        assert_eq!(epochs(&r), vec![40, 44]);
        assert_eq!(window_start(44, 4), 40);
        assert_eq!(window_start(3, 4), 0);
    }

    #[test]
    fn windowed_segments_are_capped_at_ring_capacity() {
        let r = TraceRing::windowed(1 << 40, 1 << 20);
        assert_eq!(r.capacity(), 2 * RING_CAPACITY);
        assert_eq!(r.segs.iter().map(Vec::capacity).max(), Some(RING_CAPACITY));
    }

    #[test]
    fn recording_never_allocates_past_construction() {
        let mut r = TraceRing::with_capacity(8);
        let before: Vec<_> = r.segs.iter().map(|s| (s.as_ptr(), s.capacity())).collect();
        for i in 0..100 {
            r.record(i, 1, ev(0.0));
        }
        let after: Vec<_> = r.segs.iter().map(|s| (s.as_ptr(), s.capacity())).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn clones_keep_their_reserve() {
        let mut r = TraceRing::windowed(2, 3);
        r.record(0, 0, ev(0.0));
        let c = r.clone();
        assert_eq!(epochs(&c), epochs(&r));
        assert!(c.segs.iter().all(|s| s.capacity() == 6));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut r = TraceRing::with_capacity(2);
        for i in 0..20 {
            r.record(i, 0, ev(0.0));
        }
        assert!(r.dropped() > 0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), 17);
        r.record(9, 0, ev(1.0));
        assert_eq!(r.iter().next().unwrap().seq, 0);
    }

    #[test]
    fn zero_sizes_clamp() {
        let mut r = TraceRing::with_capacity(0);
        assert_eq!(r.capacity(), 17);
        let mut w = TraceRing::new(0, 0, Some(0));
        assert_eq!(w.capacity(), 2);
        for i in 0..3 {
            r.record(i, 0, ev(0.0));
            w.record(i, 0, ev(0.0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(epochs(&w), vec![1, 2]);
    }

    /// Most records any one epoch carries in [`ring_matches_an_unbounded_oracle`].
    const BOUND: usize = 4;

    /// The epoch stream a property case records: each step advances the
    /// epoch (0 repeats it, 1 steps, larger codes jump by `gap`) and then
    /// records a burst of `burst` records, cut so that no epoch carries
    /// more than [`BOUND`].
    fn stream(near_max: bool, start: u64, steps: &[(u8, u64, usize)]) -> Vec<u64> {
        let mut epoch = if near_max { u64::MAX - start } else { start };
        let mut out: Vec<u64> = Vec::new();
        for &(code, gap, burst) in steps {
            epoch = epoch.saturating_add(match code {
                0 => 0,
                1..=3 => 1,
                _ => gap,
            });
            let used = out.iter().rev().take_while(|&&e| e == epoch).count();
            out.extend(std::iter::repeat_n(epoch, burst.min(BOUND - used)));
        }
        out
    }

    /// Checks the ring after one more record against the records written
    /// so far, and its segments against their reserve `reserved`.
    fn check(
        r: &TraceRing,
        written: &[EventRecord],
        reserved: &[(*const EventRecord, usize)],
    ) -> Result<(), TestCaseError> {
        let held: Vec<EventRecord> = r.iter().copied().collect();
        let lost = written.len() - held.len();
        prop_assert_eq!(
            &held[..],
            &written[lost..],
            "held records are the newest, in order"
        );
        prop_assert_eq!(r.dropped(), lost as u64);
        let now: Vec<_> = r.segs.iter().map(|s| (s.as_ptr(), s.capacity())).collect();
        prop_assert_eq!(&now[..], reserved, "a segment reallocated");
        let newest = written.last().expect("checked after a record").epoch;
        // The window every read must return whole: the last `keep` epochs
        // of a windowed ring, whose segments each span at most `keep`
        // epochs; everything after the newest dropped record of a
        // count-capped ring, which holds at least (K − 1)·S records.
        let from = match r.keep {
            Some(keep) => {
                for seg in &r.segs {
                    if let (Some(a), Some(b)) = (seg.first(), seg.last()) {
                        prop_assert!(
                            b.epoch - a.epoch < keep,
                            "a segment spans over {} epochs",
                            keep
                        );
                    }
                }
                Some(newest.saturating_sub(keep - 1))
            }
            None => {
                let floor = (r.segs.len() - 1) * r.seg_len;
                prop_assert!(held.len() >= floor.min(written.len()));
                match lost {
                    0 => Some(0),
                    _ => written[lost - 1].epoch.checked_add(1),
                }
            }
        };
        let Some(from) = from else { return Ok(()) };
        let mut starts: Vec<u64> = held
            .iter()
            .map(|r| r.epoch)
            .filter(|&e| e >= from)
            .collect();
        starts.extend([from, newest, newest.saturating_add(1), u64::MAX]);
        starts.dedup();
        for start in starts {
            // One epoch (the dump's read), an empty and an inverted range,
            // up to just past the newest record, and open-ended.
            let ends = [
                start.saturating_add(1),
                start,
                start.saturating_sub(1),
                newest.saturating_add(1),
                u64::MAX,
            ];
            for end in ends {
                let mut got = Vec::new();
                r.extend_into(start..end, &mut got);
                let want: Vec<EventRecord> = written
                    .iter()
                    .filter(|rec| (start..end).contains(&rec.epoch))
                    .copied()
                    .collect();
                prop_assert_eq!(&got, &want, "epochs {}..{}", start, end);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A ring against an unbounded `Vec` of everything written, after
        /// every record, for K ∈ {2, 17} and `keep` ∈ {1, 5, 8, ∞} (5 cuts
        /// the top block of the epoch range short), with the segment
        /// length a windowed ring's reader derives from the per-epoch
        /// bound.
        #[test]
        fn ring_matches_an_unbounded_oracle(
            k_idx in 0usize..2,
            keep_idx in 0usize..4,
            near_max in prop::bool::ANY,
            start in 0u64..20,
            steps in prop::collection::vec((0u8..6, 2u64..40, 1usize..=BOUND), 0..100),
        ) {
            let segments = [2, 17][k_idx];
            let keep = [Some(1), Some(5), Some(8), None][keep_idx];
            let seg_len = keep.map_or(3, |k| k as usize * BOUND);
            let mut r = TraceRing::new(segments, seg_len, keep);
            let reserved: Vec<_> = r.segs.iter().map(|s| (s.as_ptr(), s.capacity())).collect();
            let mut written = Vec::new();
            for (i, epoch) in stream(near_max, start, &steps).into_iter().enumerate() {
                let event = Event::VfAction { level: i as u8 };
                r.record(epoch, i as u32, event);
                written.push(EventRecord { epoch, core: i as u32, seq: i as u32, event });
                check(&r, &written, &reserved)?;
            }
        }
    }
}
