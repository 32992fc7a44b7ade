//! The cursor that walks a schedule's sources as the run reaches them.
//!
//! A fault window is active at epoch `e` when `start ≤ e < end`. Every
//! window of a source has the same kind, cores and duration, so a source
//! is active at `e` exactly when the latest of its windows to start by `e`
//! ends after `e`, and painting the active sources paints what painting
//! the active windows would. A [`Timeline`] holds each source's next onset
//! in a min-heap and the active sources, each with its latest window end,
//! in source order (the override order: later plan entries win on
//! overlap). Moving forward pops only the onsets it crosses, drawing each
//! source's next onset as it pops the last, so a seek costs
//! O(onsets crossed · log sources + active sources), and two compares when
//! no window starts or ends; moving backwards restarts every stream.

use crate::engine::Source;
use crate::expand::Onsets;
use crate::plan::FaultKind;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A cursor over a schedule's sources: the sources active at its epoch
/// and the ones the last seek retired. Every buffer is sized for all the
/// sources when the cursor is built, so a seek never allocates.
#[derive(Debug, Clone)]
pub(crate) struct Timeline {
    /// Whether the cursor walks only the budget-channel sources.
    budget_only: bool,
    /// Each source's stream, past the onset it has in `onsets`.
    streams: Vec<Onsets>,
    /// The next onset of every source with one left, earliest first, as
    /// `onset << 64 | source`: one integer compare orders two of them by
    /// onset, then by source, without a branch on either.
    onsets: BinaryHeap<Reverse<u128>>,
    /// At most the earliest end in `active`; `u64::MAX` when none is
    /// active.
    next_end: u64,
    /// The epoch of the last seek; `None` before the first.
    at: Option<u64>,
    /// `(source, end of its latest window)` of the sources active at
    /// `at`, ascending by source.
    active: Vec<(usize, u64)>,
    /// Sources that were active before the last seek and are not after it
    /// (on a backwards seek, the whole previous active set).
    left: Vec<usize>,
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.budget_only == other.budget_only
            && self.streams == other.streams
            && self.onsets.as_slice() == other.onsets.as_slice()
            && self.next_end == other.next_end
            && self.at == other.at
            && self.active == other.active
            && self.left == other.left
    }
}

impl Timeline {
    /// A cursor before the first epoch over `sources`, or over only their
    /// budget-channel sources when `budget_only`.
    pub fn new(sources: &[Source], budget_only: bool) -> Self {
        let n = sources.len();
        Self {
            budget_only,
            streams: Vec::with_capacity(n),
            onsets: BinaryHeap::with_capacity(n),
            next_end: u64::MAX,
            at: None,
            active: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
        }
    }

    /// Moves the cursor to `epoch` and reports whether the active set may
    /// have changed. Any forward jump is exact; a backwards one (or the
    /// first seek) restarts every stream. Allocation-free.
    pub fn seek(&mut self, sources: &[Source], epoch: u64) -> bool {
        self.left.clear();
        match self.at {
            Some(at) if at <= epoch => {
                if self.next_end > epoch && self.onsets.peek().is_none_or(|k| onset(k.0) > epoch) {
                    self.at = Some(epoch);
                    return false;
                }
            }
            _ => self.restart(sources),
        }
        let mut changed = !self.left.is_empty();
        while let Some(mut top) = self.onsets.peek_mut() {
            let (start, src) = (onset(top.0), top.0 as u64 as usize);
            if start > epoch {
                break;
            }
            match self.streams[src].next() {
                Some(next) => *top = key(next, src),
                None => drop(PeekMut::pop(top)),
            }
            // A source's windows start in order and last equally long, so
            // the latest to start ends last. One that ends by `epoch` opens
            // nothing; an active source it would have extended ends by
            // `epoch` too, and retires below.
            let end = sources[src].end(start);
            if end > epoch {
                match self.active.binary_search_by_key(&src, |&(s, _)| s) {
                    Ok(pos) => self.active[pos].1 = end,
                    Err(pos) => {
                        self.active.insert(pos, (src, end));
                        self.next_end = self.next_end.min(end);
                        changed = true;
                    }
                }
            }
        }
        // A source whose window an onset extended leaves `next_end`
        // early: the pass below then retires nothing and recomputes it.
        if self.next_end <= epoch {
            let left = &mut self.left;
            let (retired, mut next_end) = (left.len(), u64::MAX);
            self.active.retain(|&(src, end)| {
                let live = end > epoch;
                if live {
                    next_end = next_end.min(end);
                } else {
                    left.push(src);
                }
                live
            });
            self.next_end = next_end;
            changed |= self.left.len() > retired;
        }
        self.at = Some(epoch);
        changed
    }

    /// Rewinds every stream to its first onset and moves the active set
    /// to `left`.
    fn restart(&mut self, sources: &[Source]) {
        self.left.extend(self.active.drain(..).map(|(src, _)| src));
        self.streams.clear();
        self.streams
            .extend(sources.iter().map(|s| s.onsets.clone()));
        let mut keys = std::mem::take(&mut self.onsets).into_vec();
        keys.clear();
        for (src, (s, stream)) in sources.iter().zip(&mut self.streams).enumerate() {
            if self.budget_only && !matches!(s.kind, FaultKind::Budget(_)) {
                continue;
            }
            if let Some(start) = stream.next() {
                keys.push(key(start, src));
            }
        }
        self.onsets = BinaryHeap::from(keys);
        self.next_end = u64::MAX;
        self.at = None;
    }

    /// Sources active at the cursor's epoch, in index (override) order.
    pub fn active(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().map(|&(src, _)| src)
    }

    /// Sources the last seek retired.
    pub fn left(&self) -> &[usize] {
        &self.left
    }
}

/// The heap key of `source`'s onset at `epoch`.
fn key(epoch: u64, source: usize) -> Reverse<u128> {
    Reverse(u128::from(epoch) << 64 | source as u128)
}

/// The onset epoch of a heap key.
fn onset(key: u128) -> u64 {
    (key >> 64) as u64
}
