//! The compiled fault timeline and the cursor that walks it.
//!
//! A fault window `w` is active at epoch `e` when `start ≤ e < end`. At
//! compile time every window gets a *start edge* and an *end edge*;
//! [`Edges`] holds both lists sorted by `(epoch, window index)`. A
//! [`Timeline`] cursor keeps its position in each list plus the windows
//! active at its current epoch, in window-index order (the override order:
//! later plan entries win on overlap). Moving the cursor forward consumes
//! only the edges it crosses, so a seek costs O(edges crossed + active
//! windows), not O(compiled windows); moving it backwards re-seeks from
//! epoch 0.

use crate::engine::CompiledEvent;

/// Start- and end-sorted edge lists over one subset of the compiled
/// windows, plus the most of them ever active at once.
#[derive(Debug, PartialEq)]
pub(crate) struct Edges {
    /// Window indices ordered by `(start, index)`.
    starts: Vec<usize>,
    /// Window indices ordered by `(end, index)`, when that is not the
    /// start order (see [`Edges::ends`]).
    ends: Option<Vec<usize>>,
    /// The largest active set at any epoch; sizes the cursor's lists so a
    /// seek never allocates.
    max_active: usize,
}

impl Edges {
    /// Builds the edge lists of every window in `events`.
    pub fn build(events: &[CompiledEvent]) -> Self {
        let (starts, start_at) = radix_order(events.iter().map(|ev| ev.start));
        // Windows that all last `len` epochs end in the order they start,
        // so the start order serves as the end order.
        let (ends, end_at) = match common_length(events) {
            Some(len) => (None, start_at.iter().map(|&t| t + len).collect()),
            None => {
                let (ends, end_at) = radix_order(events.iter().map(|ev| ev.end));
                (Some(ends), end_at)
            }
        };
        Self {
            max_active: max_active(&start_at, &end_at),
            starts,
            ends,
        }
    }

    /// The edge lists of the windows `keep` selects, filtered out of these
    /// (so no list is sorted twice); `None` when `keep` selects every
    /// window, and these lists serve the subset as they are.
    pub fn subset(
        &self,
        events: &[CompiledEvent],
        keep: impl Fn(&CompiledEvent) -> bool,
    ) -> Option<Self> {
        let kept: Vec<bool> = events.iter().map(keep).collect();
        if kept.iter().all(|&k| k) {
            return None;
        }
        let pick = |order: &[usize]| -> Vec<usize> {
            order.iter().copied().filter(|&i| kept[i]).collect()
        };
        let starts = pick(&self.starts);
        let ends = self.ends.as_deref().map(pick);
        let start_at: Vec<u64> = starts.iter().map(|&i| events[i].start).collect();
        let end_at: Vec<u64> = ends
            .as_deref()
            .unwrap_or(&starts)
            .iter()
            .map(|&i| events[i].end)
            .collect();
        Some(Self {
            max_active: max_active(&start_at, &end_at),
            starts,
            ends,
        })
    }

    /// Window indices ordered by `(end, index)`. Windows that all last
    /// equally long share one list for both orders.
    fn ends(&self) -> &[usize] {
        self.ends.as_deref().unwrap_or(&self.starts)
    }

    /// The start order, the end order and the largest active set.
    #[cfg(test)]
    pub fn parts(&self) -> (&[usize], &[usize], usize) {
        (&self.starts, self.ends(), self.max_active)
    }

    /// Number of windows active at `epoch`: every window that started by
    /// `epoch` minus those that also ended by it.
    pub fn active_at(&self, events: &[CompiledEvent], epoch: u64) -> usize {
        let started = self.starts.partition_point(|&i| events[i].start <= epoch);
        let ended = self.ends().partition_point(|&i| events[i].end <= epoch);
        started - ended
    }
}

/// The length every window in `events` has, if they share one and no
/// window's end saturated. Then a window's end is its start plus that
/// length, and `(end, index)` order is `(start, index)` order.
fn common_length(events: &[CompiledEvent]) -> Option<u64> {
    let len = events.first().map_or(0, |ev| ev.end.wrapping_sub(ev.start));
    events
        .iter()
        .all(|ev| ev.start.checked_add(len) == Some(ev.end))
        .then_some(len)
}

/// Sorts `keys` and returns the original positions and the keys, both in
/// `(key, position)` order.
///
/// A least-significant-digit radix sort, one byte per pass: each pass is
/// stable, so equal keys keep position order, and a pass is skipped when
/// every key has the same byte there (keys that all fall below 2¹⁶ take
/// two passes). Every pass reads its input in order, and the whole sort is
/// linear in the window count, so building the edges stays cheap next to
/// the burst expansion that produced the windows.
fn radix_order(keys: impl Iterator<Item = u64>) -> (Vec<usize>, Vec<u64>) {
    let mut at: Vec<u64> = keys.collect();
    let mut order: Vec<usize> = (0..at.len()).collect();
    let (any, all) = at.iter().fold((0, u64::MAX), |(o, a), &k| (o | k, a & k));
    let varying = any & !all;
    let (mut next_order, mut next_at) = (vec![0; at.len()], vec![0; at.len()]);
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xFF != 0) {
        let digit = |k: u64| ((k >> shift) & 0xFF) as usize;
        let mut slot = [0usize; 256];
        for &k in &at {
            slot[digit(k)] += 1;
        }
        let mut sum = 0;
        for s in &mut slot {
            (*s, sum) = (sum, sum + *s);
        }
        for (&i, &k) in order.iter().zip(&at) {
            let s = &mut slot[digit(k)];
            next_order[*s] = i;
            next_at[*s] = k;
            *s += 1;
        }
        std::mem::swap(&mut order, &mut next_order);
        std::mem::swap(&mut at, &mut next_at);
    }
    (order, at)
}

/// The most windows active at once, from sorted start and end epochs: a
/// merge of the two lists in time order, where an end at epoch `t` comes
/// before a start at `t` (a window is active on `start ≤ e < end`). The
/// running count can dip below zero at a zero-length window, which never
/// raises the maximum. The loop body takes no branch on the edge order,
/// which is data a branch would mispredict on about every other edge.
fn max_active(starts: &[u64], ends: &[u64]) -> usize {
    let (mut i, mut j, mut active, mut most) = (0, 0, 0isize, 0);
    while i < starts.len() {
        let start = ends.get(j).is_none_or(|&e| starts[i] < e);
        i += usize::from(start);
        j += usize::from(!start);
        active += 2 * isize::from(start) - 1;
        most = most.max(active);
    }
    most.unsigned_abs()
}

/// A cursor over one [`Edges`] list: the windows active at its epoch and
/// the ones the last seek retired.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Timeline {
    /// Next unconsumed position in [`Edges::starts`].
    next_start: usize,
    /// Next unconsumed position in the end order ([`Edges::ends`]).
    next_end: usize,
    /// The epoch of the last seek; `None` before the first.
    at: Option<u64>,
    /// Windows active at `at`, ascending by index.
    active: Vec<usize>,
    /// Windows that were active before the last seek and are not after it
    /// (on a backwards seek, the whole previous active set).
    left: Vec<usize>,
}

impl Timeline {
    /// A cursor before the first epoch, with room for the largest active
    /// set in `edges`.
    pub fn new(edges: &Edges) -> Self {
        Self {
            next_start: 0,
            next_end: 0,
            at: None,
            active: Vec::with_capacity(edges.max_active),
            left: Vec::with_capacity(edges.max_active),
        }
    }

    /// Moves the cursor to `epoch` and reports whether the active set may
    /// have changed. Any forward jump is exact; a backwards one re-seeks
    /// from scratch. Allocation-free.
    pub fn seek(&mut self, events: &[CompiledEvent], edges: &Edges, epoch: u64) -> bool {
        self.left.clear();
        if self.at.is_some_and(|at| epoch < at) {
            self.left.append(&mut self.active);
            self.next_start = 0;
            self.next_end = 0;
            self.at = None;
        }
        let mut changed = !self.left.is_empty();
        // Ends first, so the active list never outgrows `max_active`. A
        // window ending in `(at, epoch]` is in the list only if it had
        // started by `at`; one that starts and ends inside the jump is
        // never added.
        while let Some(&w) = edges.ends().get(self.next_end) {
            let ev = &events[w];
            if ev.end > epoch {
                break;
            }
            self.next_end += 1;
            if self.at.is_some_and(|at| ev.start <= at) {
                let pos = self
                    .active
                    .binary_search(&w)
                    .expect("a started window stays active until its end edge");
                self.active.remove(pos);
                self.left.push(w);
                changed = true;
            }
        }
        while let Some(&w) = edges.starts.get(self.next_start) {
            let ev = &events[w];
            if ev.start > epoch {
                break;
            }
            self.next_start += 1;
            if ev.end > epoch {
                debug_assert!(
                    self.active.len() < self.active.capacity(),
                    "the active set outgrew Edges::max_active"
                );
                let pos = self.active.binary_search(&w).unwrap_or_else(|pos| pos);
                self.active.insert(pos, w);
                changed = true;
            }
        }
        self.at = Some(epoch);
        changed
    }

    /// Windows active at the cursor's epoch, in index (override) order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Windows the last seek retired.
    pub fn left(&self) -> &[usize] {
        &self.left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_order_is_a_stable_sort() {
        let keys = [5u64, 3, 5, 0, u64::MAX, 1 << 40, 3, 256, 255, 1 << 40, 0];
        let (order, at) = radix_order(keys.iter().copied());
        let mut want: Vec<usize> = (0..keys.len()).collect();
        want.sort_by_key(|&i| keys[i]);
        assert_eq!(order, want);
        assert_eq!(at, want.iter().map(|&i| keys[i]).collect::<Vec<_>>());
    }

    /// Edge lists sorted the slow way: by `(key, index)`, with the largest
    /// active set counted epoch by epoch over the windows' edges.
    fn brute_force(events: &[CompiledEvent], keep: impl Fn(&CompiledEvent) -> bool) -> Edges {
        let kept: Vec<usize> = (0..events.len()).filter(|&i| keep(&events[i])).collect();
        let mut starts = kept.clone();
        starts.sort_by_key(|&i| (events[i].start, i));
        let mut ends = kept.clone();
        ends.sort_by_key(|&i| (events[i].end, i));
        let max_active = kept
            .iter()
            .map(|&w| {
                let t = events[w].start;
                kept.iter()
                    .filter(|&&i| events[i].start <= t && t < events[i].end)
                    .count()
            })
            .max()
            .unwrap_or(0);
        Edges {
            starts,
            ends: Some(ends),
            max_active,
        }
    }

    #[test]
    fn edges_match_a_brute_force_sort_with_and_without_a_common_length() {
        use crate::plan::{BudgetFault, FaultKind, SensorFault};
        let window = |budget: bool, start: u64, end: u64| CompiledEvent {
            kind: if budget {
                FaultKind::Budget(BudgetFault::Lost)
            } else {
                FaultKind::Sensor(SensorFault::StuckZero)
            },
            lo: 0,
            hi: 1,
            chip: false,
            start,
            end,
        };
        let is_budget = |e: &CompiledEvent| matches!(e.kind, FaultKind::Budget(_));
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % m
        };
        // Windows of one length (the start order is reused for the ends),
        // of mixed lengths, and of one length where some end saturated.
        for case in 0..3 {
            let events: Vec<CompiledEvent> = (0..300)
                .map(|i| {
                    let start = match case {
                        2 if i % 7 == 0 => u64::MAX - next(4),
                        _ => next(400),
                    };
                    let len = if case == 1 { next(9) } else { 5 };
                    window(next(3) > 0, start, start.saturating_add(len))
                })
                .collect();
            let all = Edges::build(&events);
            assert_eq!(
                all.ends.is_none(),
                case == 0,
                "case {case}: shared end order"
            );
            let want = brute_force(&events, |_| true);
            assert_eq!(all.parts(), want.parts(), "case {case}");
            let budget = all.subset(&events, is_budget).expect("a mixed schedule");
            let want = brute_force(&events, is_budget);
            assert_eq!(budget.parts(), want.parts(), "case {case}");
            let only_budget: Vec<CompiledEvent> =
                events.iter().copied().filter(is_budget).collect();
            let all = Edges::build(&only_budget);
            assert_eq!(all.subset(&only_budget, is_budget), None, "case {case}");
        }
    }

    #[test]
    fn max_active_is_the_largest_active_set() {
        // (start, end) windows: nested, touching, zero-length, saturated.
        let cases: &[&[(u64, u64)]] = &[
            &[],
            &[(3, 3)],
            &[(0, 0), (1, 1), (1, 4), (2, 3)],
            &[(0, 5), (5, 9), (5, 5), (2, 7), (7, 8), (7, 9)],
            &[(u64::MAX - 2, u64::MAX), (0, u64::MAX), (4, 4)],
        ];
        for windows in cases {
            let (mut starts, mut ends): (Vec<u64>, Vec<u64>) = windows.iter().copied().unzip();
            starts.sort_unstable();
            ends.sort_unstable();
            let brute = windows
                .iter()
                .map(|&(t, _)| windows.iter().filter(|&&(s, e)| s <= t && t < e).count())
                .max()
                .unwrap_or(0);
            assert_eq!(max_active(&starts, &ends), brute, "{windows:?}");
        }
    }
}
