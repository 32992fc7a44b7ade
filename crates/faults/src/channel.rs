//! The unreliable budget channel between the global reallocator and the
//! per-core agents.
//!
//! The paper's coarse grain assumes every agent receives its fresh budget
//! share the epoch it is computed. [`BudgetChannel`] models the message
//! hop in between: a send may be delivered immediately (healthy), dropped
//! ([`BudgetFault::Lost`]), deferred ([`BudgetFault::Delayed`]) or
//! replaced by the previously delivered share ([`BudgetFault::Stale`]).
//! The controller routes every reallocation through
//! [`BudgetChannel::send`] and picks deliveries up with
//! [`BudgetChannel::poll`]; an agent that hears nothing simply keeps its
//! old share — exactly the failure semantics of a lossy on-chip mailbox.
//! One level up, the fleet's rack arbiter sends per-chip shares over a
//! channel of its own, with one link per chip.
//!
//! All per-core buffers are sized at construction; steady-state epochs are
//! allocation-free, and behaviour is a deterministic function of the
//! compiled schedule, which the channel shares with its engine. The
//! channel walks the schedule's budget sources with a cursor of its own,
//! drawing their onsets from its own copies of their streams.

use crate::engine::{FaultEngine, Schedule};
use crate::plan::{BudgetFault, FaultKind};
use crate::timeline::Timeline;
use std::sync::Arc;

/// A deterministic lossy/delaying message channel carrying per-core budget
/// shares (watts as `f64`). Built by [`FaultEngine::budget_channel`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetChannel {
    schedule: Arc<Schedule>,
    /// The cursor over the schedule's budget sources.
    timeline: Timeline,
    /// The budget fault active on each core's link this epoch.
    fault: Vec<Option<BudgetFault>>,
    /// In-flight message value per core (at most one; newest wins).
    inbox: Vec<f64>,
    /// Epoch at which the in-flight message becomes deliverable.
    due: Vec<u64>,
    pending: Vec<bool>,
    /// The last value actually delivered on each link (stale-reuse source).
    prev: Vec<f64>,
    has_prev: Vec<bool>,
    epoch: u64,
    /// Messages offered to [`BudgetChannel::send`] over the channel's life.
    sent: u64,
    /// Messages handed out by [`BudgetChannel::poll`] over the channel's
    /// life. `sent - delivered` is the running loss on the links.
    delivered: u64,
}

impl FaultEngine {
    /// Builds the budget-message channel for this schedule. The channel
    /// shares the engine's compiled schedule (nothing is copied) and walks
    /// only its budget-fault sources; a schedule without budget faults
    /// yields an always-healthy (but still functional) channel.
    pub fn budget_channel(&self) -> BudgetChannel {
        let n = self.num_cores();
        let schedule = Arc::clone(&self.schedule);
        BudgetChannel {
            timeline: Timeline::new(&schedule.sources, true),
            schedule,
            fault: vec![None; n],
            inbox: vec![0.0; n],
            due: vec![0; n],
            pending: vec![false; n],
            prev: vec![0.0; n],
            has_prev: vec![false; n],
            epoch: 0,
            sent: 0,
            delivered: 0,
        }
    }
}

impl BudgetChannel {
    /// Number of per-core links.
    pub fn num_cores(&self) -> usize {
        self.fault.len()
    }

    /// Refreshes the per-link fault flags for `epoch`. Call before
    /// [`BudgetChannel::send`] / [`BudgetChannel::poll`] in each epoch the
    /// channel carries traffic. Epochs may be skipped (the flags are exact
    /// after any forward jump) and an earlier epoch replays the sources
    /// from the start; messages in flight keep their due epoch either way.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        let s = &*self.schedule;
        if self.timeline.seek(&s.sources, epoch) {
            for &src in self.timeline.left() {
                let source = &s.sources[src];
                self.fault[source.lo..source.hi].fill(None);
            }
            // Index order: later plan entries override earlier ones.
            for src in self.timeline.active() {
                let source = &s.sources[src];
                if let FaultKind::Budget(f) = source.kind {
                    self.fault[source.lo..source.hi].fill(Some(f));
                }
            }
        }
    }

    /// The fault active on core `i`'s link this epoch, if any.
    pub fn fault(&self, i: usize) -> Option<BudgetFault> {
        self.fault[i]
    }

    /// Sends a fresh budget share to core `i`'s agent. A healthy link
    /// delivers on this epoch's [`BudgetChannel::poll`]; a faulty link
    /// drops, defers or substitutes the stale previous share.
    pub fn send(&mut self, i: usize, value: f64) {
        self.sent += 1;
        match self.fault[i] {
            None => {
                self.inbox[i] = value;
                self.due[i] = self.epoch;
                self.pending[i] = true;
            }
            Some(BudgetFault::Lost) => {}
            Some(BudgetFault::Delayed { epochs }) => {
                self.inbox[i] = value;
                self.due[i] = self.epoch + epochs;
                self.pending[i] = true;
            }
            Some(BudgetFault::Stale) => {
                // The retransmit buffer hands out the previously delivered
                // share; the fresh value never makes it onto the link.
                if self.has_prev[i] {
                    self.inbox[i] = self.prev[i];
                    self.due[i] = self.epoch;
                    self.pending[i] = true;
                }
            }
        }
    }

    /// Delivers core `i`'s in-flight message if it has arrived; `None`
    /// means the agent keeps its current share this epoch.
    pub fn poll(&mut self, i: usize) -> Option<f64> {
        if self.pending[i] && self.epoch >= self.due[i] {
            self.pending[i] = false;
            let value = self.inbox[i];
            self.prev[i] = value;
            self.has_prev[i] = true;
            self.delivered += 1;
            return Some(value);
        }
        None
    }

    /// Messages offered to the channel since construction.
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Messages actually delivered since construction.
    /// `messages_sent() - messages_delivered()` is the watts-carrying
    /// traffic the fault windows swallowed (lost outright, or still
    /// in-flight behind a delay).
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages the fault windows have swallowed so far: sent but not
    /// (yet) delivered — lost outright, or still in flight behind a
    /// delay. This is the numerator of the budget-loss-rate gauge the
    /// observability layer exports.
    pub fn messages_lost(&self) -> u64 {
        self.sent.saturating_sub(self.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, Target};

    fn channel(plan: FaultPlan, cores: usize) -> BudgetChannel {
        FaultEngine::compile(&plan, cores, 1)
            .unwrap()
            .budget_channel()
    }

    #[test]
    fn healthy_link_delivers_same_epoch() {
        let mut ch = channel(FaultPlan::new(), 2);
        ch.begin_epoch(0);
        ch.send(0, 3.5);
        assert_eq!(ch.poll(0), Some(3.5));
        assert_eq!(ch.poll(0), None, "a message delivers once");
        assert_eq!(ch.poll(1), None);
    }

    #[test]
    fn lost_messages_never_arrive() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Core(0),
            0,
            10,
        );
        let mut ch = channel(plan, 1);
        for epoch in 0..10 {
            ch.begin_epoch(epoch);
            ch.send(0, epoch as f64);
            assert_eq!(ch.poll(0), None, "epoch {epoch}");
        }
        // Link heals: the next send goes through.
        ch.begin_epoch(10);
        ch.send(0, 42.0);
        assert_eq!(ch.poll(0), Some(42.0));
    }

    #[test]
    fn delayed_messages_arrive_late() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Delayed { epochs: 3 }),
            Target::Core(0),
            0,
            1,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.send(0, 7.0);
        assert_eq!(ch.poll(0), None);
        for epoch in 1..3 {
            ch.begin_epoch(epoch);
            assert_eq!(ch.poll(0), None, "epoch {epoch}");
        }
        ch.begin_epoch(3);
        assert_eq!(ch.poll(0), Some(7.0));
    }

    #[test]
    fn stale_link_replays_the_previous_delivery() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Stale),
            Target::Core(0),
            5,
            10,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.send(0, 2.0);
        assert_eq!(ch.poll(0), Some(2.0));
        // Inside the stale window every send is replaced by 2.0.
        for epoch in 5..15 {
            ch.begin_epoch(epoch);
            ch.send(0, 99.0);
            assert_eq!(ch.poll(0), Some(2.0), "epoch {epoch}");
        }
        ch.begin_epoch(15);
        ch.send(0, 99.0);
        assert_eq!(ch.poll(0), Some(99.0));
    }

    #[test]
    fn traffic_counters_track_sends_and_deliveries() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Core(0),
            2,
            2,
        );
        let mut ch = channel(plan, 1);
        for epoch in 0..6 {
            ch.begin_epoch(epoch);
            ch.send(0, epoch as f64);
            let _ = ch.poll(0);
        }
        assert_eq!(ch.messages_sent(), 6);
        // Epochs 2 and 3 fall inside the lost window.
        assert_eq!(ch.messages_delivered(), 4);
    }

    #[test]
    fn a_jump_over_a_whole_window_leaves_the_link_healthy() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Core(0),
            5,
            5,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.begin_epoch(20);
        assert_eq!(ch.fault(0), None);
        ch.send(0, 4.0);
        assert_eq!(ch.poll(0), Some(4.0));
    }

    #[test]
    fn a_jump_into_a_window_finds_it_active() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Core(0),
            5,
            5,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.begin_epoch(7);
        assert_eq!(ch.fault(0), Some(BudgetFault::Lost));
        ch.send(0, 4.0);
        assert_eq!(ch.poll(0), None);
    }

    #[test]
    fn a_delayed_message_survives_a_jump() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Delayed { epochs: 3 }),
            Target::Core(0),
            0,
            1,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.send(0, 7.0);
        ch.begin_epoch(2);
        assert_eq!(ch.poll(0), None, "due at epoch 3");
        // The next epoch the channel sees is past the due epoch.
        ch.begin_epoch(10);
        assert_eq!(ch.poll(0), Some(7.0));
        assert_eq!(ch.poll(0), None, "a message delivers once");
    }

    #[test]
    fn stale_link_with_no_history_delivers_nothing() {
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Stale),
            Target::Core(0),
            0,
            5,
        );
        let mut ch = channel(plan, 1);
        ch.begin_epoch(0);
        ch.send(0, 1.0);
        assert_eq!(ch.poll(0), None);
    }
}
