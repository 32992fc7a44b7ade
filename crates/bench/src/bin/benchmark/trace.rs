//! Spans recorded from outside the program, around its public calls.
//!
//! Spans live in memory reserved before the timed loop and are written out
//! as JSONL only after it. The program's own stage timers report durations
//! without start times; those intervals become child spans laid back to
//! back from their parent's start.

use crate::stats::{percentile, self_time};
use std::io::{self, Write};
use std::time::Instant;

/// What a span covers. The name is `layer.call`; layer = crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop chip epoch: decide → step → observe.
    Epoch,
    /// `OdRlController::decide_into`.
    Decide,
    /// Stage timer `Rl`: the whole RL pass inside decide.
    Rl,
    /// Stage timer `RlDecide`.
    RlDecide,
    /// Stage timer `RlLearn`.
    RlLearn,
    /// Stage timer `Realloc`.
    Realloc,
    /// `System::step_in_place`.
    Step,
    /// Stage timer `Workload`.
    Workload,
    /// Stage timer `Power`.
    Power,
    /// Stage timer `Sensor`.
    Sensor,
    /// Stage timer `Noc`.
    Noc,
    /// Stage timer `Thermal`.
    Thermal,
    /// `System::observation_into`.
    Observe,
    /// `FaultEngine::begin_epoch` on a replica of the system's schedule.
    FaultEngine,
    /// `BudgetChannel::begin_epoch` on a replica of the controller's links.
    FaultChannel,
    /// `Fleet::step_epoch`.
    FleetStep,
    /// `Fleet::step_epoch` on the comparison twin (serial or obs off).
    FleetTwin,
    /// Replica `BudgetArbiter::observe` + `reallocate`.
    Arbiter,
    /// Replica fleet-scope `BudgetChannel` begin/send/poll.
    Link,
}

impl Name {
    /// The span name as written to JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Epoch => "epoch",
            Self::Decide => "core.decide",
            Self::Rl => "rl",
            Self::RlDecide => "rl.decide",
            Self::RlLearn => "rl.learn",
            Self::Realloc => "core.realloc",
            Self::Step => "manycore.step",
            Self::Workload => "workload",
            Self::Power => "power",
            Self::Sensor => "sensor",
            Self::Noc => "noc",
            Self::Thermal => "thermal",
            Self::Observe => "manycore.observe",
            Self::FaultEngine => "faults.engine",
            Self::FaultChannel => "faults.channel",
            Self::FleetStep => "fleet.step",
            Self::FleetTwin => "fleet.twin",
            Self::Arbiter => "fleet.arbiter",
            Self::Link => "faults.link",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    epoch: u32,
    start: u64,
    end: u64,
}

/// A fixed-capacity span store; pushing never allocates.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// Reserves room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the store was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id. A full store counts the span as
    /// dropped instead of growing.
    #[inline]
    pub fn push(
        &mut self,
        name: Name,
        parent: Option<u32>,
        epoch: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            epoch: epoch as u32,
            start,
            end,
        });
        id
    }

    /// Records back-to-back children of `parent` starting at `start`, one
    /// per `(name, nanos)` interval; returns the end of the last one.
    pub fn push_laid_out(
        &mut self,
        parent: u32,
        epoch: u64,
        start: u64,
        children: &[(Name, u64)],
    ) -> u64 {
        let mut at = start;
        for &(name, nanos) in children {
            self.push(name, Some(parent), epoch, at, at + nanos);
            at += nanos;
        }
        at
    }

    /// Spans that did not fit the reserved capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self times (duration minus children) of every span called `name`.
    pub fn self_times(&self, name: Name) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| self_time(s.end - s.start, &[c]))
            .collect()
    }

    /// Nearest-rank percentile of `name`'s durations in microseconds, or
    /// `None` if no such span was recorded.
    pub fn us(&self, name: Name, p: f64) -> Option<f64> {
        percentile(&mut self.durations(name), p)
            .ok()
            .map(|ns| ns as f64 / 1e3)
    }

    /// Median self time of `name` in microseconds.
    pub fn self_us_p50(&self, name: Name) -> Option<f64> {
        percentile(&mut self.self_times(name), 50.0)
            .ok()
            .map(|ns| ns as f64 / 1e3)
    }

    /// Writes one JSON object per span, tagged with the workload.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"epoch\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name.as_str(),
                s.epoch,
                s.start,
                s.end
            )?;
            if s.parent == NO_PARENT {
                writeln!(out, "null}}")?;
            } else {
                writeln!(out, "{}}}", s.parent)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_laid_out_children() {
        let mut spans = Spans::with_capacity(8);
        let root = spans.push(Name::Step, None, 0, 100, 200);
        let end = spans.push_laid_out(root, 0, 100, &[(Name::Workload, 30), (Name::Power, 20)]);
        assert_eq!(end, 150);
        assert_eq!(spans.self_times(Name::Step), vec![50]);
        assert_eq!(spans.durations(Name::Power), vec![20]);
        let mut out = Vec::new();
        spans.write_jsonl(&mut out, "w").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().ends_with("\"parent\":null}"));
        assert!(text.lines().nth(1).unwrap().ends_with("\"parent\":0}"));
    }

    #[test]
    fn full_store_drops_instead_of_growing() {
        let mut spans = Spans::with_capacity(1);
        spans.push(Name::Epoch, None, 0, 0, 1);
        spans.push(Name::Epoch, None, 1, 1, 2);
        assert_eq!(spans.dropped(), 1);
        assert_eq!(spans.durations(Name::Epoch), vec![1]);
        assert_eq!(spans.us(Name::Decide, 50.0), None);
    }
}
