//! Anomaly-triggered flight recorder.
//!
//! The recorder watches one [`HealthSample`] per fleet epoch — a handful
//! of scalars the fleet already computes (overshoot flag, max |TD error|,
//! watchdog flips, budget-channel message counts) — against a set of
//! declarative [`WatermarkRule`]s. When a rule trips, the owner dumps the
//! last-N-epoch merged trace window plus a metrics snapshot into an
//! [`AnomalyDump`] tagged with the triggering rule, and records an
//! `Event::Anomaly` in the rack trace.
//!
//! `observe` is allocation-free: the flip-burst window is a preallocated
//! ring, streak/cooldown state is a few integers, and rule evaluation is a
//! linear scan. The dump list is preallocated to `max_dumps`, so
//! [`FlightRecorder::record_dump`] only moves the owner's bytes in; the
//! owner renders each dump into a buffer of exactly its size, and those
//! bytes are a trip's one allocation. Cooldown and `max_dumps` bound the
//! trips.
//!
//! Determinism: every input to `observe` derives from the simulated run
//! (no wall clock), rules are evaluated in their configured order with the
//! first match winning, and dump bytes are built from shard-invariant
//! merged traces and snapshots — so dump bytes are identical at any shard
//! count.

use crate::event::AnomalyKind;

/// One declarative watermark rule for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatermarkRule {
    /// Trip when the fleet has been over its rack budget for this many
    /// consecutive epochs.
    OvershootStreak {
        /// Consecutive over-budget epochs required to trip.
        epochs: u32,
    },
    /// Trip when the epoch's max |TD error| exceeds this watermark.
    TdErrorBlowup {
        /// Trip threshold on max |TD error|.
        max_abs: f64,
    },
    /// Trip when at least `flips` watchdog flag transitions happen within
    /// the last `window` epochs.
    WatchdogFlipBurst {
        /// Flip count required to trip.
        flips: u64,
        /// Sliding window length in epochs.
        window: u32,
    },
    /// Trip when the budget channel's per-epoch loss rate reaches
    /// `loss_rate` with at least `min_sent` messages sent (so a single
    /// lost message out of one can't trip it).
    BudgetLossSpike {
        /// Lost/sent ratio required to trip.
        loss_rate: f64,
        /// Minimum messages sent this epoch for the rule to apply.
        min_sent: u64,
    },
}

impl WatermarkRule {
    /// The anomaly kind this rule reports when it trips.
    pub fn kind(self) -> AnomalyKind {
        match self {
            Self::OvershootStreak { .. } => AnomalyKind::OvershootStreak,
            Self::TdErrorBlowup { .. } => AnomalyKind::TdErrorBlowup,
            Self::WatchdogFlipBurst { .. } => AnomalyKind::WatchdogFlipBurst,
            Self::BudgetLossSpike { .. } => AnomalyKind::BudgetLossSpike,
        }
    }
}

/// Flight-recorder configuration: the trace window to dump, the rule set,
/// and the trip-rate bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// How many trailing epochs of merged trace go into each dump.
    pub window: u64,
    /// Watermark rules, evaluated in order; the first match trips.
    pub rules: Vec<WatermarkRule>,
    /// Minimum epochs between trips (suppresses re-trips while the same
    /// incident is still unfolding).
    pub cooldown: u64,
    /// Hard cap on dumps per run; once reached, `observe` stops tripping.
    pub max_dumps: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            window: 32,
            rules: vec![
                WatermarkRule::OvershootStreak { epochs: 25 },
                WatermarkRule::TdErrorBlowup { max_abs: 50.0 },
                WatermarkRule::WatchdogFlipBurst {
                    flips: 8,
                    window: 16,
                },
                WatermarkRule::BudgetLossSpike {
                    loss_rate: 0.5,
                    min_sent: 4,
                },
            ],
            cooldown: 64,
            max_dumps: 4,
        }
    }
}

/// One epoch's health scalars, fed to [`FlightRecorder::observe`]. All
/// values come from the simulated run, never from the wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSample {
    /// The fleet epoch this sample describes.
    pub epoch: u64,
    /// Whether fleet power exceeded the rack budget this epoch.
    pub overshoot: bool,
    /// Max |TD error| observed across every chip this epoch.
    pub td_max_abs: f64,
    /// Watchdog flag transitions (enter + clear) across the fleet this
    /// epoch.
    pub watchdog_flips: u64,
    /// Budget-channel messages sent this epoch (fleet channel).
    pub messages_sent: u64,
    /// Of those, messages lost to channel faults.
    pub messages_lost: u64,
}

/// One completed anomaly dump: the trip epoch, the rule kind, and the
/// serialized dump (metrics snapshot + trace window) as produced by the
/// owner.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyDump {
    /// Epoch the rule tripped.
    pub epoch: u64,
    /// Which rule tripped.
    pub kind: AnomalyKind,
    /// The dump body (Prometheus text + JSONL trace window).
    pub bytes: Vec<u8>,
}

/// Upper bound on the dump slots reserved up front, so a `max_dumps` of
/// "effectively unlimited" does not reserve unbounded memory.
const PREALLOCATED_DUMPS: usize = 1024;

/// The anomaly-triggered flight recorder. Owns rule state and completed
/// dumps; the fleet (or any other owner) calls [`observe`](Self::observe)
/// once per epoch and, on a trip, assembles the dump bytes and hands them
/// back via [`record_dump`](Self::record_dump).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    config: RecorderConfig,
    overshoot_streak: u32,
    /// Per-epoch watchdog flip counts for the largest flip-burst window;
    /// a preallocated ring indexed by `epoch % len`.
    flips: Vec<u64>,
    flips_pos: usize,
    last_trip: Option<u64>,
    trips: u64,
    dumps: Vec<AnomalyDump>,
}

impl FlightRecorder {
    /// Builds a recorder; preallocates the flip window for the largest
    /// configured burst rule so `observe` never allocates.
    pub fn new(config: RecorderConfig) -> Self {
        let max_window = config
            .rules
            .iter()
            .map(|r| match r {
                WatermarkRule::WatchdogFlipBurst { window, .. } => *window as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
            .max(1);
        Self {
            overshoot_streak: 0,
            flips: vec![0; max_window],
            flips_pos: 0,
            last_trip: None,
            trips: 0,
            dumps: Vec::with_capacity(config.max_dumps.min(PREALLOCATED_DUMPS)),
            config,
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// Feeds one epoch's health scalars; returns the tripped rule's kind,
    /// or `None`. Allocation-free. Honors cooldown and stops tripping once
    /// `max_dumps` dumps have been recorded.
    pub fn observe(&mut self, sample: &HealthSample) -> Option<AnomalyKind> {
        // Update rolling state first so suppressed epochs still count.
        if sample.overshoot {
            self.overshoot_streak += 1;
        } else {
            self.overshoot_streak = 0;
        }
        self.flips[self.flips_pos] = sample.watchdog_flips;
        self.flips_pos = (self.flips_pos + 1) % self.flips.len();

        if self.dumps.len() >= self.config.max_dumps {
            return None;
        }
        if let Some(last) = self.last_trip {
            if sample.epoch.saturating_sub(last) < self.config.cooldown {
                return None;
            }
        }
        let tripped = self.config.rules.iter().find_map(|rule| match *rule {
            WatermarkRule::OvershootStreak { epochs } => {
                (self.overshoot_streak >= epochs).then(|| rule.kind())
            }
            WatermarkRule::TdErrorBlowup { max_abs } => {
                (sample.td_max_abs > max_abs).then(|| rule.kind())
            }
            WatermarkRule::WatchdogFlipBurst { flips, window } => {
                let w = (window as usize).min(self.flips.len());
                let n = self.flips.len();
                // The last `w` entries written, ending at flips_pos - 1.
                let total: u64 = (0..w)
                    .map(|i| self.flips[(self.flips_pos + n - 1 - i) % n])
                    .sum();
                (total >= flips).then(|| rule.kind())
            }
            WatermarkRule::BudgetLossSpike {
                loss_rate,
                min_sent,
            } => {
                let sent = sample.messages_sent;
                (sent >= min_sent && sample.messages_lost as f64 >= loss_rate * sent as f64)
                    .then(|| rule.kind())
            }
        });
        if tripped.is_some() {
            self.last_trip = Some(sample.epoch);
            self.trips += 1;
        }
        tripped
    }

    /// Stores a completed dump assembled by the owner after a trip.
    pub fn record_dump(&mut self, epoch: u64, kind: AnomalyKind, bytes: Vec<u8>) {
        self.dumps.push(AnomalyDump { epoch, kind, bytes });
    }

    /// Completed dumps, in trip order.
    pub fn dumps(&self) -> &[AnomalyDump] {
        &self.dumps
    }

    /// Total rule trips so far (counts trips even if the owner never
    /// recorded a dump for one).
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> HealthSample {
        HealthSample {
            epoch,
            ..HealthSample::default()
        }
    }

    #[test]
    fn overshoot_streak_trips_and_resets() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            rules: vec![WatermarkRule::OvershootStreak { epochs: 3 }],
            cooldown: 0,
            ..RecorderConfig::default()
        });
        for e in 0..2 {
            let s = HealthSample {
                overshoot: true,
                ..sample(e)
            };
            assert_eq!(rec.observe(&s), None);
        }
        // A clear epoch resets the streak.
        assert_eq!(rec.observe(&sample(2)), None);
        for e in 3..5 {
            let s = HealthSample {
                overshoot: true,
                ..sample(e)
            };
            assert_eq!(rec.observe(&s), None);
        }
        let s = HealthSample {
            overshoot: true,
            ..sample(5)
        };
        assert_eq!(rec.observe(&s), Some(AnomalyKind::OvershootStreak));
        assert_eq!(rec.trips(), 1);
    }

    #[test]
    fn td_blowup_respects_cooldown_and_max_dumps() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            rules: vec![WatermarkRule::TdErrorBlowup { max_abs: 10.0 }],
            cooldown: 5,
            max_dumps: 2,
            ..RecorderConfig::default()
        });
        let hot = |e| HealthSample {
            td_max_abs: 99.0,
            ..sample(e)
        };
        assert_eq!(rec.observe(&hot(0)), Some(AnomalyKind::TdErrorBlowup));
        rec.record_dump(0, AnomalyKind::TdErrorBlowup, vec![1]);
        // Inside the cooldown: suppressed.
        assert_eq!(rec.observe(&hot(3)), None);
        assert_eq!(rec.observe(&hot(5)), Some(AnomalyKind::TdErrorBlowup));
        rec.record_dump(5, AnomalyKind::TdErrorBlowup, vec![2]);
        // Dump cap reached: never trips again.
        assert_eq!(rec.observe(&hot(50)), None);
        assert_eq!(rec.dumps().len(), 2);
        assert_eq!(rec.trips(), 2);
    }

    #[test]
    fn flip_burst_uses_sliding_window() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            rules: vec![WatermarkRule::WatchdogFlipBurst {
                flips: 6,
                window: 3,
            }],
            cooldown: 0,
            ..RecorderConfig::default()
        });
        let flips = |e, n| HealthSample {
            watchdog_flips: n,
            ..sample(e)
        };
        assert_eq!(rec.observe(&flips(0, 2)), None);
        assert_eq!(rec.observe(&flips(1, 2)), None);
        assert_eq!(
            rec.observe(&flips(2, 2)),
            Some(AnomalyKind::WatchdogFlipBurst)
        );
        // Old epochs age out of the window.
        assert_eq!(rec.observe(&flips(3, 0)), None);
        assert_eq!(rec.observe(&flips(4, 0)), None);
        assert_eq!(rec.observe(&flips(5, 5)), None);
    }

    #[test]
    fn loss_spike_needs_min_sent() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            rules: vec![WatermarkRule::BudgetLossSpike {
                loss_rate: 0.5,
                min_sent: 4,
            }],
            cooldown: 0,
            ..RecorderConfig::default()
        });
        let s = HealthSample {
            messages_sent: 2,
            messages_lost: 2,
            ..sample(0)
        };
        assert_eq!(rec.observe(&s), None);
        let s = HealthSample {
            messages_sent: 4,
            messages_lost: 2,
            ..sample(1)
        };
        assert_eq!(rec.observe(&s), Some(AnomalyKind::BudgetLossSpike));
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut rec = FlightRecorder::new(RecorderConfig {
            rules: vec![
                WatermarkRule::TdErrorBlowup { max_abs: 1.0 },
                WatermarkRule::BudgetLossSpike {
                    loss_rate: 0.1,
                    min_sent: 1,
                },
            ],
            cooldown: 0,
            ..RecorderConfig::default()
        });
        let s = HealthSample {
            td_max_abs: 5.0,
            messages_sent: 10,
            messages_lost: 10,
            ..sample(0)
        };
        assert_eq!(rec.observe(&s), Some(AnomalyKind::TdErrorBlowup));
    }
}
