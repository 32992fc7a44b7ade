//! The structured-event vocabulary of the control loop.
//!
//! Every notable state change in one control epoch — a watchdog flag flip,
//! a budget reallocation, an exploration choice, a fault window opening, a
//! VF-level switch — is one compact [`Event`] wrapped in an
//! [`EventRecord`] carrying its epoch, core and per-ring sequence number.
//! Events are `Copy` and carry plain scalars only, so recording one is a
//! couple of stores into a preallocated ring (see [`crate::TraceRing`]).
//!
//! Within an epoch, events are ordered by their position in the control
//! pipeline ([`Event::rank`]): the controller's serial decision events
//! first, then the per-core RL choices, then the simulator's fault edges,
//! VF switches and the closing epoch boundary. This rank — not the shard
//! that recorded the event — is the merge key, which is what makes merged
//! traces bit-identical across shard counts (see [`crate::merge_records`]).

use serde::{Deserialize, Serialize};

/// Sentinel core index for chip-wide events (epoch boundaries, chip-sensor
/// faults, budget reallocations, chip-dark transitions).
pub const CHIP: u32 = u32::MAX;

/// Sentinel chip index for rack-wide events in a merged fleet trace
/// (arbiter decisions, anomaly trips). The epoch-major fleet merge key
/// sorts rack events after every real chip's events of the same epoch,
/// mirroring how the rack closes each fleet epoch.
pub const RACK: u32 = u32::MAX;

/// Which watermark rule tripped a flight-recorder [`Event::Anomaly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Fleet power stayed over its rack budget for too many epochs.
    OvershootStreak,
    /// The per-epoch max |TD error| crossed the blowup watermark.
    TdErrorBlowup,
    /// Too many watchdog flag flips inside a sliding epoch window.
    WatchdogFlipBurst,
    /// The budget channel lost too large a fraction of messages.
    BudgetLossSpike,
}

impl AnomalyKind {
    /// Short kebab-case name for dump headers and tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::OvershootStreak => "overshoot-streak",
            Self::TdErrorBlowup => "td-error-blowup",
            Self::WatchdogFlipBurst => "watchdog-flip-burst",
            Self::BudgetLossSpike => "budget-loss-spike",
        }
    }
}

/// Which watchdog flag a [`Event::Watchdog`] transition refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchdogFlag {
    /// The core's sensor reading is suspect and being held.
    Stale,
    /// The core's sensor has been written off as dead.
    Dead,
    /// Chip-level telemetry is dark (chip-wide event).
    Dark,
}

impl WatchdogFlag {
    /// Short lower-case name for tables and CSV.
    pub fn name(self) -> &'static str {
        match self {
            Self::Stale => "stale",
            Self::Dead => "dead",
            Self::Dark => "dark",
        }
    }
}

/// Which family of fault machinery a fault edge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Per-core power-sensor fault (stuck / spike / drift).
    Sensor,
    /// DVFS actuator fault (dropped / delayed / clamped commands).
    Actuator,
    /// Budget-channel fault (lost / delayed / corrupt messages).
    Budget,
    /// Core hot-unplug.
    Unplug,
    /// Thermal-throttle cap on the core's level.
    Throttle,
    /// Chip-level sensor fault (chip-wide event).
    ChipSensor,
}

impl FaultClass {
    /// Every class, in bitmask-bit order (see `FaultState::class_mask`).
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Sensor,
        FaultClass::Actuator,
        FaultClass::Budget,
        FaultClass::Unplug,
        FaultClass::Throttle,
        FaultClass::ChipSensor,
    ];

    /// Short lower-case name for tables and CSV.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sensor => "sensor",
            Self::Actuator => "actuator",
            Self::Budget => "budget",
            Self::Unplug => "unplug",
            Self::Throttle => "throttle",
            Self::ChipSensor => "chip-sensor",
        }
    }
}

/// One structured event in the control loop.
///
/// Payloads are plain scalars (`f64`/`u64`/`u8`) so records stay `Copy`
/// and ring slots have a fixed size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A watchdog flag flipped for this core (or the chip, for
    /// [`WatchdogFlag::Dark`]).
    Watchdog {
        /// Which flag flipped.
        flag: WatchdogFlag,
        /// `true` when the flag was raised, `false` when it cleared.
        entered: bool,
    },
    /// Chip power crossed above the budget this epoch.
    OvershootOnset {
        /// Watts above the budget at onset.
        over_w: f64,
    },
    /// Chip power fell back under the budget.
    OvershootEnd {
        /// How many consecutive epochs the overshoot lasted.
        epochs: u64,
    },
    /// The coarse-grain allocator reassigned per-core budgets.
    BudgetRealloc {
        /// Total moved watts: `Σ|new_i − old_i|` over all cores.
        magnitude_w: f64,
    },
    /// Budget freed by dead cores was redistributed to survivors.
    BudgetRedistribution {
        /// Watts redistributed this epoch.
        freed_w: f64,
    },
    /// A per-core RL agent explored (took a non-greedy action).
    RlChoice {
        /// The VF level index the agent chose.
        action: u8,
        /// Always `true` today (only explorations are recorded); kept so
        /// exploitation records can be added without a format change.
        explored: bool,
    },
    /// A fault window opened on this core (or the chip sensor).
    FaultInjected {
        /// Which fault family.
        class: FaultClass,
    },
    /// A fault window closed on this core (or the chip sensor).
    FaultCleared {
        /// Which fault family.
        class: FaultClass,
    },
    /// The core's VF level changed this epoch (recorded only on change).
    VfAction {
        /// The new level index.
        level: u8,
    },
    /// End-of-epoch boundary marker (chip-wide, one per epoch).
    Epoch {
        /// True total chip power over the epoch, watts.
        power_w: f64,
    },
    /// A flight-recorder watermark rule tripped (rack-wide at fleet
    /// scope). Recorded after the epoch boundary so a dump's trace window
    /// ends with the trip that produced it.
    Anomaly {
        /// Which watermark rule tripped.
        kind: AnomalyKind,
        /// The observed value that crossed the watermark (streak length,
        /// max |TD error|, flip count, or loss rate — per `kind`).
        value: f64,
    },
}

impl Event {
    /// Position of this event's recording site in the control pipeline.
    ///
    /// The merge key within an epoch: controller decision events
    /// (watchdog, overshoot, budget, RL) precede simulator events (fault
    /// edges, VF switches, the epoch boundary), mirroring the
    /// decide-then-step order of the closed loop.
    pub fn rank(self) -> u8 {
        match self {
            Self::Watchdog { .. } => 0,
            Self::OvershootOnset { .. } | Self::OvershootEnd { .. } => 1,
            Self::BudgetRealloc { .. } => 2,
            Self::BudgetRedistribution { .. } => 3,
            Self::RlChoice { .. } => 4,
            Self::FaultInjected { .. } => 5,
            Self::FaultCleared { .. } => 6,
            Self::VfAction { .. } => 7,
            Self::Epoch { .. } => 8,
            Self::Anomaly { .. } => 9,
        }
    }

    /// Every family name [`Event::kind_name`] returns, in rank order.
    pub const KIND_NAMES: [&'static str; 9] = [
        "watchdog",
        "overshoot",
        "realloc",
        "redistribution",
        "rl",
        "fault",
        "vf",
        "epoch",
        "anomaly",
    ];

    /// The event's family name, used by `trace_inspect --kind`.
    pub fn kind_name(self) -> &'static str {
        match self {
            Self::Watchdog { .. } => "watchdog",
            Self::OvershootOnset { .. } | Self::OvershootEnd { .. } => "overshoot",
            Self::BudgetRealloc { .. } => "realloc",
            Self::BudgetRedistribution { .. } => "redistribution",
            Self::RlChoice { .. } => "rl",
            Self::FaultInjected { .. } | Self::FaultCleared { .. } => "fault",
            Self::VfAction { .. } => "vf",
            Self::Epoch { .. } => "epoch",
            Self::Anomaly { .. } => "anomaly",
        }
    }

    /// A compact human-readable payload description for tables.
    pub fn detail(self) -> String {
        match self {
            Self::Watchdog { flag, entered } => {
                format!(
                    "{} {}",
                    flag.name(),
                    if entered { "enter" } else { "clear" }
                )
            }
            Self::OvershootOnset { over_w } => format!("onset +{over_w:.3} W"),
            Self::OvershootEnd { epochs } => format!("end after {epochs} ep"),
            Self::BudgetRealloc { magnitude_w } => format!("moved {magnitude_w:.3} W"),
            Self::BudgetRedistribution { freed_w } => format!("freed {freed_w:.3} W"),
            Self::RlChoice { action, explored } => {
                format!(
                    "{} a={action}",
                    if explored { "explore" } else { "exploit" }
                )
            }
            Self::FaultInjected { class } => format!("{} inject", class.name()),
            Self::FaultCleared { class } => format!("{} clear", class.name()),
            Self::VfAction { level } => format!("level {level}"),
            Self::Epoch { power_w } => format!("{power_w:.3} W"),
            Self::Anomaly { kind, value } => format!("{} at {value:.3}", kind.name()),
        }
    }
}

/// One recorded event: the epoch and core it belongs to, its per-ring
/// sequence number, and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Control epoch the event occurred in.
    pub epoch: u64,
    /// Core index, or [`CHIP`] for chip-wide events.
    pub core: u32,
    /// Sequence number: per-ring and monotonic while recording; rewritten
    /// to the global merged position by [`crate::merge_records`].
    pub seq: u32,
    /// The event payload.
    pub event: Event,
}

impl EventRecord {
    /// The deterministic merge key: `(epoch, pipeline rank, core)`.
    ///
    /// Deliberately *not* `(epoch, shard, seq)`: shard identity and
    /// per-ring sequence numbers depend on the shard count, while the
    /// pipeline rank and core index do not. Every recording site emits at
    /// most one event per `(epoch, rank-discriminating payload, core)`, so
    /// this key (with a stable sort for the rare same-site ties) yields
    /// the same merged order at every shard count.
    pub fn merge_key(&self) -> (u64, u8, u32) {
        (self.epoch, self.event.rank(), self.core)
    }
}

/// Sorts `records` into the canonical merged order and renumbers `seq` to
/// the merged position, making the result independent of how many rings
/// (shards) the records came from.
///
/// Call with the concatenation of every ring's records (each ring appended
/// oldest → newest, serial rings before shard rings). The sort key is
/// [`EventRecord::merge_key`]; ties keep their per-ring recording order,
/// which serial sites make shard-count-invariant by construction.
///
/// The order is a stable sort's, but computed without one: `seq` (about
/// to be overwritten anyway) first takes each record's input position,
/// and an in-place unstable sort on `(merge key, input position)` — a
/// total order, so the result is unique — needs no scratch buffer.
pub fn merge_records(records: &mut [EventRecord]) {
    number_by_position(records.iter_mut().map(|r| &mut r.seq));
    records.sort_unstable_by_key(|r| (r.merge_key(), r.seq));
    number_by_position(records.iter_mut().map(|r| &mut r.seq));
}

/// Writes each slot's position into it (`seq` renumbering).
fn number_by_position<'a>(seqs: impl Iterator<Item = &'a mut u32>) {
    for (i, seq) in seqs.enumerate() {
        *seq = u32::try_from(i).expect("a merged trace holds at most u32::MAX records");
    }
}

/// One recorded event in a multi-chip fleet run: a per-chip
/// [`EventRecord`] tagged with the fleet index of the chip that produced
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetEventRecord {
    /// Fleet index of the chip the event belongs to.
    pub chip: u32,
    /// The chip-local record (its `core` stays chip-local).
    pub record: EventRecord,
}

impl FleetEventRecord {
    /// The deterministic fleet merge key: `(epoch, chip, rank, core)`.
    ///
    /// Epoch-major so the merged trace interleaves chips epoch by epoch,
    /// then chip-major within the epoch: which shard *stepped* a chip
    /// depends on the fleet shard count, but the chip's fleet index does
    /// not, so this key (with [`EventRecord::merge_key`]'s rank/core tail)
    /// yields the same merged order at every shard count.
    pub fn merge_key(&self) -> (u64, u32, u8, u32) {
        (
            self.record.epoch,
            self.chip,
            self.record.event.rank(),
            self.record.core,
        )
    }
}

/// Sorts fleet records into the canonical merged order and renumbers
/// `seq` to the merged position — [`merge_records`] one level up, keyed by
/// [`FleetEventRecord::merge_key`] with the same allocation-free
/// stable-order construction, making the result independent of how many
/// shards stepped the fleet.
pub fn merge_fleet_records(records: &mut [FleetEventRecord]) {
    number_by_position(records.iter_mut().map(|r| &mut r.record.seq));
    records.sort_unstable_by_key(|r| (r.merge_key(), r.record.seq));
    number_by_position(records.iter_mut().map(|r| &mut r.record.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_pipeline_order() {
        // One event of each rank, in pipeline order.
        let pipeline = [
            Event::Watchdog {
                flag: WatchdogFlag::Stale,
                entered: true,
            },
            Event::OvershootOnset { over_w: 1.0 },
            Event::BudgetRealloc { magnitude_w: 1.0 },
            Event::BudgetRedistribution { freed_w: 1.0 },
            Event::RlChoice {
                action: 3,
                explored: true,
            },
            Event::FaultInjected {
                class: FaultClass::Sensor,
            },
            Event::FaultCleared {
                class: FaultClass::Sensor,
            },
            Event::VfAction { level: 2 },
            Event::Epoch { power_w: 10.0 },
            Event::Anomaly {
                kind: AnomalyKind::BudgetLossSpike,
                value: 1.0,
            },
        ];
        assert!(pipeline.windows(2).all(|w| w[0].rank() < w[1].rank()));
        assert_eq!(Event::OvershootEnd { epochs: 3 }.rank(), pipeline[1].rank());
        // `KIND_NAMES` lists the families in the same order.
        let mut names: Vec<&str> = pipeline.iter().map(|e| e.kind_name()).collect();
        names.dedup();
        assert_eq!(names, Event::KIND_NAMES);
    }

    #[test]
    fn merge_is_shard_layout_invariant() {
        // Simulate one epoch of RL events recorded serially vs in two
        // shard rings: the merged orders must match bit for bit.
        let rl = |core: u32, seq: u32| EventRecord {
            epoch: 7,
            core,
            seq,
            event: Event::RlChoice {
                action: 1,
                explored: true,
            },
        };
        let mut serial: Vec<EventRecord> = (0..6).map(|c| rl(c, c)).collect();
        // Two shards: cores 0..3 in ring A (seq restarts), 3..6 in ring B.
        let mut sharded: Vec<EventRecord> = (0..3)
            .map(|c| rl(c, c))
            .chain((3..6).map(|c| rl(c, c - 3)))
            .collect();
        merge_records(&mut serial);
        merge_records(&mut sharded);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn merge_renumbers_seq_globally() {
        let mut records = vec![
            EventRecord {
                epoch: 2,
                core: 0,
                seq: 9,
                event: Event::Epoch { power_w: 1.0 },
            },
            EventRecord {
                epoch: 1,
                core: 0,
                seq: 4,
                event: Event::Epoch { power_w: 2.0 },
            },
        ];
        merge_records(&mut records);
        assert_eq!(records[0].epoch, 1);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn chip_events_sort_after_core_events_of_same_rank() {
        let mk = |core: u32| EventRecord {
            epoch: 0,
            core,
            seq: 0,
            event: Event::Watchdog {
                flag: WatchdogFlag::Stale,
                entered: true,
            },
        };
        let mut v = vec![mk(CHIP), mk(3)];
        merge_records(&mut v);
        assert_eq!(v[0].core, 3);
        assert_eq!(v[1].core, CHIP);
    }

    #[test]
    fn fleet_merge_is_chip_layout_invariant() {
        // Two chips' rings concatenated in either order must merge to the
        // same canonical trace: chip-major within the epoch, epoch-major
        // overall.
        let rec = |chip: u32, epoch: u64, core: u32| FleetEventRecord {
            chip,
            record: EventRecord {
                epoch,
                core,
                seq: 0,
                event: Event::VfAction { level: 1 },
            },
        };
        let mut ab = vec![rec(0, 1, 2), rec(0, 2, 0), rec(1, 1, 0), rec(1, 1, 1)];
        let mut ba = vec![rec(1, 1, 1), rec(1, 1, 0), rec(0, 2, 0), rec(0, 1, 2)];
        merge_fleet_records(&mut ab);
        merge_fleet_records(&mut ba);
        assert_eq!(ab, ba);
        // Epoch-major, then chip-major, then the chip-local key.
        let keys: Vec<(u64, u32, u32)> = ab
            .iter()
            .map(|r| (r.record.epoch, r.chip, r.record.core))
            .collect();
        assert_eq!(keys, vec![(1, 0, 2), (1, 1, 0), (1, 1, 1), (2, 0, 0)]);
        // seq is renumbered to the merged position.
        assert_eq!(
            ab.iter().map(|r| r.record.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn names_and_details_are_stable() {
        let e = Event::FaultInjected {
            class: FaultClass::Unplug,
        };
        assert_eq!(e.kind_name(), "fault");
        assert_eq!(e.detail(), "unplug inject");
        let e = Event::VfAction { level: 5 };
        assert_eq!(e.kind_name(), "vf");
        assert_eq!(e.detail(), "level 5");
        let e = Event::Anomaly {
            kind: AnomalyKind::TdErrorBlowup,
            value: 64.5,
        };
        assert_eq!(e.kind_name(), "anomaly");
        assert_eq!(e.detail(), "td-error-blowup at 64.500");
        assert!(Event::Epoch { power_w: 0.0 }.rank() < e.rank());
    }
}
