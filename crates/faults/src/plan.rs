//! The declarative fault plan: what goes wrong, where, and when.
//!
//! A [`FaultPlan`] is plain serde-friendly data — deterministic
//! [`FaultEvent`] windows plus seeded [`RandomBurst`] generators — with no
//! behaviour of its own. [`crate::FaultEngine::compile`] validates it
//! against a concrete core count and resolves it into the sources of
//! windows a run draws from.

use serde::{Deserialize, Serialize};

/// A power-sensor fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorFault {
    /// The reading sticks at the last value measured before (or during)
    /// the fault — the default failure mode of a hung telemetry agent.
    StuckLast,
    /// The reading sticks at zero watts (a dead sensor rail). Controllers
    /// that trust it see infinite headroom and ramp up.
    StuckZero,
    /// The reading is multiplied by `gain` (a miscalibrated or glitching
    /// ADC; `gain > 1` fakes overshoot, `gain < 1` fakes headroom).
    Spike {
        /// Multiplicative gain on the true reading.
        gain: f64,
    },
    /// The reading drifts multiplicatively by `rate` per epoch while the
    /// fault is active (accumulating calibration loss); the accumulator
    /// resets when the fault window ends.
    Drift {
        /// Per-epoch relative drift (0.01 = +1 %/epoch).
        rate: f64,
    },
}

/// A VF-actuator fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActuatorFault {
    /// The commanded level is silently dropped; the core keeps its last
    /// applied level.
    Dropped,
    /// The commanded level is applied `epochs` epochs late (a slow or
    /// congested power-management mailbox).
    Delayed {
        /// Delivery delay in whole epochs.
        epochs: u64,
    },
    /// The applied level is clamped to at most `max_level` (a stuck VR
    /// rail that cannot reach the upper operating points).
    Clamped {
        /// Highest applicable VF level index.
        max_level: usize,
    },
}

/// A fault on the budget message from the global reallocator to one
/// per-core agent (see [`crate::BudgetChannel`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BudgetFault {
    /// The reallocation message is lost; the agent keeps its previous
    /// share.
    Lost,
    /// The message arrives `epochs` epochs late.
    Delayed {
        /// Delivery delay in whole epochs.
        epochs: u64,
    },
    /// The agent receives the *previous* round's allocation instead of the
    /// fresh one (stale reuse from a retransmit buffer).
    Stale,
}

/// A whole-core fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoreFault {
    /// The core hot-unplugs: it retires nothing, burns nothing, and its
    /// telemetry goes dark for the fault window. It rejoins (with its
    /// workload where it left off) when the window ends.
    Unplug,
    /// The core is force-throttled: whatever the controller commands, the
    /// applied level is clamped to at most `max_level` (firmware thermal
    /// throttling outside the controller's authority).
    Throttle {
        /// Highest applicable VF level index.
        max_level: usize,
    },
}

/// One fault mode, across all four injection points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Power-sensor fault (injected at the sensor read).
    Sensor(SensorFault),
    /// VF-actuator fault (injected at the VF apply).
    Actuator(ActuatorFault),
    /// Budget-channel fault (injected at the budget distribution).
    Budget(BudgetFault),
    /// Whole-core fault (injected at the core mask).
    Core(CoreFault),
}

/// Which chip of a fleet a plan entry applies to.
///
/// Core indices in [`Target`] are chip-local: core 3 of chip 0 and core 3
/// of chip 5 are different cores. The scope pins an entry to one chip so a
/// plan written for chip 0 cannot silently corrupt chip `k`'s cores when
/// the same plan is attached to every chip of a fleet. The default
/// ([`ChipScope::All`]) applies the entry to every chip, which is also the
/// pre-fleet behaviour: standalone systems compile as chip 0 and `All`
/// matches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChipScope {
    /// The entry applies on every chip (and to standalone systems).
    #[default]
    All,
    /// The entry applies only on the chip with this fleet index.
    Chip(u32),
}

impl ChipScope {
    /// Whether the scope includes the chip with fleet index `chip`.
    pub fn includes(self, chip: u32) -> bool {
        match self {
            Self::All => true,
            Self::Chip(c) => c == chip,
        }
    }
}

/// Which cores (or which chip-level resource) an event hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// Every core.
    All,
    /// The chip-level power sensor (meaningful for sensor faults only).
    Chip,
    /// A single core.
    Core(usize),
    /// The half-open core range `lo..hi`.
    Range {
        /// First affected core.
        lo: usize,
        /// One past the last affected core.
        hi: usize,
    },
}

/// One deterministic fault window: `kind` affects `target` for epochs
/// `start..start + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Where it goes wrong.
    pub target: Target,
    /// First faulty epoch.
    pub start: u64,
    /// Number of faulty epochs (use a large value for a permanent fault).
    pub duration: u64,
    /// Which chip of a fleet the window applies to (core indices in
    /// `target` are chip-local). Defaults to every chip.
    #[serde(default)]
    pub chip: ChipScope,
}

/// A seeded generator of fault events: within `start..end`, each epoch
/// independently starts a `kind` fault on each core with probability
/// `rate_per_kepoch / 1000` (every epoch at 1000 and above); each
/// generated event lasts `duration` epochs. Each core's events come from
/// its own stream, seeded from the compile seed: the run draws the
/// geometric gaps between a core's onsets as it reaches them, one draw
/// and one `ln` per event, so the onsets depend on the platform's `ln` as
/// sensor noise does on its float functions, and on nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomBurst {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First epoch of the generation window.
    pub start: u64,
    /// One past the last epoch of the generation window.
    pub end: u64,
    /// Expected fault starts per core per 1000 epochs.
    pub rate_per_kepoch: f64,
    /// Duration of each generated event, in epochs.
    pub duration: u64,
    /// Which chip of a fleet the generator applies to. Defaults to every
    /// chip; scoped bursts keep their RNG stream (the stream is keyed by
    /// the burst's position in the plan, not by how many bursts survive
    /// the scope filter).
    #[serde(default)]
    pub chip: ChipScope,
}

/// The complete declarative fault scenario for one run.
///
/// An empty plan is valid and injects nothing; a system driven through an
/// empty plan is bit-identical to one with no plan attached.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Deterministic fault windows.
    #[serde(default)]
    pub events: Vec<FaultEvent>,
    /// Seeded stochastic fault generators, drawn as the run reaches them.
    #[serde(default)]
    pub bursts: Vec<RandomBurst>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan contains no events and no bursts.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.bursts.is_empty()
    }

    /// Adds one deterministic fault window (builder style).
    #[must_use]
    pub fn with_event(
        mut self,
        kind: FaultKind,
        target: Target,
        start: u64,
        duration: u64,
    ) -> Self {
        self.events.push(FaultEvent {
            kind,
            target,
            start,
            duration,
            chip: ChipScope::All,
        });
        self
    }

    /// Adds one deterministic fault window scoped to a single fleet chip
    /// (builder style). On standalone systems (chip 0) a window scoped to
    /// any other chip is compiled away.
    #[must_use]
    pub fn with_chip_event(
        mut self,
        chip: u32,
        kind: FaultKind,
        target: Target,
        start: u64,
        duration: u64,
    ) -> Self {
        self.events.push(FaultEvent {
            kind,
            target,
            start,
            duration,
            chip: ChipScope::Chip(chip),
        });
        self
    }

    /// Adds one seeded burst generator (builder style).
    #[must_use]
    pub fn with_burst(mut self, burst: RandomBurst) -> Self {
        self.bursts.push(burst);
        self
    }

    /// Projects the plan's budget faults onto the fleet-level arbiter →
    /// chip channel, where each of the `chips` links plays the role of one
    /// "core".
    ///
    /// A [`FaultKind::Budget`] event scoped [`ChipScope::All`] degrades
    /// every arbiter link ([`Target::All`]); one scoped
    /// [`ChipScope::Chip(k)`] degrades only chip `k`'s link
    /// ([`Target::Core(k)`]) — a scope naming a chip outside the fleet
    /// surfaces as a compile error on the projected plan rather than being
    /// dropped silently. Budget bursts are kept only when scoped `All`
    /// (chip-scoped budget bursts stay chip-local). Non-budget entries
    /// never appear at fleet scope.
    ///
    /// [`ChipScope::Chip(k)`]: ChipScope::Chip
    /// [`Target::Core(k)`]: Target::Core
    #[must_use]
    pub fn fleet_budget_plan(&self, chips: usize) -> FaultPlan {
        let _ = chips; // the projected plan is validated against `chips` links at compile time
        let events = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Budget(_)))
            .map(|e| FaultEvent {
                kind: e.kind,
                target: match e.chip {
                    ChipScope::All => Target::All,
                    ChipScope::Chip(k) => Target::Core(k as usize),
                },
                start: e.start,
                duration: e.duration,
                chip: ChipScope::All,
            })
            .collect();
        let bursts = self
            .bursts
            .iter()
            .filter(|b| matches!(b.kind, FaultKind::Budget(_)) && b.chip == ChipScope::All)
            .copied()
            .collect();
        FaultPlan { events, bursts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new()
            .with_event(FaultKind::Core(CoreFault::Unplug), Target::Core(0), 5, 10)
            .is_empty());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::new()
            .with_event(
                FaultKind::Sensor(SensorFault::Spike { gain: 0.5 }),
                Target::Range { lo: 2, hi: 6 },
                100,
                40,
            )
            .with_event(
                FaultKind::Actuator(ActuatorFault::Delayed { epochs: 3 }),
                Target::All,
                0,
                1000,
            )
            .with_event(
                FaultKind::Sensor(SensorFault::StuckLast),
                Target::Chip,
                7,
                3,
            )
            .with_chip_event(3, FaultKind::Budget(BudgetFault::Stale), Target::All, 20, 5)
            .with_burst(RandomBurst {
                kind: FaultKind::Budget(BudgetFault::Lost),
                start: 50,
                end: 250,
                rate_per_kepoch: 20.0,
                duration: 10,
                chip: ChipScope::All,
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn chip_field_defaults_to_all_in_json() {
        // Pre-fleet plans (no `chip` key) must deserialize unchanged.
        let json = r#"{"events":[{"kind":{"Core":"Unplug"},"target":{"Core":2},"start":5,"duration":10}]}"#;
        let plan: FaultPlan = serde_json::from_str(json).unwrap();
        assert_eq!(plan.events[0].chip, ChipScope::All);
        assert!(ChipScope::All.includes(0));
        assert!(ChipScope::All.includes(7));
        assert!(ChipScope::Chip(3).includes(3));
        assert!(!ChipScope::Chip(3).includes(0));
    }

    #[test]
    fn fleet_budget_plan_projects_scopes_onto_links() {
        let plan = FaultPlan::new()
            // Non-budget entries never reach fleet scope.
            .with_event(FaultKind::Core(CoreFault::Unplug), Target::Core(1), 0, 5)
            // Fleet-wide budget fault -> every arbiter link.
            .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 10, 5)
            // Chip-scoped budget fault -> that chip's link only.
            .with_chip_event(2, FaultKind::Budget(BudgetFault::Stale), Target::All, 20, 5)
            .with_burst(RandomBurst {
                kind: FaultKind::Budget(BudgetFault::Lost),
                start: 0,
                end: 100,
                rate_per_kepoch: 10.0,
                duration: 3,
                chip: ChipScope::All,
            })
            .with_burst(RandomBurst {
                kind: FaultKind::Budget(BudgetFault::Lost),
                start: 0,
                end: 100,
                rate_per_kepoch: 10.0,
                duration: 3,
                chip: ChipScope::Chip(1), // chip-local: stays out of fleet scope
            });
        let fleet = plan.fleet_budget_plan(4);
        assert_eq!(fleet.events.len(), 2);
        assert_eq!(fleet.events[0].target, Target::All);
        assert_eq!(fleet.events[1].target, Target::Core(2));
        assert!(fleet
            .events
            .iter()
            .all(|e| e.chip == ChipScope::All && matches!(e.kind, FaultKind::Budget(_))));
        assert_eq!(fleet.bursts.len(), 1);
    }
}
