//! **odrl-faults** — seeded, deterministic fault injection for the OD-RL
//! closed loop.
//!
//! The paper's argument for model-free distributed control is robustness:
//! per-core Q-learning keeps a chip under its power budget from *imperfect*
//! telemetry, over *unreliable* actuators, across *partially failing*
//! hardware. This crate provides the misbehaving environment that claim is
//! tested against. A declarative, serde-friendly [`FaultPlan`] is compiled
//! once — [`FaultEngine::compile`] — into concrete per-epoch fault
//! schedules, and the engine is then driven by the simulator's epoch loop
//! with **zero heap allocations** and **no runtime randomness**:
//!
//! * **Sensor faults** ([`SensorFault`]) — a power reading sticks at its
//!   last value or at zero, spikes by a gain, or drifts multiplicatively.
//! * **Actuator faults** ([`ActuatorFault`]) — a VF command is dropped,
//!   applied `k` epochs late, or clamped below a level ceiling.
//! * **Budget-channel faults** ([`BudgetFault`]) — the coarse-grain
//!   reallocation message from the global allocator to a per-core agent is
//!   lost, delayed, or replaced by a stale previous allocation (the
//!   "distributed" part of the paper finally gets an unreliable channel).
//! * **Core faults** ([`CoreFault`]) — a core hot-unplugs (and rejoins when
//!   the event window ends) or is force-throttled below a level ceiling.
//!
//! # Determinism
//!
//! All randomness happens at *compile* time: [`RandomBurst`] specs are
//! expanded into concrete `(core, start, duration)` events by a seeded
//! generator, after which the schedule is a pure function of the epoch
//! index. [`FaultEngine::begin_epoch`] refreshes flat per-core flag arrays
//! in a [`FaultState`] scratch, and every injection point reads those flags
//! without touching an RNG — so a faulted run is bit-identical at every
//! shard count, and the same plan + seed always reproduces the same run.
//!
//! # Cost
//!
//! The compiled schedule is a timeline: the windows in plan order (later
//! entries win on overlap) plus start- and end-sorted edge lists, shared
//! behind an `Arc` by every clone of the engine and every
//! [`BudgetChannel`] built from it. Each [`FaultState`] and each channel
//! keeps a cursor into it, so `begin_epoch` costs O(edges crossed + active
//! windows) rather than O(compiled windows): it moves forward by any jump,
//! re-seeks from scratch when the epoch goes backwards, and repaints the
//! flags only when the active set changes. Compiling draws each seeded
//! burst's onsets as geometric gaps, one draw per window rather than one
//! per core-epoch.
//!
//! # Example
//!
//! ```
//! use odrl_faults::{FaultEngine, FaultKind, FaultPlan, SensorFault, Target};
//! use odrl_power::LevelId;
//!
//! let plan = FaultPlan::new().with_event(
//!     FaultKind::Sensor(SensorFault::StuckZero),
//!     Target::Range { lo: 0, hi: 2 },
//!     10,
//!     5,
//! );
//! let engine = FaultEngine::compile(&plan, 4, 42)?;
//! let mut state = engine.state();
//!
//! engine.begin_epoch(12, &mut state);
//! state.apply_actions(&[LevelId(3); 4]);
//! assert_eq!(state.sensor_fault(0), Some(SensorFault::StuckZero));
//! assert_eq!(state.sensor_fault(3), None);
//!
//! engine.begin_epoch(20, &mut state); // window over
//! assert_eq!(state.sensor_fault(0), None);
//! # Ok::<(), odrl_faults::FaultError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod engine;
pub mod error;
mod expand;
pub mod plan;
mod timeline;

pub use channel::BudgetChannel;
pub use engine::{FaultEngine, FaultState, SensorView};
pub use error::FaultError;
pub use plan::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultEvent, FaultKind, FaultPlan,
    RandomBurst, SensorFault, Target,
};
