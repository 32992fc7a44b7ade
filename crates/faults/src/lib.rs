//! **odrl-faults** — seeded, deterministic fault injection for the OD-RL
//! closed loop.
//!
//! The paper's argument for model-free distributed control is robustness:
//! per-core Q-learning keeps a chip under its power budget from *imperfect*
//! telemetry, over *unreliable* actuators, across *partially failing*
//! hardware. This crate provides the misbehaving environment that claim is
//! tested against. A declarative, serde-friendly [`FaultPlan`] is compiled
//! once — [`FaultEngine::compile`] — into a seeded per-epoch fault
//! schedule, and the engine is then driven by the simulator's epoch loop
//! with **zero heap allocations** and a schedule that depends on nothing
//! but `(plan, cores, seed, epoch)`:
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
//! # Determinism and cost
//!
//! [`FaultEngine::compile`] resolves a plan into *sources*: each explicit
//! event (one window) and each (burst, core) pair of a [`RandomBurst`],
//! which owns a seeded RNG stream of its own. It draws nothing, so a plan
//! costs O(events + cores × bursts), however many windows it opens. Each
//! [`FaultState`] and [`BudgetChannel`] keeps a cursor over the sources —
//! a min-heap of their next onsets, and the active ones — and draws each
//! source's next onset, in order, when the run reaches the last. The
//! schedule is therefore a pure function of the epoch: a faulted run is
//! bit-identical at every shard count, and the same plan + seed always
//! reproduces it. [`FaultEngine::begin_epoch`] costs two compares when no
//! window starts or ends, and otherwise one draw and one heap step per
//! onset plus a pass over the active sources; it refreshes flat per-core
//! flag arrays, which every injection point reads, and repaints them only
//! when the active set changes. An earlier epoch restarts the streams.
//! [`FaultEngine::num_events`] and [`FaultEngine::active_at`] are
//! diagnostics that replay the streams, O(windows).
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
