//! Reusable tabular reinforcement learning for on-line controllers.
//!
//! OD-RL's per-core agents are tabular Q-learners. This crate provides the
//! domain-agnostic machinery they are built from:
//!
//! * [`QTable`] — dense `|S| × |A|` action values with visit counts;
//! * [`Agent`] — Q-learning TD updates with per-`(s,a)` learning rates,
//!   or, built with [`Algorithm::DoubleQLearning`], double Q-learning (two
//!   tables, decoupled selection and evaluation);
//! * [`Policy`] — greedy and ε-greedy action selection;
//! * [`Schedule`] — constant / exponential / inverse-time / linear decay
//!   for learning and exploration rates (always floored: an on-line
//!   controller must never stop adapting);
//! * [`UniformBins`] and [`StateSpace`] — discretization of continuous
//!   sensor readings into table indices.
//!
//! # Example
//!
//! Learn a two-armed bandit preference:
//!
//! ```
//! use odrl_rl::{Agent, Policy, Schedule};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut agent = Agent::builder(1, 2)
//!     .gamma(0.0) // bandit: no bootstrapping
//!     .alpha(Schedule::constant(0.1)?)
//!     .policy(Policy::EpsilonGreedy { epsilon: Schedule::constant(0.2)? })
//!     .build()?;
//! let mut rng = StdRng::seed_from_u64(0);
//! for _ in 0..300 {
//!     let a = agent.select(0, &mut rng)?;
//!     let reward = if a == 1 { 1.0 } else { 0.0 };
//!     agent.update(0, a, reward, 0)?;
//! }
//! assert_eq!(agent.exploit(0)?, 1);
//! # Ok::<(), odrl_rl::RlError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod discretize;
pub mod error;
pub mod kernel;
pub mod mask;
pub mod policy;
pub mod qtable;
pub mod schedule;
pub mod snapshot;
pub mod storage;

pub use agent::{Agent, AgentBuilder, Algorithm};
pub use discretize::{StateSpace, UniformBins};
pub use error::RlError;
pub use mask::UpdateMask;
pub use policy::{EpsCache, Policy};
pub use qtable::QTable;
pub use schedule::Schedule;
pub use snapshot::{
    SnapshotError, KIND_AGENT, KIND_DOUBLE_AGENT, KIND_POLICY_SET, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use storage::{
    QTableLayout, QTableStorage, QuantHealth, QuantizedTable, RowStats, QUANT_LANES,
};
