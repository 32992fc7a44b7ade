//! Tabular temporal-difference agents (Q-learning).

use crate::error::RlError;
use crate::policy::{EpsCache, Policy};
use crate::schedule::Schedule;
use crate::snapshot::{self, SnapshotError};
use crate::storage::{QTableLayout, QTableStorage};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which TD update rule a controller applies: Q-learning on one
/// [`Agent`], or double Q-learning on a [`crate::DoubleAgent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Algorithm {
    /// Off-policy: `Q(s,a) ← Q + α·(r + γ·max_a' Q(s',a') − Q)`.
    QLearning,
    /// Double Q-learning (two tables, decoupled selection/evaluation); see
    /// [`crate::DoubleAgent`].
    DoubleQLearning,
}

/// A tabular TD agent: Q-table, update rule, learning-rate schedule and
/// exploration policy.
///
/// The paper's per-core controllers are instances of this with the OD-RL
/// state encoding; the agent itself is domain-agnostic.
///
/// ```
/// use odrl_rl::{Agent, Algorithm, Policy, Schedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let _which = Algorithm::QLearning; // named in configs; `update` implements it
/// let mut agent = Agent::builder(4, 2)
///     .gamma(0.9)
///     .alpha(Schedule::constant(0.2)?)
///     .policy(Policy::default_epsilon_greedy())
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let a = agent.select(0, &mut rng)?;
/// agent.update(0, a, 1.0, 1)?;
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Agent {
    q: QTableStorage,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    step: u64,
}

impl Agent {
    /// Starts building an agent over `states × actions`.
    pub fn builder(states: usize, actions: usize) -> AgentBuilder {
        AgentBuilder {
            states,
            actions,
            gamma: 0.9,
            alpha: Schedule::Constant { value: 0.1 },
            policy: Policy::default_epsilon_greedy(),
            optimistic: 0.0,
            layout: QTableLayout::Scalar,
        }
    }

    /// The agent's Q-table storage.
    pub fn q(&self) -> &QTableStorage {
        &self.q
    }

    /// Number of decisions made so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Selects an action in state `s` (advances the decision counter, which
    /// drives the exploration schedule).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn select<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> Result<usize, RlError> {
        let a = self.policy.select_storage(&self.q, s, self.step, rng)?;
        self.step += 1;
        Ok(a)
    }

    /// The greedy action in state `s` without exploring or counting.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn exploit(&self, s: usize) -> Result<usize, RlError> {
        self.q.best_action(s)
    }

    /// Applies one Q-learning update for transition `(s, a, r, s')`,
    /// returning the TD error `target − Q(s, a)` (the learning-health
    /// signal).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices or
    /// [`RlError::InvalidParameter`] for a non-finite reward.
    pub fn update(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
    ) -> Result<f64, RlError> {
        let bootstrap = self.q.max_value(s_next)?;
        self.learn(s, a, reward, bootstrap)
    }

    /// The decide half of a decide/learn pair: selects an action in
    /// `s_next` and returns `(action, explored, bootstrap)`. `explored` is
    /// `true` when the action came from the ε branch; `bootstrap` is the
    /// TD bootstrap to hand [`Agent::learn`] once the pending transition's
    /// reward is known, `max_a Q(s_next, a)`. The greedy choice and the
    /// bootstrap come from one row scan.
    ///
    /// A batch caller may hand over work it already did for a block of
    /// agents:
    ///
    /// * `draw` — the leading ε uniform as the raw `next_u64` this agent's
    ///   RNG would have produced (only meaningful when
    ///   [`Agent::policy_pre_draws`] is true; other policies ignore it and
    ///   draw from `rng` as usual);
    /// * `scan` — `(argmax, max)` of the `s_next` row from a
    ///   [`crate::kernel::scan_rows`] batch over [`Agent::quant_row`].
    ///
    /// Either way decide → learn is bit-identical to [`Agent::select`]
    /// followed by [`Agent::update`]: same actions, same table state, same
    /// RNG position.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn decide<R: Rng + ?Sized>(
        &mut self,
        s_next: usize,
        draw: Option<u64>,
        scan: Option<(usize, f64)>,
        rng: &mut R,
        cache: &mut EpsCache,
    ) -> Result<(usize, bool, f64), RlError> {
        let (best, max_v) = match scan {
            Some(pair) => pair,
            None => self.q.best_action_and_max(s_next)?,
        };
        let (a_next, explored) = match self.policy.select_from_argmax(
            self.q.actions(),
            best,
            self.step,
            draw,
            rng,
            cache,
        ) {
            Some(pair) => pair,
            None => (
                self.policy.select_storage(&self.q, s_next, self.step, rng)?,
                false,
            ),
        };
        self.step += 1;
        Ok((a_next, explored, max_v))
    }

    /// Whether this agent's policy consumes exactly one leading uniform
    /// draw per decision (see [`Policy::pre_draws_uniform`]) — the gate a
    /// controller checks before pre-drawing the `draw` it hands
    /// [`Agent::decide`].
    #[must_use]
    pub fn policy_pre_draws(&self) -> bool {
        self.policy.pre_draws_uniform()
    }

    /// The banked row and scale this agent's next decision in `s_next`
    /// would scan, or `None` when the storage is not quantized. A batch
    /// caller collects one pair per agent, scans them all in one
    /// [`crate::kernel::scan_rows`] call, and feeds each result back as
    /// the `scan` argument of [`Agent::decide`].
    #[inline]
    #[must_use]
    pub fn quant_row(&self, s_next: usize) -> Option<(&[i16], f32)> {
        self.q.quant_row(s_next)
    }

    /// The learning half of a decide/learn pair: applies the TD update for
    /// `(s, a, reward)` against a bootstrap previously returned by
    /// [`Agent::decide`]. Returns the TD error `target − Q(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices or
    /// [`RlError::InvalidParameter`] for a non-finite reward.
    #[inline]
    pub fn learn(&mut self, s: usize, a: usize, reward: f64, bootstrap: f64) -> Result<f64, RlError> {
        if !reward.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "reward",
                value: reward,
            });
        }
        let target = reward + self.gamma * bootstrap;
        // Per-(s,a) learning rate driven by visit count gives the
        // Robbins-Monro convergence conditions when using InverseTime.
        self.q.td_step(s, a, &self.alpha, target)
    }

    /// Serializes the agent to the versioned binary snapshot format (see
    /// [`crate::snapshot`] for the layout).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = snapshot::header(snapshot::KIND_AGENT);
        snapshot::write_agent_block(
            &mut out,
            self.gamma,
            self.step,
            &self.alpha,
            &self.policy,
        );
        snapshot::write_storage(&mut out, &self.q);
        out
    }

    /// Decodes an agent from [`Agent::snapshot_bytes`] output. Round trips
    /// are bit-identical: every Q value, visit count, scale and counter is
    /// restored exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed, truncated or
    /// version-mismatched buffer.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, RlError> {
        let mut cur = snapshot::check_header(bytes, snapshot::KIND_AGENT)?;
        let agent = Self::decode_block(&mut cur)?;
        cur.finish()?;
        Ok(agent)
    }

    /// Decodes one agent block (header already consumed) — the building
    /// block multi-agent controller snapshots frame per agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed or truncated block.
    pub fn decode_block(cur: &mut snapshot::SnapCursor<'_>) -> Result<Self, RlError> {
        let (gamma, step, alpha, policy) = snapshot::read_agent_block(cur)?;
        let q = snapshot::read_storage(cur)?;
        Ok(Self {
            q,
            gamma,
            alpha,
            policy,
            step,
        })
    }

    /// Encodes this agent's block without the file header — the building
    /// block multi-agent controller snapshots frame per agent.
    pub fn encode_block(&self, out: &mut Vec<u8>) {
        snapshot::write_agent_block(out, self.gamma, self.step, &self.alpha, &self.policy);
        snapshot::write_storage(out, &self.q);
    }

    /// Writes the snapshot to `path` (see [`Agent::snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        std::fs::write(path, self.snapshot_bytes()).map_err(SnapshotError::Io)
    }

    /// Loads an agent saved with [`Agent::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be read, or
    /// [`SnapshotError::Format`] if the bytes do not decode.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Self::from_snapshot_bytes(&bytes).map_err(SnapshotError::Format)
    }
}

/// Builder for [`Agent`].
#[derive(Debug, Clone)]
pub struct AgentBuilder {
    states: usize,
    actions: usize,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    optimistic: f64,
    layout: QTableLayout,
}

impl AgentBuilder {
    /// Sets the discount factor (must be in `[0, 1)`).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the learning-rate schedule (indexed by `(s, a)` visit count).
    pub fn alpha(mut self, alpha: Schedule) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the exploration policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Initialises all action values to `value` (optimistic exploration).
    pub fn optimistic(mut self, value: f64) -> Self {
        self.optimistic = value;
        self
    }

    /// Selects the Q-table storage layout (default [`QTableLayout::Scalar`]).
    pub fn layout(mut self, layout: QTableLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Builds the agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptySpace`] for empty spaces or
    /// [`RlError::InvalidParameter`] for `gamma` outside `[0, 1)`.
    pub fn build(self) -> Result<Agent, RlError> {
        if !(self.gamma.is_finite() && (0.0..1.0).contains(&self.gamma)) {
            return Err(RlError::InvalidParameter {
                name: "gamma",
                value: self.gamma,
            });
        }
        let q = if self.optimistic != 0.0 {
            QTableStorage::optimistic(self.layout, self.states, self.actions, self.optimistic)?
        } else {
            QTableStorage::new(self.layout, self.states, self.actions)?
        };
        Ok(Agent {
            q,
            gamma: self.gamma,
            alpha: self.alpha,
            policy: self.policy,
            step: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 2-state chain: action 1 in state 0 yields +1 and stays; action 0
    /// yields 0. The agent must learn Q(0,1) > Q(0,0).
    #[test]
    fn q_learning_learns_a_trivial_preference() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.5)
            .alpha(Schedule::constant(0.3).unwrap())
            .policy(Policy::EpsilonGreedy {
                epsilon: Schedule::constant(0.3).unwrap(),
            })
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let a = agent.select(0, &mut rng).unwrap();
            let r = if a == 1 { 1.0 } else { 0.0 };
            agent.update(0, a, r, 0).unwrap();
        }
        assert_eq!(agent.exploit(0).unwrap(), 1);
        assert!(agent.q().get(0, 1).unwrap() > agent.q().get(0, 0).unwrap());
    }

    /// Deterministic chain with known optimal values:
    /// state 0 --a1/r=0--> state 1 --a1/r=1--> state 1 (absorbing, r=1).
    /// Q*(1,1) = 1/(1-γ)·... with γ=0.5: Q*(1,1)=2, Q*(0,1)=0+0.5·2=1.
    #[test]
    fn q_learning_converges_to_known_values() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.5)
            .alpha(Schedule::inverse_time(1.0, 0.0).unwrap())
            .policy(Policy::EpsilonGreedy {
                epsilon: Schedule::constant(0.5).unwrap(),
            })
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = 0;
        for _ in 0..20_000 {
            let a = agent.select(s, &mut rng).unwrap();
            let (r, s2) = match (s, a) {
                (0, 1) => (0.0, 1),
                (0, 0) => (0.0, 0),
                (1, 1) => (1.0, 1),
                (1, 0) => (0.0, 0),
                _ => unreachable!(),
            };
            agent.update(s, a, r, s2).unwrap();
            s = s2;
        }
        let q11 = agent.q().get(1, 1).unwrap();
        let q01 = agent.q().get(0, 1).unwrap();
        assert!((q11 - 2.0).abs() < 0.1, "Q(1,1) = {q11}");
        assert!((q01 - 1.0).abs() < 0.1, "Q(0,1) = {q01}");
    }

    #[test]
    fn update_bootstraps_from_the_greedy_value() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.9)
            .alpha(Schedule::constant(1.0).unwrap())
            .build()
            .unwrap();
        // Set Q(1,0)=0, Q(1,1)=10: the update bootstraps from max = 10.
        agent.q.set(1, 1, 10.0).unwrap();
        agent.update(0, 1, 1.0, 1).unwrap();
        assert!((agent.q().get(0, 1).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_gamma_and_reward() {
        assert!(Agent::builder(2, 2).gamma(1.0).build().is_err());
        assert!(Agent::builder(2, 2).gamma(-0.1).build().is_err());
        let mut agent = Agent::builder(2, 2).build().unwrap();
        assert!(agent.update(0, 0, f64::NAN, 1).is_err());
    }

    #[test]
    fn optimistic_initialisation_applies() {
        let agent = Agent::builder(2, 2).optimistic(5.0).build().unwrap();
        assert_eq!(agent.q().get(0, 0).unwrap(), 5.0);
    }

    #[test]
    fn step_counter_advances_on_select_only() {
        let mut agent = Agent::builder(2, 2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agent.step_count(), 0);
        agent.select(0, &mut rng).unwrap();
        agent.update(0, 0, 0.0, 0).unwrap();
        assert_eq!(agent.step_count(), 1);
    }

    #[test]
    fn update_errors_on_bad_indices() {
        let mut agent = Agent::builder(2, 2).build().unwrap();
        assert!(agent.update(5, 0, 0.0, 0).is_err());
        assert!(agent.update(0, 5, 0.0, 0).is_err());
        assert!(agent.update(0, 0, 0.0, 5).is_err());
    }
}
