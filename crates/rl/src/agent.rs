//! Tabular temporal-difference agents: Q-learning on one table, or double
//! Q-learning on two.

use crate::error::RlError;
use crate::policy::{EpsCache, Policy};
use crate::schedule::Schedule;
use crate::snapshot::{self, SnapshotError};
use crate::storage::{QTableLayout, QTableStorage, RowStats};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which TD update rule an [`Agent`] applies, chosen with
/// [`AgentBuilder::algorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Algorithm {
    /// Off-policy: `Q(s,a) ← Q + α·(r + γ·max_a' Q(s',a') − Q)`.
    QLearning,
    /// Double Q-learning (van Hasselt, NIPS 2010): two tables `QA`, `QB`.
    /// Updates alternate deterministically between them; the updated
    /// table picks the argmax action in `s'` and the *other* table
    /// evaluates it, so a lucky noise spike in one table cannot inflate
    /// its own bootstrap. Selection acts on the sum `QA + QB`.
    DoubleQLearning,
}

/// A tabular TD agent: Q-table(s), update rule, learning-rate schedule and
/// exploration policy.
///
/// The paper's per-core controllers are instances of this with the OD-RL
/// state encoding; the agent itself is domain-agnostic. Built with
/// [`Algorithm::DoubleQLearning`] it keeps a second table and applies the
/// double-Q rules, which trade some throughput for robustness to the max
/// operator's overestimation under noisy rewards.
///
/// ```
/// use odrl_rl::{Agent, Algorithm, Policy, Schedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut agent = Agent::builder(4, 2)
///     .algorithm(Algorithm::DoubleQLearning)
///     .gamma(0.9)
///     .alpha(Schedule::constant(0.2)?)
///     .policy(Policy::default_epsilon_greedy())
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let a = agent.select(0, &mut rng)?;
/// agent.update(0, a, 1.0, 1)?;
/// assert_eq!(agent.tables().count(), 2);
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Agent {
    /// The Q-table (double Q-learning's `QA`).
    q: QTableStorage,
    /// Double Q-learning's `QB`; `None` for Q-learning.
    qb: Option<QTableStorage>,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    step: u64,
    /// Double-Q TD updates applied so far: the parity picks the table the
    /// next update writes (even `QA`, odd `QB`). Stays 0 with one table.
    updates: u64,
}

impl Agent {
    /// Starts building an agent over `states × actions`.
    pub fn builder(states: usize, actions: usize) -> AgentBuilder {
        AgentBuilder {
            states,
            actions,
            algorithm: Algorithm::QLearning,
            gamma: 0.9,
            alpha: Schedule::Constant { value: 0.1 },
            policy: Policy::default_epsilon_greedy(),
            optimistic: 0.0,
            layout: QTableLayout::Scalar,
        }
    }

    /// The agent's Q-table storage (for double Q-learning, `QA`).
    pub fn q(&self) -> &QTableStorage {
        &self.q
    }

    /// The agent's tables: `q()` alone, or `QA` then `QB` for double
    /// Q-learning.
    pub fn tables(&self) -> impl Iterator<Item = &QTableStorage> {
        std::iter::once(&self.q).chain(self.qb.as_ref())
    }

    /// Number of decisions made so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    fn check_state(&self, s: usize) -> Result<(), RlError> {
        if s >= self.q.states() {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: self.q.states(),
            });
        }
        Ok(())
    }

    /// Selects an action in state `s` (advances the decision counter, which
    /// drives the exploration schedule). The greedy action is the first
    /// maximum of `value_at` over the row — summed over both tables for
    /// double Q-learning — then the policy decides whether to explore.
    /// This plain scan is the reference the block kernel and the fused
    /// [`Agent::decide`] are checked against.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn select<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> Result<usize, RlError> {
        self.check_state(s)?;
        let (a, _) = self.policy.select(
            self.q.actions(),
            self.first_max(s),
            self.step,
            None,
            rng,
            &mut EpsCache::new(),
        );
        self.step += 1;
        Ok(a)
    }

    /// The greedy action in state `s` (on the summed tables for double
    /// Q-learning) without exploring or counting.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn exploit(&self, s: usize) -> Result<usize, RlError> {
        if self.qb.is_none() {
            return self.q.best_action(s);
        }
        self.check_state(s)?;
        Ok(self.first_max(s))
    }

    /// The first action of maximal value in (checked) state `s`, by a plain
    /// scan over `value_at` — on `QA + QB` for double Q-learning.
    fn first_max(&self, s: usize) -> usize {
        let value = |i| match &self.qb {
            None => self.q.value_at(s, i),
            Some(qb) => self.q.value_at(s, i) + qb.value_at(s, i),
        };
        let mut best = 0;
        let mut best_v = value(0);
        for i in 1..self.q.actions() {
            let v = value(i);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Applies one TD update for transition `(s, a, r, s')`, returning the
    /// TD error `target − Q(s, a)` (the learning-health signal). Q-learning
    /// bootstraps from `max_a' Q(s', a')`; double Q-learning from the table
    /// next in the rotation's argmax, evaluated by the other table.
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
        let bootstrap = match &self.qb {
            None => self.q.max_value(s_next)?,
            Some(qb) if self.updates.is_multiple_of(2) => {
                qb.get(s_next, self.q.best_action(s_next)?)?
            }
            Some(qb) => self.q.get(s_next, qb.best_action(s_next)?)?,
        };
        self.learn(s, a, reward, bootstrap)
    }

    /// The decide half of a decide/learn pair: selects an action in
    /// `s_next` and returns `(action, explored, bootstrap)`. `explored` is
    /// `true` when the action came from the ε branch; `bootstrap` is the
    /// TD bootstrap to hand [`Agent::learn`] once the pending transition's
    /// reward is known — exactly what [`Agent::update`] would bootstrap
    /// from. The greedy choice and the bootstrap come from one row scan;
    /// for double Q-learning one pass over both rows yields the summed
    /// argmax for selection and each table's own argmax for the bootstrap,
    /// and the rotation parity is only peeked (`learn` advances it).
    ///
    /// A batch caller may hand over work it already did for a block of
    /// agents:
    ///
    /// * `draw` — the leading ε uniform as the raw `next_u64` this agent's
    ///   RNG would have produced (only meaningful when
    ///   [`Agent::policy_pre_draws`] is true; other policies ignore it and
    ///   draw from `rng` as usual);
    /// * `scan` — `(argmax, max)` of the `s_next` row from a
    ///   [`crate::kernel::scan_rows`] batch over [`Agent::quant_row`]
    ///   (ignored by a two-table agent, which offers no such row).
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
        let (greedy, bootstrap) = match (&self.qb, scan) {
            (None, Some(pair)) => pair,
            (None, None) => self.q.best_action_and_max(s_next)?,
            (Some(qb), _) => {
                self.check_state(s_next)?;
                let (best_c, best_a, best_b) = scan_pair(&self.q, qb, s_next)?;
                let bootstrap = if self.updates.is_multiple_of(2) {
                    qb.get(s_next, best_a)?
                } else {
                    self.q.get(s_next, best_b)?
                };
                (best_c, bootstrap)
            }
        };
        let (a_next, explored) =
            self.policy
                .select(self.q.actions(), greedy, self.step, draw, rng, cache);
        self.step += 1;
        Ok((a_next, explored, bootstrap))
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
    /// would scan, or `None` when the storage is not quantized or the
    /// agent has two tables (it scans their sum, which the block kernel
    /// does not model). A batch caller collects one pair per agent, scans
    /// them all in one [`crate::kernel::scan_rows`] call, and feeds each
    /// result back as the `scan` argument of [`Agent::decide`].
    #[inline]
    #[must_use]
    pub fn quant_row(&self, s_next: usize) -> Option<(&[i16], f32)> {
        match self.qb {
            None => self.q.quant_row(s_next),
            Some(_) => None,
        }
    }

    /// The learning half of a decide/learn pair: applies the TD update for
    /// `(s, a, reward)` against a bootstrap previously returned by
    /// [`Agent::decide`] (advancing the double-Q rotation). Returns the TD
    /// error `target − Q(s, a)` against the updated table.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices or
    /// [`RlError::InvalidParameter`] for a non-finite reward.
    #[inline]
    pub fn learn(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        bootstrap: f64,
    ) -> Result<f64, RlError> {
        if !reward.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "reward",
                value: reward,
            });
        }
        let target = reward + self.gamma * bootstrap;
        let table = match &mut self.qb {
            None => &mut self.q,
            Some(qb) => {
                let update_a = self.updates.is_multiple_of(2);
                self.updates += 1;
                if update_a {
                    &mut self.q
                } else {
                    qb
                }
            }
        };
        // Per-(s,a) learning rate driven by visit count gives the
        // Robbins-Monro convergence conditions when using InverseTime.
        table.td_step(s, a, &self.alpha, target)
    }

    /// Min/max action value and visit count of state `s` — the
    /// learning-health diagnostics tap (for two tables, the element-wise
    /// union over both).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_stats(&self, s: usize) -> Result<RowStats, RlError> {
        let sa = self.q.row_stats(s)?;
        let Some(qb) = &self.qb else {
            return Ok(sa);
        };
        let sb = qb.row_stats(s)?;
        Ok(RowStats {
            q_min: sa.q_min.min(sb.q_min),
            q_max: sa.q_max.max(sb.q_max),
            visit_min: sa.visit_min.min(sb.visit_min),
            visit_max: sa.visit_max.max(sb.visit_max),
        })
    }

    /// Fraction of `(s, a)` pairs visited at least once (averaged over
    /// both tables for double Q-learning).
    pub fn coverage(&self) -> f64 {
        match &self.qb {
            None => self.q.coverage(),
            Some(qb) => (self.q.coverage() + qb.coverage()) / 2.0,
        }
    }

    /// The snapshot kind this agent encodes as:
    /// [`snapshot::KIND_AGENT`] for one table,
    /// [`snapshot::KIND_DOUBLE_AGENT`] for two.
    pub fn snapshot_kind(&self) -> u8 {
        match self.qb {
            None => snapshot::KIND_AGENT,
            Some(_) => snapshot::KIND_DOUBLE_AGENT,
        }
    }

    /// Serializes the agent to the versioned binary snapshot format (see
    /// [`crate::snapshot`] for the layout).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = snapshot::header(self.snapshot_kind());
        self.encode_block(&mut out);
        out
    }

    /// Decodes an agent from [`Agent::snapshot_bytes`] output, of either
    /// kind. Round trips are bit-identical: every Q value, visit count,
    /// scale and counter is restored exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed, truncated or
    /// version-mismatched buffer, or one holding no agent.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, RlError> {
        let (kind, mut cur) = snapshot::read_header(bytes)?;
        let agent = Self::decode_block(&mut cur, kind)?;
        cur.finish()?;
        Ok(agent)
    }

    /// Decodes one agent block of snapshot kind `kind` (header already
    /// consumed) — the building block multi-agent controller snapshots
    /// frame per agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed or truncated block,
    /// or a `kind` that is not an agent kind.
    pub fn decode_block(cur: &mut snapshot::SnapCursor<'_>, kind: u8) -> Result<Self, RlError> {
        let double = match kind {
            snapshot::KIND_AGENT => false,
            snapshot::KIND_DOUBLE_AGENT => true,
            _ => {
                return Err(RlError::Snapshot {
                    reason: "snapshot kind is not an agent",
                })
            }
        };
        let (gamma, step, alpha, policy) = snapshot::read_agent_block(cur)?;
        let updates = if double { cur.take_u64()? } else { 0 };
        let q = snapshot::read_storage(cur)?;
        let qb = if double {
            let qb = snapshot::read_storage(cur)?;
            if q.states() != qb.states() || q.actions() != qb.actions() || q.layout() != qb.layout()
            {
                return Err(RlError::Snapshot {
                    reason: "double-agent tables disagree on dimensions or layout",
                });
            }
            Some(qb)
        } else {
            None
        };
        Ok(Self {
            q,
            qb,
            gamma,
            alpha,
            policy,
            step,
            updates,
        })
    }

    /// Encodes this agent's block without the file header — the building
    /// block multi-agent controller snapshots frame per agent, tagged with
    /// [`Agent::snapshot_kind`].
    pub fn encode_block(&self, out: &mut Vec<u8>) {
        snapshot::write_agent_block(out, self.gamma, self.step, &self.alpha, &self.policy);
        if let Some(qb) = &self.qb {
            snapshot::put_u64(out, self.updates);
            snapshot::write_storage(out, &self.q);
            snapshot::write_storage(out, qb);
        } else {
            snapshot::write_storage(out, &self.q);
        }
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

/// One fused pass over both tables' `s` rows (`s` already checked):
/// `(summed argmax, QA argmax, QB argmax)`, lowest index winning ties.
fn scan_pair(
    qa: &QTableStorage,
    qb: &QTableStorage,
    s: usize,
) -> Result<(usize, usize, usize), RlError> {
    if let (QTableStorage::Scalar(qa), QTableStorage::Scalar(qb)) = (qa, qb) {
        let (qa_row, qb_row) = (qa.row(s)?, qb.row(s)?);
        let mut best_c = 0;
        let mut best_cv = qa_row[0] + qb_row[0];
        let mut best_a = 0;
        let mut best_b = 0;
        for i in 1..qa_row.len() {
            let v = qa_row[i] + qb_row[i];
            let better = v > best_cv;
            best_cv = if better { v } else { best_cv };
            best_c = if better { i } else { best_c };
            best_a = if qa_row[i] > qa_row[best_a] {
                i
            } else {
                best_a
            };
            best_b = if qb_row[i] > qb_row[best_b] {
                i
            } else {
                best_b
            };
        }
        return Ok((best_c, best_a, best_b));
    }
    if let (QTableStorage::Quantized(qa), QTableStorage::Quantized(qb)) = (qa, qb) {
        // Per-table argmax via the SIMD kernel: one positive scale per
        // row makes the i16 argmax equal the dequantized argmax, ties
        // included. The summed argmax still adds dequantized values (the
        // two rows may carry different scales).
        let (ra, rb) = (qa.lanes(s), qb.lanes(s));
        let (best_a, _) = crate::kernel::scan_row(ra);
        let (best_b, _) = crate::kernel::scan_row(rb);
        let (sa, sb) = (qa.scale_at(s), qb.scale_at(s));
        let mut best_c = 0;
        let mut best_cv = f64::from(ra[0]) * sa + f64::from(rb[0]) * sb;
        for i in 1..qa.actions() {
            let v = f64::from(ra[i]) * sa + f64::from(rb[i]) * sb;
            let better = v > best_cv;
            best_cv = if better { v } else { best_cv };
            best_c = if better { i } else { best_c };
        }
        return Ok((best_c, best_a, best_b));
    }
    // The builder and the snapshot decoder give both tables one layout.
    unreachable!("double-Q tables with mixed layouts")
}

/// Builder for [`Agent`].
#[derive(Debug, Clone)]
pub struct AgentBuilder {
    states: usize,
    actions: usize,
    algorithm: Algorithm,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    optimistic: f64,
    layout: QTableLayout,
}

impl AgentBuilder {
    /// Sets the TD update rule (default [`Algorithm::QLearning`]);
    /// [`Algorithm::DoubleQLearning`] gives the agent a second table.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

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
    /// Double Q-learning selects on the sum of its two tables, so each
    /// table starts at `value / 2`.
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
        let double = self.algorithm == Algorithm::DoubleQLearning;
        let prior = if double {
            self.optimistic / 2.0
        } else {
            self.optimistic
        };
        let table = || {
            if prior != 0.0 {
                QTableStorage::optimistic(self.layout, self.states, self.actions, prior)
            } else {
                QTableStorage::new(self.layout, self.states, self.actions)
            }
        };
        Ok(Agent {
            q: table()?,
            qb: if double { Some(table()?) } else { None },
            gamma: self.gamma,
            alpha: self.alpha,
            policy: self.policy,
            step: 0,
            updates: 0,
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

    fn double(states: usize, actions: usize) -> AgentBuilder {
        Agent::builder(states, actions).algorithm(Algorithm::DoubleQLearning)
    }

    /// Greedy selection takes the first maximum (of the sum, for two
    /// tables) and rejects an out-of-range state without counting it.
    #[test]
    fn greedy_select_picks_first_max_and_rejects_bad_state() {
        let mut rng = StdRng::seed_from_u64(0);
        for builder in [Agent::builder(2, 3), double(2, 3)] {
            let mut agent = builder.policy(Policy::Greedy).build().unwrap();
            agent.q.set(0, 1, 10.0).unwrap();
            agent.q.set(0, 2, 10.0).unwrap();
            agent.q.set(1, 2, 10.0).unwrap();
            assert_eq!(agent.select(0, &mut rng).unwrap(), 1);
            assert_eq!(agent.select(1, &mut rng).unwrap(), 2);
            assert!(agent.select(9, &mut rng).is_err());
            assert_eq!(agent.step_count(), 2);
        }
    }

    #[test]
    fn double_q_converges_on_deterministic_chain() {
        // Same fixed point as plain Q-learning: Q*(0,0) = 1/(1-gamma).
        let mut agent = double(1, 1)
            .gamma(0.5)
            .alpha(Schedule::constant(0.2).unwrap())
            .policy(Policy::Greedy)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..3000 {
            let a = agent.select(0, &mut rng).unwrap();
            agent.update(0, a, 1.0, 0).unwrap();
        }
        let q = agent.tables().map(|t| t.get(0, 0).unwrap()).sum::<f64>() / 2.0;
        assert!((q - 2.0).abs() < 0.05, "combined mean {q}");
    }

    /// Sutton & Barto's maximization-bias MDP: from A, `right` terminates
    /// with reward 0; `left` goes to B, whose many actions pay
    /// N(-0.1, 1) then terminate. The optimal policy goes right; plain
    /// Q-learning is fooled by the max over B's noisy values far longer
    /// than double Q-learning.
    #[test]
    fn double_q_reduces_maximization_bias() {
        let episodes = 300;
        let b_actions = 8;
        // States: 0 = A, 1 = B, 2 = terminal. A has 2 actions, B has 8.
        let left_fraction = |algorithm: Algorithm, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut agent = Agent::builder(3, b_actions)
                .algorithm(algorithm)
                .gamma(1.0 - 1e-9)
                .alpha(Schedule::constant(0.1).unwrap())
                .policy(Policy::EpsilonGreedy {
                    epsilon: Schedule::constant(0.1).unwrap(),
                })
                .build()
                .unwrap();
            let mut lefts = 0;
            for _ in 0..episodes {
                // In A, action 0 = left, action 1 = right (restrict to 2).
                let a = loop {
                    let cand = agent.select(0, &mut rng).unwrap();
                    if cand < 2 {
                        break cand;
                    }
                };
                if a == 0 {
                    lefts += 1;
                    // Go to B, take a (random-ish greedy) action, get noisy
                    // reward, terminate.
                    let ab = agent.select(1, &mut rng).unwrap();
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    agent.update(0, 0, 0.0, 1).unwrap();
                    agent.update(1, ab, -0.1 + noise, 2).unwrap();
                } else {
                    agent.update(0, 1, 0.0, 2).unwrap();
                }
            }
            lefts as f64 / episodes as f64
        };

        let mut single_total = 0.0;
        let mut double_total = 0.0;
        for seed in 0..8 {
            single_total += left_fraction(Algorithm::QLearning, seed);
            double_total += left_fraction(Algorithm::DoubleQLearning, seed + 100);
        }
        assert!(
            double_total < single_total,
            "double-Q should take the biased branch less: single {single_total} double {double_total}"
        );
    }

    #[test]
    fn double_q_alternates_tables() {
        let mut agent = double(1, 1)
            .gamma(0.0)
            .alpha(Schedule::constant(1.0).unwrap())
            .build()
            .unwrap();
        agent.update(0, 0, 1.0, 0).unwrap();
        agent.update(0, 0, 2.0, 0).unwrap();
        let values: Vec<f64> = agent.tables().map(|t| t.get(0, 0).unwrap()).collect();
        assert_eq!(values, [1.0, 2.0]);
    }

    #[test]
    fn double_q_rejects_bad_parameters() {
        assert!(double(0, 2).build().is_err());
        assert!(double(2, 2).gamma(1.0).build().is_err());
        let mut agent = double(2, 2).build().unwrap();
        assert!(agent.update(0, 0, f64::NAN, 1).is_err());
        assert!(agent.update(5, 0, 0.0, 1).is_err());
    }

    #[test]
    fn double_q_coverage_and_halved_optimism() {
        let agent = double(2, 2).optimistic(6.0).build().unwrap();
        assert_eq!(agent.q().get(0, 0).unwrap(), 3.0);
        assert_eq!(agent.coverage(), 0.0);
        let summed = |a| agent.tables().map(|t| t.get(0, a).unwrap()).sum::<f64>();
        assert_eq!([summed(0), summed(1)], [6.0, 6.0]);
    }
}
