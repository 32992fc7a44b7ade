//! Double Q-learning (van Hasselt, NIPS 2010): two tables, decoupled
//! action selection and evaluation, eliminating the maximization bias of
//! plain Q-learning under noisy rewards.

use crate::error::RlError;
use crate::policy::{EpsCache, Policy};
use crate::schedule::Schedule;
use crate::snapshot::{self, SnapshotError};
use crate::storage::{QTableLayout, QTableStorage};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A tabular double Q-learning agent.
///
/// Maintains two tables `QA`, `QB`. Updates alternate deterministically:
/// the updated table picks the argmax action in `s'`, the *other* table
/// evaluates it — so a lucky noise spike in one table cannot inflate its
/// own bootstrap. Action selection uses the sum `QA + QB`.
///
/// Useful for OD-RL when sensor noise is high: plain Q-learning's max
/// operator systematically overestimates the value of rarely-tried levels.
///
/// ```
/// use odrl_rl::{DoubleAgent, Policy, Schedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut agent = DoubleAgent::builder(2, 2)
///     .gamma(0.5)
///     .alpha(Schedule::constant(0.2)?)
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let a = agent.select(0, &mut rng)?;
/// agent.update(0, a, 1.0, 1)?;
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoubleAgent {
    qa: QTableStorage,
    qb: QTableStorage,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    step: u64,
    updates: u64,
}

impl DoubleAgent {
    /// Starts building an agent over `states × actions`.
    pub fn builder(states: usize, actions: usize) -> DoubleAgentBuilder {
        DoubleAgentBuilder {
            states,
            actions,
            gamma: 0.9,
            alpha: Schedule::Constant { value: 0.1 },
            policy: Policy::default_epsilon_greedy(),
            optimistic: 0.0,
            layout: QTableLayout::Scalar,
        }
    }

    /// The first table.
    pub fn qa(&self) -> &QTableStorage {
        &self.qa
    }

    /// The second table.
    pub fn qb(&self) -> &QTableStorage {
        &self.qb
    }

    /// Number of decisions made so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The summed action values of state `s` (what selection acts on).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn combined_row(&self, s: usize) -> Result<Vec<f64>, RlError> {
        self.check_state(s)?;
        let len = self.qa.actions();
        Ok((0..len)
            .map(|i| self.qa.value_at(s, i) + self.qb.value_at(s, i))
            .collect())
    }

    fn check_state(&self, s: usize) -> Result<(), RlError> {
        if s >= self.qa.states() {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: self.qa.states(),
            });
        }
        Ok(())
    }

    /// Selects an action in state `s` using the combined tables.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn select<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> Result<usize, RlError> {
        // Sum the two rows on the fly instead of materialising the
        // combined row — keeps per-decision selection allocation-free.
        self.check_state(s)?;
        let (qa, qb) = (&self.qa, &self.qb);
        let a = self.policy.select_with(
            qa.actions(),
            |i| qa.value_at(s, i) + qb.value_at(s, i),
            self.step,
            rng,
        );
        self.step += 1;
        Ok(a)
    }

    /// The greedy action under the combined tables.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn exploit(&self, s: usize) -> Result<usize, RlError> {
        self.check_state(s)?;
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for i in 0..self.qa.actions() {
            let v = self.qa.value_at(s, i) + self.qb.value_at(s, i);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        Ok(best)
    }

    /// Applies one double-Q update for `(s, a, r, s')`. Which table is
    /// updated alternates deterministically per call (reproducibility).
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
    ) -> Result<(), RlError> {
        if !reward.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "reward",
                value: reward,
            });
        }
        let update_a = self.updates.is_multiple_of(2);
        self.updates += 1;
        let (upd, eval) = if update_a {
            (&mut self.qa, &self.qb)
        } else {
            (&mut self.qb, &self.qa)
        };
        // Select with the updated table, evaluate with the other.
        let a_star = upd.best_action(s_next)?;
        let bootstrap = eval.get(s_next, a_star)?;
        upd.td_step(s, a, &self.alpha, reward + self.gamma * bootstrap)?;
        Ok(())
    }

    /// One fused pass over both `s` rows: combined argmax for selection
    /// plus each table's own argmax for the decoupled bootstrap.
    fn scan_next(&self, s: usize) -> Result<(usize, usize, usize), RlError> {
        self.check_state(s)?;
        if let (QTableStorage::Scalar(qa), QTableStorage::Scalar(qb)) = (&self.qa, &self.qb) {
            let qa_row = qa.row(s)?;
            let qb_row = qb.row(s)?;
            let len = qa_row.len();
            let mut best_c = 0;
            let mut best_cv = qa_row[0] + qb_row[0];
            let mut best_a = 0;
            let mut best_b = 0;
            for i in 1..len {
                let v = qa_row[i] + qb_row[i];
                let better = v > best_cv;
                best_cv = if better { v } else { best_cv };
                best_c = if better { i } else { best_c };
                best_a = if qa_row[i] > qa_row[best_a] { i } else { best_a };
                best_b = if qb_row[i] > qb_row[best_b] { i } else { best_b };
            }
            return Ok((best_c, best_a, best_b));
        }
        if let (QTableStorage::Quantized(qa), QTableStorage::Quantized(qb)) = (&self.qa, &self.qb) {
            // Per-table argmax via the SIMD kernel: one positive scale per
            // row makes the i16 argmax equal the dequantized argmax, ties
            // included. The combined argmax still sums dequantized values
            // (the two rows may carry different scales) but no longer
            // tracks the per-table bests alongside.
            let (ra, rb) = (qa.lanes(s), qb.lanes(s));
            let (best_a, _) = crate::kernel::scan_row(ra);
            let (best_b, _) = crate::kernel::scan_row(rb);
            let (sa, sb) = (qa.scale_at(s), qb.scale_at(s));
            let len = self.qa.actions();
            let mut best_c = 0;
            let mut best_cv = f64::from(ra[0]) * sa + f64::from(rb[0]) * sb;
            for i in 1..len {
                let v = f64::from(ra[i]) * sa + f64::from(rb[i]) * sb;
                let better = v > best_cv;
                best_cv = if better { v } else { best_cv };
                best_c = if better { i } else { best_c };
            }
            return Ok((best_c, best_a, best_b));
        }
        let len = self.qa.actions();
        let mut best_c = 0;
        let mut best_cv = self.qa.value_at(s, 0) + self.qb.value_at(s, 0);
        let mut best_a = 0;
        let mut best_av = self.qa.value_at(s, 0);
        let mut best_b = 0;
        let mut best_bv = self.qb.value_at(s, 0);
        for i in 1..len {
            let va = self.qa.value_at(s, i);
            let vb = self.qb.value_at(s, i);
            let v = va + vb;
            let better = v > best_cv;
            best_cv = if better { v } else { best_cv };
            best_c = if better { i } else { best_c };
            let better_a = va > best_av;
            best_av = if better_a { va } else { best_av };
            best_a = if better_a { i } else { best_a };
            let better_b = vb > best_bv;
            best_bv = if better_b { vb } else { best_bv };
            best_b = if better_b { i } else { best_b };
        }
        Ok((best_c, best_a, best_b))
    }

    /// The decide half of a decide/learn pair: selects in `s_next` on the
    /// combined tables and returns `(action, explored, bootstrap)`, where
    /// the bootstrap is already the decoupled double-Q one — the table next
    /// in the update rotation picks the argmax, the other evaluates it. A
    /// single pass over the two `s_next` rows yields the combined argmax
    /// for selection *and* each table's own argmax for the bootstrap. The
    /// rotation itself advances in [`DoubleAgent::learn`], so a decide
    /// without a learn (no completed transition) leaves it untouched.
    ///
    /// `draw` optionally supplies the leading ε uniform as the raw
    /// `next_u64` this agent's RNG would have produced (see
    /// [`crate::Agent::decide`] for the batching contract); policies that
    /// do not pre-draw ignore it. Decide → learn is bit-identical to
    /// [`DoubleAgent::select`] followed by [`DoubleAgent::update`].
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn decide<R: Rng + ?Sized>(
        &mut self,
        s_next: usize,
        draw: Option<u64>,
        rng: &mut R,
        cache: &mut EpsCache,
    ) -> Result<(usize, bool, f64), RlError> {
        let (best_c, best_a, best_b) = self.scan_next(s_next)?;
        let len = self.qa.actions();
        // Peek the rotation parity without advancing it: learn() flips it.
        let bootstrap = if self.updates.is_multiple_of(2) {
            self.qb.get(s_next, best_a)?
        } else {
            self.qa.get(s_next, best_b)?
        };
        let (a_next, explored) = match self
            .policy
            .select_from_argmax(len, best_c, self.step, draw, rng, cache)
        {
            Some(pair) => pair,
            None => {
                let (qa, qb) = (&self.qa, &self.qb);
                (
                    self.policy.select_with(
                        len,
                        |i| qa.value_at(s_next, i) + qb.value_at(s_next, i),
                        self.step,
                        rng,
                    ),
                    false,
                )
            }
        };
        self.step += 1;
        Ok((a_next, explored, bootstrap))
    }

    /// Whether this agent's policy consumes exactly one leading uniform
    /// draw per decision (see [`Policy::pre_draws_uniform`]).
    #[must_use]
    pub fn policy_pre_draws(&self) -> bool {
        self.policy.pre_draws_uniform()
    }

    /// The learning half of a decide/learn pair: applies the double-Q
    /// update for `(s, a, reward)` against a bootstrap returned by
    /// [`DoubleAgent::decide`], advancing the table rotation. Returns the
    /// TD error `target − Q(s, a)` against the updated table.
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
        let update_a = self.updates.is_multiple_of(2);
        self.updates += 1;
        let upd = if update_a { &mut self.qa } else { &mut self.qb };
        upd.td_step(s, a, &self.alpha, reward + self.gamma * bootstrap)
    }

    /// Serializes the agent to the versioned binary snapshot format (see
    /// [`crate::snapshot`] for the layout).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = snapshot::header(snapshot::KIND_DOUBLE_AGENT);
        self.encode_block(&mut out);
        out
    }

    /// Decodes an agent from [`DoubleAgent::snapshot_bytes`] output
    /// (bit-identical round trip).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed, truncated or
    /// version-mismatched buffer.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, RlError> {
        let mut cur = snapshot::check_header(bytes, snapshot::KIND_DOUBLE_AGENT)?;
        let agent = Self::decode_block(&mut cur)?;
        cur.finish()?;
        Ok(agent)
    }

    /// Decodes one double-agent block (header already consumed) — the
    /// building block multi-agent controller snapshots frame per agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed or truncated block.
    pub fn decode_block(cur: &mut snapshot::SnapCursor<'_>) -> Result<Self, RlError> {
        let (gamma, step, alpha, policy) = snapshot::read_agent_block(cur)?;
        let updates = cur.take_u64()?;
        let qa = snapshot::read_storage(cur)?;
        let qb = snapshot::read_storage(cur)?;
        if qa.states() != qb.states() || qa.actions() != qb.actions() {
            return Err(RlError::Snapshot {
                reason: "double-agent tables disagree on dimensions",
            });
        }
        Ok(Self {
            qa,
            qb,
            gamma,
            alpha,
            policy,
            step,
            updates,
        })
    }

    /// Encodes this agent's block without the file header — the building
    /// block multi-agent controller snapshots frame per agent.
    pub fn encode_block(&self, out: &mut Vec<u8>) {
        snapshot::write_agent_block(out, self.gamma, self.step, &self.alpha, &self.policy);
        snapshot::put_u64(out, self.updates);
        snapshot::write_storage(out, &self.qa);
        snapshot::write_storage(out, &self.qb);
    }

    /// Writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        std::fs::write(path, self.snapshot_bytes()).map_err(SnapshotError::Io)
    }

    /// Loads an agent saved with [`DoubleAgent::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be read, or
    /// [`SnapshotError::Format`] if the bytes do not decode.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Self::from_snapshot_bytes(&bytes).map_err(SnapshotError::Format)
    }

    /// Fraction of `(s, a)` pairs visited in either table.
    pub fn coverage(&self) -> f64 {
        (self.qa.coverage() + self.qb.coverage()) / 2.0
    }
}

/// Builder for [`DoubleAgent`].
#[derive(Debug, Clone)]
pub struct DoubleAgentBuilder {
    states: usize,
    actions: usize,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    optimistic: f64,
    layout: QTableLayout,
}

impl DoubleAgentBuilder {
    /// Sets the discount factor (must be in `[0, 1)`).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the learning-rate schedule.
    pub fn alpha(mut self, alpha: Schedule) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the exploration policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Initialises both tables to `value`.
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
    /// Returns [`RlError::EmptySpace`] or [`RlError::InvalidParameter`] as
    /// for [`crate::Agent`].
    pub fn build(self) -> Result<DoubleAgent, RlError> {
        if !(self.gamma.is_finite() && (0.0..1.0).contains(&self.gamma)) {
            return Err(RlError::InvalidParameter {
                name: "gamma",
                value: self.gamma,
            });
        }
        let mk = || {
            if self.optimistic != 0.0 {
                QTableStorage::optimistic(self.layout, self.states, self.actions, self.optimistic)
            } else {
                QTableStorage::new(self.layout, self.states, self.actions)
            }
        };
        Ok(DoubleAgent {
            qa: mk()?,
            qb: mk()?,
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

    #[test]
    fn converges_on_deterministic_chain() {
        // Same fixed point as plain Q-learning: Q*(0,0) = 1/(1-gamma).
        let mut agent = DoubleAgent::builder(1, 1)
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
        let q = agent.combined_row(0).unwrap()[0] / 2.0;
        assert!((q - 2.0).abs() < 0.05, "combined mean {q}");
    }

    /// Sutton & Barto's maximization-bias MDP: from A, `right` terminates
    /// with reward 0; `left` goes to B, whose many actions pay
    /// N(-0.1, 1) then terminate. The optimal policy goes right; plain
    /// Q-learning is fooled by the max over B's noisy values far longer
    /// than double Q-learning.
    #[test]
    fn reduces_maximization_bias() {
        use crate::agent::Agent;
        let episodes = 300;
        let b_actions = 8;
        // States: 0 = A, 1 = B, 2 = terminal. A has 2 actions, B has 8.
        let left_fraction = |double: bool, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut single = Agent::builder(3, b_actions)
                .gamma(1.0 - 1e-9)
                .alpha(Schedule::constant(0.1).unwrap())
                .policy(Policy::EpsilonGreedy {
                    epsilon: Schedule::constant(0.1).unwrap(),
                })
                .build()
                .unwrap();
            let mut dbl = DoubleAgent::builder(3, b_actions)
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
                    let cand = if double {
                        dbl.select(0, &mut rng).unwrap()
                    } else {
                        single.select(0, &mut rng).unwrap()
                    };
                    if cand < 2 {
                        break cand;
                    }
                };
                if a == 0 {
                    lefts += 1;
                    // Go to B, take a (random-ish greedy) action, get noisy
                    // reward, terminate.
                    let ab = if double {
                        dbl.select(1, &mut rng).unwrap()
                    } else {
                        single.select(1, &mut rng).unwrap()
                    };
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    let r = -0.1 + noise;
                    if double {
                        dbl.update(0, 0, 0.0, 1).unwrap();
                        dbl.update(1, ab, r, 2).unwrap();
                    } else {
                        single.update(0, 0, 0.0, 1).unwrap();
                        single.update(1, ab, r, 2).unwrap();
                    }
                } else if double {
                    dbl.update(0, 1, 0.0, 2).unwrap();
                } else {
                    single.update(0, 1, 0.0, 2).unwrap();
                }
            }
            lefts as f64 / episodes as f64
        };

        let mut single_total = 0.0;
        let mut double_total = 0.0;
        for seed in 0..8 {
            single_total += left_fraction(false, seed);
            double_total += left_fraction(true, seed + 100);
        }
        assert!(
            double_total < single_total,
            "double-Q should take the biased branch less: single {single_total} double {double_total}"
        );
    }

    #[test]
    fn alternates_tables() {
        let mut agent = DoubleAgent::builder(1, 1)
            .gamma(0.0)
            .alpha(Schedule::constant(1.0).unwrap())
            .build()
            .unwrap();
        agent.update(0, 0, 1.0, 0).unwrap();
        agent.update(0, 0, 2.0, 0).unwrap();
        assert_eq!(agent.qa().get(0, 0).unwrap(), 1.0);
        assert_eq!(agent.qb().get(0, 0).unwrap(), 2.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(DoubleAgent::builder(0, 2).build().is_err());
        assert!(DoubleAgent::builder(2, 2).gamma(1.0).build().is_err());
        let mut agent = DoubleAgent::builder(2, 2).build().unwrap();
        assert!(agent.update(0, 0, f64::NAN, 1).is_err());
        assert!(agent.update(5, 0, 0.0, 1).is_err());
    }

    #[test]
    fn coverage_and_optimism() {
        let agent = DoubleAgent::builder(2, 2).optimistic(3.0).build().unwrap();
        assert_eq!(agent.qa().get(0, 0).unwrap(), 3.0);
        assert_eq!(agent.coverage(), 0.0);
        assert_eq!(agent.combined_row(0).unwrap(), vec![6.0, 6.0]);
    }
}
