//! Action-selection policies.

use crate::error::RlError;
use crate::qtable::QTable;
use crate::schedule::Schedule;
use crate::storage::QTableStorage;
use rand::Rng;

/// How an agent turns action values into an action.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Policy {
    /// Always the greedy action.
    Greedy,
    /// Greedy with probability `1 − ε(t)`, uniform random otherwise.
    EpsilonGreedy {
        /// The exploration-rate schedule.
        epsilon: Schedule,
    },
    /// Boltzmann exploration: `P(a) ∝ e^(Q(s,a)/τ(t))`.
    Softmax {
        /// The temperature schedule (higher = more random).
        temperature: Schedule,
    },
    /// UCB1 (Auer et al.): pick `argmax Q(s,a) + c·√(ln N(s) / N(s,a))`,
    /// where `N` are visit counts. Untried actions are tried first.
    /// Exploration is *directed* — uncertainty, not coin flips — which
    /// suits short-horizon on-line control.
    Ucb1 {
        /// The exploration constant (larger = more exploration).
        c: f64,
    },
}

/// Single-entry memo for the exploration-rate schedule.
///
/// A fleet of per-core agents advancing in lockstep evaluates the *same*
/// `ε(t)` once per agent per epoch; for the exponential schedule that is
/// one `exp()` per agent. Passing one cache through a batch of fused
/// selections collapses those to a single evaluation — the cache keys on
/// `(schedule, t)`, so agents whose steps diverge (e.g. cores that sat out
/// epochs) still get their exact value. Values are bit-identical to
/// uncached evaluation; only redundant recomputation is skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpsCache {
    key: Option<(Schedule, u64)>,
    value: f64,
}

impl EpsCache {
    /// An empty cache (first lookup evaluates the schedule).
    pub fn new() -> Self {
        Self::default()
    }

    /// The clamped exploration rate `ε(t)`, evaluated once per distinct
    /// `(schedule, t)` pair.
    #[inline]
    fn value(&mut self, schedule: &Schedule, t: u64) -> f64 {
        if self.key != Some((*schedule, t)) {
            self.value = schedule.value(t).clamp(0.0, 1.0);
            self.key = Some((*schedule, t));
        }
        self.value
    }
}

impl Policy {
    /// The standard OD-RL policy: ε-greedy with exponential decay to a
    /// floor (the agent never stops exploring, so it can track workload
    /// phase changes).
    pub fn default_epsilon_greedy() -> Self {
        Self::EpsilonGreedy {
            epsilon: Schedule::Exponential {
                initial: 0.5,
                rate: 5e-3,
                floor: 0.05,
            },
        }
    }

    /// Selects an action for state `s` at decision step `t`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] if `s` is out of range for `q`.
    pub fn select<R: Rng + ?Sized>(
        &self,
        q: &QTable,
        s: usize,
        t: u64,
        rng: &mut R,
    ) -> Result<usize, RlError> {
        if let Self::Ucb1 { c } = self {
            let row = q.row(s)?;
            // First pass: total visits, and any untried action is explored
            // immediately (in index order) — two passes over the visit
            // counts instead of collecting them, so selection is
            // allocation-free.
            let mut total = 0u64;
            for a in 0..row.len() {
                let v = q.visits(s, a)?;
                if v == 0 {
                    return Ok(a);
                }
                total += v;
            }
            let ln_n = (total.max(1) as f64).ln();
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            for (a, &qv) in row.iter().enumerate() {
                let v = q.visits(s, a)?;
                let score = qv + c * (ln_n / v as f64).sqrt();
                if score > best_score {
                    best_score = score;
                    best = a;
                }
            }
            return Ok(best);
        }
        Ok(self.select_row(q.row(s)?, t, rng))
    }

    /// Selects an action for state `s` against any [`QTableStorage`]
    /// layout. For the scalar layout this delegates to [`Policy::select`]
    /// and is bit-identical to it (same RNG draw sequence); the quantized
    /// layout runs the same algorithms over dequantized values, with UCB1
    /// reading the storage's own visit counts.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] if `s` is out of range for `q`.
    pub fn select_storage<R: Rng + ?Sized>(
        &self,
        q: &QTableStorage,
        s: usize,
        t: u64,
        rng: &mut R,
    ) -> Result<usize, RlError> {
        if let QTableStorage::Scalar(table) = q {
            return self.select(table, s, t, rng);
        }
        let len = q.actions();
        if let Self::Ucb1 { c } = self {
            // Same allocation-free two-pass shape as the scalar path:
            // untried actions first (in index order), then the UCB score.
            let mut total = 0u64;
            for a in 0..len {
                let v = q.visits(s, a)?;
                if v == 0 {
                    return Ok(a);
                }
                total += v;
            }
            let ln_n = (total.max(1) as f64).ln();
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            for a in 0..len {
                let v = q.visits(s, a)?;
                let score = q.get(s, a)? + c * (ln_n / v as f64).sqrt();
                if score > best_score {
                    best_score = score;
                    best = a;
                }
            }
            return Ok(best);
        }
        // Bounds-check the state once, then select over the virtual row.
        if s >= q.states() {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: q.states(),
            });
        }
        Ok(self.select_with(len, |a| q.value_at(s, a), t, rng))
    }

    /// Selects an action from a raw action-value row (used by agents that
    /// combine several tables, e.g. double Q-learning). [`Policy::Ucb1`]
    /// needs visit counts, which a raw row does not carry, so it degrades
    /// to greedy here — use [`Policy::select`] for true UCB behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `row` is empty.
    pub fn select_row<R: Rng + ?Sized>(&self, row: &[f64], t: u64, rng: &mut R) -> usize {
        self.select_with(row.len(), |a| row[a], t, rng)
    }

    /// Completes a selection from a *precomputed* greedy action, for agents
    /// that have already scanned the row (e.g. to fuse argmax with the TD
    /// bootstrap), and reports whether it *explored* (took the ε branch).
    /// Greedy and ε-greedy never need the values themselves — only the
    /// argmax plus the RNG draws — so for those this is drop-in
    /// bit-identical to [`Policy::select_with`] (same RNG call sequence).
    /// Returns `None` for [`Policy::Softmax`] and [`Policy::Ucb1`], which
    /// need the full row or visit counts; callers fall back to a full
    /// selection.
    ///
    /// `draw` optionally supplies the leading ε uniform as the raw
    /// `next_u64` value `rng` would have produced (see
    /// [`Policy::pre_draws_uniform`]). Exploration still draws the action
    /// index from `rng`, so the per-agent draw *order* (ε uniform, then the
    /// action draw only when exploring) is the same either way and seeded
    /// runs are bit-identical. Policies that do not pre-draw ignore it.
    pub fn select_from_argmax<R: Rng + ?Sized>(
        &self,
        len: usize,
        greedy: usize,
        t: u64,
        draw: Option<u64>,
        rng: &mut R,
        cache: &mut EpsCache,
    ) -> Option<(usize, bool)> {
        match self {
            Self::Greedy => Some((greedy, false)),
            Self::EpsilonGreedy { epsilon } => {
                let eps = cache.value(epsilon, t);
                let u = match draw {
                    Some(raw) => crate::kernel::draw_to_unit_f64(raw),
                    None => rng.gen::<f64>(),
                };
                if u < eps {
                    Some((rng.gen_range(0..len), true))
                } else {
                    Some((greedy, false))
                }
            }
            _ => None,
        }
    }

    /// Whether selection consumes exactly one *leading* uniform draw (the
    /// ε test) before anything else touches the RNG.
    ///
    /// This is the contract the block decide pipeline relies on: for an
    /// agent whose policy pre-draws one uniform, a controller may refill a
    /// block of raw `next_u64` draws (one per agent) up front and feed them
    /// through [`Policy::select_from_argmax`] without perturbing any
    /// per-agent RNG stream. [`Policy::Greedy`] draws nothing and the
    /// softmax/UCB1 policies draw differently, so only
    /// [`Policy::EpsilonGreedy`] qualifies.
    #[must_use]
    pub fn pre_draws_uniform(&self) -> bool {
        matches!(self, Self::EpsilonGreedy { .. })
    }

    /// Selects an action from a *virtual* action-value row: `value_fn(a)`
    /// yields the value of action `a` for `a` in `0..len`.
    ///
    /// This is the allocation-free core of [`Policy::select_row`]; agents
    /// that combine several tables (e.g. double Q-learning's `QA + QB`) use
    /// it to select without materialising the combined row. `value_fn` must
    /// be deterministic — softmax evaluates each action more than once and
    /// relies on identical values per pass. RNG draws and float operations
    /// match `select_row` on the materialised row exactly, so the two are
    /// bit-identical and interchangeable mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn select_with<R: Rng + ?Sized>(
        &self,
        len: usize,
        value_fn: impl Fn(usize) -> f64,
        t: u64,
        rng: &mut R,
    ) -> usize {
        assert!(len > 0, "action-value row is empty");
        let greedy = |value_fn: &dyn Fn(usize) -> f64| {
            let mut best = 0;
            let mut best_v = value_fn(0);
            for a in 1..len {
                let v = value_fn(a);
                if v > best_v {
                    best_v = v;
                    best = a;
                }
            }
            best
        };
        match self {
            Self::Greedy | Self::Ucb1 { .. } => greedy(&value_fn),
            Self::EpsilonGreedy { epsilon } => {
                let eps = epsilon.value(t).clamp(0.0, 1.0);
                if rng.gen::<f64>() < eps {
                    rng.gen_range(0..len)
                } else {
                    greedy(&value_fn)
                }
            }
            Self::Softmax { temperature } => {
                // Three passes recomputing the weights instead of one pass
                // collecting them: identical float order, no heap.
                let tau = temperature.value(t).max(1e-6);
                let mut m = f64::NEG_INFINITY;
                for a in 0..len {
                    m = m.max(value_fn(a));
                }
                let mut total = 0.0;
                for a in 0..len {
                    total += ((value_fn(a) - m) / tau).exp();
                }
                let mut u = rng.gen::<f64>() * total;
                for a in 0..len {
                    u -= ((value_fn(a) - m) / tau).exp();
                    if u <= 0.0 {
                        return a;
                    }
                }
                len - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> QTable {
        let mut q = QTable::new(2, 3).unwrap();
        q.set(0, 1, 10.0).unwrap();
        q.set(1, 2, 10.0).unwrap();
        q
    }

    #[test]
    fn greedy_always_picks_best() {
        let q = table();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(Policy::Greedy.select(&q, 0, 0, &mut rng).unwrap(), 1);
            assert_eq!(Policy::Greedy.select(&q, 1, 0, &mut rng).unwrap(), 2);
        }
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let q = table();
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::constant(0.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(p.select(&q, 0, 0, &mut rng).unwrap(), 1);
        }
    }

    #[test]
    fn epsilon_one_is_uniform() {
        let q = table();
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::constant(1.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[p.select(&q, 0, 0, &mut rng).unwrap()] += 1;
        }
        for c in counts {
            let f = c as f64 / 3_000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "uniform check failed: {f}");
        }
    }

    #[test]
    fn epsilon_decays_with_step() {
        let q = table();
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::exponential(1.0, 0.1, 0.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        // At a very late step, exploration is negligible.
        for _ in 0..50 {
            assert_eq!(p.select(&q, 0, 1_000, &mut rng).unwrap(), 1);
        }
    }

    #[test]
    fn softmax_low_temperature_is_nearly_greedy() {
        let q = table();
        let p = Policy::Softmax {
            temperature: Schedule::constant(0.01).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let greedy = (0..500)
            .filter(|_| p.select(&q, 0, 0, &mut rng).unwrap() == 1)
            .count();
        assert!(greedy > 490);
    }

    #[test]
    fn softmax_high_temperature_is_nearly_uniform() {
        let q = table();
        let p = Policy::Softmax {
            temperature: Schedule::constant(1e6).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[p.select(&q, 0, 0, &mut rng).unwrap()] += 1;
        }
        for c in counts {
            assert!(c > 800, "softmax at high T should be uniform: {counts:?}");
        }
    }

    #[test]
    fn ucb_tries_every_action_before_repeating() {
        let mut q = QTable::new(1, 4).unwrap();
        let p = Policy::Ucb1 { c: 1.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 4];
        for _ in 0..4 {
            let a = p.select(&q, 0, 0, &mut rng).unwrap();
            assert!(!seen[a], "repeated {a} before trying all actions");
            seen[a] = true;
            q.visit(0, a).unwrap();
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn ucb_prefers_high_value_when_counts_match() {
        let mut q = QTable::new(1, 3).unwrap();
        q.set(0, 1, 5.0).unwrap();
        for a in 0..3 {
            for _ in 0..10 {
                q.visit(0, a).unwrap();
            }
        }
        let p = Policy::Ucb1 { c: 0.5 };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.select(&q, 0, 0, &mut rng).unwrap(), 1);
    }

    #[test]
    fn ucb_bonus_pulls_toward_undervisited_actions() {
        let mut q = QTable::new(1, 2).unwrap();
        // Action 0 slightly better but heavily visited; action 1 barely
        // visited: a large-enough c must pick action 1.
        q.set(0, 0, 1.0).unwrap();
        q.set(0, 1, 0.9).unwrap();
        for _ in 0..1000 {
            q.visit(0, 0).unwrap();
        }
        q.visit(0, 1).unwrap();
        let p = Policy::Ucb1 { c: 2.0 };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.select(&q, 0, 0, &mut rng).unwrap(), 1);
    }

    #[test]
    fn invalid_state_errors() {
        let q = table();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Policy::Greedy.select(&q, 9, 0, &mut rng).is_err());
        let p = Policy::default_epsilon_greedy();
        assert!(p.select(&q, 9, 0, &mut rng).is_err());
    }
}
