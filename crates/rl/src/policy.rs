//! Action-selection policies.

use crate::schedule::Schedule;
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

    /// Selects an action at decision step `t` from a *precomputed* greedy
    /// action `greedy` over `len` actions, and reports whether it
    /// *explored* (took the ε branch). Neither policy needs the action
    /// values themselves — only the argmax plus the RNG draws — so callers
    /// scan the row once (fusing the argmax with the TD bootstrap, or
    /// summing two tables) and hand over the result.
    ///
    /// `draw` optionally supplies the leading ε uniform as the raw
    /// `next_u64` value `rng` would have produced (see
    /// [`Policy::pre_draws_uniform`]). Exploration still draws the action
    /// index from `rng`, so the per-agent draw *order* (ε uniform, then the
    /// action draw only when exploring) is the same either way and seeded
    /// runs are bit-identical. [`Policy::Greedy`] ignores it and draws
    /// nothing.
    pub fn select<R: Rng + ?Sized>(
        &self,
        len: usize,
        greedy: usize,
        t: u64,
        draw: Option<u64>,
        rng: &mut R,
        cache: &mut EpsCache,
    ) -> (usize, bool) {
        match self {
            Self::Greedy => (greedy, false),
            Self::EpsilonGreedy { epsilon } => {
                let eps = cache.value(epsilon, t);
                let u = match draw {
                    Some(raw) => crate::kernel::draw_to_unit_f64(raw),
                    None => rng.gen::<f64>(),
                };
                if u < eps {
                    (rng.gen_range(0..len), true)
                } else {
                    (greedy, false)
                }
            }
        }
    }

    /// Whether selection consumes exactly one *leading* uniform draw (the
    /// ε test) before anything else touches the RNG.
    ///
    /// This is the contract the block decide pipeline relies on: for an
    /// agent whose policy pre-draws one uniform, a controller may refill a
    /// block of raw `next_u64` draws (one per agent) up front and feed them
    /// through [`Policy::select`] without perturbing any per-agent RNG
    /// stream. [`Policy::Greedy`] draws nothing, so only
    /// [`Policy::EpsilonGreedy`] qualifies.
    #[must_use]
    pub fn pre_draws_uniform(&self) -> bool {
        matches!(self, Self::EpsilonGreedy { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn select(p: Policy, t: u64, rng: &mut StdRng) -> usize {
        p.select(3, 1, t, None, rng, &mut EpsCache::new()).0
    }

    #[test]
    fn greedy_returns_greedy_and_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let untouched = rng.clone();
        for _ in 0..50 {
            let pick = Policy::Greedy.select(3, 2, 0, Some(0), &mut rng, &mut EpsCache::new());
            assert_eq!(pick, (2, false));
        }
        assert_eq!(rng, untouched);
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::constant(0.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(select(p, 0, &mut rng), 1);
        }
    }

    #[test]
    fn epsilon_one_is_uniform() {
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::constant(1.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[select(p, 0, &mut rng)] += 1;
        }
        for c in counts {
            let f = c as f64 / 3_000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "uniform check failed: {f}");
        }
    }

    #[test]
    fn epsilon_decays_with_step() {
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::exponential(1.0, 0.1, 0.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        // At a very late step, exploration is negligible.
        for _ in 0..50 {
            assert_eq!(select(p, 1_000, &mut rng), 1);
        }
    }

    #[test]
    fn pre_drawn_uniform_matches_drawing_it() {
        let p = Policy::EpsilonGreedy {
            epsilon: Schedule::constant(0.5).unwrap(),
        };
        let mut drawn = StdRng::seed_from_u64(11);
        let mut pre = drawn.clone();
        let mut cache = EpsCache::new();
        for t in 0..200 {
            let a = p.select(4, 3, t, None, &mut drawn, &mut cache);
            let raw = pre.next_u64();
            let b = p.select(4, 3, t, Some(raw), &mut pre, &mut cache);
            assert_eq!(a, b, "step {t}");
        }
        assert_eq!(drawn, pre);
    }
}
