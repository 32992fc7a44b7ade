//! Property-based tests for the tabular RL machinery.

use odrl_rl::{Agent, EpsCache, Policy, Schedule, StateSpace, UniformBins};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Q-values remain finite and bounded by the reward range under any
    /// update sequence: with rewards in [lo, hi] and gamma < 1, values stay
    /// within [lo/(1-g) - slack, hi/(1-g) + slack] given zero init.
    #[test]
    fn q_values_stay_in_reward_hull(
        gamma in 0.0f64..0.95,
        transitions in prop::collection::vec(
            (0usize..4, 0usize..3, -1.0f64..1.0, 0usize..4), 1..300),
    ) {
        let mut agent = Agent::builder(4, 3)
            .gamma(gamma)
            .alpha(Schedule::constant(0.5).unwrap())
            .build()
            .unwrap();
        for &(s, a, r, s2) in &transitions {
            agent.update(s, a, r, s2).unwrap();
        }
        let bound = 1.0 / (1.0 - gamma) + 1e-9;
        for s in 0..4 {
            for a in 0..3 {
                let q = agent.q().get(s, a).unwrap();
                prop_assert!(q.is_finite());
                prop_assert!(q.abs() <= bound, "Q({s},{a}) = {q} exceeds {bound}");
            }
        }
    }

    /// Every policy always returns a valid action index, and one it did
    /// not explore to is the greedy action it was handed.
    #[test]
    fn policies_return_valid_actions(
        actions in 1usize..8,
        greedy_frac in 0.0f64..1.0,
        seed in 0u64..100,
        eps in 0.0f64..1.0,
    ) {
        let greedy = ((greedy_frac * actions as f64) as usize).min(actions - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = EpsCache::new();
        let policies = [
            Policy::Greedy,
            Policy::EpsilonGreedy { epsilon: Schedule::constant(eps).unwrap() },
        ];
        for p in policies {
            for t in [0u64, 10, 1000] {
                let (a, explored) = p.select(actions, greedy, t, None, &mut rng, &mut cache);
                prop_assert!(a < actions);
                prop_assert!(explored || a == greedy);
            }
        }
    }

    /// Schedules are non-negative everywhere and respect their floors.
    #[test]
    fn schedules_respect_floors(
        initial in 0.0f64..2.0,
        rate in 0.0f64..1.0,
        floor_frac in 0.0f64..1.0,
        t in 0u64..100_000,
    ) {
        let floor = initial * floor_frac;
        let schedules = [
            Schedule::exponential(initial, rate, floor).unwrap(),
            Schedule::inverse_time(initial, floor).unwrap(),
            Schedule::linear(initial, floor, 1000).unwrap(),
        ];
        for s in schedules {
            let v = s.value(t);
            prop_assert!(v >= floor - 1e-12);
            prop_assert!(v <= initial + 1e-12);
        }
    }

    /// StateSpace index/coords are a bijection over the whole space.
    #[test]
    fn state_space_bijection(dims in prop::collection::vec(1usize..5, 1..4)) {
        let space = StateSpace::new(dims).unwrap();
        let mut seen = vec![false; space.len()];
        for (i, slot) in seen.iter_mut().enumerate() {
            let c = space.coords(i).unwrap();
            let back = space.index(&c).unwrap();
            prop_assert_eq!(back, i);
            prop_assert!(!*slot);
            *slot = true;
        }
    }

    /// Uniform bins: every input lands in a valid bin, and bin edges are
    /// monotone (x <= y implies bin(x) <= bin(y)).
    #[test]
    fn bins_are_monotone_total(
        lo in -10.0f64..10.0,
        width in 0.1f64..20.0,
        n in 1usize..32,
        x in -100.0f64..100.0,
        y in -100.0f64..100.0,
    ) {
        let b = UniformBins::new(lo, lo + width, n).unwrap();
        let bx = b.bin(x);
        let by = b.bin(y);
        prop_assert!(bx < n && by < n);
        if x <= y {
            prop_assert!(bx <= by);
        }
    }

    /// Q-learning on a deterministic 2-state chain converges to the known
    /// fixed point for any gamma.
    #[test]
    fn q_learning_fixed_point(gamma in 0.0f64..0.9) {
        // Constant alpha converges geometrically in a deterministic
        // environment (inverse-time would need O(t^(1/(1-gamma))) steps).
        let mut agent = Agent::builder(1, 1)
            .gamma(gamma)
            .alpha(Schedule::constant(0.2).unwrap())
            .policy(Policy::Greedy)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        // Single state, single action, reward 1: Q* = 1/(1-gamma).
        for _ in 0..8000 {
            let a = agent.select(0, &mut rng).unwrap();
            agent.update(0, a, 1.0, 0).unwrap();
        }
        let q = agent.q().get(0, 0).unwrap();
        let expect = 1.0 / (1.0 - gamma);
        prop_assert!((q - expect).abs() < 0.05 * expect + 0.01, "q={q} expect={expect}");
    }
}
