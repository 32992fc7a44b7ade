//! The decide/learn pair must be indistinguishable from the classic
//! select-then-update sequence, which serves as the oracle: identical
//! actions, bitwise-identical tables and counters (compared through the
//! snapshot encoding, which carries every float as raw bits) and identical
//! RNG consumption — for every policy, both table layouts, one and two
//! tables, whether or not the caller pre-draws the ε uniform or pre-scans the
//! row the way the controller's block pipeline does.

use odrl_rl::kernel::scan_rows;
use odrl_rl::{Agent, Algorithm, EpsCache, Policy, QTableLayout, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATES: usize = 6;
const ACTIONS: usize = 5;
const EPOCHS: usize = 400;
const LAYOUTS: [QTableLayout; 2] = [QTableLayout::Scalar, QTableLayout::Quantized];

fn policies() -> Vec<Policy> {
    vec![
        Policy::Greedy,
        Policy::default_epsilon_greedy(),
        Policy::EpsilonGreedy {
            epsilon: Schedule::constant(1.0).unwrap(),
        },
    ]
}

/// What the caller hands `decide` besides the state: nothing, a pre-drawn
/// ε uniform, or a pre-drawn uniform plus the pre-scanned row.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Prep {
    Plain,
    Draw,
    DrawAndScan,
}

const PREPS: [Prep; 3] = [Prep::Plain, Prep::Draw, Prep::DrawAndScan];

/// Deterministic environment: next state and reward from (state, action,
/// epoch) only, so both twins see identical experience.
fn env(s: usize, a: usize, t: usize) -> (usize, f64) {
    let s_next = (s * 31 + a * 7 + t) % STATES;
    let reward = ((s * ACTIONS + a) as f64 * 0.37 + t as f64 * 0.011).sin();
    (s_next, reward)
}

/// The ε draw a block caller would pre-draw for this agent, if any.
fn pre_draw(prep: Prep, pre_draws: bool, rng: &mut StdRng) -> Option<u64> {
    (prep != Prep::Plain && pre_draws).then(|| rng.next_u64())
}

/// The `(argmax, max)` a block caller would hand over: from the block
/// kernel for banked rows, from the storage scan otherwise.
fn pre_scan(prep: Prep, agent: &Agent, s: usize) -> Option<(usize, f64)> {
    if prep != Prep::DrawAndScan {
        return None;
    }
    Some(match agent.quant_row(s) {
        Some(row) => {
            let mut out = [(0u16, 0.0f64)];
            scan_rows(&[row], &mut out);
            (usize::from(out[0].0), out[0].1)
        }
        None => agent.q().best_action_and_max(s).unwrap(),
    })
}

/// Runs `select` + `update` against `decide` + `learn` on one shared
/// trajectory and asserts they stay identical step by step.
fn check(algorithm: Algorithm, layout: QTableLayout, policy: Policy, prep: Prep, seed: u64) {
    let build = || {
        Agent::builder(STATES, ACTIONS)
            .algorithm(algorithm)
            .gamma(0.85)
            .alpha(Schedule::inverse_time(0.5, 0.1).unwrap())
            .policy(policy)
            .layout(layout)
            .optimistic(0.5)
            .build()
            .unwrap()
    };
    let what = format!("{algorithm:?} {layout:?} {policy:?} {prep:?}");
    let (mut plain, mut split) = (build(), build());
    let mut rng_p = StdRng::seed_from_u64(seed);
    let mut rng_s = StdRng::seed_from_u64(seed);
    let mut cache = EpsCache::new();
    let mut prev: Option<(usize, usize, f64)> = None;
    let mut s = 0usize;
    for t in 0..EPOCHS {
        let a_plain = plain.select(s, &mut rng_p).unwrap();
        if let Some((ps, pa, pr)) = prev {
            plain.update(ps, pa, pr, s).unwrap();
        }
        let draw = pre_draw(prep, split.policy_pre_draws(), &mut rng_s);
        let scan = pre_scan(prep, &split, s);
        let (a_split, _, bootstrap) = split.decide(s, draw, scan, &mut rng_s, &mut cache).unwrap();
        if let Some((ps, pa, pr)) = prev {
            split.learn(ps, pa, pr, bootstrap).unwrap();
        }
        assert_eq!(a_plain, a_split, "{what}: action diverged at epoch {t}");
        assert_eq!(
            plain.snapshot_bytes(),
            split.snapshot_bytes(),
            "{what}: state diverged at epoch {t}"
        );
        let (s_next, r) = env(s, a_plain, t);
        prev = Some((s, a_plain, r));
        s = s_next;
    }
    // Equal RNG consumption: the next draw must match too.
    assert_eq!(
        rng_p.gen::<u64>(),
        rng_s.gen::<u64>(),
        "{what}: RNG position"
    );
}

#[test]
fn q_learning_decide_learn_matches_select_then_update() {
    for layout in LAYOUTS {
        for (pi, policy) in policies().into_iter().enumerate() {
            for prep in PREPS {
                check(Algorithm::QLearning, layout, policy, prep, 900 + pi as u64);
            }
        }
    }
}

/// A two-table agent offers no banked row and ignores a pre-scanned one
/// (it scans the sum of both tables itself), so `DrawAndScan` must match
/// too.
#[test]
fn double_q_decide_learn_matches_select_then_update() {
    for layout in LAYOUTS {
        for (pi, policy) in policies().into_iter().enumerate() {
            for prep in PREPS {
                let seed = 31_000 + pi as u64;
                check(Algorithm::DoubleQLearning, layout, policy, prep, seed);
            }
        }
    }
}

#[test]
fn fused_best_action_and_max_match_separate_queries() {
    let mut agent = Agent::builder(STATES, ACTIONS).build().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut s = 0usize;
    for t in 0..EPOCHS {
        let a = agent.select(s, &mut rng).unwrap();
        let (s_next, r) = env(s, a, t);
        agent.update(s, a, r, s_next).unwrap();
        s = s_next;
    }
    for state in 0..STATES {
        let (best, max_v) = agent.q().best_action_and_max(state).unwrap();
        assert_eq!(best, agent.q().best_action(state).unwrap());
        assert_eq!(
            max_v.to_bits(),
            agent.q().max_value(state).unwrap().to_bits()
        );
    }
    assert!(agent.q().best_action_and_max(STATES).is_err());
}

#[test]
fn decide_learn_error_paths_match_select_update() {
    let mut agent = Agent::builder(2, 2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let mut cache = EpsCache::new();
    // Invalid state fails before anything advances.
    assert!(agent.decide(9, None, None, &mut rng, &mut cache).is_err());
    assert_eq!(agent.step_count(), 0);
    // A non-finite reward fails the learn half after the decision counted.
    let (a, _, bootstrap) = agent.decide(0, None, None, &mut rng, &mut cache).unwrap();
    assert_eq!(agent.step_count(), 1);
    assert!(agent.learn(0, a, f64::NAN, bootstrap).is_err());
    assert!(agent.learn(0, 5, 0.0, bootstrap).is_err());

    let mut dbl = Agent::builder(2, 2)
        .algorithm(Algorithm::DoubleQLearning)
        .build()
        .unwrap();
    assert!(dbl.decide(9, None, None, &mut rng, &mut cache).is_err());
    assert_eq!(dbl.step_count(), 0);
    let (a, _, bootstrap) = dbl.decide(0, None, None, &mut rng, &mut cache).unwrap();
    assert!(dbl.learn(0, a, f64::INFINITY, bootstrap).is_err());
}
