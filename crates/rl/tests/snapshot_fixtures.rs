//! Snapshot byte fixtures: trained single-table (kind 1) and double-Q
//! (kind 2) agents on both table layouts, saved as files. Each must decode
//! and re-encode byte-identical, and retraining with the recipe below must
//! reproduce it exactly — so neither the snapshot format nor the learning
//! rules can drift without a fixture failing.

use odrl_rl::{
    Agent, Algorithm, Policy, QTableLayout, Schedule, KIND_AGENT, KIND_DOUBLE_AGENT, SNAPSHOT_MAGIC,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STATES: usize = 6;
const ACTIONS: usize = 5;
const STEPS: usize = 300;

const KIND1_SCALAR: &[u8] = include_bytes!("fixtures/kind1_scalar.qsnap");
const KIND1_QUANTIZED: &[u8] = include_bytes!("fixtures/kind1_quantized.qsnap");
const KIND2_SCALAR: &[u8] = include_bytes!("fixtures/kind2_scalar.qsnap");
const KIND2_QUANTIZED: &[u8] = include_bytes!("fixtures/kind2_quantized.qsnap");

/// Deterministic environment: next state and reward from (state, action,
/// step) only.
fn env(s: usize, a: usize, t: usize) -> (usize, f64) {
    let s_next = (s * 31 + a * 7 + t) % STATES;
    let reward = ((s * ACTIONS + a) as f64 * 0.37 + t as f64 * 0.011).sin();
    (s_next, reward)
}

fn policy() -> Policy {
    Policy::EpsilonGreedy {
        epsilon: Schedule::exponential(0.6, 1e-2, 0.1).unwrap(),
    }
}

fn alpha() -> Schedule {
    Schedule::inverse_time(0.5, 0.05).unwrap()
}

/// The recipe: optimistic prior 1.0 (for double Q-learning, 0.5 in each
/// table), `STEPS` select/update rounds.
fn train(algorithm: Algorithm, layout: QTableLayout) -> Vec<u8> {
    let mut agent = Agent::builder(STATES, ACTIONS)
        .algorithm(algorithm)
        .gamma(0.85)
        .alpha(alpha())
        .policy(policy())
        .layout(layout)
        .optimistic(1.0)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let mut s = 0usize;
    for t in 0..STEPS {
        let a = agent.select(s, &mut rng).unwrap();
        let (s_next, r) = env(s, a, t);
        agent.update(s, a, r, s_next).unwrap();
        s = s_next;
    }
    agent.snapshot_bytes()
}

fn kind(bytes: &[u8]) -> u8 {
    assert_eq!(bytes[..8], SNAPSHOT_MAGIC);
    bytes[12]
}

#[test]
fn kind1_fixtures_decode_and_reencode_byte_identical() {
    for fixture in [KIND1_SCALAR, KIND1_QUANTIZED] {
        assert_eq!(kind(fixture), KIND_AGENT);
        let agent = Agent::from_snapshot_bytes(fixture).unwrap();
        assert_eq!(agent.snapshot_bytes(), fixture);
    }
}

#[test]
fn kind2_fixtures_decode_and_reencode_byte_identical() {
    for fixture in [KIND2_SCALAR, KIND2_QUANTIZED] {
        assert_eq!(kind(fixture), KIND_DOUBLE_AGENT);
        let agent = Agent::from_snapshot_bytes(fixture).unwrap();
        assert_eq!(agent.snapshot_bytes(), fixture);
    }
}

#[test]
fn retraining_reproduces_every_fixture() {
    use Algorithm::{DoubleQLearning, QLearning};
    use QTableLayout::{Quantized, Scalar};
    assert_eq!(train(QLearning, Scalar), KIND1_SCALAR);
    assert_eq!(train(QLearning, Quantized), KIND1_QUANTIZED);
    assert_eq!(train(DoubleQLearning, Scalar), KIND2_SCALAR);
    assert_eq!(train(DoubleQLearning, Quantized), KIND2_QUANTIZED);
}
