//! Snapshot decoders never panic on hostile bytes.
//!
//! Starting from the four committed agent fixtures (kind 1 and kind 2, both
//! table layouts) and a policy set built from them, every input below —
//! truncated at every length, with random bits flipped, or spliced from
//! the head of one snapshot and the tail of another — must make both
//! [`Agent::from_snapshot_bytes`] and [`PolicySnapshot::from_bytes`]
//! either return `Err` or decode to a value that re-encodes to exactly the
//! input bytes. A panic fails the test. Scalar visit counts are written as
//! `u64` but held as `u32`, so a count past `u32::MAX` must be refused,
//! never truncated or saturated.

use odrl_core::PolicySnapshot;
use odrl_rl::snapshot::{header, put_u64};
use odrl_rl::{Agent, RlError, KIND_POLICY_SET};
use proptest::prelude::*;

const FIXTURES: [&[u8]; 4] = [
    include_bytes!("../../rl/tests/fixtures/kind1_scalar.qsnap"),
    include_bytes!("../../rl/tests/fixtures/kind1_quantized.qsnap"),
    include_bytes!("../../rl/tests/fixtures/kind2_scalar.qsnap"),
    include_bytes!("../../rl/tests/fixtures/kind2_quantized.qsnap"),
];

/// Offset of the policy tag in an agent snapshot: the 16-byte header,
/// then `gamma`, `step` and the 40-byte alpha schedule.
const AGENT_POLICY_TAG: usize = 16 + 8 + 8 + 40;

/// Bytes a policy set puts before its first agent block: the header,
/// `states`, `actions`, the agent count and that agent's kind.
const SET_PREFIX: usize = 16 + 8 + 8 + 8 + 8;

/// A policy set holding one agent per fixture, framed as
/// [`PolicySnapshot::to_bytes`] frames it.
fn policy_set() -> Vec<u8> {
    policy_set_of(&FIXTURES)
}

/// A policy set holding one agent per entry of `fixtures`, in order.
fn policy_set_of(fixtures: &[&[u8]]) -> Vec<u8> {
    let agent = Agent::from_snapshot_bytes(fixtures[0]).unwrap();
    let mut out = header(KIND_POLICY_SET);
    put_u64(&mut out, agent.q().states() as u64);
    put_u64(&mut out, agent.q().actions() as u64);
    put_u64(&mut out, fixtures.len() as u64);
    for fixture in fixtures {
        put_u64(&mut out, u64::from(fixture[12]));
        out.extend_from_slice(&fixture[16..]);
    }
    out
}

/// Every valid input: the four agent fixtures and the policy set.
fn inputs() -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = FIXTURES.iter().map(|f| f.to_vec()).collect();
    all.push(policy_set());
    all
}

/// Panics unless `encoded` reproduces `input`, naming the first byte
/// where they part.
fn assert_exact(what: &str, encoded: &[u8], input: &[u8]) {
    if encoded != input {
        let at = encoded
            .iter()
            .zip(input)
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "{what} decode is not exact: re-encoding differs at byte {at} \
             ({} bytes in, {} out)",
            input.len(),
            encoded.len()
        );
    }
}

/// Feeds `bytes` to both decoders; returns how many of them accepted it.
/// An accepted input must re-encode to itself.
fn decode_both(bytes: &[u8]) -> usize {
    let mut accepted = 0;
    if let Ok(agent) = Agent::from_snapshot_bytes(bytes) {
        assert_exact("agent", &agent.snapshot_bytes(), bytes);
        accepted += 1;
    }
    if let Ok(set) = PolicySnapshot::from_bytes(bytes) {
        assert_exact("policy-set", &set.to_bytes(), bytes);
        accepted += 1;
    }
    accepted
}

#[test]
fn valid_inputs_decode_exactly_once() {
    for bytes in inputs() {
        assert_eq!(decode_both(&bytes), 1);
    }
}

#[test]
fn every_truncation_and_any_trailing_byte_is_rejected() {
    for bytes in inputs() {
        for len in 0..bytes.len() {
            assert_eq!(decode_both(&bytes[..len]), 0, "prefix of {len} bytes");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_both(&longer), 0, "one trailing byte");
    }
}

#[test]
fn retired_policy_tags_are_rejected() {
    let unknown = RlError::Snapshot {
        reason: "unknown policy tag",
    };
    for tag in [2u8, 3, 0xFF] {
        for fixture in FIXTURES {
            let mut bytes = fixture.to_vec();
            assert!(bytes[AGENT_POLICY_TAG] <= 1, "fixture policy tag moved");
            bytes[AGENT_POLICY_TAG] = tag;
            assert_eq!(Agent::from_snapshot_bytes(&bytes).unwrap_err(), unknown);
        }
        let mut set = policy_set();
        set[SET_PREFIX + AGENT_POLICY_TAG - 16] = tag;
        assert_eq!(PolicySnapshot::from_bytes(&set).unwrap_err(), unknown);
    }
}

/// The inputs that end with a scalar visit count: the two scalar agent
/// fixtures and a policy set whose last agent is scalar.
fn scalar_tailed() -> [Vec<u8>; 3] {
    [
        FIXTURES[0].to_vec(),
        FIXTURES[2].to_vec(),
        policy_set_of(&[FIXTURES[1], FIXTURES[2]]),
    ]
}

/// Overwrites the trailing `u64` of `bytes`, a scalar visit count in every
/// [`scalar_tailed`] input, with `count`.
fn with_last_visit(mut bytes: Vec<u8>, count: u64) -> Vec<u8> {
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&count.to_le_bytes());
    bytes
}

/// Checks that `bytes` decodes exactly when `count` fits in `u32` and is
/// refused with the visit-count error otherwise, by both decoders.
fn check_visit_count(bytes: &[u8], count: u64) {
    let wide = RlError::Snapshot {
        reason: "scalar visit count exceeds u32",
    };
    if u32::try_from(count).is_ok() {
        assert_eq!(decode_both(bytes), 1, "count {count}");
    } else if bytes[12] == KIND_POLICY_SET {
        assert_eq!(PolicySnapshot::from_bytes(bytes).unwrap_err(), wide);
    } else {
        assert_eq!(Agent::from_snapshot_bytes(bytes).unwrap_err(), wide);
    }
}

#[test]
fn scalar_visit_counts_past_u32_are_rejected() {
    for count in [u64::from(u32::MAX), 1 << 32, u64::MAX] {
        for bytes in scalar_tailed() {
            check_visit_count(&with_last_visit(bytes, count), count);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any scalar visit count decodes exactly if it fits in `u32` and is
    /// refused with [`RlError::Snapshot`] if it does not.
    #[test]
    fn scalar_visit_counts_decode_only_within_u32(
        input in 0usize..3,
        wide in prop::bool::ANY,
        low in 0u64..1 << 32,
        high in 1u64..1 << 32,
    ) {
        let count = if wide { high << 32 | low } else { low };
        let bytes = with_last_visit(scalar_tailed()[input].clone(), count);
        check_visit_count(&bytes, count);
    }

    /// Flipping any one to four bits never panics, and whatever still
    /// decodes is exact.
    #[test]
    fn bit_flips_never_panic(
        input in 0usize..5,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..5),
    ) {
        let mut bytes = inputs().swap_remove(input);
        for &(at, bit) in &flips {
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] ^= 1 << bit;
        }
        decode_both(&bytes);
    }

    /// The head of one input spliced onto the tail of another never
    /// panics, and whatever decodes is exact.
    #[test]
    fn splices_never_panic(
        head in 0usize..5,
        tail in 0usize..5,
        head_frac in 0.0f64..1.0,
        tail_frac in 0.0f64..1.0,
    ) {
        let all = inputs();
        let (a, b) = (&all[head], &all[tail]);
        let mut bytes = a[..(head_frac * a.len() as f64) as usize].to_vec();
        bytes.extend_from_slice(&b[(tail_frac * b.len() as f64) as usize..]);
        decode_both(&bytes);
    }
}
