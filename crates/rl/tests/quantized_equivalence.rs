//! Quantized-vs-scalar equivalence: the banked fixed-point Q-table layout
//! is allowed to differ from the `f64` reference in low-order bits, but
//! the *policy* it induces must track the scalar policy within an explicit
//! tolerance — greedy-action agreement over seeded trajectories, bounded
//! Q-value drift — and its snapshots must round-trip bit-identically.
//!
//! Both twins consume the same experience stream (the scalar agent picks
//! the actions; both apply the same `(s, a, r, s')` updates), so every
//! divergence measured here is quantization error and nothing else.

use odrl_rl::kernel::{scan_row, scan_row_portable};
use odrl_rl::{
    Agent, Algorithm, EpsCache, QTableLayout, QTableStorage, Schedule, KIND_POLICY_SET,
    QUANT_LANES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATES: usize = 64;
const ACTIONS: usize = 7;
const EPOCHS: usize = 4000;

/// Deterministic environment: next state and reward from (state, action,
/// epoch) only.
fn env(s: usize, a: usize, t: usize) -> (usize, f64) {
    let s_next = (s * 131 + a * 17 + t) % STATES;
    let reward = ((s * ACTIONS + a) as f64 * 0.37 + t as f64 * 0.011).sin();
    (s_next, reward)
}

fn build(layout: QTableLayout) -> Agent {
    Agent::builder(STATES, ACTIONS)
        .gamma(0.85)
        .alpha(Schedule::inverse_time(0.5, 0.05).unwrap())
        .optimistic(1.0)
        .layout(layout)
        .build()
        .unwrap()
}

/// Trains a scalar/quantized twin pair on one shared trajectory and
/// returns `(scalar, quantized, greedy_agreement_fraction)`, where the
/// agreement is sampled over every state at every 10th epoch.
fn train_twins(seed: u64) -> (Agent, Agent, f64) {
    let mut scalar = build(QTableLayout::Scalar);
    let mut quant = build(QTableLayout::Quantized);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = 0usize;
    let (mut agree, mut total) = (0u64, 0u64);
    for t in 0..EPOCHS {
        let a = scalar.select(s, &mut rng).unwrap();
        let (s_next, r) = env(s, a, t);
        scalar.update(s, a, r, s_next).unwrap();
        quant.update(s, a, r, s_next).unwrap();
        if t % 10 == 9 {
            for q in 0..STATES {
                total += 1;
                if scalar.exploit(q).unwrap() == quant.exploit(q).unwrap() {
                    agree += 1;
                }
            }
        }
        s = s_next;
    }
    let agreement = agree as f64 / total as f64;
    (scalar, quant, agreement)
}

#[test]
fn greedy_actions_agree_within_tolerance_over_seeded_trajectories() {
    for seed in [7u64, 8, 9] {
        let (_, _, agreement) = train_twins(seed);
        assert!(
            agreement >= 0.999,
            "seed {seed}: greedy-action agreement {agreement:.5} fell below 99.9 %"
        );
    }
}

#[test]
fn quantized_q_value_drift_stays_bounded() {
    // Rewards live in [-1, 1] and gamma = 0.85, so |Q| ≤ ~6.7; the banked
    // layout's power-of-two row scales resolve that range to ~1e-3 per
    // step. 1e-2 absolute drift over 4000 compounding TD updates is the
    // explicit equivalence budget — failures mean the requantization path
    // is leaking error, not that the tolerance is tight.
    let (scalar, quant, _) = train_twins(11);
    let mut worst = 0.0f64;
    for s in 0..STATES {
        for a in 0..ACTIONS {
            let d = (scalar.q().get(s, a).unwrap() - quant.q().get(s, a).unwrap()).abs();
            worst = worst.max(d);
        }
    }
    assert!(
        worst <= 1e-2,
        "max |Q_scalar - Q_quantized| = {worst:.6} exceeds the 1e-2 drift budget"
    );
}

#[test]
fn snapshot_round_trip_is_bit_identical() {
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        let (_, quant, _) = train_twins(13);
        let trained = if layout == QTableLayout::Quantized {
            quant
        } else {
            train_twins(13).0
        };
        let bytes = trained.snapshot_bytes();
        let restored = Agent::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(
            trained, restored,
            "{layout:?} snapshot round trip must restore every bit"
        );
        // And through a file, the way warm starts consume it.
        let path = std::env::temp_dir().join(format!("odrl_rt_{layout:?}.qsnap"));
        trained.save(&path).unwrap();
        let from_disk = Agent::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(trained, from_disk);
    }
}

#[test]
fn double_agent_snapshot_round_trips() {
    let mut agent = Agent::builder(STATES, ACTIONS)
        .algorithm(Algorithm::DoubleQLearning)
        .gamma(0.9)
        .layout(QTableLayout::Quantized)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut s = 0usize;
    for t in 0..500 {
        let a = agent.select(s, &mut rng).unwrap();
        let (s_next, r) = env(s, a, t);
        agent.update(s, a, r, s_next).unwrap();
        s = s_next;
    }
    let restored = Agent::from_snapshot_bytes(&agent.snapshot_bytes()).unwrap();
    assert_eq!(agent, restored);
}

/// Overwrites the `states` and `actions` fields of the storage block at
/// byte `storage_at` (they follow its 8-byte layout tag) with `2^30` each.
fn with_impossible_dims(mut bytes: Vec<u8>, storage_at: usize) -> Vec<u8> {
    let huge = (1u64 << 30).to_le_bytes();
    bytes[storage_at + 8..storage_at + 16].copy_from_slice(&huge);
    bytes[storage_at + 16..storage_at + 24].copy_from_slice(&huge);
    bytes
}

#[test]
fn snapshot_decoder_rejects_impossible_dimensions() {
    // Header (16) · gamma (8) · step (8) · alpha schedule (40) · ε-greedy
    // policy (8 + 40); a double-Q agent adds its update counter (8).
    const SINGLE_STORAGE_AT: usize = 120;
    const DOUBLE_STORAGE_AT: usize = 128;
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        for (algorithm, storage_at) in [
            (Algorithm::QLearning, SINGLE_STORAGE_AT),
            (Algorithm::DoubleQLearning, DOUBLE_STORAGE_AT),
        ] {
            let agent = Agent::builder(STATES, ACTIONS)
                .algorithm(algorithm)
                .layout(layout)
                .build()
                .unwrap();
            let good = agent.snapshot_bytes();
            assert_eq!(Agent::from_snapshot_bytes(&good).unwrap(), agent);
            let bad = with_impossible_dims(good, storage_at);
            assert!(
                matches!(
                    Agent::from_snapshot_bytes(&bad),
                    Err(odrl_rl::RlError::Snapshot { .. })
                ),
                "{algorithm:?} {layout:?}: 2^30 x 2^30 table must be rejected: {:?}",
                Agent::from_snapshot_bytes(&bad)
            );
        }
    }
}

#[test]
fn snapshot_rejects_corruption() {
    let (scalar, _, _) = train_twins(19);
    let good = scalar.snapshot_bytes();
    assert!(Agent::from_snapshot_bytes(&good).is_ok());

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(
        Agent::from_snapshot_bytes(&bad).is_err(),
        "bad magic must be rejected"
    );

    // Version from the future.
    let mut bad = good.clone();
    let v = (SNAPSHOT_VERSION + 1).to_le_bytes();
    bad[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].copy_from_slice(&v);
    assert!(
        Agent::from_snapshot_bytes(&bad).is_err(),
        "version mismatch must be rejected"
    );

    // Wrong kind: a policy-set header over an agent payload.
    let mut bad = good.clone();
    bad[SNAPSHOT_MAGIC.len() + 4] = KIND_POLICY_SET;
    assert!(
        Agent::from_snapshot_bytes(&bad).is_err(),
        "the agent decoder must reject kind {KIND_POLICY_SET}"
    );

    // Truncation anywhere in the payload.
    for cut in [0, 4, good.len() / 2, good.len() - 1] {
        assert!(
            Agent::from_snapshot_bytes(&good[..cut]).is_err(),
            "truncation at {cut} bytes must be rejected"
        );
    }

    // Trailing garbage.
    let mut bad = good.clone();
    bad.push(0);
    assert!(
        Agent::from_snapshot_bytes(&bad).is_err(),
        "trailing bytes must be rejected"
    );
}

// --- SIMD-vs-scalar suite -------------------------------------------------
//
// The explicit-SIMD row scan (`odrl_rl::kernel`) must be *bit-identical* to
// the scalar argmax it replaces: same winning index (lowest index attaining
// the maximum), same maximum, for every bank-remainder geometry the
// 16-lane padding can produce, with `i16::MIN` pad lanes never winning.
// The portable scan is the reference every dispatched path is held to.

/// Pad lanes carry `i16::MIN`; real lanes are clamped to `>= -i16::MAX` by
/// the quantizer, so the sentinel can never tie a real lane.
const PAD: i16 = i16::MIN;

/// The scalar reference: lowest index attaining the row maximum.
fn reference_argmax(row: &[i16]) -> (usize, i16) {
    let mut best = 0usize;
    let mut best_q = row[0];
    for (i, &q) in row.iter().enumerate().skip(1) {
        if q > best_q {
            best = i;
            best_q = q;
        }
    }
    (best, best_q)
}

/// Pads `values` with `PAD` to the next multiple of [`QUANT_LANES`].
fn padded(values: &[i16]) -> Vec<i16> {
    let stride = values.len().div_ceil(QUANT_LANES).max(1) * QUANT_LANES;
    let mut row = vec![PAD; stride];
    row[..values.len()].copy_from_slice(values);
    row
}

#[test]
fn simd_scan_matches_scalar_argmax_at_every_bank_remainder() {
    // Every action count from 1 to two full banks, 50 pseudo-random rows
    // each, covers each remainder both in the only bank and in the last of
    // two banks.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Map into the real-lane range [-i16::MAX, i16::MAX].
        (((state >> 33) as i32 % i32::from(i16::MAX)) as i16).max(-i16::MAX)
    };
    for n in 1..=2 * QUANT_LANES {
        for _ in 0..50 {
            let values: Vec<i16> = (0..n).map(|_| next()).collect();
            let row = padded(&values);
            let want = reference_argmax(&row);
            assert_eq!(scan_row(&row), want, "scan_row diverged at n={n}");
            assert_eq!(
                scan_row_portable(&row),
                want,
                "scan_row_portable diverged at n={n}"
            );
        }
    }
}

#[test]
fn simd_scan_pad_lanes_never_win() {
    // Worst case: every real lane sits at the lowest representable real
    // value, one quantum above the pad sentinel.
    for n in 1..=2 * QUANT_LANES {
        let row = padded(&vec![-i16::MAX; n]);
        assert_eq!(scan_row(&row), (0, -i16::MAX), "pad lane won at n={n}");
        assert_eq!(scan_row_portable(&row), (0, -i16::MAX));
    }
}

#[test]
fn simd_scan_breaks_ties_to_lowest_index() {
    // Duplicated maxima within one bank and across banks must resolve to
    // the lowest index, exactly like the scalar select chain.
    let cases: Vec<Vec<i16>> = vec![
        vec![5, 5, 5],
        vec![1, 9, 9, 2],
        {
            // Max in bank 0 tied by a later lane in bank 1.
            let mut v = vec![0i16; QUANT_LANES + 4];
            v[3] = 77;
            v[QUANT_LANES + 1] = 77;
            v
        },
        {
            // Strictly greater value in the second bank must still win.
            let mut v = vec![10i16; QUANT_LANES + 8];
            v[QUANT_LANES + 5] = 11;
            v
        },
    ];
    for values in cases {
        let row = padded(&values);
        let want = reference_argmax(&row);
        assert_eq!(scan_row(&row), want, "tie-break diverged for {values:?}");
        assert_eq!(scan_row_portable(&row), want);
    }
}

#[test]
fn storage_best_action_and_max_matches_get_reference() {
    // Through the full storage stack: the quantized argmax must agree with
    // an argmax over the dequantized `get` values at every action count.
    for actions in 1..=2 * QUANT_LANES {
        let mut q = QTableStorage::new(QTableLayout::Quantized, 3, actions).unwrap();
        for s in 0..3 {
            for a in 0..actions {
                let v = ((s * actions + a) as f64 * 0.7919).sin() * 5.0;
                q.set(s, a, v).unwrap();
            }
        }
        for s in 0..3 {
            let (best, max_v) = q.best_action_and_max(s).unwrap();
            let mut want = 0usize;
            let mut want_v = q.get(s, 0).unwrap();
            for a in 1..actions {
                let v = q.get(s, a).unwrap();
                if v > want_v {
                    want = a;
                    want_v = v;
                }
            }
            assert_eq!((best, max_v), (want, want_v), "actions={actions} s={s}");
        }
    }
}

#[test]
fn td_step_matches_unfused_update_chain_for_both_layouts() {
    let alpha = Schedule::inverse_time(0.5, 0.05).unwrap();
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        let mut fused = QTableStorage::optimistic(layout, 8, 5, 1.0).unwrap();
        let mut chain = fused.clone();
        for t in 0..2000usize {
            let (s, a) = (t * 131 % 8, t * 17 % 5);
            let target = (t as f64 * 0.013).sin() * 4.0;
            fused.td_step(s, a, &alpha, target).unwrap();
            // The unfused visit → alpha → get → set chain td_step replaces.
            let visits = chain.visit(s, a).unwrap();
            let al = alpha.value(visits - 1);
            let old = chain.get(s, a).unwrap();
            chain.set(s, a, old + al * (target - old)).unwrap();
        }
        for s in 0..8 {
            for a in 0..5 {
                assert_eq!(
                    fused.get(s, a).unwrap().to_bits(),
                    chain.get(s, a).unwrap().to_bits(),
                    "{layout:?} td_step diverged at ({s}, {a})"
                );
                assert_eq!(fused.visits(s, a).unwrap(), chain.visits(s, a).unwrap());
            }
        }
    }
}

/// FNV-1a over the decision stream, the same construction the parallel
/// determinism suites pin goldens with.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives 800 decide/learn rounds through [`Agent::decide`], either
/// letting it draw the ε uniform itself (`prepared = false`) or handing it
/// a pre-drawn one (`prepared = true`), and returns the FNV-1a hash of the
/// full (action, explored) stream.
fn decision_stream_hash(layout: QTableLayout, prepared: bool) -> u64 {
    let mut agent = build(layout);
    let mut rng = StdRng::seed_from_u64(23);
    let mut cache = EpsCache::new();
    let mut s = 0usize;
    let mut bytes = Vec::new();
    for t in 0..800 {
        // The controller's batching: one `next_u64` pre-drawn from this
        // agent's own stream, handed back as the leading ε draw.
        let draw = prepared.then(|| rng.next_u64());
        let (a, explored, bootstrap) = agent.decide(s, draw, None, &mut rng, &mut cache).unwrap();
        let (s_next, r) = env(s, a, t);
        agent.learn(s, a, r, bootstrap).unwrap();
        bytes.push(a as u8);
        bytes.push(u8::from(explored));
        s = s_next;
    }
    fnv1a(bytes)
}

#[test]
fn batched_epsilon_stream_is_bit_identical_and_pinned() {
    // The batched-draw path must replay the exact RNG stream of the
    // unbatched path (same draws, same order, per agent), so the decision
    // streams hash identically — and both must match the pinned golden, so
    // neither encoding can drift silently. Layout-independent: the ε draw
    // happens before any Q lookup.
    const GOLDEN_Q: u64 = 12652406293724573599;
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        let q_plain = decision_stream_hash(layout, false);
        let q_prep = decision_stream_hash(layout, true);
        assert_eq!(q_plain, q_prep, "{layout:?}: batched Q stream diverged");
        if layout == QTableLayout::Scalar {
            assert_eq!(q_plain, GOLDEN_Q, "Q decision stream drifted from golden");
        }
    }
}
