//! The compiled fault timeline against a naive full-scan oracle.
//!
//! Random plans (overlapping `All`/`Range`/`Core`/`Chip` targets of every
//! fault kind, zero-duration and saturating windows, chip-scoped entries
//! and seeded bursts, on core counts that do and do not fill whole 16-lane
//! expansion groups, with burst rates up to every epoch) are stepped through random epoch walks — single
//! steps, repeats, forward jumps and one backwards seek. After every
//! `begin_epoch`, every `FaultState` accessor, the budget channel's links
//! and `active_at` must equal what the oracle gets by rescanning every
//! window in plan order, as the schedule's contract defines it.

use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultEngine, FaultEvent, FaultKind,
    FaultPlan, RandomBurst, SensorFault, Target,
};
use odrl_power::Watts;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One resolved window, as the oracle sees it.
#[derive(Debug, Clone, Copy)]
struct Window {
    kind: FaultKind,
    lo: usize,
    hi: usize,
    chip: bool,
    start: u64,
    end: u64,
}

/// The per-(burst, core) stream seed: SplitMix64's finalizer over
/// `seed + index · golden`, as the engine documents for burst expansion.
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plan events in order, then each burst core by core and epoch by epoch,
/// drawing `rng.gen::<f64>() < p` per epoch.
fn expand(plan: &FaultPlan, chip: u32, cores: usize, seed: u64) -> Vec<Window> {
    let mut out = Vec::new();
    for ev in plan.events.iter().filter(|e| e.chip.includes(chip)) {
        let (lo, hi, on_chip) = match ev.target {
            Target::All => (0, cores, false),
            Target::Chip => (0, 0, true),
            Target::Core(i) => (i, i + 1, false),
            Target::Range { lo, hi } => (lo, hi, false),
        };
        out.push(Window {
            kind: ev.kind,
            lo,
            hi,
            chip: on_chip,
            start: ev.start,
            end: ev.start.saturating_add(ev.duration),
        });
    }
    for (bi, b) in plan.bursts.iter().enumerate() {
        let p = (b.rate_per_kepoch / 1000.0).min(1.0);
        if p <= 0.0 || b.duration == 0 || !b.chip.includes(chip) {
            continue;
        }
        for core in 0..cores {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed ^ (bi as u64), core as u64));
            for epoch in b.start..b.end {
                if rng.gen::<f64>() < p {
                    out.push(Window {
                        kind: b.kind,
                        lo: core,
                        hi: core + 1,
                        chip: false,
                        start: epoch,
                        end: epoch.saturating_add(b.duration),
                    });
                }
            }
        }
    }
    out
}

/// The reference: every call clears the flags and rescans every window.
struct Oracle {
    windows: Vec<Window>,
    sensor: Vec<Option<SensorFault>>,
    chip_sensor: Option<SensorFault>,
    actuator: Vec<Option<ActuatorFault>>,
    budget: Vec<Option<BudgetFault>>,
    alive: Vec<bool>,
    throttle: Vec<Option<usize>>,
    drift: Vec<f64>,
    chip_drift: f64,
}

impl Oracle {
    fn new(windows: Vec<Window>, n: usize) -> Self {
        Self {
            windows,
            sensor: vec![None; n],
            chip_sensor: None,
            actuator: vec![None; n],
            budget: vec![None; n],
            alive: vec![true; n],
            throttle: vec![None; n],
            drift: vec![1.0; n],
            chip_drift: 1.0,
        }
    }

    fn active(w: &Window, epoch: u64) -> bool {
        w.start <= epoch && epoch < w.end
    }

    fn begin(&mut self, epoch: u64) {
        self.sensor.fill(None);
        self.chip_sensor = None;
        self.actuator.fill(None);
        self.budget.fill(None);
        self.alive.fill(true);
        self.throttle.fill(None);
        for w in self.windows.iter().filter(|w| Self::active(w, epoch)) {
            let r = w.lo..w.hi;
            match w.kind {
                FaultKind::Sensor(f) if w.chip => self.chip_sensor = Some(f),
                FaultKind::Sensor(f) => self.sensor[r].fill(Some(f)),
                FaultKind::Actuator(f) => self.actuator[r].fill(Some(f)),
                FaultKind::Budget(f) => self.budget[r].fill(Some(f)),
                FaultKind::Core(CoreFault::Unplug) => self.alive[r].fill(false),
                FaultKind::Core(CoreFault::Throttle { max_level }) => {
                    self.throttle[r].fill(Some(max_level));
                }
            }
        }
        for (d, f) in self.drift.iter_mut().zip(&self.sensor) {
            match f {
                Some(SensorFault::Drift { rate }) => *d *= 1.0 + rate,
                _ => *d = 1.0,
            }
        }
        match self.chip_sensor {
            Some(SensorFault::Drift { rate }) => self.chip_drift *= 1.0 + rate,
            _ => self.chip_drift = 1.0,
        }
    }

    fn active_at(&self, epoch: u64) -> usize {
        self.windows
            .iter()
            .filter(|w| Self::active(w, epoch))
            .count()
    }

    fn class_mask(&self, i: usize) -> u8 {
        u8::from(self.sensor[i].is_some())
            | u8::from(self.actuator[i].is_some()) << 1
            | u8::from(self.budget[i].is_some()) << 2
            | u8::from(!self.alive[i]) << 3
            | u8::from(self.throttle[i].is_some()) << 4
    }

    fn reading(f: Option<SensorFault>, drift: f64, fresh: f64, last: f64) -> f64 {
        match f {
            None => fresh,
            Some(SensorFault::StuckLast) => last,
            Some(SensorFault::StuckZero) => 0.0,
            Some(SensorFault::Spike { gain }) => fresh * gain,
            Some(SensorFault::Drift { .. }) => fresh * drift,
        }
    }

    fn apply(&self, i: usize, fresh: f64, last: f64) -> f64 {
        if !self.alive[i] {
            return 0.0;
        }
        Self::reading(self.sensor[i], self.drift[i], fresh, last)
    }
}

fn kind(sel: u8, param: u64) -> FaultKind {
    match sel % 12 {
        0 => FaultKind::Sensor(SensorFault::StuckLast),
        1 => FaultKind::Sensor(SensorFault::StuckZero),
        2 => FaultKind::Sensor(SensorFault::Spike {
            gain: 0.5 + (param % 4) as f64 * 0.5,
        }),
        3 => FaultKind::Sensor(SensorFault::Drift {
            rate: [0.01, -0.02, 0.05][param as usize % 3],
        }),
        4 => FaultKind::Actuator(ActuatorFault::Dropped),
        5 => FaultKind::Actuator(ActuatorFault::Delayed {
            epochs: 1 + param % 4,
        }),
        6 => FaultKind::Actuator(ActuatorFault::Clamped {
            max_level: param as usize % 8,
        }),
        7 => FaultKind::Budget(BudgetFault::Lost),
        8 => FaultKind::Budget(BudgetFault::Delayed {
            epochs: 1 + param % 4,
        }),
        9 => FaultKind::Budget(BudgetFault::Stale),
        10 => FaultKind::Core(CoreFault::Unplug),
        _ => FaultKind::Core(CoreFault::Throttle {
            max_level: param as usize % 8,
        }),
    }
}

fn target(sel: u8, a: usize, b: usize, cores: usize, kind: FaultKind) -> Target {
    match sel % 4 {
        0 => Target::All,
        1 if matches!(kind, FaultKind::Sensor(_)) => Target::Chip,
        1 | 2 => Target::Core(a % cores),
        _ => {
            let lo = a % cores;
            Target::Range {
                lo,
                hi: lo + 1 + b % (cores - lo),
            }
        }
    }
}

fn scope(sel: u8, chip: u32) -> ChipScope {
    match sel {
        0 => ChipScope::Chip(chip),
        1 => ChipScope::Chip(chip + 1),
        _ => ChipScope::All,
    }
}

type EventSpec = ((u8, u64), (u8, usize, usize), (u8, u64, u64), u8);
type BurstSpec = ((u8, u64), (u64, u64, u64), (u8, f64), u8);

fn build_plan(cores: usize, chip: u32, events: &[EventSpec], bursts: &[BurstSpec]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &((ks, param), (ts, a, b), (ss, start, duration), cs) in events {
        let kind = kind(ks, param);
        let (start, duration) = match ss {
            // Near the end of time: the end saturates at u64::MAX.
            0 => (u64::MAX - param % 8, duration),
            // A permanent window.
            1 => (start, u64::MAX),
            _ => (start, duration),
        };
        plan.events.push(FaultEvent {
            kind,
            target: target(ts, a, b, cores, kind),
            start,
            duration,
            chip: scope(cs, chip),
        });
    }
    for &((ks, param), (start, len, duration), (rs, rate), cs) in bursts {
        plan.bursts.push(RandomBurst {
            kind: kind(ks, param),
            start,
            end: start + len,
            // Rates of 1000 per kilo-epoch and above hit every epoch.
            rate_per_kepoch: match rs {
                0 => 1500.0,
                1 => 1000.0,
                _ => rate,
            },
            duration,
            chip: scope(cs, chip),
        });
    }
    plan
}

/// Checks every accessor of `state` and `channel` against the oracle.
fn compare(
    epoch: u64,
    engine: &FaultEngine,
    state: &odrl_faults::FaultState,
    channel: &odrl_faults::BudgetChannel,
    oracle: &Oracle,
) -> Result<(), TestCaseError> {
    let view = state.sensor_view();
    for i in 0..state.num_cores() {
        prop_assert_eq!(
            state.sensor_fault(i),
            oracle.sensor[i],
            "sensor {} @ {}",
            i,
            epoch
        );
        prop_assert_eq!(
            state.actuator_fault(i),
            oracle.actuator[i],
            "actuator {} @ {}",
            i,
            epoch
        );
        prop_assert_eq!(
            state.budget_fault(i),
            oracle.budget[i],
            "budget {} @ {}",
            i,
            epoch
        );
        prop_assert_eq!(
            state.core_alive(i),
            oracle.alive[i],
            "alive {} @ {}",
            i,
            epoch
        );
        prop_assert_eq!(
            state.class_mask(i),
            oracle.class_mask(i),
            "mask {} @ {}",
            i,
            epoch
        );
        prop_assert_eq!(channel.fault(i), oracle.budget[i], "link {} @ {}", i, epoch);
        for (fresh, last) in [(1.0, 0.25), (3.5, 7.0)] {
            let got = view.apply(i, Watts::new(fresh), Watts::new(last)).value();
            let want = oracle.apply(i, fresh, last);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "reading {} @ {}", i, epoch);
        }
    }
    prop_assert_eq!(
        state.any_dead(),
        oracle.alive.iter().any(|a| !a),
        "any_dead @ {}",
        epoch
    );
    let chip_mask = if oracle.chip_sensor.is_some() {
        1 << 5
    } else {
        0
    };
    prop_assert_eq!(state.chip_class_mask(), chip_mask, "chip mask @ {}", epoch);
    for (fresh, last) in [(30.0, 28.0), (12.5, 40.0)] {
        let got = state
            .chip_sensor_value(Watts::new(fresh), Watts::new(last))
            .value();
        let want = Oracle::reading(oracle.chip_sensor, oracle.chip_drift, fresh, last);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "chip reading @ {}", epoch);
    }
    prop_assert_eq!(
        engine.active_at(epoch),
        oracle.active_at(epoch),
        "active_at {}",
        epoch
    );
    Ok(())
}

/// The walk: `(0, n)` jumps `n` ahead, `(1, _)` repeats the epoch, anything
/// else steps by one; at step `back.0` it seeks back to before `back.1`.
fn walk(steps: &[(u8, u64)], back: (usize, u64)) -> Vec<u64> {
    let mut epochs = Vec::with_capacity(steps.len() + 12);
    let mut e = 0u64;
    for (k, &(sel, n)) in steps.iter().enumerate() {
        if k == back.0 {
            e = back.1.min(e / 2);
        }
        epochs.push(e);
        e += match sel {
            0 => n,
            1 => 0,
            _ => 1,
        };
    }
    // The end of time, where the saturating windows live.
    epochs.extend((u64::MAX - 10)..=u64::MAX);
    epochs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timeline_matches_a_full_rescan(
        // Partial and whole 16-core groups of the lane-parallel burst
        // expansion: 1..=15, 16, 17..=31, 32, 33..=40.
        cores in 1usize..41,
        chip in 0u32..3,
        seed in 0u64..1_000_000,
        events in prop::collection::vec(
            ((0u8..12, 0u64..1000), (0u8..4, 0usize..64, 0usize..64), (0u8..12, 0u64..80, 0u64..30), 0u8..5),
            0..12,
        ),
        bursts in prop::collection::vec(
            ((0u8..12, 0u64..1000), (0u64..60, 0u64..80, 0u64..15), (0u8..6, 0.0f64..300.0), 0u8..5),
            0..3,
        ),
        steps in prop::collection::vec((0u8..10, 0u64..50), 10..120),
        back in (0usize..120, 0u64..100),
    ) {
        let plan = build_plan(cores, chip, &events, &bursts);
        let engine = FaultEngine::compile_for_chip(&plan, chip, cores, seed)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let windows = expand(&plan, chip, cores, seed);
        prop_assert_eq!(engine.num_events(), windows.len());
        let mut oracle = Oracle::new(windows, cores);
        let mut state = engine.state();
        let mut channel = engine.budget_channel();
        // A clone shares the schedule and walks it independently.
        let twin = engine.clone();
        let mut twin_state = twin.state();
        for epoch in walk(&steps, back) {
            engine.begin_epoch(epoch, &mut state);
            channel.begin_epoch(epoch);
            twin.begin_epoch(epoch, &mut twin_state);
            oracle.begin(epoch);
            compare(epoch, &engine, &state, &channel, &oracle)?;
            prop_assert_eq!(&twin_state, &state);
        }
    }
}
