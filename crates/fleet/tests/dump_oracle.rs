//! A flight-recorder trip streams its dump's trace epoch by epoch from
//! the trace rings. These tests hold those bytes to the whole-window
//! assembly: read the window with `Fleet::extend_trace_into`, sort it with
//! `merge_fleet_records`, write it with `write_fleet_jsonl`.
//!
//! The fleets are generated: 1–4 chips, serial or on 2 or 4 shards, whole-
//! run or windowed rings, windows of 1–40 epochs, with or without a fault
//! plan. The plan hands a sensor fault from core to core, so in one epoch a
//! lower core's fault clears while a higher core's is injected: the system
//! ring then holds that epoch out of `(rank, core)` order. The one rule
//! trips whenever it is out of cooldown, so every run dumps in its first
//! window and ends on a trip; with the cooldown equal to the window, every
//! trip after the first lands on the first epoch of a ring block.

use odrl_faults::{ActuatorFault, FaultKind, FaultPlan, SensorFault, Target};
use odrl_fleet::{Fleet, RecorderConfig, RunBuilder, Scenario, WatermarkRule};
use odrl_manycore::Parallelism;
use odrl_obs::{merge_fleet_records, write_fleet_jsonl};
use odrl_workload::MixPolicy;
use proptest::prelude::*;

const CORES: usize = 5;

/// Marks the start of a dump's trace section.
const TRACE: &[u8] = b"# odrl_trace\n";

/// A fault plan whose windows pass from core to core every `gap` epochs,
/// twice round the chip: each core's sensor fault clears in the epoch the
/// next core's is injected, and an actuator fault rides on every other
/// window.
fn relay_plan(gap: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..2 * CORES {
        let core = i % CORES;
        let start = 1 + gap * i as u64;
        plan = plan.with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Core(core),
            start,
            gap,
        );
        if i % 2 == 0 {
            plan = plan.with_event(
                FaultKind::Actuator(ActuatorFault::Dropped),
                Target::Core(core),
                start,
                gap,
            );
        }
    }
    plan
}

/// One generated fleet shape.
#[derive(Debug, Clone, Copy)]
struct Case {
    chips: usize,
    par: Parallelism,
    window: u64,
    cooldown: u64,
    /// Whole-run rings (`obs` on) instead of recorder-sized ones.
    whole_run: bool,
    /// The gap of the relay fault plan, if any.
    faults: Option<u64>,
    seed: u64,
}

fn build(case: Case) -> Fleet {
    let scenario = Scenario {
        cores: CORES,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: case.seed,
        parallelism: Parallelism::Serial,
    };
    let mut builder = RunBuilder::new(scenario)
        .watchdog(true)
        .obs(case.whole_run)
        .arbiter_period(4)
        .fleet_parallelism(case.par)
        .recorder(RecorderConfig {
            window: case.window,
            rules: vec![WatermarkRule::OvershootStreak { epochs: 0 }],
            cooldown: case.cooldown,
            max_dumps: 64,
        });
    if let Some(gap) = case.faults {
        builder = builder.faults(relay_plan(gap));
    }
    builder
        .build_fleet(case.chips)
        .expect("valid recorder fleet")
}

/// The trace section the whole-window assembly writes for a trip at
/// `epoch`, read right after the trip's epoch.
fn oracle(fleet: &Fleet, epoch: u64, window: u64) -> Vec<u8> {
    let mut records = Vec::new();
    fleet.extend_trace_into((epoch + 1).saturating_sub(window)..epoch + 1, &mut records);
    merge_fleet_records(&mut records);
    let mut out = Vec::new();
    write_fleet_jsonl(&mut out, &records).expect("write to Vec cannot fail");
    out
}

/// Runs `case` for `trips` trips, checking each dump against the oracle
/// right after its epoch; returns the trip epochs.
fn check(case: Case, trips: u64) -> Result<Vec<u64>, TestCaseError> {
    let mut fleet = build(case);
    let mut epochs = Vec::new();
    // The first trip is at epoch 0, so the last is at
    // `(trips - 1) · cooldown`: the run ends on it.
    for _ in 0..=(trips - 1) * case.cooldown {
        fleet.step_epoch().expect("fleet epoch completes");
        let dumps = fleet.anomaly_dumps();
        if dumps.len() == epochs.len() {
            continue;
        }
        let dump = dumps.last().expect("a trip dumped");
        prop_assert_eq!(dump.epoch, fleet.epoch() - 1);
        let header = format!(
            "# odrl_flight_record epoch {} rule overshoot-streak window {}\n",
            dump.epoch, case.window
        );
        prop_assert!(dump.bytes.starts_with(header.as_bytes()), "{:?}", case);
        let at = dump
            .bytes
            .windows(TRACE.len())
            .position(|w| w == TRACE)
            .expect("a dump has a trace section");
        let streamed = &dump.bytes[at + TRACE.len()..];
        let want = oracle(&fleet, dump.epoch, case.window);
        prop_assert!(!want.is_empty(), "{:?}", case);
        prop_assert!(
            streamed == want.as_slice(),
            "trip at epoch {}: streamed trace differs from the oracle ({} vs {} bytes) in {:?}",
            dump.epoch,
            streamed.len(),
            want.len(),
            case
        );
        epochs.push(dump.epoch);
    }
    prop_assert_eq!(epochs.len() as u64, trips, "{:?}", case);
    Ok(epochs)
}

#[test]
fn trips_at_block_turns_with_interleaved_faults_match_the_oracle() {
    // Two windows of 4: the second trip is the first epoch of the second
    // block, the third of the third, and the relay plan's edges land
    // inside every window.
    for par in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let case = Case {
            chips: 3,
            par,
            window: 4,
            cooldown: 4,
            whole_run: false,
            faults: Some(2),
            seed: 5,
        };
        assert_eq!(check(case, 4).unwrap(), vec![0, 4, 8, 12]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed dumps match the oracle over generated fleets.
    #[test]
    fn streamed_dumps_match_the_whole_window_oracle(
        chips in 1usize..=4,
        par_idx in 0usize..3,
        window in 1u64..=40,
        at_turns in prop::bool::ANY,
        cooldown_frac in 0.0f64..2.0,
        whole_run in prop::bool::ANY,
        faulted in prop::bool::ANY,
        gap in 1u64..6,
        trips in 2u64..=3,
        seed in 0u64..1_000,
    ) {
        let cooldown = if at_turns {
            window
        } else {
            ((cooldown_frac * window as f64) as u64).max(1)
        };
        let case = Case {
            chips,
            par: [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)][par_idx],
            window,
            cooldown,
            whole_run,
            faults: faulted.then_some(gap),
            seed,
        };
        check(case, trips)?;
    }
}
