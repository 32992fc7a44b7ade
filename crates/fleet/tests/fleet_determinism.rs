//! Golden determinism for fleet runs.
//!
//! The fleet epoch pipeline shards only the embarrassingly-parallel chip
//! step; every cross-chip read or write (arbitration, link delivery, the
//! demand reduction) happens serially in fleet-index order, and the merged
//! trace is keyed by `(epoch, chip, rank, core)`. So a fleet run must be
//! bit-identical at every cross-chip shard count, with or without an
//! active fault plan — including one with chip-scoped entries. These
//! tests pin that with FNV hashes over the canonical JSON of the summary
//! and the merged trace, the same way `trace_determinism.rs` pins the
//! single-chip stream.

use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController};
use odrl_faults::{BudgetFault, CoreFault, FaultKind, FaultPlan, SensorFault, Target};
use odrl_fleet::{Fleet, RunBuilder, Scenario};
use odrl_manycore::{Parallelism, System};
use odrl_obs::FleetEventRecord;
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario() -> Scenario {
    Scenario {
        cores: 32,
        budget_frac: 0.6,
        epochs: 60,
        mix: MixPolicy::RoundRobin,
        seed: 9,
        parallelism: Parallelism::Serial,
    }
}

/// Chip-scoped sensor and core faults plus a fleet-wide budget fault, so
/// the run exercises per-chip scoping *and* the arbiter → chip links.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with_chip_event(
            1,
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            10,
            30,
        )
        .with_chip_event(
            2,
            FaultKind::Core(CoreFault::Unplug),
            Target::Range { lo: 28, hi: 30 },
            20,
            25,
        )
        .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 15, 10)
}

fn run_fleet(par: Parallelism, plan: Option<&FaultPlan>) -> Fleet {
    let mut builder = RunBuilder::new(scenario())
        .watchdog(true)
        .obs(true)
        .arbiter_period(10)
        .fleet_parallelism(par);
    if let Some(p) = plan {
        builder = builder.faults(p.clone());
    }
    let mut fleet = builder.build_fleet(4).expect("valid fleet configuration");
    fleet.run(60).expect("fleet run completes");
    fleet
}

fn summary_hash(fleet: &Fleet) -> u64 {
    fnv1a(&serde_json::to_string(&fleet.summary()).expect("serializable summary"))
}

fn trace_hash(records: &[FleetEventRecord]) -> u64 {
    let jsonl: String = records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable record"))
        .collect::<Vec<_>>()
        .join("\n");
    fnv1a(&jsonl)
}

fn check_invariant(plan: Option<&FaultPlan>) {
    let serial = run_fleet(Parallelism::Serial, plan);
    let serial_summary = summary_hash(&serial);
    let serial_trace = serial.merged_trace();
    assert!(
        !serial_trace.is_empty(),
        "an observed fleet run must record events"
    );
    assert!(
        (0..4).all(|k| serial_trace.iter().any(|r| r.chip == k)),
        "every chip must contribute trace records"
    );
    let serial_trace_hash = trace_hash(&serial_trace);
    for shards in [2, 4, 8] {
        let sharded = run_fleet(Parallelism::Threads(shards), plan);
        assert_eq!(
            serial_summary,
            summary_hash(&sharded),
            "{shards}-shard fleet summary drifted"
        );
        let sharded_trace = sharded.merged_trace();
        assert_eq!(
            serial_trace, sharded_trace,
            "{shards}-shard merged fleet records drifted"
        );
        assert_eq!(
            serial_trace_hash,
            trace_hash(&sharded_trace),
            "{shards}-shard fleet trace hash drifted"
        );
    }
}

#[test]
fn fault_free_fleet_is_shard_count_invariant() {
    check_invariant(None);
}

#[test]
fn faulted_fleet_is_shard_count_invariant() {
    check_invariant(Some(&plan()));
}

/// Chips are built on the fleet's shard pool: a 6-chip fleet built on 2
/// or 4 shards (uneven chunks) must hold the same chips as a serial
/// build, policy bytes and all, at build time and after 200 epochs.
#[test]
fn sharded_fleet_build_matches_a_serial_build() {
    let build = |par: Parallelism| {
        RunBuilder::new(scenario())
            .faults(plan())
            .watchdog(true)
            .arbiter_period(10)
            .fleet_parallelism(par)
            .build_fleet(6)
            .expect("valid fleet configuration")
    };
    let policies = |fleet: &Fleet| -> Vec<Vec<u8>> {
        (0..fleet.num_chips())
            .map(|k| fleet.chip_policy_bytes(k).expect("OD-RL chips learn"))
            .collect()
    };
    let mut serial = build(Parallelism::Serial);
    let serial_built = policies(&serial);
    serial.run(200).expect("fleet run completes");
    let serial_summary = summary_hash(&serial);
    let serial_trained = policies(&serial);
    assert_ne!(
        serial_built, serial_trained,
        "200 epochs must train the tables"
    );
    for shards in [2, 4] {
        let mut fleet = build(Parallelism::Threads(shards));
        assert_eq!(
            serial_built,
            policies(&fleet),
            "{shards}-shard build: chip policies differ from the serial build"
        );
        fleet.run(200).expect("fleet run completes");
        assert_eq!(
            serial_summary,
            summary_hash(&fleet),
            "{shards}-shard build: 200-epoch summary drifted"
        );
        assert_eq!(
            serial_trained,
            policies(&fleet),
            "{shards}-shard build: trained chip policies drifted"
        );
    }
}

/// A 4-chip fleet booted from a Q-table snapshot on disk must be
/// bit-identical across 1/2/4 cross-chip shards, and the warm start must
/// actually change the run relative to a cold boot (the import is not a
/// no-op).
#[test]
fn warm_started_fleet_is_shard_count_invariant() {
    // Train a donor chip on the same scenario geometry and save its policy.
    let s = scenario();
    let config = s.try_system_config().expect("valid scenario");
    let budget = Watts::new(s.budget_frac * config.max_power().value());
    let mut donor_system = System::new(config).expect("valid scenario config");
    let mut donor = OdRlController::new(OdRlConfig::default(), &donor_system.spec(), budget)
        .expect("valid OD-RL config");
    let mut actions = vec![LevelId(0); s.cores];
    let mut obs = donor_system.observation(budget);
    for _ in 0..80 {
        donor.decide_into(&obs, &mut actions);
        donor_system.step_in_place(&actions).expect("valid actions");
        donor_system.observation_into(budget, &mut obs);
    }
    let path = std::env::temp_dir().join("odrl_fleet_warm_start.qsnap");
    donor.export_policy().save(&path).expect("snapshot saves");

    let run = |par: Parallelism, warm: bool| {
        let mut builder = RunBuilder::new(scenario())
            .arbiter_period(10)
            .fleet_parallelism(par);
        if warm {
            builder = builder.warm_start(&path);
        }
        let mut fleet = builder.build_fleet(4).expect("valid fleet configuration");
        fleet.run(60).expect("fleet run completes");
        summary_hash(&fleet)
    };

    let serial = run(Parallelism::Serial, true);
    for shards in [2, 4] {
        assert_eq!(
            serial,
            run(Parallelism::Threads(shards), true),
            "{shards}-shard warm-started fleet summary drifted"
        );
    }
    assert_ne!(
        serial,
        run(Parallelism::Serial, false),
        "warm start must change the trajectory relative to a cold boot"
    );
    let _ = std::fs::remove_file(&path);
}

/// A large fleet (16 chips × 64 cores = 1024 fleet cores) keeps the
/// arbitrated shares summing to the fleet budget after every epoch, across
/// frequent reallocation rounds.
#[test]
fn large_fleet_conserves_the_budget_every_epoch() {
    let mut s = scenario();
    s.cores = 64;
    let mut fleet = RunBuilder::new(s)
        .arbiter_period(2)
        .build_fleet(16)
        .expect("valid fleet configuration");
    assert_eq!(fleet.num_cores(), 1024);
    let total = fleet.total_budget().value();
    for _ in 0..6 {
        fleet.step_epoch().expect("fleet epoch completes");
        let sum = fleet.arbitrated_sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total,
            "epoch {}: shares sum to {sum} W, fleet budget is {total} W",
            fleet.epoch()
        );
    }
    assert!(fleet.arbiter().rounds() >= 2);
}

/// A chip run is chip 0 of a one-chip fleet: the same seeds, budget and
/// wiring, so after 200 epochs the learned policy and the instructions
/// retired match to the bit.
#[test]
fn chip_run_is_chip_zero_of_a_one_chip_fleet() {
    for seed in [1, 9] {
        let builder = RunBuilder::new(Scenario {
            cores: 32,
            budget_frac: 0.6,
            epochs: 200,
            mix: MixPolicy::RoundRobin,
            seed,
            parallelism: Parallelism::Serial,
        });
        let mut fleet = builder.clone().build_fleet(1).expect("valid fleet");
        fleet.run(200).expect("fleet run completes");
        let mut chip = builder.build_chip().expect("valid chip");
        let mut actions = vec![LevelId(0); chip.system.num_cores()];
        let mut obs = chip.system.observation(chip.budget);
        for _ in 0..200 {
            chip.controller.decide_into(&obs, &mut actions);
            chip.system.step_in_place(&actions).expect("valid actions");
            chip.system.observation_into(chip.budget, &mut obs);
        }
        assert_eq!(
            chip.budget.value().to_bits(),
            fleet.chip_budget(0).value().to_bits(),
            "seed {seed}: budgets differ"
        );
        assert!(
            chip.controller.policy_bytes() == fleet.chip_policy_bytes(0),
            "seed {seed}: learned policies differ"
        );
        assert_eq!(
            chip.system.telemetry().total_instructions().to_bits(),
            fleet.chip_telemetry(0).total_instructions().to_bits(),
            "seed {seed}: instructions retired differ"
        );
    }
}
