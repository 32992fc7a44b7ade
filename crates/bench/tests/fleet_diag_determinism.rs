//! Fleet learning-health determinism: the hierarchically aggregated
//! metrics and the flight recorder's dump bytes must be bit-identical at
//! every shard count.
//!
//! The per-shard diagnostics accumulators use the exact integer summary
//! algebra (`StreamSummary`), so folding them in any shard grouping gives
//! the same merged state; snapshots carry counters/gauges/summaries only
//! (never wall-clock histograms); and dump traces go through the
//! canonical `(epoch, chip, rank, core)` fleet merge. These tests pin all
//! three claims against the serial reference, with and without a
//! chip-scoped fault plan in the loop.

use odrl_bench::{ControllerKind, RunBuilder, Scenario};
use odrl_faults::{BudgetFault, FaultKind, FaultPlan, SensorFault, Target};
use odrl_fleet::{Fleet, RecorderConfig, WatermarkRule};
use odrl_manycore::Parallelism;
use odrl_obs::MetricsSnapshot;
use odrl_workload::MixPolicy;

const CHIPS: usize = 4;
const EPOCHS: u64 = 60;

fn scenario(par: Parallelism) -> Scenario {
    Scenario {
        cores: 32,
        budget_frac: 0.55,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 7,
        parallelism: par,
    }
}

/// A chip-scoped sensor window on chip 2 plus a fleet-projected budget
/// fault, so the aggregation sees asymmetric chips and lossy rack links.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with_chip_event(
            2,
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            10,
            30,
        )
        .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 10, 30)
}

/// A recorder tuned to trip deterministically early in the run: cold
/// optimistic Q-tables make the first learn epochs' TD errors far exceed
/// the watermark.
fn recorder() -> RecorderConfig {
    RecorderConfig {
        window: 8,
        rules: vec![
            WatermarkRule::TdErrorBlowup { max_abs: 0.01 },
            WatermarkRule::BudgetLossSpike {
                loss_rate: 0.5,
                min_sent: 2,
            },
        ],
        cooldown: 20,
        max_dumps: 2,
    }
}

fn build(par: Parallelism, faulted: bool) -> Fleet {
    let mut b = RunBuilder::new(scenario(par))
        .controller(ControllerKind::OdRl)
        .recorder(recorder())
        .arbiter_period(10);
    if faulted {
        b = b.faults(plan()).watchdog(true);
    }
    b.build_fleet(CHIPS)
        .expect("valid diagnosed fleet configuration")
}

fn run(par: Parallelism, faulted: bool) -> (MetricsSnapshot, Vec<(u64, Vec<u8>)>) {
    let mut fleet = build(par, faulted);
    fleet.run(EPOCHS).expect("fleet run completes");
    let snap = fleet
        .fleet_snapshot()
        .expect("diagnosed fleet exposes a combined snapshot")
        .clone();
    let dumps = fleet
        .anomaly_dumps()
        .iter()
        .map(|d| (d.epoch, d.bytes.clone()))
        .collect();
    (snap, dumps)
}

fn check_invariant(faulted: bool) {
    let (snap0, dumps0) = run(Parallelism::Serial, faulted);
    assert!(
        snap0
            .summary_by_name("fleet_rl_td_error")
            .is_some_and(|s| s.count() > 0),
        "aggregated TD-error summary must carry samples"
    );
    assert!(
        !dumps0.is_empty(),
        "the recorder must trip at least once in this scenario"
    );
    for shards in [2, 4, 8] {
        let (snap, dumps) = run(Parallelism::Threads(shards), faulted);
        assert_eq!(
            snap0, snap,
            "{shards}-shard aggregated snapshot drifted (faulted: {faulted})"
        );
        assert_eq!(
            snap0.to_prometheus(),
            snap.to_prometheus(),
            "{shards}-shard Prometheus exposition drifted (faulted: {faulted})"
        );
        assert_eq!(
            dumps0, dumps,
            "{shards}-shard flight-recorder dump bytes drifted (faulted: {faulted})"
        );
    }
}

/// 64-bit FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The faulted fleet's flight-recorder dumps, pinned: `(trip epoch,
/// FNV-1a of the dump bytes)` in trip order. Any change to the dump
/// header, the Prometheus exposition, the trace window or the JSONL
/// rendering moves these.
const FAULTED_DUMPS: [(u64, u64); 2] = [(1, 0x8c72_5a87_d58c_7c6e), (30, 0xb53c_b42c_56c1_24b5)];

#[test]
fn faulted_fleet_dump_bytes_match_golden() {
    for par in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ] {
        let (_, dumps) = run(par, true);
        let got: Vec<(u64, u64)> = dumps.iter().map(|(e, b)| (*e, fnv1a(b))).collect();
        assert_eq!(got, FAULTED_DUMPS, "dump golden drifted at {par:?}");
    }
}

#[test]
fn fault_free_fleet_aggregation_is_shard_invariant() {
    check_invariant(false);
}

#[test]
fn faulted_fleet_aggregation_and_dumps_are_shard_invariant() {
    check_invariant(true);
}

#[test]
fn diagnostics_do_not_perturb_the_run() {
    // The whole observability layer is read-only: the same fleet with and
    // without diagnostics+recorder must produce identical physics.
    let mut plain = RunBuilder::new(scenario(Parallelism::Serial))
        .controller(ControllerKind::OdRl)
        .arbiter_period(10)
        .build_fleet(CHIPS)
        .expect("valid plain fleet");
    plain.run(EPOCHS).expect("plain run completes");
    let mut diagnosed = build(Parallelism::Serial, false);
    diagnosed.run(EPOCHS).expect("diagnosed run completes");
    let a = plain.summary();
    let b = diagnosed.summary();
    assert_eq!(a.total_instructions, b.total_instructions);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.overshoot_epochs, b.overshoot_epochs);
    assert_eq!(
        a.per_chip.iter().map(|c| c.budget_w).collect::<Vec<_>>(),
        b.per_chip.iter().map(|c| c.budget_w).collect::<Vec<_>>()
    );
}

#[test]
fn dump_body_sections_parse_back() {
    let (_, dumps) = run(Parallelism::Serial, true);
    let body = String::from_utf8(dumps[0].1.clone()).expect("dump bytes are UTF-8");
    assert!(body.starts_with("# odrl_flight_record epoch "), "{body}");
    let trace_at = body.find("# odrl_trace\n").expect("trace section present");
    let (metrics_part, trace_part) = body.split_at(trace_at);
    // The metrics section (header comment + exposition) reconstructs the
    // combined snapshot exactly.
    let metrics_text = metrics_part
        .split_once('\n')
        .map(|x| x.1)
        .expect("header line present");
    let snap = MetricsSnapshot::from_prometheus(metrics_text).expect("dump metrics section parses");
    assert!(snap.counter_by_name("rack_anomalies").is_some());
    // The trace section is fleet JSONL (comment lines are skipped by the
    // reader).
    let records =
        odrl_obs::read_fleet_jsonl(trace_part.as_bytes()).expect("dump trace section parses");
    assert!(!records.is_empty(), "dump trace window must carry events");
}

/// The dump window of the cross-retention fleets.
const WINDOW: u64 = 8;

/// A fleet whose recorder trips late as well as early: the TD watermark
/// at the first learns, then the loss-spike rule on lossy rack links
/// opened long after the windowed rings have started recycling.
fn retention_fleet(par: Parallelism, obs: bool) -> Fleet {
    let plan = FaultPlan::new()
        .with_chip_event(
            1,
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            20,
            60,
        )
        .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 100, 140);
    let recorder = RecorderConfig {
        window: WINDOW,
        cooldown: 10,
        max_dumps: 16,
        ..recorder()
    };
    RunBuilder::new(scenario(par))
        .controller(ControllerKind::OdRl)
        .faults(plan)
        .watchdog(true)
        .recorder(recorder)
        .obs(obs)
        .arbiter_period(10)
        .build_fleet(CHIPS)
        .expect("valid diagnosed fleet configuration")
}

/// A recorder-only fleet keeps only the dump window in its rings (every
/// ring turns over once per `WINDOW` epochs), an observed one keeps the
/// whole run; both must dump the same bytes at every shard count, and the
/// windowed fleet's trace must be exactly the observed one's over the
/// epochs it still holds.
#[test]
fn windowed_and_whole_run_rings_dump_identical_bytes() {
    const EPOCHS: u64 = 160;
    let mut reference: Option<Vec<(u64, Vec<u8>)>> = None;
    for par in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let mut windowed = retention_fleet(par, false);
        let mut whole = retention_fleet(par, true);
        windowed.run(EPOCHS).expect("windowed run completes");
        whole.run(EPOCHS).expect("observed run completes");
        let dumps: Vec<(u64, Vec<u8>)> = windowed
            .anomaly_dumps()
            .iter()
            .map(|d| (d.epoch, d.bytes.clone()))
            .collect();
        let whole_dumps: Vec<(u64, Vec<u8>)> = whole
            .anomaly_dumps()
            .iter()
            .map(|d| (d.epoch, d.bytes.clone()))
            .collect();
        assert!(
            dumps.iter().any(|(e, _)| *e >= 11 * WINDOW),
            "a trip must come after ten ring turnovers, saw trips at {:?}",
            dumps.iter().map(|d| d.0).collect::<Vec<_>>()
        );
        assert_eq!(
            dumps, whole_dumps,
            "dump bytes differ by retention at {par:?}"
        );
        let reference = reference.get_or_insert_with(|| dumps.clone());
        assert_eq!(&dumps, reference, "dump bytes drifted at {par:?}");

        let trace = windowed.merged_trace();
        let (first, last) = (trace[0].record.epoch, trace[trace.len() - 1].record.epoch);
        assert_eq!(last, EPOCHS - 1);
        assert!(
            last - first < 2 * WINDOW,
            "the windowed trace spans epochs {first}..={last}, over {} epochs",
            2 * WINDOW
        );
        let mut held = Vec::new();
        whole.extend_trace_into(first..u64::MAX, &mut held);
        odrl_obs::merge_fleet_records(&mut held);
        assert_eq!(
            trace, held,
            "windowed trace differs from the whole-run trace at {par:?}"
        );
        assert!(
            whole.merged_trace()[0].record.epoch == 0,
            "an observed fleet keeps the whole run"
        );
    }
}
