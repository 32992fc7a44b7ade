//! The decoders of a flight-recorder dump never panic on hostile text.
//!
//! A dump is a header line, a Prometheus snapshot and a fleet JSONL trace.
//! Starting from a real dump of a small faulted fleet (the shape
//! `exp_fleet --smoke-diag` runs, at 4 cores a chip) cut into its
//! sections — the snapshot, the fleet trace, and the same trace as
//! chip-level JSONL — every input below, truncated at every length, with
//! one to four bits flipped, or spliced from the head of one section and
//! the tail of another, goes to all three decoders:
//! [`MetricsSnapshot::from_prometheus`], [`read_jsonl`] and
//! [`read_fleet_jsonl`]. Each must return `Err`, or a value that
//! re-encodes and decodes back to itself. A panic fails the test.

use odrl_faults::{BudgetFault, FaultKind, FaultPlan, SensorFault, Target};
use odrl_fleet::{RecorderConfig, RunBuilder, Scenario, WatermarkRule};
use odrl_manycore::Parallelism;
use odrl_obs::{read_fleet_jsonl, read_jsonl, write_fleet_jsonl, JsonlSink, MetricsSnapshot};
use odrl_workload::MixPolicy;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Marks the start of a dump's trace section.
const TRACE: &[u8] = b"# odrl_trace\n";

/// The three sections of the first dump of a 2 × 4-core fleet run as
/// `exp_fleet --smoke-diag` runs its fleet, with a 4-epoch window and a
/// stuck-sensor window added so that watchdog and fault events show in
/// the trace: the snapshot, the fleet trace, and the trace's records as
/// chip-level JSONL.
fn sections() -> &'static [Vec<u8>; 3] {
    static SECTIONS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let scenario = Scenario {
            cores: 4,
            budget_frac: 0.6,
            epochs: 0,
            mix: MixPolicy::RoundRobin,
            seed: 11,
            parallelism: Parallelism::Serial,
        };
        let plan = FaultPlan::new()
            .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 10, 40)
            .with_event(FaultKind::Sensor(SensorFault::StuckLast), Target::All, 6, 4);
        let mut fleet = RunBuilder::new(scenario)
            .faults(plan)
            .watchdog(true)
            .recorder(RecorderConfig {
                window: 4,
                rules: vec![WatermarkRule::BudgetLossSpike {
                    loss_rate: 0.5,
                    min_sent: 2,
                }],
                cooldown: 20,
                max_dumps: 1,
            })
            .arbiter_period(10)
            .build_fleet(2)
            .expect("valid diagnosed fleet");
        while fleet.anomaly_dumps().is_empty() {
            fleet.step_epoch().expect("fleet epoch completes");
        }
        let dump = &fleet.anomaly_dumps()[0].bytes;
        let header = dump.iter().position(|&b| b == b'\n').unwrap() + 1;
        let trace = dump
            .windows(TRACE.len())
            .position(|w| w == TRACE)
            .expect("a dump has a trace section");
        let fleet_trace = dump[trace + TRACE.len()..].to_vec();
        let records: Vec<_> = read_fleet_jsonl(&fleet_trace[..])
            .expect("the dump's trace decodes")
            .into_iter()
            .map(|r| r.record)
            .collect();
        let mut chip_trace = Vec::new();
        JsonlSink::new(&mut chip_trace)
            .emit_all(&records)
            .expect("write to Vec cannot fail");
        [dump[header..trace].to_vec(), fleet_trace, chip_trace]
    })
}

/// Feeds `bytes` to all three decoders; returns how many accepted it.
/// Whatever one accepts must re-encode to text that decodes back to the
/// same value, which in turn re-encodes to the same text.
fn decode_all(bytes: &[u8]) -> usize {
    let mut accepted = 0;
    if let Ok(snap) = MetricsSnapshot::from_prometheus(&String::from_utf8_lossy(bytes)) {
        let text = snap.to_prometheus();
        let again = MetricsSnapshot::from_prometheus(&text).expect("a re-encoded snapshot decodes");
        assert_eq!(again.to_prometheus(), text, "snapshot round trip");
        accepted += 1;
    }
    if let Ok(records) = read_jsonl(bytes) {
        let mut text = Vec::new();
        JsonlSink::new(&mut text).emit_all(&records).unwrap();
        let again = read_jsonl(&text[..]).expect("a re-encoded trace decodes");
        assert_eq!(again, records, "chip trace round trip");
        accepted += 1;
    }
    if let Ok(records) = read_fleet_jsonl(bytes) {
        let mut text = Vec::new();
        write_fleet_jsonl(&mut text, &records).unwrap();
        let again = read_fleet_jsonl(&text[..]).expect("a re-encoded fleet trace decodes");
        assert_eq!(again, records, "fleet trace round trip");
        accepted += 1;
    }
    accepted
}

#[test]
fn sections_decode_as_what_they_are() {
    let [snapshot, fleet_trace, chip_trace] = sections();
    let snap = MetricsSnapshot::from_prometheus(std::str::from_utf8(snapshot).unwrap()).unwrap();
    assert!(snap.counter_by_name("rack_anomalies").is_some());
    assert!(snap.summary_by_name("fleet_rl_td_error").is_some());
    let records = read_fleet_jsonl(&fleet_trace[..]).unwrap();
    for kind in ["watchdog", "rl", "fault", "vf", "epoch", "anomaly"] {
        assert!(
            records.iter().any(|r| r.record.event.kind_name() == kind),
            "no {kind} event in the dump"
        );
    }
    assert_eq!(read_jsonl(&chip_trace[..]).unwrap().len(), records.len());
    // Each trace format refuses the other, and the snapshot is no trace.
    assert!(read_jsonl(&fleet_trace[..]).is_err());
    assert!(read_fleet_jsonl(&chip_trace[..]).is_err());
    assert!(read_jsonl(&snapshot[..]).is_err());
    for section in sections() {
        decode_all(section);
    }
}

#[test]
fn every_truncation_decodes_or_errs() {
    for section in sections() {
        for len in 0..section.len() {
            decode_all(&section[..len]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Flipping one to four bits never panics, and whatever still decodes
    /// round-trips.
    #[test]
    fn bit_flips_never_panic(
        section in 0usize..3,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..5),
    ) {
        let mut bytes = sections()[section].clone();
        for &(at, bit) in &flips {
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] ^= 1 << bit;
        }
        decode_all(&bytes);
    }

    /// The head of one section spliced onto the tail of another never
    /// panics, and whatever decodes round-trips.
    #[test]
    fn splices_never_panic(
        head in 0usize..3,
        tail in 0usize..3,
        head_frac in 0.0f64..1.0,
        tail_frac in 0.0f64..1.0,
    ) {
        let (a, b) = (&sections()[head], &sections()[tail]);
        let mut bytes = a[..(head_frac * a.len() as f64) as usize].to_vec();
        bytes.extend_from_slice(&b[(tail_frac * b.len() as f64) as usize..]);
        decode_all(&bytes);
    }
}
