//! Equivalence suite for the allocation-free trace paths.
//!
//! - The direct JSONL writer behind [`JsonlSink`] and
//!   [`write_fleet_jsonl`] emits exactly the bytes `serde_json::to_string`
//!   emits, for every event variant and both record types.
//! - [`MetricsSnapshot::write_prometheus`] (and the `to_prometheus`
//!   wrapper over it) emits exactly the text of the original
//!   `fmt::Write` renderer, kept here as the reference.
//! - [`TraceRing::extend_into`] with an epoch cutoff equals a whole-ring
//!   copy followed by `retain`.
//! - The scratch-free merges order records exactly as a stable sort on the
//!   merge key does.

use odrl_obs::{
    merge_fleet_records, merge_records, write_fleet_jsonl, AnomalyKind, Event, EventRecord,
    FaultClass, FleetEventRecord, JsonlSink, MetricsRegistry, MetricsSnapshot, TraceRing,
    WatchdogFlag, CHIP, RACK,
};
use proptest::prelude::*;

/// Floats whose spelling the JSON serializer special-cases: signed zero,
/// integral values on both sides of the 1e15 `.0` cutoff, extreme and
/// subnormal magnitudes, and the non-finite values JSON cannot carry.
const FLOATS: [f64; 18] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    42.0,
    12.5,
    0.1,
    -2.75e-3,
    999_999_999_999_999.0,
    1e15,
    -1e15,
    1e-300,
    1e300,
    f64::MIN_POSITIVE / 2.0,
    -5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Every event variant, with each float field swept over [`FLOATS`] and
/// each unit enum over all its variants.
fn every_event() -> Vec<Event> {
    let mut events = Vec::new();
    for flag in [WatchdogFlag::Stale, WatchdogFlag::Dead, WatchdogFlag::Dark] {
        for entered in [false, true] {
            events.push(Event::Watchdog { flag, entered });
        }
    }
    for x in FLOATS {
        events.push(Event::OvershootOnset { over_w: x });
        events.push(Event::BudgetRealloc { magnitude_w: x });
        events.push(Event::BudgetRedistribution { freed_w: x });
        events.push(Event::Epoch { power_w: x });
        for kind in [
            AnomalyKind::OvershootStreak,
            AnomalyKind::TdErrorBlowup,
            AnomalyKind::WatchdogFlipBurst,
            AnomalyKind::BudgetLossSpike,
        ] {
            events.push(Event::Anomaly { kind, value: x });
        }
    }
    for epochs in [0, 1, u64::MAX] {
        events.push(Event::OvershootEnd { epochs });
    }
    for action in [0, 7, u8::MAX] {
        for explored in [false, true] {
            events.push(Event::RlChoice { action, explored });
        }
    }
    for class in FaultClass::ALL {
        events.push(Event::FaultInjected { class });
        events.push(Event::FaultCleared { class });
    }
    for level in [0, 3, u8::MAX] {
        events.push(Event::VfAction { level });
    }
    events
}

fn every_record() -> Vec<EventRecord> {
    every_event()
        .into_iter()
        .enumerate()
        .map(|(i, event)| EventRecord {
            epoch: [0, 1, 1 << 40, u64::MAX][i % 4],
            core: [0, 17, CHIP][i % 3],
            seq: [0, 5, u32::MAX][i % 3],
            event,
        })
        .collect()
}

#[test]
fn jsonl_sink_writes_serde_bytes_for_every_event() {
    let records = every_record();
    let mut sink = JsonlSink::new(Vec::new());
    sink.emit_all(&records).unwrap();
    let mut expected = String::new();
    for r in &records {
        expected.push_str(&serde_json::to_string(r).unwrap());
        expected.push('\n');
    }
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
}

#[test]
fn fleet_jsonl_writes_serde_bytes_for_every_event() {
    let records: Vec<FleetEventRecord> = every_record()
        .into_iter()
        .enumerate()
        .map(|(i, record)| FleetEventRecord {
            chip: [0, 3, RACK][i % 3],
            record,
        })
        .collect();
    let mut bytes = Vec::new();
    write_fleet_jsonl(&mut bytes, &records).unwrap();
    let mut expected = String::new();
    for r in &records {
        expected.push_str(&serde_json::to_string(r).unwrap());
        expected.push('\n');
    }
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);
}

#[test]
fn non_finite_floats_write_as_null_like_serde() {
    let r = EventRecord {
        epoch: 2,
        core: 1,
        seq: 0,
        event: Event::Epoch { power_w: f64::NAN },
    };
    let mut sink = JsonlSink::new(Vec::new());
    sink.emit(&r).unwrap();
    let line = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(
        line,
        "{\"epoch\":2,\"core\":1,\"seq\":0,\"event\":{\"Epoch\":{\"power_w\":null}}}\n"
    );
    assert_eq!(line.trim_end(), serde_json::to_string(&r).unwrap());
}

/// The Prometheus renderer as it was written against `fmt::Write` on a
/// `String`: the reference the byte-writing renderer must match.
fn reference_prometheus(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# odrl_snapshot epoch {}", snap.epoch);
    for (name, v) in snap.counter_names.iter().zip(&snap.counters) {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in snap.gauge_names.iter().zip(&snap.gauges) {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, s) in snap.summary_names.iter().zip(&snap.summaries) {
        let (count, sum_q, sum_sq_q, min, max, buckets) = s.raw_parts();
        let _ = write!(
            out,
            "# odrl_summary {name} {count} {sum_q} {sum_sq_q} {min} {max}"
        );
        for b in buckets {
            let _ = write!(out, " {b}");
        }
        out.push('\n');
        let _ = writeln!(out, "{name}_count {count}");
        let _ = writeln!(out, "{name}_mean {}", s.mean());
        let _ = writeln!(out, "{name}_stddev {}", s.std_dev());
        let _ = writeln!(out, "{name}_min {}", s.min());
        let _ = writeln!(out, "{name}_max {}", s.max());
    }
    out
}

fn assert_prometheus_matches(snap: &MetricsSnapshot) {
    let expected = reference_prometheus(snap);
    let mut bytes = Vec::new();
    snap.write_prometheus(&mut bytes).unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);
    assert_eq!(snap.to_prometheus(), expected);
}

#[test]
fn write_prometheus_matches_reference_for_empty_snapshot() {
    assert_prometheus_matches(&MetricsSnapshot::new());
    // Registered metrics that never saw a sample.
    let mut reg = MetricsRegistry::new();
    reg.counter("idle_total");
    reg.gauge("idle_gauge");
    reg.summary("idle_summary");
    let mut snap = MetricsSnapshot::new();
    reg.snapshot_into(3, &mut snap);
    assert_prometheus_matches(&snap);
}

#[test]
fn write_prometheus_matches_reference_for_extreme_only_summary() {
    let mut reg = MetricsRegistry::new();
    let s = reg.summary("peaks");
    let mut peaks = odrl_obs::StreamSummary::default();
    for x in [-1e300, 5e-324, 0.0, 7.25] {
        peaks.record_extreme(x);
    }
    reg.merge_summary(s, &peaks);
    let mut snap = MetricsSnapshot::new();
    reg.snapshot_into(u64::MAX, &mut snap);
    assert_prometheus_matches(&snap);
}

#[test]
fn write_prometheus_matches_reference_for_populated_snapshot() {
    let mut reg = MetricsRegistry::new();
    let c = reg.counter("events_total");
    let g = reg.gauge("power_w");
    let g2 = reg.gauge("odd_w");
    let s = reg.summary("td_error");
    let s2 = reg.summary("q_span");
    reg.add(c, u64::MAX);
    reg.set(g, -0.0);
    reg.set(g2, f64::NAN);
    for (i, x) in FLOATS.iter().filter(|x| x.is_finite()).enumerate() {
        reg.record_summary(s, *x * 1e-10);
        reg.record_summary(s2, i as f64 - 4.5);
    }
    let mut snap = MetricsSnapshot::new();
    reg.snapshot_into(1050, &mut snap);
    assert_prometheus_matches(&snap);
}

/// A ring filled with `steps.len()` records whose epochs advance by the
/// drawn steps (0 repeats an epoch), from `start`.
fn ring(cap: usize, start: u64, steps: &[u64]) -> TraceRing {
    let mut r = TraceRing::with_capacity(cap);
    let mut epoch = start;
    for (i, step) in steps.iter().enumerate() {
        epoch += step;
        r.record(epoch, i as u32, Event::VfAction { level: 1 });
    }
    r
}

/// Checks `extend_into(start..end)` against copy-then-retain at every
/// start kind: 0, just before the oldest record, on every held epoch (so
/// on each boundary of a run of duplicated epochs), between held epochs,
/// and past the newest record; each start is paired with the bound below
/// it (an inverted range), itself (empty), the next three bounds and the
/// open end. Also checks that it appends rather than overwrites.
fn check_windows(r: &TraceRing) -> Result<(), TestCaseError> {
    let mut whole = Vec::new();
    r.extend_into(0..u64::MAX, &mut whole);
    let mut bounds = vec![0, u64::MAX];
    for rec in &whole {
        bounds.extend([rec.epoch.saturating_sub(1), rec.epoch, rec.epoch + 1]);
    }
    bounds.sort_unstable();
    bounds.dedup();
    let sentinel = EventRecord {
        epoch: 0,
        core: CHIP,
        seq: 0,
        event: Event::Epoch { power_w: 1.0 },
    };
    for (i, &start) in bounds.iter().enumerate() {
        let near = &bounds[i.saturating_sub(1)..(i + 4).min(bounds.len())];
        for &end in near.iter().chain([&u64::MAX]) {
            let mut expected = whole.clone();
            expected.retain(|rec| (start..end).contains(&rec.epoch));
            expected.insert(0, sentinel);
            let mut got = vec![sentinel];
            r.extend_into(start..end, &mut got);
            prop_assert_eq!(&got, &expected, "epochs {}..{}", start, end);
        }
    }
    Ok(())
}

/// Both merges against the stable-sort reference they replace.
fn check_merges(mut fleet: Vec<FleetEventRecord>) -> Result<(), TestCaseError> {
    let mut chip: Vec<EventRecord> = fleet.iter().map(|r| r.record).collect();
    let mut chip_ref = chip.clone();
    chip_ref.sort_by_key(EventRecord::merge_key);
    for (i, r) in chip_ref.iter_mut().enumerate() {
        r.seq = i as u32;
    }
    merge_records(&mut chip);
    prop_assert_eq!(&chip, &chip_ref);

    let mut fleet_ref = fleet.clone();
    fleet_ref.sort_by_key(FleetEventRecord::merge_key);
    for (i, r) in fleet_ref.iter_mut().enumerate() {
        r.record.seq = i as u32;
    }
    merge_fleet_records(&mut fleet);
    prop_assert_eq!(&fleet, &fleet_ref);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Windowed reads equal a whole-ring copy filtered by epoch, on rings
    /// read before they wrap and again after.
    #[test]
    fn extend_into_equals_copy_then_retain(
        cap in 1usize..24,
        start in 0u64..4,
        steps in prop::collection::vec(0u64..3, 0..80),
    ) {
        let unwrapped = steps.len().min(cap);
        check_windows(&ring(cap, start, &steps[..unwrapped]))?;
        check_windows(&ring(cap, start, &steps))?;
    }

    /// The scratch-free merges order records exactly as a stable sort on
    /// the merge key would, with many duplicate keys and payload-only
    /// differences among them.
    #[test]
    fn unstable_merge_matches_stable_sort(
        raw in prop::collection::vec(
            (0u64..3, 0u32..3, 0usize..4, 0u32..3, 0u32..1000, 0u8..4),
            0..120,
        ),
    ) {
        let kinds = [
            |x: u8| Event::VfAction { level: x },
            |x: u8| Event::RlChoice { action: x, explored: true },
            |x: u8| Event::Epoch { power_w: f64::from(x) },
            |x: u8| Event::BudgetRealloc { magnitude_w: f64::from(x) },
        ];
        let fleet: Vec<FleetEventRecord> = raw
            .iter()
            .map(|&(epoch, chip, kind, core, seq, payload)| FleetEventRecord {
                chip: if chip == 2 { RACK } else { chip },
                record: EventRecord {
                    epoch,
                    core: if core == 2 { CHIP } else { core },
                    seq,
                    event: kinds[kind](payload),
                },
            })
            .collect();
        check_merges(fleet)?;
    }
}
