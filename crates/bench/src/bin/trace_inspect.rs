//! Trace inspector: filters and windows a structured JSONL trace
//! (written by `exp_resilience --trace` or any `odrl_obs::JsonlSink`) and
//! prints it as an aligned table plus per-kind totals. Also understands
//! fleet traces (`--chip`) and metrics snapshots / flight-recorder dumps
//! (`metrics` mode).
//!
//! ```text
//! trace_inspect out.jsonl                     # whole trace
//! trace_inspect out.jsonl --core 3            # one core (plus chip rows: --core chip)
//! trace_inspect out.jsonl --kind fault        # one event family
//! trace_inspect out.jsonl --around-overshoot 5  # ±5 epochs around each overshoot onset
//! trace_inspect out.jsonl --limit 40          # first 40 matching rows
//! trace_inspect fleet.jsonl --chip 2          # fleet trace, one chip
//! trace_inspect fleet.jsonl --chip rack       # rack-scope rows (anomalies)
//! trace_inspect metrics snapshot.prom         # counters/gauges/summary quantiles
//! trace_inspect metrics dump.bin              # flight-recorder dump (both sections)
//! ```
//!
//! Filters compose (logical AND). `--kind` takes the family names
//! `watchdog`, `overshoot`, `realloc`, `redistribution`, `market`, `rl`,
//! `fault`, `vf`, `epoch`, `anomaly`. `--chip` switches the reader to the
//! fleet JSONL encoding (records tagged with a chip index).

use odrl_metrics::Table;
use odrl_obs::{
    read_fleet_jsonl, read_jsonl, Event, EventRecord, MetricsSnapshot, CHIP, RACK,
};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    path: String,
    metrics: bool,
    core: Option<u32>,
    chip: Option<u32>,
    kind: Option<String>,
    around_overshoot: Option<u64>,
    limit: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_inspect <trace.jsonl> [--core K|chip] [--chip K|rack] [--kind NAME] \
         [--around-overshoot N] [--limit M]\n\
         \x20      trace_inspect metrics <snapshot.prom|dump>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut path = None;
    let mut metrics = false;
    let mut core = None;
    let mut chip = None;
    let mut kind = None;
    let mut around_overshoot = None;
    let mut limit = usize::MAX;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "metrics" if path.is_none() && !metrics => metrics = true,
            "--core" => {
                let v = args.next().unwrap_or_else(|| usage());
                core = Some(if v == "chip" {
                    CHIP
                } else {
                    v.parse().unwrap_or_else(|_| usage())
                });
            }
            "--chip" => {
                let v = args.next().unwrap_or_else(|| usage());
                chip = Some(if v == "rack" {
                    RACK
                } else {
                    v.parse().unwrap_or_else(|_| usage())
                });
            }
            "--kind" => kind = Some(args.next().unwrap_or_else(|| usage())),
            "--around-overshoot" => {
                around_overshoot = Some(
                    args.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--limit" => {
                limit = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with("--") => path = Some(arg),
            _ => usage(),
        }
    }
    Args {
        path: path.unwrap_or_else(|| usage()),
        metrics,
        core,
        chip,
        kind,
        around_overshoot,
        limit,
    }
}

/// Epochs within `±n` of any overshoot onset in the trace.
fn overshoot_windows(records: &[(u32, EventRecord)], n: u64) -> Vec<(u64, u64)> {
    records
        .iter()
        .filter(|(_, r)| matches!(r.event, Event::OvershootOnset { .. }))
        .map(|(_, r)| (r.epoch.saturating_sub(n), r.epoch.saturating_add(n)))
        .collect()
}

/// Prints a metrics snapshot as aligned counter/gauge/summary tables; the
/// summary table derives magnitude quantiles from the log2 buckets.
fn print_snapshot(snap: &MetricsSnapshot) {
    println!("snapshot at epoch {}", snap.epoch);
    if !snap.counters.is_empty() {
        let mut t = Table::new(vec!["counter", "value"]);
        for (name, v) in snap.counter_names.iter().zip(&snap.counters) {
            t.add_row(vec![name.clone(), v.to_string()]);
        }
        println!("{t}");
    }
    if !snap.gauges.is_empty() {
        let mut t = Table::new(vec!["gauge", "value"]);
        for (name, v) in snap.gauge_names.iter().zip(&snap.gauges) {
            t.add_row(vec![name.clone(), format!("{v:.6}")]);
        }
        println!("{t}");
    }
    if !snap.summaries.is_empty() {
        let mut t = Table::new(vec![
            "summary", "count", "mean", "stddev", "min", "max", "|p50|", "|p90|", "|p99|",
        ]);
        for (name, s) in snap.summary_names.iter().zip(&snap.summaries) {
            if s.count() == 0 {
                t.add_row(vec![
                    name.clone(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            t.add_row(vec![
                name.clone(),
                s.count().to_string(),
                format!("{:.6}", s.mean()),
                format!("{:.6}", s.std_dev()),
                format!("{:.6}", s.min()),
                format!("{:.6}", s.max()),
                format!("{:.4}", s.magnitude_quantile(0.5)),
                format!("{:.4}", s.magnitude_quantile(0.9)),
                format!("{:.4}", s.magnitude_quantile(0.99)),
            ]);
        }
        println!("{t}");
    }
}

/// `metrics` mode: a bare Prometheus exposition, or a flight-recorder
/// dump (`# odrl_flight_record` header, exposition, `# odrl_trace`,
/// fleet JSONL window).
fn inspect_metrics(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_inspect: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (header, metrics_text, trace_text) = if text.starts_with("# odrl_flight_record") {
        let (header, rest) = text.split_once('\n').unwrap_or((text.as_str(), ""));
        match rest.find("# odrl_trace\n") {
            Some(at) => {
                let (m, t) = rest.split_at(at);
                (Some(header), m, Some(t))
            }
            None => (Some(header), rest, None),
        }
    } else {
        (None, text.as_str(), None)
    };
    if let Some(h) = header {
        println!("{h}");
    }
    match MetricsSnapshot::from_prometheus(metrics_text) {
        Ok(snap) => print_snapshot(&snap),
        Err(e) => {
            eprintln!("trace_inspect: cannot parse metrics section of {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(t) = trace_text {
        match read_fleet_jsonl(t.as_bytes()) {
            Ok(records) => {
                let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for fr in &records {
                    *by_kind.entry(fr.record.event.kind_name()).or_insert(0) += 1;
                    lo = lo.min(fr.record.epoch);
                    hi = hi.max(fr.record.epoch);
                }
                println!(
                    "trace window: {} records over epochs {lo}..={hi}",
                    records.len()
                );
                let mut counts = Table::new(vec!["kind", "count"]);
                for (kind, count) in &by_kind {
                    counts.add_row(vec![(*kind).to_string(), count.to_string()]);
                }
                println!("{counts}");
            }
            Err(e) => {
                eprintln!("trace_inspect: cannot parse trace section of {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.metrics {
        return inspect_metrics(&args.path);
    }
    let file = match std::fs::File::open(&args.path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_inspect: cannot open {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    // A fleet trace (`--chip` given) carries a chip index per record; a
    // chip trace maps onto the same row shape with the chip column fixed.
    let fleet = args.chip.is_some();
    let records: Vec<(u32, EventRecord)> = if fleet {
        match read_fleet_jsonl(BufReader::new(file)) {
            Ok(r) => r.into_iter().map(|fr| (fr.chip, fr.record)).collect(),
            Err(e) => {
                eprintln!("trace_inspect: cannot parse {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match read_jsonl(BufReader::new(file)) {
            Ok(r) => r.into_iter().map(|record| (0, record)).collect(),
            Err(e) => {
                eprintln!("trace_inspect: cannot parse {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        }
    };
    let total = records.len();
    let windows = args
        .around_overshoot
        .map(|n| overshoot_windows(&records, n));
    if let (Some(w), Some(n)) = (&windows, args.around_overshoot) {
        println!(
            "{} overshoot onset(s); windowing to ±{n} epochs around each",
            w.len()
        );
    }

    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let header = if fleet {
        vec!["epoch", "chip", "core", "seq", "kind", "detail"]
    } else {
        vec!["epoch", "core", "seq", "kind", "detail"]
    };
    let mut table = Table::new(header);
    let mut shown = 0usize;
    let mut matched = 0usize;
    for (chip, r) in &records {
        if let Some(want) = args.chip {
            if *chip != want {
                continue;
            }
        }
        if let Some(core) = args.core {
            if r.core != core {
                continue;
            }
        }
        if let Some(kind) = &args.kind {
            if r.event.kind_name() != kind {
                continue;
            }
        }
        if let Some(w) = &windows {
            if !w.iter().any(|&(lo, hi)| (lo..=hi).contains(&r.epoch)) {
                continue;
            }
        }
        matched += 1;
        *by_kind.entry(r.event.kind_name()).or_insert(0) += 1;
        if shown < args.limit {
            let core = if r.core == CHIP {
                "chip".to_string()
            } else {
                r.core.to_string()
            };
            let mut row = vec![r.epoch.to_string()];
            if fleet {
                row.push(if *chip == RACK {
                    "rack".to_string()
                } else {
                    chip.to_string()
                });
            }
            row.extend([
                core,
                r.seq.to_string(),
                r.event.kind_name().to_string(),
                r.event.detail(),
            ]);
            table.add_row(row);
            shown += 1;
        }
    }

    if table.is_empty() {
        println!("no records match ({total} in trace)");
        return ExitCode::SUCCESS;
    }
    println!("{table}");
    if shown < matched {
        println!("... {matched} matched, first {shown} shown (--limit)");
    }
    let mut counts = Table::new(vec!["kind", "count"]);
    for (kind, count) in &by_kind {
        counts.add_row(vec![(*kind).to_string(), count.to_string()]);
    }
    println!("per-kind totals ({matched} of {total} records matched):");
    println!("{counts}");
    ExitCode::SUCCESS
}
