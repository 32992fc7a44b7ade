//! Trace export: the JSONL writers and readers.
//!
//! Writers consume *merged* records (see [`crate::merge_records`]) at
//! export time — the hot loop only ever touches the preallocated rings,
//! so export is free to allocate and do I/O.
//!
//! JSONL is written by a direct per-record writer that emits exactly the
//! bytes `serde_json::to_string` produces for [`EventRecord`] and
//! [`FleetEventRecord`] (externally tagged events, fields in declaration
//! order, the same float spelling), without building a value tree or a
//! per-record `String`: rendering into a reused buffer allocates nothing
//! once the buffer has grown. Reading stays on serde.

use crate::event::{Event, EventRecord, FleetEventRecord};
use std::io::{self, BufRead, Write};

/// Writes an `f64` the way the JSON serializer spells it: integral values
/// below 1e15 keep a `.0` marker, other finite values print the shortest
/// round-tripping form, and non-finite values (which JSON cannot carry)
/// become `null`.
fn write_f64<W: Write>(w: &mut W, x: f64) -> io::Result<()> {
    if !x.is_finite() {
        w.write_all(b"null")
    } else if x == x.trunc() && x.abs() < 1e15 {
        write!(w, "{x:.1}")
    } else {
        write!(w, "{x}")
    }
}

/// Writes `{"<variant>":{"<field>":<f64>}}`, the shape of every event
/// whose payload is one float.
fn write_float_event<W: Write>(w: &mut W, variant: &str, field: &str, x: f64) -> io::Result<()> {
    write!(w, "{{\"{variant}\":{{\"{field}\":")?;
    write_f64(w, x)?;
    w.write_all(b"}}")
}

/// Writes one event as its externally tagged JSON object. Unit enums
/// (flag, class, kind) spell their variant name, which is their `Debug`
/// form.
fn write_event<W: Write>(w: &mut W, event: Event) -> io::Result<()> {
    match event {
        Event::Watchdog { flag, entered } => write!(
            w,
            "{{\"Watchdog\":{{\"flag\":\"{flag:?}\",\"entered\":{entered}}}}}"
        ),
        Event::OvershootOnset { over_w } => {
            write_float_event(w, "OvershootOnset", "over_w", over_w)
        }
        Event::OvershootEnd { epochs } => {
            write!(w, "{{\"OvershootEnd\":{{\"epochs\":{epochs}}}}}")
        }
        Event::BudgetRealloc { magnitude_w } => {
            write_float_event(w, "BudgetRealloc", "magnitude_w", magnitude_w)
        }
        Event::BudgetRedistribution { freed_w } => {
            write_float_event(w, "BudgetRedistribution", "freed_w", freed_w)
        }
        Event::RlChoice { action, explored } => write!(
            w,
            "{{\"RlChoice\":{{\"action\":{action},\"explored\":{explored}}}}}"
        ),
        Event::FaultInjected { class } => {
            write!(w, "{{\"FaultInjected\":{{\"class\":\"{class:?}\"}}}}")
        }
        Event::FaultCleared { class } => {
            write!(w, "{{\"FaultCleared\":{{\"class\":\"{class:?}\"}}}}")
        }
        Event::VfAction { level } => write!(w, "{{\"VfAction\":{{\"level\":{level}}}}}"),
        Event::Epoch { power_w } => write_float_event(w, "Epoch", "power_w", power_w),
        Event::Anomaly { kind, value } => {
            write!(w, "{{\"Anomaly\":{{\"kind\":\"{kind:?}\",\"value\":")?;
            write_f64(w, value)?;
            w.write_all(b"}}")
        }
    }
}

/// Writes one record as a JSON object (no trailing newline).
fn write_record<W: Write>(w: &mut W, r: &EventRecord) -> io::Result<()> {
    write!(
        w,
        "{{\"epoch\":{},\"core\":{},\"seq\":{},\"event\":",
        r.epoch, r.core, r.seq
    )?;
    write_event(w, r.event)?;
    w.write_all(b"}")
}

/// Writes one JSON object per line (the `trace_inspect` input format).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Emits one record.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, if any.
    pub fn emit(&mut self, record: &EventRecord) -> io::Result<()> {
        write_record(&mut self.writer, record)?;
        self.writer.write_all(b"\n")
    }

    /// Emits every record in order.
    ///
    /// # Errors
    ///
    /// As [`JsonlSink::emit`].
    pub fn emit_all(&mut self, records: &[EventRecord]) -> io::Result<()> {
        records.iter().try_for_each(|r| self.emit(r))
    }
}

/// Parses a JSONL trace (as written by [`JsonlSink`]) back into records.
/// Blank lines are skipped.
///
/// # Errors
///
/// Returns an [`io::Error`] for unreadable input or undecodable lines.
pub fn read_jsonl<R: BufRead>(reader: R) -> io::Result<Vec<EventRecord>> {
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rec: EventRecord = serde_json::from_str(trimmed)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push(rec);
    }
    Ok(out)
}

/// Writes merged fleet records as one JSON object per line (the
/// `trace_inspect --chip` input format and the flight-recorder trace
/// section). Allocation-free into a `Vec<u8>` with enough capacity.
///
/// # Errors
///
/// Returns the underlying I/O error, if any.
pub fn write_fleet_jsonl<W: Write>(writer: &mut W, records: &[FleetEventRecord]) -> io::Result<()> {
    for r in records {
        write!(writer, "{{\"chip\":{},\"record\":", r.chip)?;
        write_record(writer, &r.record)?;
        writer.write_all(b"}\n")?;
    }
    Ok(())
}

/// Parses a fleet JSONL trace (as written by [`write_fleet_jsonl`]) back
/// into records. Blank lines and `#` comment lines are skipped, so a
/// flight-recorder dump's trace section parses directly.
///
/// # Errors
///
/// Returns an [`io::Error`] for unreadable input or undecodable lines.
pub fn read_fleet_jsonl<R: BufRead>(reader: R) -> io::Result<Vec<FleetEventRecord>> {
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let rec: FleetEventRecord = serde_json::from_str(trimmed)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FaultClass, WatchdogFlag, CHIP};

    fn sample() -> Vec<EventRecord> {
        vec![
            EventRecord {
                epoch: 1,
                core: 0,
                seq: 0,
                event: Event::Watchdog {
                    flag: WatchdogFlag::Stale,
                    entered: true,
                },
            },
            EventRecord {
                epoch: 1,
                core: 3,
                seq: 1,
                event: Event::FaultInjected {
                    class: FaultClass::Sensor,
                },
            },
            EventRecord {
                epoch: 1,
                core: CHIP,
                seq: 2,
                event: Event::Epoch { power_w: 12.5 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let records = sample();
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit_all(&records).unwrap();
        let bytes = sink.into_inner();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 3);
        let parsed = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_rejects_garbage() {
        let parsed = read_jsonl("\n\n".as_bytes()).unwrap();
        assert!(parsed.is_empty());
        assert!(read_jsonl("not json\n".as_bytes()).is_err());
        // A trace written while the slack market still existed: its event
        // variant is gone, so the line is rejected, not half-decoded.
        let old =
            r#"{"epoch":40,"core":4294967295,"seq":0,"event":{"MarketGrant":{"granted_w":0.5}}}"#;
        let err = read_jsonl(format!("{old}\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn fleet_jsonl_round_trips_and_skips_comments() {
        let records: Vec<FleetEventRecord> = sample()
            .into_iter()
            .enumerate()
            .map(|(i, record)| FleetEventRecord {
                chip: i as u32,
                record,
            })
            .collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"# odrl_trace window 3\n");
        write_fleet_jsonl(&mut bytes, &records).unwrap();
        let parsed = read_fleet_jsonl(&bytes[..]).unwrap();
        assert_eq!(parsed, records);
        assert!(read_fleet_jsonl("not json\n".as_bytes()).is_err());
    }
}
