//! # odrl-obs — zero-alloc structured tracing + metrics for the control loop
//!
//! A flight-recorder-style observability layer for the OD-RL power
//! controller and manycore simulator:
//!
//! - **Events** ([`Event`], [`EventRecord`]): a compact, `Copy` vocabulary
//!   of control-loop state changes — epoch boundaries, per-core VF
//!   actions, budget reallocations and redistributions, watchdog flag
//!   transitions, fault injection/clear edges, overshoot onset/end, and
//!   RL exploration choices.
//! - **Rings** ([`TraceRing`]): per-shard rings of fixed segments
//!   reserved at construction and sized by their reader (the last
//!   [`RING_CAPACITY`] records, or a flight recorder's window);
//!   steady-state recording never touches the heap. [`merge_records`] merges rings into one canonical stream that
//!   is bit-identical whether the run used 1, 2, 4 or 8 shards.
//! - **Metrics** ([`MetricsRegistry`]): named counters, gauges and
//!   `odrl_metrics::Histogram`s registered once at construction and
//!   updated by index; [`MetricsRegistry::snapshot_into`] captures them
//!   per epoch into a reusable [`MetricsSnapshot`] without allocating.
//! - **Export** ([`JsonlSink`], [`write_fleet_jsonl`]): export-time JSONL
//!   writers of merged traces, plus [`read_jsonl`] and
//!   [`read_fleet_jsonl`] for loading a trace back (the `trace_inspect`
//!   tool's input path).
//! - **Summaries** ([`StreamSummary`], [`LearnDiag`]): exact-integer
//!   streaming moments + log2-magnitude histograms whose merge is
//!   associative and commutative, so per-shard learning-health
//!   accumulators fold to bit-identical results at any shard count.
//! - **Aggregation** ([`FleetMetrics`]): deterministic `(epoch, chip)`
//!   keyed merge of per-chip snapshots plus a rack-scope registry.
//! - **Flight recorder** ([`FlightRecorder`]): declarative watermark
//!   rules ([`WatermarkRule`]) over per-epoch [`HealthSample`]s; a trip
//!   dumps the trailing merged-trace window + metrics snapshot
//!   ([`AnomalyDump`]) and emits an [`Event::Anomaly`].
//! - **Config** ([`ObsConfig`]): the enable switch embedded in
//!   `SystemConfig`/`OdRlConfig`, defaulting to off so uninstrumented
//!   runs pay nothing; [`EventCounts`] summarizes a run's events per kind.
//!
//! The crate deliberately has no dependency on the simulator or
//! controller crates — they depend on it and push events in.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod config;
pub mod event;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod summary;

pub use aggregate::FleetMetrics;
pub use config::{EventCounts, ObsConfig, DIAG_PERIOD, RING_CAPACITY};
pub use event::{
    merge_fleet_records, merge_records, AnomalyKind, Event, EventRecord, FaultClass,
    FleetEventRecord, WatchdogFlag, CHIP, RACK,
};
pub use recorder::{AnomalyDump, FlightRecorder, HealthSample, RecorderConfig, WatermarkRule};
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot, SummaryId};
pub use ring::{window_start, TraceRing};
pub use sink::{read_fleet_jsonl, read_jsonl, write_fleet_jsonl, JsonlSink};
pub use summary::{LearnDiag, StreamSummary, SUMMARY_BUCKETS};
