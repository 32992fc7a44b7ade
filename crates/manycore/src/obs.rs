//! System-side tracing: fault edges, VF switches and epoch boundaries.
//!
//! [`SysTracer`] is the simulator's half of the observability layer (the
//! controller records its own decision events — see `odrl-core`). It is
//! constructed only when [`odrl_obs::ObsConfig::enabled`] is set, so a
//! disabled run carries a `None` and every recording site reduces to one
//! branch; when enabled, every ring and metric buffer is allocated at
//! construction and steady-state recording never touches the heap.

use odrl_faults::FaultState;
use odrl_obs::{
    CounterId, Event, EventCounts, EventRecord, FaultClass, MetricsRegistry, MetricsSnapshot,
    ObsConfig, TraceRing, CHIP,
};
use std::ops::Range;

/// Flight recorder for the simulator's events, plus per-kind counters.
#[derive(Debug, Clone)]
pub struct SysTracer {
    ring: TraceRing,
    /// Last epoch's per-core fault-class bitmask (see
    /// `FaultState::class_mask`); edges against it become
    /// inject/clear events.
    prev_mask: Vec<u8>,
    prev_chip_mask: u8,
    metrics: MetricsRegistry,
    c_class_injected: [CounterId; 6],
    c_injected: CounterId,
    c_cleared: CounterId,
    c_vf: CounterId,
    snapshot: MetricsSnapshot,
}

impl SysTracer {
    /// Most records the tracer writes in one epoch on `cores` cores,
    /// `7·(cores + 1)`: one VF switch and six fault-class edges per core,
    /// six chip fault-class edges and the epoch marker.
    pub const fn epoch_records(cores: usize) -> usize {
        7 * (cores + 1)
    }

    /// Preallocates a tracer for `cores` cores, its ring sized by
    /// `config` (see [`ObsConfig::ring`]) for
    /// [`SysTracer::epoch_records`] records an epoch.
    pub fn new(config: &ObsConfig, cores: usize) -> Self {
        let mut metrics = MetricsRegistry::new();
        let c_class_injected = [
            metrics.counter("faults_sensor_injected"),
            metrics.counter("faults_actuator_injected"),
            metrics.counter("faults_budget_injected"),
            metrics.counter("faults_unplug_injected"),
            metrics.counter("faults_throttle_injected"),
            metrics.counter("faults_chip_sensor_injected"),
        ];
        let c_injected = metrics.counter("faults_injected");
        let c_cleared = metrics.counter("faults_cleared");
        let c_vf = metrics.counter("vf_switches");
        let mut snapshot = MetricsSnapshot::new();
        metrics.snapshot_into(0, &mut snapshot);
        Self {
            ring: config.ring(Self::epoch_records(cores)),
            prev_mask: vec![0; cores],
            prev_chip_mask: 0,
            metrics,
            c_class_injected,
            c_injected,
            c_cleared,
            c_vf,
            snapshot,
        }
    }

    /// Diffs the fault schedule's per-core and chip class masks against
    /// the previous epoch, recording one inject/clear event per edge.
    /// Call right after the fault engine's `begin_epoch`.
    #[inline]
    pub fn record_fault_edges(&mut self, epoch: u64, fs: Option<&FaultState>) {
        let Some(fs) = fs else { return };
        for i in 0..self.prev_mask.len() {
            let mask = fs.class_mask(i);
            let flipped = mask ^ self.prev_mask[i];
            if flipped != 0 {
                self.record_mask_edges(epoch, i as u32, mask, flipped);
                self.prev_mask[i] = mask;
            }
        }
        let chip = fs.chip_class_mask();
        let flipped = chip ^ self.prev_chip_mask;
        if flipped != 0 {
            self.record_mask_edges(epoch, CHIP, chip, flipped);
            self.prev_chip_mask = chip;
        }
    }

    fn record_mask_edges(&mut self, epoch: u64, core: u32, mask: u8, flipped: u8) {
        for (bit, &class) in FaultClass::ALL.iter().enumerate() {
            let b = 1u8 << bit;
            if flipped & b == 0 {
                continue;
            }
            if mask & b != 0 {
                self.ring
                    .record(epoch, core, Event::FaultInjected { class });
                self.metrics.inc(self.c_class_injected[bit]);
                self.metrics.inc(self.c_injected);
            } else {
                self.ring.record(epoch, core, Event::FaultCleared { class });
                self.metrics.inc(self.c_cleared);
            }
        }
    }

    /// Records a VF-level change on one core (call only on change).
    #[inline]
    pub fn record_vf(&mut self, epoch: u64, core: u32, level: u8) {
        self.ring.record(epoch, core, Event::VfAction { level });
        self.metrics.inc(self.c_vf);
    }

    /// Records the end-of-epoch boundary and snapshots the metrics.
    #[inline]
    pub fn record_epoch(&mut self, epoch: u64, power_w: f64) {
        self.ring.record(epoch, CHIP, Event::Epoch { power_w });
        self.metrics.snapshot_into(epoch, &mut self.snapshot);
    }

    /// Appends the held records whose epoch lies in the half-open range
    /// `epochs` (oldest → newest) onto `out`; `0..u64::MAX` for the whole
    /// trace.
    pub fn extend_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        self.ring.extend_into(epochs, out);
    }

    /// The tracer's ring (len/capacity/dropped introspection).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The tracer's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The metrics snapshot taken at the last epoch boundary.
    pub fn last_snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Per-kind event totals recorded so far (the system-side half of a
    /// run's [`EventCounts`]).
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            faults_injected: self.metrics.counter_value(self.c_injected),
            faults_cleared: self.metrics.counter_value(self.c_cleared),
            ..EventCounts::default()
        }
    }
}
