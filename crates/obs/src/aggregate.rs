//! Hierarchical metric aggregation: chip snapshots → fleet → rack.
//!
//! [`FleetMetrics`] merges the per-chip [`MetricsSnapshot`]s the fleet
//! already takes each epoch into one fleet-level snapshot, and carries its
//! own rack-level [`MetricsRegistry`] for quantities that only exist above
//! the chips (arbiter share dispersion, budget-channel loss). The merge is keyed by `(epoch, chip)`: the fleet calls
//! [`FleetMetrics::begin_epoch`] then [`FleetMetrics::record_chip`] once
//! per chip **in ascending fleet order** from its serial reduce phase, so
//! the merged result never depends on which shard *stepped* a chip —
//! bit-identical at any shard or chip parallelism.
//!
//! Merge semantics: counters and gauges sum element-wise (chip layouts are
//! identical by construction — every chip registers the same metrics in
//! the same order), summaries merge exactly (integer adds — see
//! [`StreamSummary::merge`]). After the first epoch sizes the buffers,
//! per-epoch aggregation is allocation-free.

use crate::registry::{MetricsRegistry, MetricsSnapshot};
use crate::summary::StreamSummary;

/// Deterministic fleet-level merge of per-chip metric snapshots plus a
/// rack-scope registry.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    epoch: u64,
    chips: u32,
    last_chip: Option<u32>,
    merged: MetricsSnapshot,
    rack: MetricsRegistry,
}

impl FleetMetrics {
    /// An empty aggregator (buffers sized on the first epoch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new fleet epoch: zeroes the merged values in place
    /// (layout and names are kept, so this never allocates).
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.chips = 0;
        self.last_chip = None;
        self.merged.epoch = epoch;
        for v in &mut self.merged.counters {
            *v = 0;
        }
        for v in &mut self.merged.gauges {
            *v = 0.0;
        }
        for s in &mut self.merged.summaries {
            s.reset();
        }
    }

    /// Folds one chip's snapshot into the fleet merge. Must be called in
    /// ascending `chip` order within an epoch (the fleet's serial reduce
    /// phase does this naturally); the first chip of the first epoch sizes
    /// the merged layout.
    pub fn record_chip(&mut self, chip: u32, snap: &MetricsSnapshot) {
        debug_assert!(
            self.last_chip.is_none_or(|last| chip > last),
            "record_chip must be called in ascending chip order"
        );
        debug_assert!(
            self.chips == 0
                || (self.merged.counters.len() == snap.counters.len()
                    && self.merged.gauges.len() == snap.gauges.len()
                    && self.merged.summaries.len() == snap.summaries.len()),
            "all chips must share one registry layout"
        );
        self.last_chip = Some(chip);
        self.chips += 1;
        if self.merged.counter_names.len() != snap.counter_names.len()
            || self.merged.gauge_names.len() != snap.gauge_names.len()
            || self.merged.summary_names.len() != snap.summary_names.len()
        {
            self.merged.counter_names = snap.counter_names.clone();
            self.merged.gauge_names = snap.gauge_names.clone();
            self.merged.summary_names = snap.summary_names.clone();
            self.merged.counters.resize(snap.counters.len(), 0);
            self.merged.gauges.resize(snap.gauges.len(), 0.0);
            self.merged
                .summaries
                .resize(snap.summaries.len(), StreamSummary::new());
        }
        for (dst, v) in self.merged.counters.iter_mut().zip(&snap.counters) {
            *dst += *v;
        }
        for (dst, v) in self.merged.gauges.iter_mut().zip(&snap.gauges) {
            *dst += *v;
        }
        for (dst, s) in self.merged.summaries.iter_mut().zip(&snap.summaries) {
            dst.merge(s);
        }
    }

    /// The current epoch's merged fleet snapshot (chip metrics summed /
    /// exactly merged; names unprefixed, as registered on the chips).
    pub fn merged(&self) -> &MetricsSnapshot {
        &self.merged
    }

    /// How many chips have been folded in this epoch.
    pub fn chips(&self) -> u32 {
        self.chips
    }

    /// The rack-scope registry (read side).
    pub fn rack(&self) -> &MetricsRegistry {
        &self.rack
    }

    /// The rack-scope registry (register/update side).
    pub fn rack_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.rack
    }

    /// Copies the combined fleet view into `snap`: merged chip metrics
    /// prefixed `fleet_`, rack metrics prefixed `rack_`. Names are rebuilt
    /// only when the layout changed, so steady-state calls are
    /// allocation-free.
    pub fn snapshot_into(&self, snap: &mut MetricsSnapshot) {
        snap.epoch = self.epoch;
        let nc = self.merged.counters.len() + self.rack.counters().count();
        let ng = self.merged.gauges.len() + self.rack.gauges().count();
        let ns = self.merged.summaries.len() + self.rack.summaries().count();
        snap.counters.resize(nc, 0);
        snap.gauges.resize(ng, 0.0);
        snap.summaries.resize(ns, StreamSummary::new());
        if snap.counter_names.len() != nc
            || snap.gauge_names.len() != ng
            || snap.summary_names.len() != ns
        {
            snap.counter_names = self
                .merged
                .counter_names
                .iter()
                .map(|n| format!("fleet_{n}"))
                .chain(self.rack.counters().map(|(n, _)| format!("rack_{n}")))
                .collect();
            snap.gauge_names = self
                .merged
                .gauge_names
                .iter()
                .map(|n| format!("fleet_{n}"))
                .chain(self.rack.gauges().map(|(n, _)| format!("rack_{n}")))
                .collect();
            snap.summary_names = self
                .merged
                .summary_names
                .iter()
                .map(|n| format!("fleet_{n}"))
                .chain(self.rack.summaries().map(|(n, _)| format!("rack_{n}")))
                .collect();
        }
        for (dst, v) in snap.counters.iter_mut().zip(
            self.merged
                .counters
                .iter()
                .copied()
                .chain(self.rack.counters().map(|(_, v)| v)),
        ) {
            *dst = v;
        }
        for (dst, v) in snap.gauges.iter_mut().zip(
            self.merged
                .gauges
                .iter()
                .copied()
                .chain(self.rack.gauges().map(|(_, v)| v)),
        ) {
            *dst = v;
        }
        for (dst, s) in snap.summaries.iter_mut().zip(
            self.merged
                .summaries
                .iter()
                .chain(self.rack.summaries().map(|(_, s)| s)),
        ) {
            *dst = *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip_snapshot(epoch: u64, counter: u64, gauge: f64, samples: &[f64]) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("explorations");
        let g = reg.gauge("loss_rate");
        let s = reg.summary("td_error");
        reg.add(c, counter);
        reg.set(g, gauge);
        for &x in samples {
            reg.record_summary(s, x);
        }
        let mut snap = MetricsSnapshot::new();
        reg.snapshot_into(epoch, &mut snap);
        snap
    }

    #[test]
    fn chips_merge_by_sum_and_exact_summary_merge() {
        let mut fm = FleetMetrics::new();
        fm.begin_epoch(9);
        fm.record_chip(0, &chip_snapshot(9, 3, 0.25, &[1.0, -2.0]));
        fm.record_chip(1, &chip_snapshot(9, 4, 0.5, &[0.5]));
        assert_eq!(fm.chips(), 2);
        let m = fm.merged();
        assert_eq!(m.epoch, 9);
        assert_eq!(m.counter_by_name("explorations"), Some(7));
        assert_eq!(m.gauge_by_name("loss_rate"), Some(0.75));
        let s = m.summary_by_name("td_error").unwrap();
        assert_eq!(s.count(), 3);
        // Exactly what one registry seeing all three samples would hold.
        let all = chip_snapshot(9, 0, 0.0, &[1.0, -2.0, 0.5]);
        assert_eq!(*s, all.summaries[0]);
    }

    #[test]
    fn begin_epoch_resets_without_resizing() {
        let mut fm = FleetMetrics::new();
        fm.begin_epoch(0);
        fm.record_chip(0, &chip_snapshot(0, 5, 1.0, &[2.0]));
        let cap = fm.merged().counters.capacity();
        fm.begin_epoch(1);
        assert_eq!(fm.chips(), 0);
        assert_eq!(fm.merged().counter_by_name("explorations"), Some(0));
        assert_eq!(fm.merged().summary_by_name("td_error").unwrap().count(), 0);
        fm.record_chip(0, &chip_snapshot(1, 2, 0.0, &[]));
        assert_eq!(fm.merged().counter_by_name("explorations"), Some(2));
        assert_eq!(fm.merged().counters.capacity(), cap);
    }

    #[test]
    fn combined_snapshot_prefixes_fleet_and_rack() {
        let mut fm = FleetMetrics::new();
        let g = fm.rack_mut().gauge("share_spread");
        fm.begin_epoch(4);
        fm.record_chip(0, &chip_snapshot(4, 1, 0.5, &[1.5]));
        fm.rack_mut().set(g, 0.125);
        let mut out = MetricsSnapshot::new();
        fm.snapshot_into(&mut out);
        assert_eq!(out.epoch, 4);
        assert_eq!(out.counter_by_name("fleet_explorations"), Some(1));
        assert_eq!(out.gauge_by_name("fleet_loss_rate"), Some(0.5));
        assert_eq!(out.gauge_by_name("rack_share_spread"), Some(0.125));
        assert_eq!(out.summary_by_name("fleet_td_error").unwrap().count(), 1);
        // Steady-state re-snapshot keeps the same names.
        let names = out.gauge_names.clone();
        fm.snapshot_into(&mut out);
        assert_eq!(out.gauge_names, names);
        // And it round-trips through the Prometheus codec.
        let back = MetricsSnapshot::from_prometheus(&out.to_prometheus()).unwrap();
        assert_eq!(back, out);
    }
}
