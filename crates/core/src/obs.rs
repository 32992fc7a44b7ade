//! Controller-side tracing: watchdog transitions, overshoot windows,
//! budget movements, RL exploration choices and decide-latency metrics.
//!
//! [`CtrlTracer`] is the controller's half of the observability layer
//! (the simulator records fault edges, VF switches and epoch boundaries —
//! see `odrl_manycore::SysTracer`). It is constructed only when
//! [`ObsConfig::enabled`](odrl_obs::ObsConfig) is set; a disabled
//! controller holds `None` and every recording site reduces to one
//! branch.
//!
//! Serial decision events go into one ring. RL exploration choices are
//! recorded *inside* the sharded select/update loop, so each shard owns a
//! private ring (indexed by `base / chunk`, the same chunking
//! `shard_chunks` uses); a core's event always lands in the same ring in
//! core order regardless of thread count, and `odrl_obs::merge_records`
//! makes the merged stream bit-identical across shard counts.

use crate::watchdog::SensorWatchdog;
use odrl_obs::{
    CounterId, Event, EventCounts, EventRecord, GaugeId, HistogramId, LearnDiag, MetricsRegistry,
    MetricsSnapshot, ObsConfig, SummaryId, TraceRing, WatchdogFlag, CHIP,
};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Metric handles + channel edge state for the learning-health
/// diagnostics, present only when [`ObsConfig::diagnostics`] is on so the
/// diag-off registry layout stays byte-identical to earlier revisions.
#[derive(Debug, Clone, Copy)]
struct DiagIds {
    s_td_error: SummaryId,
    s_q_span: SummaryId,
    s_visit_spread: SummaryId,
    g_explore_rate: GaugeId,
    g_quant_doublings: GaugeId,
    g_quant_saturation: GaugeId,
    g_loss_rate: GaugeId,
    /// Channel lifetime counters at the last `record_channel` call, for
    /// per-epoch deltas.
    prev_sent: u64,
    prev_delivered: u64,
}

/// Flight recorder for the OD-RL controller's decision events.
#[derive(Debug)]
pub struct CtrlTracer {
    /// Serial decision events (watchdog, overshoot, budget movements).
    ring: TraceRing,
    /// One ring per RL shard; `Mutex` for `Sync`, but each shard locks
    /// only its own ring so there is never contention.
    shard_rings: Vec<Mutex<TraceRing>>,
    metrics: MetricsRegistry,
    h_decide_ns: HistogramId,
    h_rl_decide_ns: HistogramId,
    h_rl_learn_ns: HistogramId,
    h_realloc_w: HistogramId,
    h_overshoot_w: HistogramId,
    c_stale: CounterId,
    c_dead: CounterId,
    c_dark: CounterId,
    c_realloc: CounterId,
    c_redistribution: CounterId,
    c_overshoot: CounterId,
    c_explore: CounterId,
    prev_stale: Vec<bool>,
    prev_dead: Vec<bool>,
    prev_dark: bool,
    /// Whether the chip was over budget last epoch (overshoot edge state).
    over: bool,
    over_since: u64,
    snapshot: MetricsSnapshot,
    /// Learning-health metric handles; `None` when diagnostics are off.
    diag: Option<DiagIds>,
    /// One per-shard diagnostics accumulator, mirroring `shard_rings`
    /// (empty when diagnostics are off). Each shard merges its stack-local
    /// accumulator in once per epoch, so there is never contention.
    shard_diags: Vec<Mutex<LearnDiag>>,
    /// Run-cumulative diagnostics, folded from the shard accumulators at
    /// each epoch boundary.
    epoch_diag: LearnDiag,
}

impl CtrlTracer {
    /// Most records the serial ring takes in one epoch on `cores` cores.
    const fn serial_records(cores: usize) -> usize {
        2 * cores + 4
    }

    /// Most records the tracer writes in one epoch on `cores` cores, over
    /// all its rings: the serial ring's bound plus one exploration per
    /// core across the shard rings.
    pub const fn epoch_records(cores: usize) -> usize {
        Self::serial_records(cores) + cores
    }

    /// Preallocates a tracer for `cores` cores split over at most
    /// `max_shards` RL shards, its rings sized by `config` (see
    /// [`ObsConfig::ring`]) for their writers' per-epoch bounds: the
    /// serial ring takes at most `2·cores + 4` records (a stale and a dead
    /// flip per core, the dark flip, one overshoot edge, a reallocation
    /// and a redistribution), a shard ring one exploration per core of
    /// its chunk.
    pub fn new(config: &ObsConfig, cores: usize, max_shards: usize) -> Self {
        let mut metrics = MetricsRegistry::new();
        let h_decide_ns = metrics
            .histogram("decide_latency_ns", 0.0, 1e7, 64)
            .expect("static histogram layout is valid");
        let h_rl_decide_ns = metrics
            .histogram("rl_decide_ns", 0.0, 1e7, 64)
            .expect("static histogram layout is valid");
        let h_rl_learn_ns = metrics
            .histogram("rl_learn_ns", 0.0, 1e7, 64)
            .expect("static histogram layout is valid");
        let h_realloc_w = metrics
            .histogram("realloc_magnitude_w", 0.0, 100.0, 50)
            .expect("static histogram layout is valid");
        let h_overshoot_w = metrics
            .histogram("overshoot_watts", 0.0, 50.0, 50)
            .expect("static histogram layout is valid");
        let c_stale = metrics.counter("watchdog_stale_flips");
        let c_dead = metrics.counter("watchdog_dead_flips");
        let c_dark = metrics.counter("watchdog_dark_flips");
        let c_realloc = metrics.counter("reallocations");
        let c_redistribution = metrics.counter("redistributions");
        let c_overshoot = metrics.counter("overshoot_onsets");
        let c_explore = metrics.counter("explore_choices");
        // Diagnostics metrics register last and only when enabled, so the
        // diag-off layout (and everything derived from it) is unchanged.
        let diag = config.diagnostics().then(|| DiagIds {
            s_td_error: metrics.summary("rl_td_error"),
            s_q_span: metrics.summary("rl_q_span"),
            s_visit_spread: metrics.summary("rl_visit_spread"),
            g_explore_rate: metrics.gauge("rl_exploration_rate"),
            g_quant_doublings: metrics.gauge("rl_quant_doublings"),
            g_quant_saturation: metrics.gauge("rl_quant_saturation"),
            g_loss_rate: metrics.gauge("budget_loss_rate"),
            prev_sent: 0,
            prev_delivered: 0,
        });
        let mut snapshot = MetricsSnapshot::new();
        metrics.snapshot_into(0, &mut snapshot);
        Self {
            ring: config.ring(Self::serial_records(cores)),
            shard_rings: (0..max_shards.max(1))
                .map(|_| Mutex::new(config.ring(cores.div_ceil(max_shards.max(1)))))
                .collect(),
            metrics,
            h_decide_ns,
            h_rl_decide_ns,
            h_rl_learn_ns,
            h_realloc_w,
            h_overshoot_w,
            c_stale,
            c_dead,
            c_dark,
            c_realloc,
            c_redistribution,
            c_overshoot,
            c_explore,
            prev_stale: vec![false; cores],
            prev_dead: vec![false; cores],
            prev_dark: false,
            over: false,
            over_since: 0,
            snapshot,
            diag,
            shard_diags: if config.diagnostics() {
                (0..max_shards.max(1))
                    .map(|_| Mutex::new(LearnDiag::new()))
                    .collect()
            } else {
                Vec::new()
            },
            epoch_diag: LearnDiag::new(),
        }
    }

    /// Diffs the watchdog's flags against last epoch, recording one
    /// transition event per flip. Call right after the watchdog observes.
    #[inline]
    pub fn record_watchdog(&mut self, epoch: u64, wd: &SensorWatchdog) {
        for i in 0..self.prev_stale.len() {
            let stale = wd.is_stale(i);
            if stale != self.prev_stale[i] {
                self.ring.record(
                    epoch,
                    i as u32,
                    Event::Watchdog {
                        flag: WatchdogFlag::Stale,
                        entered: stale,
                    },
                );
                self.metrics.inc(self.c_stale);
                self.prev_stale[i] = stale;
            }
            let dead = wd.is_dead(i);
            if dead != self.prev_dead[i] {
                self.ring.record(
                    epoch,
                    i as u32,
                    Event::Watchdog {
                        flag: WatchdogFlag::Dead,
                        entered: dead,
                    },
                );
                self.metrics.inc(self.c_dead);
                self.prev_dead[i] = dead;
            }
        }
        let dark = wd.chip_dark();
        if dark != self.prev_dark {
            self.ring.record(
                epoch,
                CHIP,
                Event::Watchdog {
                    flag: WatchdogFlag::Dark,
                    entered: dark,
                },
            );
            self.metrics.inc(self.c_dark);
            self.prev_dark = dark;
        }
    }

    /// Detects budget-overshoot onset/end edges from the measured chip
    /// power (zero before the first epoch, so a run never starts "over").
    #[inline]
    pub fn record_power(&mut self, epoch: u64, total_power_w: f64, budget_w: f64) {
        let over = budget_w > 0.0 && total_power_w > budget_w;
        if over {
            self.metrics
                .observe(self.h_overshoot_w, total_power_w - budget_w);
        }
        if over && !self.over {
            self.ring.record(
                epoch,
                CHIP,
                Event::OvershootOnset {
                    over_w: total_power_w - budget_w,
                },
            );
            self.metrics.inc(self.c_overshoot);
            self.over_since = epoch;
        } else if !over && self.over {
            self.ring.record(
                epoch,
                CHIP,
                Event::OvershootEnd {
                    epochs: epoch - self.over_since,
                },
            );
        }
        self.over = over;
    }

    /// Records a coarse-grain reallocation of `magnitude_w` total moved
    /// watts (`Σ|new_i − old_i|`).
    #[inline]
    pub fn record_realloc(&mut self, epoch: u64, magnitude_w: f64) {
        self.ring
            .record(epoch, CHIP, Event::BudgetRealloc { magnitude_w });
        self.metrics.inc(self.c_realloc);
        self.metrics.observe(self.h_realloc_w, magnitude_w);
    }

    /// Records a dead-core budget redistribution of `freed_w` watts.
    #[inline]
    pub fn record_redistribution(&mut self, epoch: u64, freed_w: f64) {
        self.ring
            .record(epoch, CHIP, Event::BudgetRedistribution { freed_w });
        self.metrics.inc(self.c_redistribution);
    }

    /// Records the RL stage's decide/learn split for this epoch — the
    /// widest (wall-clock dominating) shard's nanoseconds in each half of
    /// the sharded select/update loop.
    #[inline]
    pub fn record_rl_split(&mut self, decide_ns: u64, learn_ns: u64) {
        self.metrics.observe(self.h_rl_decide_ns, decide_ns as f64);
        self.metrics.observe(self.h_rl_learn_ns, learn_ns as f64);
    }

    /// The per-shard rings the RL loop records exploration choices into
    /// (shard index = `base / chunk` — the `shard_chunks` chunking).
    pub fn shard_rings(&self) -> &[Mutex<TraceRing>] {
        &self.shard_rings
    }

    /// Whether learning-health diagnostics are being recorded.
    pub fn diag_enabled(&self) -> bool {
        self.diag.is_some()
    }

    /// The per-shard diagnostics accumulators the RL loop folds its
    /// stack-local [`LearnDiag`] into (same indexing as
    /// [`CtrlTracer::shard_rings`]); `None` when diagnostics are off.
    pub fn shard_diags(&self) -> Option<&[Mutex<LearnDiag>]> {
        self.diag.is_some().then_some(&self.shard_diags[..])
    }

    /// Records a quantized-storage health scan (summed over every core's
    /// tables). No-op when diagnostics are off.
    #[inline]
    pub fn record_quant_health(&mut self, doublings: u64, saturated: u64, lanes: u64) {
        if let Some(ids) = self.diag {
            self.metrics.set(ids.g_quant_doublings, doublings as f64);
            let frac = if lanes == 0 {
                0.0
            } else {
                saturated as f64 / lanes as f64
            };
            self.metrics.set(ids.g_quant_saturation, frac);
            self.epoch_diag.quant_doublings = doublings;
            self.epoch_diag.quant_saturated = saturated;
            self.epoch_diag.quant_lanes = lanes;
        }
    }

    /// Updates the per-epoch budget-channel loss-rate gauge from the
    /// channel's lifetime `messages_sent` / `messages_delivered` counters
    /// (the tracer differences them internally). Deliveries delayed into a
    /// later epoch can exceed that epoch's sends; the loss rate saturates
    /// at zero rather than going negative. No-op when diagnostics are off.
    #[inline]
    pub fn record_channel(&mut self, sent: u64, delivered: u64) {
        if let Some(ids) = self.diag.as_mut() {
            let d_sent = sent.saturating_sub(ids.prev_sent);
            let d_delivered = delivered.saturating_sub(ids.prev_delivered);
            ids.prev_sent = sent;
            ids.prev_delivered = delivered;
            let g = ids.g_loss_rate;
            let loss = if d_sent == 0 {
                0.0
            } else {
                d_sent.saturating_sub(d_delivered) as f64 / d_sent as f64
            };
            self.metrics.set(g, loss);
        }
    }

    /// Run-cumulative learning-health diagnostics, `None` when off.
    pub fn last_diag(&self) -> Option<&LearnDiag> {
        self.diag.is_some().then_some(&self.epoch_diag)
    }

    /// Closes the epoch: records the decide latency, folds the shard
    /// diagnostics into the registry, and snapshots the metrics. Call on
    /// every decide exit path.
    #[inline]
    pub fn end_epoch(&mut self, epoch: u64, started: Instant) {
        self.metrics
            .observe(self.h_decide_ns, started.elapsed().as_nanos() as f64);
        let explored = self.total_explorations();
        let seen = self.metrics.counter_value(self.c_explore);
        self.metrics.add(self.c_explore, explored - seen);
        if let Some(ids) = self.diag {
            let mut folded = LearnDiag::new();
            for m in &self.shard_diags {
                let mut d = m.lock().expect("shard diag poisoned");
                folded.merge(&d);
                d.reset();
            }
            // Shard accumulators carry no quant fields (those come from
            // the periodic scan via record_quant_health), so this merge
            // only adds the epoch's TD/span/decision samples.
            self.epoch_diag.merge(&folded);
            self.metrics.merge_summary(ids.s_td_error, &folded.td_error);
            self.metrics.merge_summary(ids.s_q_span, &folded.q_span);
            self.metrics
                .merge_summary(ids.s_visit_spread, &folded.visit_span);
            self.metrics
                .set(ids.g_explore_rate, self.epoch_diag.exploration_rate());
        }
        self.metrics.snapshot_into(epoch, &mut self.snapshot);
    }

    /// Total RL exploration events ever recorded (survives ring wrap).
    fn total_explorations(&self) -> u64 {
        self.shard_rings
            .iter()
            .map(|r| {
                let ring = r.lock().expect("shard ring poisoned");
                ring.len() as u64 + ring.dropped()
            })
            .sum()
    }

    /// Appends every held record whose epoch lies in the half-open range
    /// `epochs` — serial ring first, then each shard ring — onto `out`
    /// (`0..u64::MAX` for the whole trace). Pass the result through
    /// `odrl_obs::merge_records` for the canonical order.
    pub fn extend_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        self.ring.extend_into(epochs.clone(), out);
        for r in &self.shard_rings {
            r.lock()
                .expect("shard ring poisoned")
                .extend_into(epochs.clone(), out);
        }
    }

    /// The tracer's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The metrics snapshot taken at the last epoch boundary.
    pub fn last_snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Per-kind totals of the events recorded so far (the controller-side
    /// half of a run's [`EventCounts`]).
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            watchdog_stale: self.metrics.counter_value(self.c_stale),
            watchdog_dead: self.metrics.counter_value(self.c_dead),
            watchdog_dark: self.metrics.counter_value(self.c_dark),
            reallocations: self.metrics.counter_value(self.c_realloc),
            redistributions: self.metrics.counter_value(self.c_redistribution),
            overshoot_onsets: self.metrics.counter_value(self.c_overshoot),
            explorations: self.total_explorations(),
            ..EventCounts::default()
        }
    }
}

impl Clone for CtrlTracer {
    fn clone(&self) -> Self {
        Self {
            ring: self.ring.clone(),
            shard_rings: self
                .shard_rings
                .iter()
                .map(|r| Mutex::new(r.lock().expect("shard ring poisoned").clone()))
                .collect(),
            metrics: self.metrics.clone(),
            h_decide_ns: self.h_decide_ns,
            h_rl_decide_ns: self.h_rl_decide_ns,
            h_rl_learn_ns: self.h_rl_learn_ns,
            h_realloc_w: self.h_realloc_w,
            h_overshoot_w: self.h_overshoot_w,
            c_stale: self.c_stale,
            c_dead: self.c_dead,
            c_dark: self.c_dark,
            c_realloc: self.c_realloc,
            c_redistribution: self.c_redistribution,
            c_overshoot: self.c_overshoot,
            c_explore: self.c_explore,
            prev_stale: self.prev_stale.clone(),
            prev_dead: self.prev_dead.clone(),
            prev_dark: self.prev_dark,
            over: self.over,
            over_since: self.over_since,
            snapshot: self.snapshot.clone(),
            diag: self.diag,
            shard_diags: self
                .shard_diags
                .iter()
                .map(|d| Mutex::new(*d.lock().expect("shard diag poisoned")))
                .collect(),
            epoch_diag: self.epoch_diag,
        }
    }
}
