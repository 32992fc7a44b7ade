//! The fleet itself: N chips stepped concurrently under the rack arbiter.
//!
//! One fleet epoch is a fixed pipeline:
//!
//! 1. **Arbitrate** (serial): on reallocation rounds the
//!    [`BudgetArbiter`] re-divides the fleet budget from smoothed per-chip
//!    demand and the fresh shares are *sent* down the per-chip
//!    [`BudgetChannel`] links — which may drop, delay or stale-replay them
//!    (fault plans apply at fleet scope).
//! 2. **Deliver** (serial, fixed chip order): each chip polls its link; no
//!    delivery means it keeps its old budget, exactly the lossy-mailbox
//!    semantics the per-core channel has one level down.
//! 3. **Step** (sharded): every chip independently runs one closed-loop
//!    epoch — observe, decide, step — touching only its own state, fanned
//!    across worker shards by `shard_chunks`.
//! 4. **Reduce** (serial, fixed chip order): per-chip scalars fold into
//!    the arbiter's demand EMA and the fleet telemetry.
//!
//! Determinism: the sharded phase is embarrassingly parallel over chips
//! (disjoint `&mut` chunks, no shared accumulator), and every cross-chip
//! read or write happens in the serial phases in fleet-index order, so the
//! shard count changes wall-clock time only — 1/2/4/8-shard runs are
//! bit-identical. Steady-state stepping allocates nothing: observation,
//! action and scalar buffers are built once per chip at construction.

use crate::arbiter::BudgetArbiter;
use crate::builder::ChipRun;
use crate::config::FleetConfig;
use crate::error::FleetError;
use odrl_controllers::PowerController;
use odrl_core::CtrlTracer;
use odrl_faults::{BudgetChannel, FaultEngine};
use odrl_manycore::parallel::{shard_chunks, stream_seed};
use odrl_manycore::{Observation, Parallelism, SysTracer, System, SystemError, Telemetry};
use odrl_obs::{
    merge_fleet_records, merge_records, window_start, write_fleet_jsonl, AnomalyDump, AnomalyKind,
    CounterId, Event, EventRecord, FleetEventRecord, FleetMetrics, FlightRecorder, GaugeId,
    HealthSample, MetricsSnapshot, RecorderConfig, TraceRing, RACK,
};
use odrl_power::{Joules, LevelId, Seconds, Watts};
use serde::Serialize;
use std::io::{self, Write};
use std::ops::Range;

/// Salt decorrelating the fleet-level budget channel's fault schedule from
/// the per-chip schedules derived from the same master seed.
const FLEET_CHANNEL_SALT: u64 = 0xF1EE_7000_F1EE_7000;

/// One chip of the fleet: a `System` + controller pair with its current
/// budget share and the preallocated buffers its epoch step reuses.
struct FleetChip {
    system: System,
    controller: Box<dyn PowerController + Send>,
    /// The chip's current budget share (updated only by link deliveries).
    budget: Watts,
    obs: Observation,
    actions: Vec<LevelId>,
    /// Scalars of the last stepped epoch, read by the serial reduction.
    power: Watts,
    measured: Watts,
    instructions: f64,
    energy: Joules,
    dt: Seconds,
    /// First simulator error, if any (surfaced after the sharded phase).
    failed: Option<SystemError>,
}

impl FleetChip {
    /// Wraps an assembled chip with the buffers its epoch step reuses.
    fn new(run: ChipRun) -> Self {
        let ChipRun {
            system,
            controller,
            budget,
        } = run;
        let obs = system.observation(budget);
        let cores = system.num_cores();
        Self {
            system,
            controller,
            budget,
            obs,
            actions: vec![LevelId(0); cores],
            power: Watts::ZERO,
            measured: Watts::ZERO,
            instructions: 0.0,
            energy: Joules::new(0.0),
            dt: Seconds::new(0.0),
            failed: None,
        }
    }

    /// One closed-loop epoch on this chip alone. Touches nothing outside
    /// `self`; allocation-free.
    fn step(&mut self) {
        if self.failed.is_some() {
            return;
        }
        self.obs.budget = self.budget;
        self.controller.decide_into(&self.obs, &mut self.actions);
        match self.system.step_in_place(&self.actions) {
            Ok(report) => {
                self.power = report.total_power;
                self.measured = report.measured_power;
                self.instructions = report.total_instructions();
                self.energy = report.energy;
                self.dt = report.dt;
            }
            Err(e) => {
                self.failed = Some(e);
                return;
            }
        }
        self.system.observation_into(self.budget, &mut self.obs);
    }

    /// Appends the chip's trace records whose epoch lies in `epochs`:
    /// the controller's rings, then the system's, unmerged.
    fn extend_trace_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        self.controller.extend_trace_into(epochs.clone(), out);
        self.system.extend_trace_into(epochs, out);
    }
}

impl std::fmt::Debug for FleetChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetChip")
            .field("controller", &self.controller.name())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Runs `build(k, input)` for every input on `par`'s shards and returns
/// the outputs in index order, or the error of the lowest-index input
/// that failed, in whatever order the shards ran. Every input is built
/// exactly once, so a serial build is the same code on one shard.
fn build_in_order<I: Send, T: Send, E: Send>(
    par: Parallelism,
    inputs: Vec<I>,
    build: impl Fn(usize, I) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let mut inputs: Vec<Option<I>> = inputs.into_iter().map(Some).collect();
    let mut outputs: Vec<Option<Result<T, E>>> = inputs.iter().map(|_| None).collect();
    shard_chunks(
        par,
        (&mut inputs[..], &mut outputs[..]),
        |base, (inputs, outputs)| {
            for (j, (input, out)) in inputs.iter_mut().zip(outputs).enumerate() {
                *out = input.take().map(|i| build(base + j, i));
            }
        },
    );
    outputs
        .into_iter()
        .map(|out| out.expect("every shard builds its whole chunk"))
        .collect()
}

/// Scalar fleet-wide telemetry, accumulated epoch by epoch with no
/// per-epoch allocation (per-chip series stay on the chips' own
/// [`Telemetry`]).
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    epochs: u64,
    total_instructions: f64,
    total_energy: f64,
    elapsed: f64,
    peak_power: f64,
    overshoot_epochs: u64,
    overshoot_energy: f64,
}

impl FleetTelemetry {
    fn record(
        &mut self,
        fleet_power: Watts,
        budget: Watts,
        instructions: f64,
        energy: Joules,
        dt: Seconds,
    ) {
        self.epochs += 1;
        self.total_instructions += instructions;
        self.total_energy += energy.value();
        self.elapsed += dt.value();
        self.peak_power = self.peak_power.max(fleet_power.value());
        let over = fleet_power.value() - budget.value();
        if over > 0.0 {
            self.overshoot_epochs += 1;
            self.overshoot_energy += over * dt.value();
        }
    }

    /// Fleet epochs stepped.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Instructions retired across all chips.
    pub fn total_instructions(&self) -> f64 {
        self.total_instructions
    }

    /// Energy consumed across all chips.
    pub fn total_energy(&self) -> Joules {
        Joules::new(self.total_energy)
    }

    /// Simulated time elapsed.
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Highest single-epoch fleet power.
    pub fn peak_power(&self) -> Watts {
        Watts::new(self.peak_power)
    }

    /// Epochs in which true fleet power exceeded the fleet budget.
    pub fn overshoot_epochs(&self) -> u64 {
        self.overshoot_epochs
    }

    /// Energy spent above the fleet budget, joules.
    pub fn overshoot_energy(&self) -> Joules {
        Joules::new(self.overshoot_energy)
    }
}

/// One chip's contribution to a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipSummary {
    /// Fleet index.
    pub chip: u32,
    /// The chip's budget share at the end of the run, watts.
    pub budget_w: f64,
    /// Instructions the chip retired.
    pub instructions: f64,
    /// Energy the chip consumed, joules.
    pub energy_j: f64,
    /// The chip's peak epoch power, watts.
    pub peak_power_w: f64,
}

/// The serializable end-of-run digest of a fleet run — the fleet
/// determinism golden hashes its canonical JSON form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSummary {
    /// Number of chips.
    pub chips: usize,
    /// Cores per chip.
    pub cores_per_chip: usize,
    /// Fleet epochs stepped.
    pub epochs: u64,
    /// Total fleet budget, watts.
    pub fleet_budget_w: f64,
    /// Instructions retired across all chips.
    pub total_instructions: f64,
    /// Energy consumed across all chips, joules.
    pub total_energy_j: f64,
    /// Highest single-epoch fleet power, watts.
    pub peak_power_w: f64,
    /// Epochs with true fleet power above the fleet budget.
    pub overshoot_epochs: u64,
    /// Energy spent above the fleet budget, joules.
    pub overshoot_energy_j: f64,
    /// Arbiter reallocation rounds completed.
    pub arbiter_rounds: u64,
    /// Per-chip digests, in fleet order.
    pub per_chip: Vec<ChipSummary>,
}

/// Cached rack-registry metric handles (registered once at build).
#[derive(Debug, Clone, Copy)]
struct RackIds {
    c_anomalies: CounterId,
    g_share_spread: GaugeId,
    g_loss_rate: GaugeId,
}

/// Rack-scope observability: hierarchical metric aggregation over the
/// chips' per-epoch snapshots, rack-level gauges, and the
/// anomaly-triggered flight recorder. Present only when
/// [`FleetConfig::recorder`] is set; everything here reads simulation
/// state and never feeds back into it, so the run is bit-identical with
/// it on or off.
#[derive(Debug)]
struct FleetObs {
    metrics: FleetMetrics,
    recorder: FlightRecorder,
    /// Rack-scope events (anomaly trips), exported as chip [`RACK`].
    ring: TraceRing,
    /// The combined `fleet_*` + `rack_*` snapshot, refreshed each epoch.
    snapshot: MetricsSnapshot,
    ids: RackIds,
    /// Lifetime fleet-channel counters as of last epoch (loss deltas).
    prev_sent: u64,
    prev_delivered: u64,
    /// Cumulative watchdog flip total as of last epoch.
    prev_flips: u64,
    /// Cumulative max |TD error| as of last epoch (new-high detection).
    prev_td_max: f64,
    /// One chip's (or the rack's) records of one epoch, which a trip
    /// sorts and writes. Reserved at build for the most records a chip
    /// writes in an epoch, so a trip allocates only the dump it keeps.
    batch: Vec<EventRecord>,
}

impl FleetObs {
    /// Rack observability for `recorder` over chips of at most `cores`
    /// cores; `window` is the trace window of a recorder-only fleet (the
    /// field `Fleet::trace_window`).
    fn new(recorder: RecorderConfig, window: Option<u64>, cores: usize) -> Self {
        let mut metrics = FleetMetrics::new();
        let reg = metrics.rack_mut();
        let ids = RackIds {
            c_anomalies: reg.counter("anomalies"),
            g_share_spread: reg.gauge("arbiter_share_spread_w"),
            g_loss_rate: reg.gauge("budget_loss_rate"),
        };
        Self {
            metrics,
            recorder: FlightRecorder::new(recorder),
            // At most one anomaly an epoch, and only on a trip.
            ring: window.map_or_else(
                || TraceRing::with_capacity(256),
                |w| TraceRing::windowed(w, 1),
            ),
            snapshot: MetricsSnapshot::default(),
            ids,
            prev_sent: 0,
            prev_delivered: 0,
            prev_flips: 0,
            prev_td_max: 0.0,
            batch: Vec::with_capacity(
                CtrlTracer::epoch_records(cores) + SysTracer::epoch_records(cores),
            ),
        }
    }
}

/// A writer that only counts the bytes written to it: a dump's first
/// rendering pass, which sizes the buffer the second pass fills.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one chip's records of one epoch in the canonical merge order
/// (`merge_records`: rank, core, input position), their `seq` numbered on
/// from `*seq`: the lines a whole-window `merge_fleet_records` would give
/// them.
fn write_batch<W: Write>(
    w: &mut W,
    chip: u32,
    batch: &mut [EventRecord],
    seq: &mut u32,
) -> io::Result<()> {
    merge_records(batch);
    for &record in batch.iter() {
        let record = EventRecord {
            seq: *seq + record.seq,
            ..record
        };
        write_fleet_jsonl(w, &[FleetEventRecord { chip, record }])?;
    }
    *seq += batch.len() as u32;
    Ok(())
}

/// N chips stepped concurrently under one rack-level budget arbiter.
///
/// Build with [`FleetConfig`] + [`Fleet::new`], or through
/// [`RunBuilder::build_fleet`](crate::RunBuilder::build_fleet).
#[derive(Debug)]
pub struct Fleet {
    chips: Vec<FleetChip>,
    arbiter: BudgetArbiter,
    /// Arbiter → chip budget links (fault plans apply at fleet scope).
    channel: BudgetChannel,
    total_budget: Watts,
    parallelism: Parallelism,
    epoch: u64,
    telemetry: FleetTelemetry,
    /// Rack-scope metric aggregation + flight recorder, when
    /// [`FleetConfig::recorder`] is set.
    obs: Option<FleetObs>,
    /// The recorder window every trace ring is sized for when the
    /// recorder is the only trace reader (see `FleetConfig::chip_obs`).
    trace_window: Option<u64>,
}

impl Fleet {
    /// Builds the fleet: `config.chips` replicas of the scenario, chip `k`
    /// with its own system and exploration seeds (see
    /// `FleetConfig::chip_seeds`), each with the fault plan
    /// attached under its own fleet index, under one arbiter whose budget
    /// messages run through the plan's fleet-scope budget faults.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] for invalid fleet parameters, scenarios,
    /// fault plans, or controller configurations. The chips are built on
    /// the fleet's shards ([`FleetConfig::parallelism`]); when several
    /// fail, the error is the lowest-index chip's at every shard count.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        let n = config.chips;
        // Per-chip system configs first: the fleet budget needs the chips'
        // summed max power before any chip is built.
        let mut sys_configs = Vec::with_capacity(n);
        let mut fleet_max = 0.0;
        for k in 0..n {
            let sys_config = config.chip_system_config(k as u32)?;
            fleet_max += sys_config.max_power().value();
            sys_configs.push(sys_config);
        }
        let total_budget = Watts::new(config.scenario.budget_frac * fleet_max);
        let arbiter = BudgetArbiter::new(
            total_budget,
            n,
            config.arbiter_period,
            config.arbiter_gain,
            config.min_share,
            config.demand_smoothing,
        )?;
        // The arbiter → chip links: one "core" per chip, degraded by the
        // plan's budget faults projected to fleet scope.
        let fleet_plan = config
            .plan
            .as_ref()
            .map(|p| p.fleet_budget_plan(n))
            .unwrap_or_default();
        let channel_seed = stream_seed(config.scenario.seed ^ FLEET_CHANNEL_SALT, 0);
        let channel = FaultEngine::compile(&fleet_plan, n, channel_seed)?.budget_channel();
        // Warm start: load the snapshot once; every chip imports a copy of
        // the same learned tables (exploration stays decorrelated by seed).
        let warm = config.load_warm_start()?;
        let trace_window = config.chip_obs().and_then(|obs| obs.window());
        // Chips are independent until the first epoch, so they are built
        // on the same shards that step them.
        let shares = arbiter.shares();
        let chips = build_in_order(config.parallelism, sys_configs, |k, sys_config| {
            let budget = Watts::new(shares[k]);
            config
                .assemble_chip(k as u32, sys_config, budget, warm.as_ref())
                .map(FleetChip::new)
        })?;
        let cores = chips
            .iter()
            .map(|c| c.system.num_cores())
            .max()
            .unwrap_or(0);
        Ok(Self {
            chips,
            arbiter,
            channel,
            total_budget,
            parallelism: config.parallelism,
            epoch: 0,
            telemetry: FleetTelemetry::default(),
            obs: config
                .recorder
                .map(|r| FleetObs::new(r, trace_window, cores)),
            trace_window,
        })
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Total cores across the fleet.
    pub fn num_cores(&self) -> usize {
        self.chips.iter().map(|c| c.system.num_cores()).sum()
    }

    /// Fleet epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The total fleet budget the arbiter divides.
    pub fn total_budget(&self) -> Watts {
        self.total_budget
    }

    /// Chip `k`'s current budget share.
    pub fn chip_budget(&self, k: usize) -> Watts {
        self.chips[k].budget
    }

    /// Sum of the per-chip shares *as arbitrated* (what the arbiter will
    /// send). Lossy links mean chips may *hold* different values; this is
    /// the conservation invariant on the arbiter side.
    pub fn arbitrated_sum(&self) -> f64 {
        self.arbiter.shares().iter().sum()
    }

    /// Sum of the budgets the chips currently hold.
    pub fn held_sum(&self) -> f64 {
        self.chips.iter().map(|c| c.budget.value()).sum()
    }

    /// The rack-level arbiter.
    pub fn arbiter(&self) -> &BudgetArbiter {
        &self.arbiter
    }

    /// Scalar fleet-wide telemetry.
    pub fn telemetry(&self) -> &FleetTelemetry {
        &self.telemetry
    }

    /// Chip `k`'s own simulator telemetry.
    pub fn chip_telemetry(&self, k: usize) -> &Telemetry {
        self.chips[k].system.telemetry()
    }

    /// Chip `k`'s learned policy as versioned snapshot bytes, when its
    /// controller learns one (see
    /// [`PowerController::policy_bytes`]).
    pub fn chip_policy_bytes(&self, k: usize) -> Option<Vec<u8>> {
        self.chips[k].controller.policy_bytes()
    }

    /// The rack-scope metric aggregator, when [`FleetConfig::recorder`]
    /// is set: per-chip snapshots merged with the exact summary algebra plus
    /// the rack registry (share spread, link loss rate).
    pub fn fleet_metrics(&self) -> Option<&FleetMetrics> {
        self.obs.as_ref().map(|fo| &fo.metrics)
    }

    /// The latest combined `fleet_*` + `rack_*` metrics snapshot, `None`
    /// until the first diagnosed epoch (or with the recorder off).
    pub fn fleet_snapshot(&self) -> Option<&MetricsSnapshot> {
        self.obs
            .as_ref()
            .map(|fo| &fo.snapshot)
            .filter(|s| !s.counters.is_empty() || !s.gauges.is_empty())
    }

    /// The anomaly-triggered flight recorder, when
    /// [`FleetConfig::recorder`] attached one.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.obs.as_ref().map(|fo| &fo.recorder)
    }

    /// Completed anomaly dumps in trip order (empty with the recorder
    /// off).
    pub fn anomaly_dumps(&self) -> &[AnomalyDump] {
        self.flight_recorder().map_or(&[], FlightRecorder::dumps)
    }

    /// Steps the whole fleet one epoch (see the module docs for the
    /// pipeline and the determinism argument). Allocation-free in steady
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::System`] if any chip's simulator rejects its
    /// actions (first failing chip in fleet order).
    pub fn step_epoch(&mut self) -> Result<(), FleetError> {
        // 1. Arbitrate: on round boundaries, re-divide and send the fresh
        // shares down the (possibly faulty) links.
        self.channel.begin_epoch(self.epoch);
        if self.epoch > 0 && self.epoch.is_multiple_of(self.arbiter.period()) {
            self.arbiter.reallocate();
            for k in 0..self.chips.len() {
                self.channel.send(k, self.arbiter.shares()[k]);
            }
        }
        // 2. Deliver, in fleet order: an undelivered share leaves the old
        // budget in force.
        for (k, chip) in self.chips.iter_mut().enumerate() {
            if let Some(w) = self.channel.poll(k) {
                chip.budget = Watts::new(w);
            }
        }
        // 3. Step every chip, sharded: disjoint &mut chunks, no shared
        // state, so shard count cannot change results.
        shard_chunks(self.parallelism, &mut self.chips[..], |_, chunk| {
            for chip in chunk {
                chip.step();
            }
        });
        // 4. Reduce in fleet order.
        let mut fleet_power = Watts::ZERO;
        let mut instructions = 0.0;
        let mut energy = 0.0;
        let mut dt = Seconds::new(0.0);
        for (k, chip) in self.chips.iter_mut().enumerate() {
            if let Some(e) = chip.failed.take() {
                return Err(FleetError::System(e));
            }
            self.arbiter.observe(k, chip.measured);
            fleet_power = Watts::new(fleet_power.value() + chip.power.value());
            instructions += chip.instructions;
            energy += chip.energy.value();
            dt = chip.dt;
        }
        self.telemetry.record(
            fleet_power,
            self.total_budget,
            instructions,
            Joules::new(energy),
            dt,
        );
        // 5. Rack-scope observability: merge the chips' fresh metric
        // snapshots, refresh the rack gauges, and feed the flight
        // recorder. Taken out of `self` for the duration so the helper
        // can walk chips/arbiter while mutating the aggregator.
        if let Some(mut fo) = self.obs.take() {
            self.observe_epoch(&mut fo, fleet_power);
            self.obs = Some(fo);
        }
        self.epoch += 1;
        Ok(())
    }

    /// One epoch of rack-scope observability (see [`FleetObs`]). Reads
    /// only; allocation-free in steady state — the merge and snapshot
    /// reuse their buffers. An anomaly trip renders its dump (see
    /// [`Fleet::write_dump`]) twice: once to count its bytes, once into a
    /// buffer of exactly that size. It costs O(window) and allocates only
    /// the dump the recorder keeps.
    fn observe_epoch(&mut self, fo: &mut FleetObs, fleet_power: Watts) {
        let epoch = self.epoch;
        fo.metrics.begin_epoch(epoch);
        for (k, chip) in self.chips.iter().enumerate() {
            if let Some(snap) = chip.controller.metrics_snapshot() {
                fo.metrics.record_chip(k as u32, snap);
            }
        }
        // Rack gauges: arbiter share dispersion, fleet-link loss rate.
        let shares = self.arbiter.shares();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in shares {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let spread = if shares.is_empty() { 0.0 } else { hi - lo };
        let sent = self.channel.messages_sent();
        let delivered = self.channel.messages_delivered();
        let d_sent = sent.saturating_sub(fo.prev_sent);
        // Delayed deliveries can land in a later epoch than their send,
        // so the per-epoch delivered delta may exceed the sent delta;
        // the loss count saturates at zero instead of going negative.
        let d_delivered = delivered.saturating_sub(fo.prev_delivered);
        fo.prev_sent = sent;
        fo.prev_delivered = delivered;
        let d_lost = d_sent.saturating_sub(d_delivered);
        let loss = if d_sent == 0 {
            0.0
        } else {
            d_lost as f64 / d_sent as f64
        };
        let ids = fo.ids;
        let reg = fo.metrics.rack_mut();
        reg.set(ids.g_share_spread, spread);
        reg.set(ids.g_loss_rate, loss);
        // Health sample: per-epoch deltas of the (cumulative) merged
        // counters, plus new-high detection on the cumulative max |TD|
        // so the blowup rule sees the epoch the spike happened, not
        // every epoch after it.
        let merged = fo.metrics.merged();
        let flips: u64 = [
            "watchdog_stale_flips",
            "watchdog_dead_flips",
            "watchdog_dark_flips",
        ]
        .iter()
        .filter_map(|n| merged.counter_by_name(n))
        .sum();
        let d_flips = flips.saturating_sub(fo.prev_flips);
        fo.prev_flips = flips;
        let td_cum = merged
            .summary_by_name("rl_td_error")
            .map_or(0.0, |s| s.max_abs());
        let td_epoch = if td_cum > fo.prev_td_max { td_cum } else { 0.0 };
        fo.prev_td_max = fo.prev_td_max.max(td_cum);
        // Refresh the combined snapshot before any dump so a trip
        // captures this epoch's state.
        fo.metrics.snapshot_into(&mut fo.snapshot);
        let sample = HealthSample {
            epoch,
            overshoot: fleet_power.value() > self.total_budget.value(),
            td_max_abs: td_epoch,
            watchdog_flips: d_flips,
            messages_sent: d_sent,
            messages_lost: d_lost,
        };
        let Some(kind) = fo.recorder.observe(&sample) else {
            return;
        };
        let value = match kind {
            AnomalyKind::OvershootStreak => fleet_power.value(),
            AnomalyKind::TdErrorBlowup => td_epoch,
            AnomalyKind::WatchdogFlipBurst => d_flips as f64,
            AnomalyKind::BudgetLossSpike => loss,
        };
        fo.metrics.rack_mut().inc(ids.c_anomalies);
        fo.ring.record(epoch, 0, Event::Anomaly { kind, value });
        let mut size = ByteCount(0);
        self.write_dump(&mut size, epoch, kind, fo)
            .expect("counting bytes cannot fail");
        let mut bytes = Vec::with_capacity(size.0);
        self.write_dump(&mut bytes, epoch, kind, fo)
            .expect("write to Vec cannot fail");
        debug_assert_eq!(bytes.len(), size.0, "both passes write one dump");
        fo.recorder.record_dump(epoch, kind, bytes);
        // Re-snapshot so the exported combined snapshot reflects the
        // anomaly counter bump.
        fo.metrics.snapshot_into(&mut fo.snapshot);
    }

    /// Writes the dump of a trip at `epoch`: a header, the combined
    /// snapshot, then the last-window trace in the canonical fleet merge
    /// order `(epoch, chip, rank, core)`, so the bytes are
    /// shard-invariant. The trace is streamed epoch by epoch, each chip's
    /// records and then the rack's passing through `fo.batch`: the order
    /// a whole-window `merge_fleet_records` gives, with no window-sized
    /// buffer.
    fn write_dump<W: Write>(
        &self,
        w: &mut W,
        epoch: u64,
        kind: AnomalyKind,
        fo: &mut FleetObs,
    ) -> io::Result<()> {
        let window = fo.recorder.config().window;
        writeln!(
            w,
            "# odrl_flight_record epoch {epoch} rule {} window {window}",
            kind.name()
        )?;
        fo.snapshot.write_prometheus(w)?;
        writeln!(w, "# odrl_trace")?;
        let batch = &mut fo.batch;
        let mut seq = 0;
        for e in self.held_epochs((epoch + 1).saturating_sub(window)..epoch + 1) {
            for (k, chip) in self.chips.iter().enumerate() {
                batch.clear();
                chip.extend_trace_into(e..e + 1, batch);
                write_batch(w, k as u32, batch, &mut seq)?;
            }
            // Rack-scope events (anomaly trips) ride along under the RACK
            // sentinel chip index, after every real chip of the epoch.
            batch.clear();
            fo.ring.extend_into(e..e + 1, batch);
            write_batch(w, RACK, batch, &mut seq)?;
        }
        Ok(())
    }

    /// `epochs` with its start floored, on a recorder-only fleet, at the
    /// oldest epoch every trace ring still holds in full. Windowed rings
    /// cut their segments at the same epochs, but a sparse one may still
    /// hold a block the others have cleared.
    fn held_epochs(&self, epochs: Range<u64>) -> Range<u64> {
        let start = match self.trace_window {
            Some(window) if self.epoch > 0 => {
                epochs.start.max(window_start(self.epoch - 1, window))
            }
            _ => epochs.start,
        };
        start..epochs.end
    }

    /// Steps the fleet for `epochs` epochs.
    ///
    /// # Errors
    ///
    /// As [`Fleet::step_epoch`].
    pub fn run(&mut self, epochs: u64) -> Result<(), FleetError> {
        for _ in 0..epochs {
            self.step_epoch()?;
        }
        Ok(())
    }

    /// The serializable end-of-run digest (chips in fleet order).
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            chips: self.chips.len(),
            cores_per_chip: self.chips.first().map_or(0, |c| c.system.num_cores()),
            epochs: self.telemetry.epochs,
            fleet_budget_w: self.total_budget.value(),
            total_instructions: self.telemetry.total_instructions,
            total_energy_j: self.telemetry.total_energy,
            peak_power_w: self.telemetry.peak_power,
            overshoot_epochs: self.telemetry.overshoot_epochs,
            overshoot_energy_j: self.telemetry.overshoot_energy,
            arbiter_rounds: self.arbiter.rounds(),
            per_chip: self
                .chips
                .iter()
                .enumerate()
                .map(|(k, c)| ChipSummary {
                    chip: k as u32,
                    budget_w: c.budget.value(),
                    instructions: c.system.telemetry().total_instructions(),
                    energy_j: c.system.telemetry().total_energy().value(),
                    peak_power_w: c.system.telemetry().peak_power().value(),
                })
                .collect(),
        }
    }

    /// Appends every chip's structured-event records whose epoch lies in
    /// the half-open range `epochs` (controller and system sides), tagged
    /// with the chip's fleet index, then the rack's anomaly records under
    /// [`RACK`], **unmerged**; `0..u64::MAX` for the whole trace. On a
    /// recorder-only fleet the trace starts no earlier than the oldest
    /// epoch every ring still holds in full, one to two recorder windows
    /// back (see [`FleetConfig::recorder`]). Each ring is binary-searched
    /// for the range, so the cost is O(records copied). Export path — may
    /// allocate.
    pub fn extend_trace_into(&self, epochs: Range<u64>, out: &mut Vec<FleetEventRecord>) {
        let epochs = self.held_epochs(epochs);
        let mut records = Vec::new();
        for (k, chip) in self.chips.iter().enumerate() {
            records.clear();
            chip.extend_trace_into(epochs.clone(), &mut records);
            out.extend(records.iter().map(|&record| FleetEventRecord {
                chip: k as u32,
                record,
            }));
        }
        if let Some(fo) = &self.obs {
            records.clear();
            fo.ring.extend_into(epochs, &mut records);
            out.extend(
                records
                    .iter()
                    .map(|&record| FleetEventRecord { chip: RACK, record }),
            );
        }
    }

    /// Every chip's structured-event records in the canonical fleet merge
    /// order `(epoch, chip, rank, core)` — bit-identical at every shard
    /// count. Post-run export path — allocates.
    pub fn merged_trace(&self) -> Vec<FleetEventRecord> {
        let mut records = Vec::new();
        self.extend_trace_into(0..u64::MAX, &mut records);
        merge_fleet_records(&mut records);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunBuilder, Scenario};
    use odrl_faults::{CoreFault, FaultKind, FaultPlan, Target};

    fn scenario() -> Scenario {
        let mut scenario = Scenario::default_eval();
        scenario.cores = 8;
        scenario
    }

    /// Whether the system traces, the controller traces, and the
    /// controller records learning-health diagnostics.
    fn wiring(system: &System, controller: &dyn PowerController) -> (bool, bool, bool) {
        (
            system.tracer().is_some(),
            controller.metrics_snapshot().is_some(),
            controller.learn_diag().is_some(),
        )
    }

    #[test]
    fn chip_build_and_one_chip_fleet_wire_tracing_alike() {
        let builds = [
            ("plain", RunBuilder::new(scenario()), (false, false, false)),
            (
                "obs",
                RunBuilder::new(scenario()).obs(true),
                (true, true, false),
            ),
            (
                "recorder",
                RunBuilder::new(scenario()).recorder(RecorderConfig::default()),
                (true, true, true),
            ),
        ];
        for (name, builder, expected) in builds {
            let chip = builder.clone().build_chip().unwrap();
            let fleet = builder.build_fleet(1).unwrap();
            let chip0 = &fleet.chips[0];
            assert_eq!(
                wiring(&chip.system, chip.controller.as_ref()),
                expected,
                "{name}: chip"
            );
            assert_eq!(
                wiring(&chip0.system, chip0.controller.as_ref()),
                expected,
                "{name}: fleet chip 0"
            );
            assert_eq!(
                fleet.fleet_metrics().is_some(),
                expected.2,
                "{name}: rack metrics"
            );
        }
    }

    #[test]
    fn recorder_without_obs_builds_with_rack_metrics() {
        let mut config = FleetConfig::new(2, scenario());
        config.recorder = Some(RecorderConfig::default());
        assert!(!config.obs);
        let mut fleet = Fleet::new(config).unwrap();
        fleet.run(5).unwrap();
        assert!(fleet.fleet_metrics().is_some());
        assert!(fleet.fleet_snapshot().is_some());
        assert!(fleet.flight_recorder().is_some());
        assert!(!fleet.merged_trace().is_empty(), "the recorder implies obs");
    }

    const SHARDINGS: [Parallelism; 5] = [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ];

    #[test]
    fn chip_builds_report_the_lowest_failing_index_at_every_shard_count() {
        // Nine chips, of which chips 3 and 7 fail: chip 3's error wins
        // whichever shard reaches which chip first.
        let build = |k: usize, input: u32| match k {
            3 | 7 => Err(format!("chip {k} failed")),
            _ => Ok(input * 10),
        };
        for par in SHARDINGS {
            let inputs: Vec<u32> = (0..9).collect();
            assert_eq!(
                build_in_order(par, inputs, build),
                Err("chip 3 failed".to_string()),
                "{par:?}"
            );
            let inputs: Vec<u32> = (0..9).collect();
            let built = build_in_order::<_, _, ()>(par, inputs, |k, input| Ok((k, input)));
            let want: Vec<(usize, u32)> = (0..9).zip(0..9).collect();
            assert_eq!(built, Ok(want), "{par:?}");
        }
    }

    #[test]
    fn an_invalid_chip_config_fails_alike_at_every_shard_count() {
        // Core 99 does not exist on an 8-core chip, so every chip's fault
        // attach fails; the fleet reports that error, not a panic or a
        // partial fleet, at every shard count.
        let plan =
            FaultPlan::new().with_event(FaultKind::Core(CoreFault::Unplug), Target::Core(99), 0, 1);
        let errors: Vec<String> = SHARDINGS
            .iter()
            .map(|&par| {
                let err = RunBuilder::new(scenario())
                    .faults(plan.clone())
                    .fleet_parallelism(par)
                    .build_fleet(5)
                    .unwrap_err();
                assert!(matches!(err, FleetError::System(_)), "{par:?}: {err}");
                err.to_string()
            })
            .collect();
        assert!(errors[0].contains("core 99"), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }
}
