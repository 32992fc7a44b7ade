//! Compiling a [`FaultPlan`] into a runnable schedule and driving it.
//!
//! [`FaultEngine::compile`] validates the plan against a concrete core
//! count and resolves it into the sources of its windows (see the
//! [crate docs](crate)), shared by every clone of the engine and every
//! [`BudgetChannel`](crate::BudgetChannel) built from it. At run time,
//! [`FaultEngine::begin_epoch`] moves the [`FaultState`]'s cursor (the
//! crate's `timeline` module) to the epoch and, only when the active set
//! changed, repaints the flat per-core flag arrays [`FaultEngine::state`]
//! allocated once; the simulator's injection points read those flags.

use crate::error::FaultError;
use crate::expand::Onsets;
use crate::plan::{
    ActuatorFault, BudgetFault, CoreFault, FaultKind, FaultPlan, SensorFault, Target,
};
use crate::timeline::Timeline;
use odrl_power::{LevelId, Watts};
use std::sync::Arc;

/// The widest actuator/budget delay a plan may request, in epochs. Bounds
/// the command-history ring buffer.
pub const MAX_DELAY_EPOCHS: u64 = 4096;

/// One source of fault windows over a contiguous core range (or the chip
/// sensor): an explicit event, or one core's share of a seeded burst. Its
/// windows differ only in their start.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Source {
    pub kind: FaultKind,
    /// First affected core (ignored when `chip`).
    pub lo: usize,
    /// One past the last affected core (ignored when `chip`).
    pub hi: usize,
    /// Whether this source hits the chip-level sensor instead of cores.
    pub chip: bool,
    /// How many epochs each window lasts.
    pub duration: u64,
    /// The window starts, from the first; every reader clones it.
    pub onsets: Onsets,
}

impl Source {
    /// One past the last epoch of the window that starts at `start`
    /// (saturating at `u64::MAX`).
    pub fn end(&self, start: u64) -> u64 {
        start.saturating_add(self.duration)
    }

    /// Whether this source drifts per-core sensor readings.
    fn drifts(&self) -> bool {
        !self.chip && matches!(self.kind, FaultKind::Sensor(SensorFault::Drift { .. }))
    }
}

/// A compiled, immutable fault schedule for one run (see the
/// [crate docs](crate) for the overall flow). Cloning shares the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEngine {
    pub(crate) schedule: Arc<Schedule>,
}

/// What [`FaultEngine`] and its [`BudgetChannel`](crate::BudgetChannel)s
/// share: the resolved sources.
#[derive(Debug, PartialEq)]
pub(crate) struct Schedule {
    pub cores: usize,
    /// The sources in override order — explicit events in plan order,
    /// then bursts by `(burst, core)`: later sources win on overlap.
    pub sources: Vec<Source>,
    /// Widest actuator delay in the schedule (sizes the command ring).
    pub max_delay: u64,
}

impl Schedule {
    /// Every window as `(source, start)`, in override order, by replaying
    /// every source from its first onset: O(windows) draws.
    pub fn windows(&self) -> impl Iterator<Item = (&Source, u64)> {
        self.sources
            .iter()
            .flat_map(|s| s.onsets.clone().map(move |start| (s, start)))
    }
}

impl FaultEngine {
    /// Validates `plan` against `cores` and resolves it into sources,
    /// with each burst's streams seeded from `seed`.
    ///
    /// Compiles as fleet chip 0: plan entries scoped to any other chip
    /// (see [`ChipScope`](crate::plan::ChipScope)) are validated but not scheduled. Fleet runs use
    /// [`FaultEngine::compile_for_chip`] with each chip's index.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidPlan`] for out-of-range targets,
    /// non-finite parameters, chip-targeted non-sensor faults, or delays
    /// beyond [`MAX_DELAY_EPOCHS`].
    pub fn compile(plan: &FaultPlan, cores: usize, seed: u64) -> Result<Self, FaultError> {
        Self::compile_for_chip(plan, 0, cores, seed)
    }

    /// Like [`FaultEngine::compile`], but schedules only the plan entries
    /// whose [`ChipScope`](crate::plan::ChipScope) includes fleet chip `chip`.
    ///
    /// Every entry is still validated (a plan that is invalid for any chip
    /// is invalid for all of them), and burst RNG streams are keyed by the
    /// burst's position in the *unfiltered* plan, so an unscoped plan
    /// compiles to the same schedule on every chip index and scoping one
    /// burst never reshuffles another's stream. Costs O(events + cores ×
    /// bursts): no window is drawn here.
    pub fn compile_for_chip(
        plan: &FaultPlan,
        chip: u32,
        cores: usize,
        seed: u64,
    ) -> Result<Self, FaultError> {
        if cores == 0 {
            return Err(FaultError::InvalidPlan {
                field: "cores",
                reason: "cannot compile a plan for zero cores".into(),
            });
        }
        let bursts = plan.bursts.iter().filter(|b| b.chip.includes(chip));
        let mut sources = Vec::with_capacity(plan.events.len() + bursts.count() * cores);
        for ev in &plan.events {
            validate_kind(&ev.kind)?;
            let (lo, hi, chip_sensor) = resolve_target(ev.target, cores)?;
            if chip_sensor && !matches!(ev.kind, FaultKind::Sensor(_)) {
                return Err(FaultError::InvalidPlan {
                    field: "target",
                    reason: "only sensor faults can target the chip sensor".into(),
                });
            }
            if !ev.chip.includes(chip) {
                continue;
            }
            sources.push(Source {
                kind: ev.kind,
                lo,
                hi,
                chip: chip_sensor,
                duration: ev.duration,
                onsets: Onsets::once(ev.start),
            });
        }
        for (bi, burst) in plan.bursts.iter().enumerate() {
            validate_kind(&burst.kind)?;
            if !(burst.rate_per_kepoch.is_finite() && burst.rate_per_kepoch >= 0.0) {
                return Err(FaultError::InvalidPlan {
                    field: "rate_per_kepoch",
                    reason: format!(
                        "must be finite and non-negative, got {}",
                        burst.rate_per_kepoch
                    ),
                });
            }
            if burst.end < burst.start {
                return Err(FaultError::InvalidPlan {
                    field: "burst window",
                    reason: format!("end {} before start {}", burst.end, burst.start),
                });
            }
            let p = (burst.rate_per_kepoch / 1000.0).min(1.0);
            if p <= 0.0 || burst.duration == 0 || !burst.chip.includes(chip) {
                continue;
            }
            // Each (burst, core) pair draws from its own stream, so a
            // source's windows never depend on who else reads the schedule.
            let stream = seed ^ (bi as u64);
            sources.extend((0..cores).map(|core| Source {
                kind: burst.kind,
                lo: core,
                hi: core + 1,
                chip: false,
                duration: burst.duration,
                onsets: Onsets::burst(stream, core, burst.start..burst.end, p),
            }));
        }
        let max_delay = sources
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::Actuator(ActuatorFault::Delayed { epochs }) => Some(epochs),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Ok(Self {
            schedule: Arc::new(Schedule {
                cores,
                sources,
                max_delay,
            }),
        })
    }

    /// Number of cores the schedule was compiled for.
    pub fn num_cores(&self) -> usize {
        self.schedule.cores
    }

    /// Number of fault windows (after burst expansion). A diagnostic: it
    /// replays every source to its end, O(windows) draws, so no per-epoch
    /// path calls it; on a burst that runs to `u64::MAX` it does not
    /// finish in any useful time.
    pub fn num_events(&self) -> usize {
        self.schedule.windows().count()
    }

    /// Whether the schedule injects nothing at all: no source opens a
    /// window. Draws each source's first onset, O(sources).
    pub fn is_empty(&self) -> bool {
        self.schedule
            .sources
            .iter()
            .all(|s| s.onsets.clone().next().is_none())
    }

    /// Number of fault windows active at `epoch`. A diagnostic: it replays
    /// every source up to `epoch`, O(windows started by `epoch`) draws,
    /// so no per-epoch path calls it.
    pub fn active_at(&self, epoch: u64) -> usize {
        self.schedule
            .sources
            .iter()
            .map(|s| {
                s.onsets
                    .clone()
                    .take_while(|&start| start <= epoch)
                    .filter(|&start| s.end(start) > epoch)
                    .count()
            })
            .sum()
    }

    /// Allocates the per-run scratch all injection points read. Call once;
    /// every later epoch reuses it without touching the heap.
    pub fn state(&self) -> FaultState {
        let n = self.schedule.cores;
        let ring_len = self.schedule.max_delay + 1;
        FaultState {
            epoch: 0,
            timeline: Timeline::new(&self.schedule.sources, false),
            flags: Flags {
                sensor: vec![None; n],
                chip_sensor: None,
                actuator: vec![None; n],
                budget: vec![None; n],
                alive: vec![true; n],
                throttle: vec![None; n],
            },
            drift: vec![1.0; n],
            chip_drift: 1.0,
            ring: vec![LevelId(0); ring_len as usize * n],
            ring_len,
            applied: vec![LevelId(0); n],
            effective: vec![LevelId(0); n],
            any_dead: false,
            // Room for the spans before and after one repaint.
            drift_spans: Vec::with_capacity(
                2 * self.schedule.sources.iter().filter(|s| s.drifts()).count(),
            ),
            sensors_faulted: false,
        }
    }

    /// Refreshes `state`'s per-core fault flags for `epoch`.
    ///
    /// The flags are a pure function of the epoch, whatever epochs came
    /// before: a forward call pops only the window onsets it crosses (any
    /// jump is exact), and a call with an earlier epoch than the last one
    /// restarts the sources and replays them. The flag arrays are
    /// repainted only when the active set changes. Two things do depend on
    /// the call sequence, as they model state that builds up over time: a
    /// drift accumulator compounds once per call while its core's drift
    /// window stays active, and the actuator command history assumes one
    /// [`FaultState::apply_actions`] per epoch. Performs no heap
    /// allocation.
    pub fn begin_epoch(&self, epoch: u64, state: &mut FaultState) {
        let s = &*self.schedule;
        debug_assert_eq!(state.flags.alive.len(), s.cores);
        state.epoch = epoch;
        if state.timeline.seek(&s.sources, epoch) {
            for &src in state.timeline.left() {
                state.flags.paint(&s.sources[src], false);
            }
            let (mut any_dead, mut core_sensor) = (false, false);
            let spans = &mut state.drift_spans;
            let stale = spans.len();
            // Index order: later plan entries override earlier ones.
            for src in state.timeline.active() {
                let source = &s.sources[src];
                core_sensor |= !source.chip && matches!(source.kind, FaultKind::Sensor(_));
                if source.drifts() {
                    spans.push((source.lo, source.hi));
                }
                any_dead |= matches!(source.kind, FaultKind::Core(CoreFault::Unplug));
                state.flags.paint(source, true);
            }
            // Cores that drifted until now and no longer do start over.
            for &(lo, hi) in &spans[..stale] {
                for (d, f) in state.drift[lo..hi]
                    .iter_mut()
                    .zip(&state.flags.sensor[lo..hi])
                {
                    if !matches!(f, Some(SensorFault::Drift { .. })) {
                        *d = 1.0;
                    }
                }
            }
            // Merged, so that no accumulator compounds twice an epoch.
            spans.drain(..stale);
            spans.sort_unstable();
            spans.dedup_by(|next, kept| {
                let overlaps = next.0 <= kept.1;
                if overlaps {
                    kept.1 = kept.1.max(next.1);
                }
                overlaps
            });
            state.any_dead = any_dead;
            state.sensors_faulted = core_sensor || any_dead;
        }
        // Drift accumulates only across consecutive active epochs and
        // resets when the window ends; every core outside the spans of
        // the active drift sources holds 1.0.
        for &(lo, hi) in &state.drift_spans {
            for (d, f) in state.drift[lo..hi]
                .iter_mut()
                .zip(&state.flags.sensor[lo..hi])
            {
                match f {
                    Some(SensorFault::Drift { rate }) => *d *= 1.0 + rate,
                    _ => *d = 1.0,
                }
            }
        }
        match state.flags.chip_sensor {
            Some(SensorFault::Drift { rate }) => state.chip_drift *= 1.0 + rate,
            _ => state.chip_drift = 1.0,
        }
    }
}

fn validate_kind(kind: &FaultKind) -> Result<(), FaultError> {
    match kind {
        FaultKind::Sensor(SensorFault::Spike { gain }) if !(gain.is_finite() && *gain >= 0.0) => {
            Err(FaultError::InvalidPlan {
                field: "gain",
                reason: format!("must be finite and non-negative, got {gain}"),
            })
        }
        FaultKind::Sensor(SensorFault::Drift { rate }) if !(rate.is_finite() && *rate > -1.0) => {
            Err(FaultError::InvalidPlan {
                field: "rate",
                reason: format!("must be finite and above -1, got {rate}"),
            })
        }
        FaultKind::Actuator(ActuatorFault::Delayed { epochs })
        | FaultKind::Budget(BudgetFault::Delayed { epochs })
            if *epochs == 0 || *epochs > MAX_DELAY_EPOCHS =>
        {
            Err(FaultError::InvalidPlan {
                field: "epochs",
                reason: format!("delay must be in 1..={MAX_DELAY_EPOCHS}, got {epochs}"),
            })
        }
        _ => Ok(()),
    }
}

fn resolve_target(target: Target, cores: usize) -> Result<(usize, usize, bool), FaultError> {
    match target {
        Target::All => Ok((0, cores, false)),
        Target::Chip => Ok((0, 0, true)),
        Target::Core(i) => {
            if i >= cores {
                return Err(FaultError::InvalidPlan {
                    field: "target",
                    reason: format!("core {i} out of range for {cores} cores"),
                });
            }
            Ok((i, i + 1, false))
        }
        Target::Range { lo, hi } => {
            if lo >= hi || hi > cores {
                return Err(FaultError::InvalidPlan {
                    field: "target",
                    reason: format!("range {lo}..{hi} invalid for {cores} cores"),
                });
            }
            Ok((lo, hi, false))
        }
    }
}

/// Per-run fault scratch: the flag arrays every injection point reads,
/// plus the actuator command history. Allocated once by
/// [`FaultEngine::state`]; refreshed in place by
/// [`FaultEngine::begin_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    epoch: u64,
    /// The cursor over the schedule's sources.
    timeline: Timeline,
    flags: Flags,
    /// Multiplicative drift accumulator per core (1.0 when inactive).
    drift: Vec<f64>,
    chip_drift: f64,
    /// Commanded-level history, `ring_len` epochs × `n` cores, for delayed
    /// actuator delivery.
    ring: Vec<LevelId>,
    ring_len: u64,
    /// The level most recently applied to each core.
    applied: Vec<LevelId>,
    /// The levels actually applied this epoch (after actuator/core faults).
    effective: Vec<LevelId>,
    /// Whether an unplug window is active.
    any_dead: bool,
    /// Core ranges of the active per-core drift sources, sorted and
    /// merged: the only cores whose drift accumulator can differ from 1.0.
    drift_spans: Vec<(usize, usize)>,
    /// Whether a per-core sensor window is active or a core is unplugged.
    sensors_faulted: bool,
}

/// The fault flags of one epoch, painted from the active sources.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    sensor: Vec<Option<SensorFault>>,
    chip_sensor: Option<SensorFault>,
    actuator: Vec<Option<ActuatorFault>>,
    budget: Vec<Option<BudgetFault>>,
    alive: Vec<bool>,
    throttle: Vec<Option<usize>>,
}

impl Flags {
    /// Writes `source`'s fault over its cores (or the chip sensor), or
    /// clears it back to healthy when `on` is false.
    fn paint(&mut self, source: &Source, on: bool) {
        let cores = source.lo..source.hi;
        match source.kind {
            FaultKind::Sensor(f) if source.chip => self.chip_sensor = on.then_some(f),
            FaultKind::Sensor(f) => self.sensor[cores].fill(on.then_some(f)),
            FaultKind::Actuator(f) => self.actuator[cores].fill(on.then_some(f)),
            FaultKind::Budget(f) => self.budget[cores].fill(on.then_some(f)),
            FaultKind::Core(CoreFault::Unplug) => self.alive[cores].fill(!on),
            FaultKind::Core(CoreFault::Throttle { max_level }) => {
                self.throttle[cores].fill(on.then_some(max_level));
            }
        }
    }
}

impl FaultState {
    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.flags.alive.len()
    }

    /// Resolves the commanded levels through the active actuator and core
    /// faults, recording them in the command history. The result is
    /// readable via [`FaultState::effective`]. Call exactly once per
    /// epoch, after [`FaultEngine::begin_epoch`]. Allocation-free.
    pub fn apply_actions(&mut self, commanded: &[LevelId]) {
        let n = self.flags.alive.len();
        assert_eq!(commanded.len(), n, "one commanded level per core");
        let slot = (self.epoch % self.ring_len) as usize * n;
        self.ring[slot..slot + n].copy_from_slice(commanded);
        for (i, &cmd) in commanded.iter().enumerate() {
            let mut level = match self.flags.actuator[i] {
                None => cmd,
                Some(ActuatorFault::Dropped) => self.applied[i],
                Some(ActuatorFault::Delayed { epochs }) => {
                    if self.epoch >= epochs {
                        let past = ((self.epoch - epochs) % self.ring_len) as usize * n;
                        self.ring[past + i]
                    } else {
                        self.applied[i]
                    }
                }
                Some(ActuatorFault::Clamped { max_level }) => LevelId(cmd.index().min(max_level)),
            };
            if let Some(cap) = self.flags.throttle[i] {
                level = LevelId(level.index().min(cap));
            }
            if !self.flags.alive[i] {
                // An unplugged core is power-gated at the floor level.
                level = LevelId(0);
            }
            self.effective[i] = level;
            self.applied[i] = level;
        }
    }

    /// The levels actually applied this epoch (valid after
    /// [`FaultState::apply_actions`]).
    pub fn effective(&self) -> &[LevelId] {
        &self.effective
    }

    /// Per-core liveness mask (false = hot-unplugged this epoch).
    pub fn alive(&self) -> &[bool] {
        &self.flags.alive
    }

    /// Whether core `i` is plugged in this epoch.
    pub fn core_alive(&self, i: usize) -> bool {
        self.flags.alive[i]
    }

    /// Whether any core is unplugged this epoch (cheap guard for the
    /// masking passes).
    pub fn any_dead(&self) -> bool {
        self.any_dead
    }

    /// The sensor fault active on core `i` this epoch, if any.
    pub fn sensor_fault(&self, i: usize) -> Option<SensorFault> {
        self.flags.sensor[i]
    }

    /// The actuator fault active on core `i` this epoch, if any.
    pub fn actuator_fault(&self, i: usize) -> Option<ActuatorFault> {
        self.flags.actuator[i]
    }

    /// The budget-channel fault active on core `i` this epoch, if any.
    pub fn budget_fault(&self, i: usize) -> Option<BudgetFault> {
        self.flags.budget[i]
    }

    /// Bitmask of the fault classes active on core `i` this epoch, in the
    /// order of `odrl-obs`'s `FaultClass::ALL`: bit 0 sensor, bit 1
    /// actuator, bit 2 budget channel, bit 3 unplugged, bit 4 throttled.
    /// Diffing this mask epoch-to-epoch yields fault inject/clear edges.
    pub fn class_mask(&self, i: usize) -> u8 {
        let mut m = 0u8;
        if self.flags.sensor[i].is_some() {
            m |= 1;
        }
        if self.flags.actuator[i].is_some() {
            m |= 1 << 1;
        }
        if self.flags.budget[i].is_some() {
            m |= 1 << 2;
        }
        if !self.flags.alive[i] {
            m |= 1 << 3;
        }
        if self.flags.throttle[i].is_some() {
            m |= 1 << 4;
        }
        m
    }

    /// Bitmask of chip-wide fault classes this epoch: bit 5 chip sensor
    /// (matching `class_mask`'s numbering).
    pub fn chip_class_mask(&self) -> u8 {
        if self.flags.chip_sensor.is_some() {
            1 << 5
        } else {
            0
        }
    }

    /// Whether this epoch's per-core sensor readings need
    /// [`FaultState::sensor_view`]: a per-core sensor window is active or
    /// a core is unplugged. While it is false, [`SensorView::apply`]
    /// returns every fresh reading as it is.
    pub fn sensors_faulted(&self) -> bool {
        self.sensors_faulted
    }

    /// A read-only view for the (possibly sharded) sensor pass.
    pub fn sensor_view(&self) -> SensorView<'_> {
        SensorView {
            sensor: &self.flags.sensor,
            drift: &self.drift,
            alive: &self.flags.alive,
        }
    }

    /// Applies the chip-sensor fault (if any) to the fresh chip reading,
    /// given the previous epoch's chip reading.
    pub fn chip_sensor_value(&self, fresh: Watts, last: Watts) -> Watts {
        match self.flags.chip_sensor {
            None => fresh,
            Some(SensorFault::StuckLast) => last,
            Some(SensorFault::StuckZero) => Watts::ZERO,
            Some(SensorFault::Spike { gain }) => Watts::new(fresh.value() * gain),
            Some(SensorFault::Drift { .. }) => Watts::new(fresh.value() * self.chip_drift),
        }
    }
}

/// Read-only per-core sensor-fault view, shareable across sensor-pass
/// shards (all fields are plain slices).
#[derive(Debug, Clone, Copy)]
pub struct SensorView<'a> {
    sensor: &'a [Option<SensorFault>],
    drift: &'a [f64],
    alive: &'a [bool],
}

impl SensorView<'_> {
    /// Resolves core `i`'s reading: `fresh` is what the healthy sensor
    /// would report this epoch, `last` is the previous epoch's reading.
    /// An unplugged core's telemetry is dark (zero watts).
    pub fn apply(&self, i: usize, fresh: Watts, last: Watts) -> Watts {
        if !self.alive[i] {
            return Watts::ZERO;
        }
        match self.sensor[i] {
            None => fresh,
            Some(SensorFault::StuckLast) => last,
            Some(SensorFault::StuckZero) => Watts::ZERO,
            Some(SensorFault::Spike { gain }) => Watts::new(fresh.value() * gain),
            Some(SensorFault::Drift { .. }) => Watts::new(fresh.value() * self.drift[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChipScope, FaultEvent, RandomBurst};

    fn plan_one(kind: FaultKind, target: Target, start: u64, duration: u64) -> FaultPlan {
        FaultPlan::new().with_event(kind, target, start, duration)
    }

    #[test]
    fn empty_plan_compiles_to_inert_engine() {
        let engine = FaultEngine::compile(&FaultPlan::new(), 8, 1).unwrap();
        assert!(engine.is_empty());
        let mut st = engine.state();
        engine.begin_epoch(0, &mut st);
        st.apply_actions(&[LevelId(5); 8]);
        assert_eq!(st.effective(), &[LevelId(5); 8]);
        assert!(st.alive().iter().all(|&a| a));
        let v = st.sensor_view();
        assert_eq!(v.apply(3, Watts::new(2.5), Watts::new(9.0)).value(), 2.5);
    }

    #[test]
    fn windows_activate_and_deactivate() {
        let plan = plan_one(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Range { lo: 1, hi: 3 },
            10,
            5,
        );
        let engine = FaultEngine::compile(&plan, 4, 1).unwrap();
        let mut st = engine.state();
        for (epoch, active) in [(9, false), (10, true), (14, true), (15, false)] {
            engine.begin_epoch(epoch, &mut st);
            assert_eq!(st.sensor_fault(1).is_some(), active, "epoch {epoch}");
            assert_eq!(st.sensor_fault(0), None);
            assert_eq!(st.sensor_fault(3), None);
        }
        assert_eq!(engine.active_at(12), 1);
        assert_eq!(engine.active_at(20), 0);
    }

    #[test]
    fn dropped_and_clamped_actuators() {
        let plan = FaultPlan::new()
            .with_event(
                FaultKind::Actuator(ActuatorFault::Dropped),
                Target::Core(0),
                2,
                3,
            )
            .with_event(
                FaultKind::Actuator(ActuatorFault::Clamped { max_level: 2 }),
                Target::Core(1),
                0,
                100,
            );
        let engine = FaultEngine::compile(&plan, 2, 1).unwrap();
        let mut st = engine.state();
        engine.begin_epoch(0, &mut st);
        st.apply_actions(&[LevelId(4), LevelId(7)]);
        assert_eq!(st.effective(), &[LevelId(4), LevelId(2)]);
        engine.begin_epoch(1, &mut st);
        st.apply_actions(&[LevelId(5), LevelId(1)]);
        assert_eq!(st.effective(), &[LevelId(5), LevelId(1)]);
        // Drop window: core 0 holds its last applied level.
        for epoch in 2..5 {
            engine.begin_epoch(epoch, &mut st);
            st.apply_actions(&[LevelId(7), LevelId(7)]);
            assert_eq!(st.effective()[0], LevelId(5), "epoch {epoch}");
        }
        engine.begin_epoch(5, &mut st);
        st.apply_actions(&[LevelId(7), LevelId(7)]);
        assert_eq!(st.effective()[0], LevelId(7));
    }

    #[test]
    fn delayed_actuator_replays_old_commands() {
        let plan = plan_one(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
            Target::Core(0),
            3,
            4,
        );
        let engine = FaultEngine::compile(&plan, 1, 1).unwrap();
        let mut st = engine.state();
        let commands = [3usize, 4, 5, 6, 7, 2, 1, 0];
        let mut applied = Vec::new();
        for (epoch, &c) in commands.iter().enumerate() {
            engine.begin_epoch(epoch as u64, &mut st);
            st.apply_actions(&[LevelId(c)]);
            applied.push(st.effective()[0].index());
        }
        // Epochs 3..7 apply the command from two epochs earlier.
        assert_eq!(applied, vec![3, 4, 5, 4, 5, 6, 7, 0]);
    }

    #[test]
    fn unplug_masks_and_rejoins() {
        let plan = plan_one(FaultKind::Core(CoreFault::Unplug), Target::Core(1), 5, 10);
        let engine = FaultEngine::compile(&plan, 3, 1).unwrap();
        let mut st = engine.state();
        engine.begin_epoch(7, &mut st);
        assert!(!st.core_alive(1));
        assert!(st.any_dead());
        st.apply_actions(&[LevelId(6); 3]);
        assert_eq!(st.effective(), &[LevelId(6), LevelId(0), LevelId(6)]);
        // Dark telemetry while unplugged.
        let v = st.sensor_view();
        assert_eq!(v.apply(1, Watts::new(3.0), Watts::new(2.0)), Watts::ZERO);
        engine.begin_epoch(15, &mut st);
        assert!(st.core_alive(1));
        assert!(!st.any_dead());
    }

    #[test]
    fn throttle_caps_below_command() {
        let plan = plan_one(
            FaultKind::Core(CoreFault::Throttle { max_level: 1 }),
            Target::All,
            0,
            10,
        );
        let engine = FaultEngine::compile(&plan, 2, 1).unwrap();
        let mut st = engine.state();
        engine.begin_epoch(0, &mut st);
        st.apply_actions(&[LevelId(7), LevelId(0)]);
        assert_eq!(st.effective(), &[LevelId(1), LevelId(0)]);
    }

    #[test]
    fn sensor_modes_transform_readings() {
        let plan = FaultPlan::new()
            .with_event(
                FaultKind::Sensor(SensorFault::StuckLast),
                Target::Core(0),
                0,
                10,
            )
            .with_event(
                FaultKind::Sensor(SensorFault::Spike { gain: 2.0 }),
                Target::Core(1),
                0,
                10,
            )
            .with_event(
                FaultKind::Sensor(SensorFault::Drift { rate: 0.5 }),
                Target::Core(2),
                0,
                2,
            );
        let engine = FaultEngine::compile(&plan, 3, 1).unwrap();
        let mut st = engine.state();
        engine.begin_epoch(0, &mut st);
        let v = st.sensor_view();
        assert_eq!(v.apply(0, Watts::new(4.0), Watts::new(1.5)).value(), 1.5);
        assert_eq!(v.apply(1, Watts::new(4.0), Watts::new(1.5)).value(), 8.0);
        assert_eq!(v.apply(2, Watts::new(4.0), Watts::new(1.5)).value(), 6.0);
        // Drift compounds on the second active epoch, then resets.
        engine.begin_epoch(1, &mut st);
        let v = st.sensor_view();
        assert_eq!(v.apply(2, Watts::new(4.0), Watts::new(1.5)).value(), 9.0);
        engine.begin_epoch(2, &mut st);
        let v = st.sensor_view();
        assert_eq!(v.apply(2, Watts::new(4.0), Watts::new(1.5)).value(), 4.0);
    }

    #[test]
    fn sensors_faulted_tracks_core_sensor_and_unplug_windows_only() {
        let plan = FaultPlan::new()
            .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 0, 40)
            .with_event(
                FaultKind::Sensor(SensorFault::StuckZero),
                Target::Chip,
                0,
                40,
            )
            .with_event(
                FaultKind::Sensor(SensorFault::Spike { gain: 2.0 }),
                Target::Core(1),
                10,
                10,
            )
            .with_event(FaultKind::Core(CoreFault::Unplug), Target::Core(2), 25, 5);
        let engine = FaultEngine::compile(&plan, 4, 1).unwrap();
        let mut st = engine.state();
        for (epoch, faulted) in [(0, false), (10, true), (19, true), (20, false), (25, true)]
            .into_iter()
            .chain([(30, false), (12, true), (2, false)])
        {
            engine.begin_epoch(epoch, &mut st);
            assert_eq!(st.sensors_faulted(), faulted, "epoch {epoch}");
            if !faulted {
                // The view the clear flag lets the sensor pass skip would
                // return every fresh reading as it is.
                let v = st.sensor_view();
                for i in 0..4 {
                    assert_eq!(v.apply(i, Watts::new(3.0), Watts::new(1.0)).value(), 3.0);
                }
            }
        }
    }

    #[test]
    fn chip_sensor_faults_apply() {
        let plan = plan_one(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Chip,
            0,
            5,
        );
        let engine = FaultEngine::compile(&plan, 2, 1).unwrap();
        let mut st = engine.state();
        engine.begin_epoch(0, &mut st);
        assert_eq!(
            st.chip_sensor_value(Watts::new(30.0), Watts::new(28.0)),
            Watts::ZERO
        );
        engine.begin_epoch(5, &mut st);
        assert_eq!(
            st.chip_sensor_value(Watts::new(30.0), Watts::new(28.0))
                .value(),
            30.0
        );
    }

    #[test]
    fn burst_expansion_is_seed_deterministic() {
        let plan = FaultPlan::new().with_burst(RandomBurst {
            kind: FaultKind::Sensor(SensorFault::StuckLast),
            start: 0,
            end: 1000,
            rate_per_kepoch: 20.0,
            duration: 5,
            chip: ChipScope::All,
        });
        let a = FaultEngine::compile(&plan, 16, 7).unwrap();
        let b = FaultEngine::compile(&plan, 16, 7).unwrap();
        let c = FaultEngine::compile(&plan, 16, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different schedules");
        // ~20 events per core per kilo-epoch, 16 cores: expect ~320.
        assert!(
            (150..600).contains(&a.num_events()),
            "got {} events",
            a.num_events()
        );
    }

    /// Folds bytes into an FNV-1a hash.
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a over every window of the schedule, replayed in override
    /// order.
    fn window_digest(engine: &FaultEngine) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (s, start) in engine.schedule.windows() {
            fnv(&mut h, format!("{:?}", s.kind).as_bytes());
            fnv(&mut h, &(s.lo as u64).to_le_bytes());
            fnv(&mut h, &(s.hi as u64).to_le_bytes());
            fnv(&mut h, &[u8::from(s.chip)]);
            fnv(&mut h, &start.to_le_bytes());
            fnv(&mut h, &s.end(start).to_le_bytes());
        }
        h
    }

    /// FNV-1a over every link's fault, epoch by epoch, as a fresh budget
    /// channel walks `epochs`.
    fn channel_digest(engine: &FaultEngine, epochs: std::ops::Range<u64>) -> u64 {
        let mut channel = engine.budget_channel();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for epoch in epochs {
            channel.begin_epoch(epoch);
            for i in 0..channel.num_cores() {
                let code: u64 = match channel.fault(i) {
                    None => 0,
                    Some(BudgetFault::Lost) => 1,
                    Some(BudgetFault::Stale) => 2,
                    Some(BudgetFault::Delayed { epochs }) => 3 + epochs,
                };
                fnv(&mut h, &code.to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn benchmark_shaped_plan_compiles_to_its_golden_windows() {
        // The chip fault workload's plan: five bursts of every family over
        // 20,500 epochs on 256 cores. Pinned when burst expansion moved to
        // geometric gaps; any change to the streams, the gap rule or the
        // window order moves the digest. The windows are replayed from the
        // sources, as the cursor draws them.
        let burst = |kind, rate_per_kepoch, duration| RandomBurst {
            kind,
            start: 0,
            end: 20_500,
            rate_per_kepoch,
            duration,
            chip: ChipScope::All,
        };
        let plan = FaultPlan::new()
            .with_burst(burst(FaultKind::Sensor(SensorFault::StuckLast), 1.0, 20))
            .with_burst(burst(
                FaultKind::Sensor(SensorFault::Drift { rate: 0.01 }),
                0.5,
                50,
            ))
            .with_burst(burst(
                FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
                1.0,
                10,
            ))
            .with_burst(burst(FaultKind::Budget(BudgetFault::Lost), 2.0, 10))
            .with_burst(burst(FaultKind::Core(CoreFault::Unplug), 0.1, 100));
        let engine = FaultEngine::compile(&plan, 256, 1 ^ 0xFA17_FA17_FA17_FA17).unwrap();
        assert_eq!(engine.num_events(), 23_892);
        assert_eq!(window_digest(&engine), 0xaf0c_a34c_3234_65fe);
    }

    #[test]
    fn fleet_link_plan_compiles_to_its_golden_schedule() {
        // The fleet workloads' lossy links: budget-lost bursts at 20 per
        // kilo-epoch, 5 epochs each, over 5,500 epochs on 64 cores, as two
        // chips of a fleet compile them: the window count and digest, and
        // the faults a budget channel shows on every link at every epoch
        // up to the last window's end.
        let plan = FaultPlan::new().with_burst(RandomBurst {
            kind: FaultKind::Budget(BudgetFault::Lost),
            start: 0,
            end: 5_500,
            rate_per_kepoch: 20.0,
            duration: 5,
            chip: ChipScope::All,
        });
        let golden = [
            (
                0,
                0x1111,
                6_989,
                0xe6c3_050d_85eb_1615,
                0xa4a9_a0bb_c96e_43e4,
            ),
            (
                9,
                0x2222,
                6_865,
                0x5787_08c7_92ab_8a52,
                0xb1c2_249b_9453_7dc4,
            ),
        ];
        for (chip, seed, events, windows, links) in golden {
            let engine =
                FaultEngine::compile_for_chip(&plan, chip, 64, seed ^ 0xFA17_FA17_FA17_FA17)
                    .unwrap();
            assert_eq!(engine.num_events(), events, "chip {chip}");
            assert_eq!(window_digest(&engine), windows, "chip {chip}");
            assert_eq!(channel_digest(&engine, 0..5_510), links, "chip {chip}");
        }
    }

    #[test]
    fn a_burst_without_end_compiles_to_one_source_per_core() {
        // Billions of windows: a plan whose windows were stored before the
        // first epoch could not compile. The sources hold one stream per
        // core, and both cursors draw only as far as the run goes.
        let plan = FaultPlan::new().with_burst(RandomBurst {
            kind: FaultKind::Budget(BudgetFault::Lost),
            start: 0,
            end: u64::MAX,
            rate_per_kepoch: 500.0,
            duration: 3,
            chip: ChipScope::All,
        });
        let engine = FaultEngine::compile(&plan, 64, 9).unwrap();
        assert_eq!(engine.schedule.sources.len(), 64);
        assert!(!engine.is_empty());
        let mut st = engine.state();
        let mut channel = engine.budget_channel();
        // Each core's stream read directly: its next onset, and the end of
        // its latest window.
        let mut replay: Vec<(Onsets, Option<u64>, u64)> = (0..64)
            .map(|core| {
                let mut onsets = Onsets::burst(9, core, 0..u64::MAX, 0.5);
                let next = onsets.next();
                (onsets, next, 0)
            })
            .collect();
        let mut changes = 0;
        for epoch in 0..10_000 {
            engine.begin_epoch(epoch, &mut st);
            channel.begin_epoch(epoch);
            for (i, (onsets, next, end)) in replay.iter_mut().enumerate() {
                while let Some(start) = next.filter(|&t| t <= epoch) {
                    *end = start + 3;
                    *next = onsets.next();
                }
                let want = (*end > epoch).then_some(BudgetFault::Lost);
                assert_eq!(st.budget_fault(i), want, "core {i} @ {epoch}");
                assert_eq!(channel.fault(i), want, "link {i} @ {epoch}");
                changes += usize::from(*end == epoch);
            }
        }
        assert!(changes > 10_000, "only {changes} windows closed");
    }

    #[test]
    fn compile_rejects_bad_plans() {
        let cases = [
            plan_one(FaultKind::Core(CoreFault::Unplug), Target::Core(8), 0, 1),
            plan_one(
                FaultKind::Core(CoreFault::Unplug),
                Target::Range { lo: 3, hi: 3 },
                0,
                1,
            ),
            plan_one(
                FaultKind::Core(CoreFault::Unplug),
                Target::Range { lo: 0, hi: 9 },
                0,
                1,
            ),
            plan_one(FaultKind::Core(CoreFault::Unplug), Target::Chip, 0, 1),
            plan_one(
                FaultKind::Sensor(SensorFault::Spike { gain: f64::NAN }),
                Target::All,
                0,
                1,
            ),
            plan_one(
                FaultKind::Actuator(ActuatorFault::Delayed { epochs: 0 }),
                Target::All,
                0,
                1,
            ),
            plan_one(
                FaultKind::Budget(BudgetFault::Delayed {
                    epochs: MAX_DELAY_EPOCHS + 1,
                }),
                Target::All,
                0,
                1,
            ),
        ];
        for plan in cases {
            assert!(
                FaultEngine::compile(&plan, 8, 1).is_err(),
                "{:?} should fail",
                plan.events
            );
        }
        // Burst validation.
        let bad = FaultPlan {
            events: Vec::new(),
            bursts: vec![RandomBurst {
                kind: FaultKind::Sensor(SensorFault::StuckZero),
                start: 10,
                end: 5,
                rate_per_kepoch: 1.0,
                duration: 1,
                chip: ChipScope::All,
            }],
        };
        assert!(FaultEngine::compile(&bad, 8, 1).is_err());
    }

    #[test]
    fn begin_epoch_allocates_nothing_observably() {
        // No direct counter here (the bench crate owns the counting
        // allocator); instead pin the invariant structurally: state vectors
        // keep their capacity across many epochs.
        let plan = FaultPlan::new()
            .with_event(
                FaultKind::Sensor(SensorFault::StuckLast),
                Target::All,
                0,
                50,
            )
            .with_event(
                FaultKind::Actuator(ActuatorFault::Delayed { epochs: 3 }),
                Target::All,
                10,
                50,
            );
        let engine = FaultEngine::compile(&plan, 32, 3).unwrap();
        let mut st = engine.state();
        let ring_cap = st.ring.capacity();
        for epoch in 0..100 {
            engine.begin_epoch(epoch, &mut st);
            st.apply_actions(&[LevelId(4); 32]);
        }
        assert_eq!(st.ring.capacity(), ring_cap);
        let ev = FaultEvent {
            kind: FaultKind::Sensor(SensorFault::StuckZero),
            target: Target::All,
            start: 0,
            duration: 1,
            chip: ChipScope::All,
        };
        // Events are plain copyable data.
        let _ = ev;
    }

    #[test]
    fn chip_scoped_events_compile_only_on_their_chip() {
        let plan = FaultPlan::new()
            .with_event(
                FaultKind::Sensor(SensorFault::StuckZero),
                Target::All,
                0,
                10,
            )
            .with_chip_event(
                2,
                FaultKind::Core(CoreFault::Unplug),
                Target::Core(1),
                0,
                10,
            );
        // Chip 0 (and the standalone `compile` path) sees only the
        // unscoped event.
        let chip0 = FaultEngine::compile(&plan, 4, 1).unwrap();
        assert_eq!(chip0.num_events(), 1);
        let chip1 = FaultEngine::compile_for_chip(&plan, 1, 4, 1).unwrap();
        assert_eq!(chip1.num_events(), 1);
        // Chip 2 additionally gets its unplug.
        let chip2 = FaultEngine::compile_for_chip(&plan, 2, 4, 1).unwrap();
        assert_eq!(chip2.num_events(), 2);
        let mut st = chip2.state();
        chip2.begin_epoch(0, &mut st);
        assert!(!st.core_alive(1));
        // An unscoped plan compiles identically on every chip index.
        let unscoped = FaultPlan::new().with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::All,
            0,
            10,
        );
        assert_eq!(
            FaultEngine::compile_for_chip(&unscoped, 0, 4, 1).unwrap(),
            FaultEngine::compile_for_chip(&unscoped, 5, 4, 1).unwrap()
        );
    }

    #[test]
    fn chip_scoped_entries_are_still_validated_everywhere() {
        // A plan that is invalid for chip 3 is invalid on every chip, even
        // ones where the offending entry would be filtered out.
        let plan = FaultPlan::new().with_chip_event(
            3,
            FaultKind::Core(CoreFault::Unplug),
            Target::Core(99),
            0,
            1,
        );
        assert!(FaultEngine::compile_for_chip(&plan, 0, 4, 1).is_err());
    }

    #[test]
    fn scoping_one_burst_never_reshuffles_anothers_stream() {
        let burst = |chip: ChipScope| RandomBurst {
            kind: FaultKind::Sensor(SensorFault::StuckLast),
            start: 0,
            end: 500,
            rate_per_kepoch: 20.0,
            duration: 5,
            chip,
        };
        // Plan A: both bursts everywhere. Plan B: the first burst scoped
        // away from chip 1. On chip 1, the second burst (same plan
        // position) must expand to the identical schedule in both plans.
        let a = FaultPlan {
            events: Vec::new(),
            bursts: vec![burst(ChipScope::All), burst(ChipScope::All)],
        };
        let b = FaultPlan {
            events: Vec::new(),
            bursts: vec![burst(ChipScope::Chip(0)), burst(ChipScope::All)],
        };
        let ea = FaultEngine::compile_for_chip(&a, 1, 8, 7).unwrap();
        let eb = FaultEngine::compile_for_chip(&b, 1, 8, 7).unwrap();
        // Plan A's chip-1 schedule is burst-0's sources followed by
        // burst-1's; plan B's is burst-1's alone. The tail must match.
        let half = ea.schedule.sources.len() - eb.schedule.sources.len();
        assert_eq!(&ea.schedule.sources[half..], &eb.schedule.sources[..]);
        assert!(eb.num_events() > 0);
    }
}
