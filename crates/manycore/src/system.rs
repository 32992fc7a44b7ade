//! The epoch-based many-core system simulator.

use crate::config::{SystemConfig, SystemSpec};
use crate::error::SystemError;
use crate::obs::SysTracer;
use crate::parallel::{shard_chunks, stream_seed};
use crate::profile::{Stage, StageTimers};
use crate::report::{CoreEpoch, CoreObservation, EpochReport, Observation};
use crate::soa::{CoreArrays, EpochScratch};
use crate::telemetry::Telemetry;
use odrl_faults::{FaultEngine, FaultPlan, FaultState};
use odrl_noc::NocModel;
use odrl_power::{Joules, LevelId, PowerBreakdown, PowerCoefficients, Seconds, Watts};
use odrl_thermal::{Floorplan, ThermalGrid};
use odrl_workload::{PhaseParams, WorkloadMix, WorkloadStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A simulated many-core chip with per-core DVFS domains.
///
/// Each call to [`System::step`] advances one control epoch: the supplied
/// per-core VF levels are applied, every core executes its current workload
/// phase under the analytical performance model, power is computed from the
/// V/f point, activity and die temperature, the RC thermal grid integrates
/// the new power map, and an [`EpochReport`] is returned.
///
/// Controllers interact with the system purely through
/// [`System::observation`] (sensor data) and the level vector they pass to
/// `step` — the same interface real power-management firmware has.
///
/// ```
/// use odrl_manycore::{System, SystemConfig};
/// use odrl_power::LevelId;
///
/// let config = SystemConfig::builder().cores(4).seed(3).build()?;
/// let mut system = System::new(config)?;
/// let top = system.spec().vf_table.max_level();
/// let report = system.step(&vec![top; 4])?;
/// assert_eq!(report.cores.len(), 4);
/// assert!(report.total_power.value() > 0.0);
/// # Ok::<(), odrl_manycore::SystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
    spec: SystemSpec,
    streams: Vec<WorkloadStream>,
    grid: ThermalGrid,
    /// Per-core state in struct-of-arrays layout (see [`CoreArrays`]).
    arrays: CoreArrays,
    /// Per-VF-level power coefficient tables (built once from the config's
    /// power model and VF table; the batch power pass gathers from them).
    coeffs: PowerCoefficients,
    /// Reusable per-epoch intermediates; created once, reused every epoch.
    scratch: EpochScratch,
    epoch: u64,
    /// The chip-level power sensor's stream (the whole-chip measurement).
    chip_sensor_rng: StdRng,
    /// The chip sensor's banked Box–Muller half (`NaN` = empty).
    chip_gauss_spare: f64,
    /// The last epoch's report, mutated in place every epoch after the
    /// first so the steady-state kernel never allocates.
    last_report: Option<EpochReport>,
    /// NoC model (its per-core latency output lives in `arrays`).
    noc: Option<NocModel>,
    /// Compiled fault schedule, when a plan is attached (its per-epoch
    /// scratch lives in `scratch.faults`).
    faults: Option<FaultEngine>,
    /// System-side flight recorder, present only when
    /// `SystemConfig::obs.enabled` is set.
    tracer: Option<Box<SysTracer>>,
    telemetry: Telemetry,
}

impl System {
    /// Builds a system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] or substrate errors if the
    /// configuration is inconsistent.
    pub fn new(config: SystemConfig) -> Result<Self, SystemError> {
        Self::with_telemetry(config, Telemetry::new())
    }

    /// Builds a system that records every `every_n`-th epoch into the
    /// telemetry series (aggregates stay exact — see
    /// [`Telemetry::with_series_decimated`]), bounding series memory for
    /// long-horizon runs.
    ///
    /// # Errors
    ///
    /// As [`System::new`].
    pub fn new_recording_decimated(
        config: SystemConfig,
        every_n: u64,
    ) -> Result<Self, SystemError> {
        Self::with_telemetry(config, Telemetry::with_series_decimated(every_n))
    }

    fn with_telemetry(config: SystemConfig, telemetry: Telemetry) -> Result<Self, SystemError> {
        config.validate()?;
        let mix = WorkloadMix::from_suite(config.cores, config.mix.clone(), config.seed)?;
        let streams = mix.streams();
        let floorplan = Floorplan::squarish(config.cores)?;
        let grid = ThermalGrid::new(floorplan, config.thermal)?;
        let spec = config.spec();
        let n = config.cores;
        let sensor_seed = config.seed ^ 0xD1CE_5EED;
        let chip_sensor_rng = StdRng::seed_from_u64(stream_seed(sensor_seed, n as u64));
        let noc = config
            .noc
            .clone()
            .map(NocModel::new)
            .transpose()
            .map_err(|e| SystemError::InvalidConfig {
                field: "noc",
                reason: e.to_string(),
            })?;
        let mem_latency = match &noc {
            Some(model) => model.latencies(&vec![0.0; n]),
            None => vec![config.perf.mem_latency_ns; n],
        };
        let arrays = CoreArrays {
            levels: vec![LevelId(0); n],
            instructions: vec![0.0; n],
            dynamic: vec![Watts::ZERO; n],
            leakage: vec![Watts::ZERO; n],
            temperature: grid.temperatures().to_vec(),
            sensor_rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(stream_seed(sensor_seed, i as u64)))
                .collect(),
            gauss_spare: vec![f64::NAN; n],
            measured: vec![Watts::ZERO; n],
            variation: config.variation.sample(n, config.seed),
            mem_latency,
        };
        let scratch = EpochScratch::new(&config, &streams);
        let coeffs = config.power.coefficients(&config.vf_table);
        let tracer = config
            .obs
            .enabled
            .then(|| Box::new(SysTracer::new(&config.obs, n)));
        Ok(Self {
            config,
            spec,
            streams,
            grid,
            arrays,
            coeffs,
            scratch,
            epoch: 0,
            chip_sensor_rng,
            chip_gauss_spare: f64::NAN,
            last_report: None,
            noc,
            faults: None,
            tracer,
            telemetry,
        })
    }

    /// Compiles and attaches a fault plan: from the next epoch on, the
    /// plan's sensor/actuator/core faults are injected into the epoch
    /// pipeline (budget-channel faults live on the controller side — see
    /// `odrl-faults`). The schedule is seeded from the system seed, so the
    /// same config + plan always reproduces the same faulted run, and an
    /// **empty plan is bit-identical to no plan at all**. Replaces any
    /// previously attached plan.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the plan does not compile
    /// for this core count.
    pub fn attach_faults(&mut self, plan: &FaultPlan) -> Result<(), SystemError> {
        self.attach_faults_for_chip(plan, 0)
    }

    /// Like [`System::attach_faults`], but compiles the plan as fleet chip
    /// `chip`: plan entries scoped (via `odrl_faults::ChipScope`) to a
    /// different chip are validated but not scheduled, so a plan written
    /// for chip 0 can be attached to every chip of a fleet without its
    /// chip-local core indices corrupting the others. A standalone system
    /// is chip 0 ([`System::attach_faults`] delegates here with that
    /// index).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the plan does not compile
    /// for this core count (entries scoped to other chips included — an
    /// invalid plan is rejected on every chip).
    pub fn attach_faults_for_chip(
        &mut self,
        plan: &FaultPlan,
        chip: u32,
    ) -> Result<(), SystemError> {
        let engine =
            FaultEngine::compile_for_chip(plan, chip, self.config.cores, self.fault_seed())
                .map_err(|e| SystemError::InvalidConfig {
                    field: "faults",
                    reason: e.to_string(),
                })?;
        self.scratch.faults = Some(engine.state());
        self.faults = Some(engine);
        Ok(())
    }

    /// The seed fault schedules derive from (shared with
    /// [`System::attach_faults`], so a controller-side
    /// `odrl_faults::BudgetChannel` compiled from the same plan and seed
    /// sees the same schedule).
    pub fn fault_seed(&self) -> u64 {
        self.config.seed ^ 0xFA17_FA17_FA17_FA17
    }

    /// The attached fault schedule, if any.
    pub fn fault_engine(&self) -> Option<&FaultEngine> {
        self.faults.as_ref()
    }

    /// The static system description (core count, VF table, models, epoch).
    pub fn spec(&self) -> SystemSpec {
        self.spec.clone()
    }

    /// The full configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.cores
    }

    /// Index of the next epoch to execute.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The VF levels currently applied.
    pub fn levels(&self) -> &[LevelId] {
        &self.arrays.levels
    }

    /// The per-core state in struct-of-arrays layout.
    pub fn arrays(&self) -> &CoreArrays {
        &self.arrays
    }

    /// Accumulated run telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The system-side tracer, when `SystemConfig::obs` is enabled.
    pub fn tracer(&self) -> Option<&SysTracer> {
        self.tracer.as_deref()
    }

    /// Appends the system-side trace records whose epoch lies in the
    /// half-open range `epochs` (oldest → newest) onto `out`;
    /// `0..u64::MAX` for the whole trace, and a no-op when tracing is
    /// disabled. Merge with the controller's records via
    /// `odrl_obs::merge_records` for the canonical stream.
    pub fn extend_trace_into(
        &self,
        epochs: std::ops::Range<u64>,
        out: &mut Vec<odrl_obs::EventRecord>,
    ) {
        if let Some(tr) = &self.tracer {
            tr.extend_into(epochs, out);
        }
    }

    /// The report of the most recently executed epoch, if any.
    pub fn last_report(&self) -> Option<&EpochReport> {
        self.last_report.as_ref()
    }

    /// Per-stage time spent in the system side of the epoch pipeline
    /// (workload/power/sensor/NoC/thermal) since construction.
    /// Controller-side stages (`rl`, `realloc`) are recorded by
    /// controllers that keep their own [`StageTimers`].
    pub fn stage_timers(&self) -> &StageTimers {
        &self.scratch.timers
    }

    /// Builds the sensor observation a controller decides from, for a given
    /// chip power budget.
    ///
    /// Before the first epoch, counters reflect the initial workload phases
    /// and measured rates/powers are zero (no epoch has executed yet).
    pub fn observation(&self, budget: Watts) -> Observation {
        let mut out = Observation {
            epoch: self.epoch,
            dt: self.config.epoch,
            budget,
            cores: Vec::with_capacity(self.config.cores),
            total_power: Watts::ZERO,
        };
        self.observation_into(budget, &mut out);
        out
    }

    /// Allocation-free [`System::observation`]: refills the caller's
    /// observation in place, reusing its `cores` buffer. After the first
    /// call the steady-state observe/decide/step loop touches the heap
    /// only if the caller's buffers are undersized.
    pub fn observation_into(&self, budget: Watts, out: &mut Observation) {
        out.epoch = self.epoch;
        out.dt = self.config.epoch;
        out.budget = budget;
        out.total_power = self
            .last_report
            .as_ref()
            .map(|r| r.measured_power)
            .unwrap_or(Watts::ZERO);
        out.cores.clear();
        match &self.last_report {
            Some(report) => out
                .cores
                .extend(report.cores.iter().enumerate().map(|(i, c)| {
                    CoreObservation {
                        level: c.level,
                        ips: c.ips,
                        power: self
                            .arrays
                            .measured
                            .get(i)
                            .copied()
                            .unwrap_or_else(|| c.power.total()),
                        temperature: c.temperature,
                        counters: c.counters,
                    }
                })),
            None => {
                out.cores.extend(
                    self.streams
                        .iter()
                        .enumerate()
                        .map(|(i, s)| CoreObservation {
                            level: self.arrays.levels[i],
                            ips: 0.0,
                            power: Watts::ZERO,
                            temperature: self.grid.temperature(i),
                            counters: s.params(),
                        }),
                )
            }
        }
    }

    /// Executes one control epoch with the given per-core VF levels.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::ActionLengthMismatch`] if `actions` does not
    /// have one entry per core, or [`SystemError::Power`] if any level id is
    /// out of range for the VF table.
    pub fn step(&mut self, actions: &[LevelId]) -> Result<EpochReport, SystemError> {
        Ok(self.step_in_place(actions)?.clone())
    }

    /// Allocation-free [`System::step`]: executes one control epoch and
    /// returns a borrow of the internally maintained report instead of a
    /// fresh one. After the first epoch (which sizes the report buffers),
    /// the steady-state kernel performs zero heap allocations under
    /// [`Parallelism::Serial`](crate::Parallelism::Serial).
    ///
    /// The epoch pipeline runs in fixed passes over the struct-of-arrays
    /// state: standalone progress → barrier gating → workload advance and
    /// activity → batch power evaluation → sensor reads → NoC/thermal/
    /// report serial tail. Each pass evaluates the exact per-core
    /// expressions of the original fused loop and every random draw stays
    /// on its core-private stream, so results are bit-identical to the
    /// pre-refactor kernel at every shard count.
    ///
    /// # Errors
    ///
    /// As [`System::step`].
    pub fn step_in_place(&mut self, actions: &[LevelId]) -> Result<&EpochReport, SystemError> {
        if actions.len() != self.config.cores {
            return Err(SystemError::ActionLengthMismatch {
                supplied: actions.len(),
                expected: self.config.cores,
            });
        }
        for &a in actions {
            self.config.vf_table.check(a)?;
        }
        let dt = self.config.epoch;
        let n = self.config.cores;
        let par = self.config.parallelism;
        let epoch = self.epoch;

        let EpochScratch {
            switched,
            vf,
            standalone,
            gated,
            params,
            cpi,
            activity,
            powers,
            miss_rates,
            thermal,
            noc: noc_scratch,
            faults,
            noise_u1,
            noise_u2,
            timers,
        } = &mut self.scratch;
        let CoreArrays {
            levels,
            instructions,
            dynamic,
            leakage,
            temperature,
            sensor_rngs,
            gauss_spare,
            measured,
            variation,
            mem_latency,
        } = &mut self.arrays;

        // VF-apply and core-mask injection points: resolve the commanded
        // levels through the fault schedule (dropped/delayed/clamped
        // actuators, forced throttles, unplugged cores). From here on
        // `actions` are the *effective* levels; with no plan attached the
        // commanded slice passes through untouched, and an empty plan
        // resolves every level to itself.
        if let (Some(engine), Some(fs)) = (&self.faults, faults.as_mut()) {
            engine.begin_epoch(epoch, fs);
            fs.apply_actions(actions);
        }
        let fstate: Option<&FaultState> = faults.as_ref();
        let actions: &[LevelId] = fstate.map_or(actions, FaultState::effective);
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record_fault_edges(epoch, fstate);
        }

        // A VF transition stalls the core for the PLL/VR settling time;
        // record which cores switched before overwriting the level state.
        for (s, (old, new)) in switched.iter_mut().zip(levels.iter().zip(actions)) {
            *s = old != new;
        }
        levels.copy_from_slice(actions);
        if let Some(tr) = self.tracer.as_deref_mut() {
            for (i, (&s, &lv)) in switched.iter().zip(actions.iter()).enumerate() {
                if s {
                    tr.record_vf(epoch, i as u32, lv.0 as u8);
                }
            }
        }

        let t_workload = Instant::now();
        // Pass 1 (sharded): resolved VF point, executing phase signature and
        // standalone progress of every core this epoch, using the
        // NoC-derived memory latency from the previous epoch (one-epoch
        // relaxation, standard for epoch-granularity congestion models).
        // Read-only per core, so shards need no coordination.
        {
            let config = &self.config;
            let streams = &self.streams;
            let mem_latency: &[f64] = mem_latency;
            let switched: &[bool] = switched;
            shard_chunks(
                par,
                (
                    &mut vf[..],
                    &mut params[..],
                    &mut standalone[..],
                    &mut cpi[..],
                ),
                |base, (vf, params, standalone, cpi)| {
                    for j in 0..vf.len() {
                        let i = base + j;
                        params[j] = streams[i].params();
                        let level = config.vf_table.level(actions[i]);
                        vf[j] = level;
                        // One effective-CPI evaluation per core per epoch:
                        // banked for the activity pass, which needs the
                        // same value (identical inputs, identical bits).
                        cpi[j] = config.perf.effective_cpi_with_latency(
                            &params[j],
                            level.frequency,
                            mem_latency[i],
                        );
                        let ips = level.frequency.to_hertz() / cpi[j];
                        let effective_dt = if switched[i] && epoch > 0 {
                            dt.value() - config.transition_penalty.value()
                        } else {
                            dt.value()
                        };
                        standalone[j] = ips * effective_dt;
                    }
                },
            );
        }
        // Core-mask injection point: an unplugged core makes no progress
        // this epoch. Masked *before* barrier gating so losing a member
        // genuinely stalls its barrier group — the physical semantics of a
        // hot-unplug under synchronized workloads.
        if let Some(fs) = fstate {
            if fs.any_dead() {
                for (s, &alive) in standalone.iter_mut().zip(fs.alive()) {
                    if !alive {
                        *s = 0.0;
                    }
                }
            }
        }
        // Serial reduction: barrier gating couples cores within a group —
        // each core retires its group's minimum and idles (reduced
        // activity) for the time it saved.
        self.config.sync.gate_into(standalone, gated);

        // Pass 2 (sharded): per-core activity scaling and workload-stream
        // advance. Stalled cycles clock-gate most of the datapath: the
        // activity factor scales with the fraction of cycles doing useful
        // work (floored for the always-on front-end and caches), and a core
        // waiting at a barrier idles at the sync model's idle activity.
        // Each core's only mutable state is its own stream, visited by
        // exactly one shard.
        {
            let config = &self.config;
            let gated: &[(f64, f64)] = gated;
            let params: &[PhaseParams] = params;
            let cpi: &[f64] = cpi;
            shard_chunks(
                par,
                (
                    &mut self.streams[..],
                    &mut activity[..],
                    &mut instructions[..],
                ),
                |base, (streams, activity, instructions)| {
                    // Two lane-friendly sweeps instead of one interleaved
                    // loop: the activity/instruction arithmetic is pure
                    // slice math the compiler vectorizes once the branchy
                    // stream advance (per-core RNG + phase state) no longer
                    // sits in the middle of it. Per-core results are
                    // independent, so the split is bit-identical.
                    for j in 0..activity.len() {
                        let i = base + j;
                        let (instr, idle_frac) = gated[i];
                        let busy = params[i].cpi_base / cpi[i];
                        let mut act = params[i].activity * (0.3 + 0.7 * busy);
                        if idle_frac > 0.0 {
                            // Barrier wait: the active stretch runs at full
                            // activity, the idle tail at the sync model's
                            // idle activity.
                            act = act * (1.0 - idle_frac) + config.sync.idle_activity() * idle_frac;
                        }
                        activity[j] = act;
                        instructions[j] = instr;
                    }
                    for (stream, &instr) in streams.iter_mut().zip(instructions.iter()) {
                        stream.advance(instr);
                    }
                },
            );
        }
        timers.record(Stage::Workload, t_workload);

        // Pass 3 (serial): batch power evaluation over the flat arrays —
        // per-VF-level coefficient gather for nominal dynamic/leakage at
        // the pre-step die temperature, then the per-core
        // process-variation multipliers.
        let t_power = Instant::now();
        temperature.copy_from_slice(self.grid.temperatures());
        self.coeffs
            .evaluate_into(levels, activity, temperature, dynamic, leakage);
        for i in 0..n {
            let (dm, lm) = variation[i];
            dynamic[i] = dynamic[i] * dm;
            leakage[i] = leakage[i] * lm;
            powers[i] = dynamic[i] + leakage[i];
        }
        // An unplugged core is power-gated: no dynamic, no leakage.
        if let Some(fs) = fstate {
            if fs.any_dead() {
                for i in 0..n {
                    if !fs.core_alive(i) {
                        dynamic[i] = Watts::ZERO;
                        leakage[i] = Watts::ZERO;
                        powers[i] = Watts::ZERO;
                        activity[i] = 0.0;
                    }
                }
            }
        }
        timers.record(Stage::Power, t_power);

        // Pass 4 (sharded): per-core power sensors. Each core's sensor RNG
        // is private to its shard, so draws never depend on execution
        // order. Dropout-free epochs with no per-core sensor fault or
        // unplugged core take the block-filled batch path (bit-identical
        // per core — see [`SensorModel::measure_block`]); otherwise this is
        // the sensor-read injection point: the healthy reading is always
        // computed first (keeping every RNG stream aligned with the
        // fault-free run), then the active sensor fault — if any —
        // transforms it.
        let t_sensor = Instant::now();
        {
            let config = &self.config;
            let powers: &[Watts] = powers;
            let fview = fstate
                .filter(|fs| fs.sensors_faulted())
                .map(FaultState::sensor_view);
            let use_block = fview.is_none() && config.sensors.dropout == 0.0;
            shard_chunks(
                par,
                (
                    &mut sensor_rngs[..],
                    &mut measured[..],
                    &mut noise_u1[..],
                    &mut noise_u2[..],
                    &mut gauss_spare[..],
                ),
                |base, (rngs, measured, u1, u2, spares)| {
                    if use_block {
                        let truth = &powers[base..base + measured.len()];
                        config
                            .sensors
                            .measure_block(truth, rngs, measured, u1, u2, spares);
                        return;
                    }
                    for j in 0..measured.len() {
                        let i = base + j;
                        let last = measured[j];
                        let fresh = config.sensors.measure_with_spare(
                            powers[i],
                            last,
                            &mut rngs[j],
                            &mut spares[j],
                        );
                        measured[j] = match fview {
                            Some(v) => v.apply(i, fresh, last),
                            None => fresh,
                        };
                    }
                },
            );
        }
        timers.record(Stage::Sensor, t_sensor);

        // Serial tail. Update next epoch's memory latencies from this
        // epoch's traffic.
        if let Some(noc) = &self.noc {
            let t_noc = Instant::now();
            for i in 0..n {
                let ips = instructions[i] / dt.value();
                miss_rates[i] = params[i].mpki / 1000.0 * ips;
            }
            noc.latencies_into(miss_rates, noc_scratch, mem_latency);
            timers.record(Stage::Noc, t_noc);
        }
        let t_thermal = Instant::now();
        self.grid.step_with_scratch(powers, dt, thermal)?;
        temperature.copy_from_slice(self.grid.temperatures());
        timers.record(Stage::Thermal, t_thermal);

        let total_power: Watts = powers.iter().sum();
        let last_chip = self
            .last_report
            .as_ref()
            .map(|r| r.measured_power)
            .unwrap_or(Watts::ZERO);
        let fresh_chip = self.config.sensors.measure_with_spare(
            total_power,
            last_chip,
            &mut self.chip_sensor_rng,
            &mut self.chip_gauss_spare,
        );
        let measured_power = match fstate {
            Some(fs) => fs.chip_sensor_value(fresh_chip, last_chip),
            None => fresh_chip,
        };

        // Refill the long-lived report in place (allocated once, on the
        // first epoch).
        let report = self.last_report.get_or_insert_with(|| EpochReport {
            epoch: 0,
            dt,
            cores: Vec::with_capacity(n),
            total_power: Watts::ZERO,
            measured_power: Watts::ZERO,
            energy: Joules::new(0.0),
        });
        report.epoch = epoch;
        report.dt = dt;
        report.total_power = total_power;
        report.measured_power = measured_power;
        report.energy = total_power.energy_over(dt);
        report.cores.clear();
        for i in 0..n {
            report.cores.push(CoreEpoch {
                level: actions[i],
                ips: instructions[i] / dt.value(),
                instructions: instructions[i],
                power: PowerBreakdown {
                    dynamic: dynamic[i],
                    leakage: leakage[i],
                },
                temperature: temperature[i],
                counters: params[i],
            });
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record_epoch(epoch, total_power.value());
        }
        self.telemetry.record(report);
        self.epoch += 1;
        Ok(self.last_report.as_ref().expect("report just refilled"))
    }

    /// Runs `epochs` epochs with a fixed level vector (useful for warmup
    /// and static baselines).
    ///
    /// # Errors
    ///
    /// As [`System::step`].
    pub fn run_fixed(&mut self, levels: &[LevelId], epochs: u64) -> Result<(), SystemError> {
        for _ in 0..epochs {
            self.step_in_place(levels)?;
        }
        Ok(())
    }

    /// Simulated time elapsed so far.
    pub fn elapsed(&self) -> Seconds {
        self.telemetry.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_workload::MixPolicy;

    fn small_system(cores: usize, seed: u64) -> System {
        System::new(
            SystemConfig::builder()
                .cores(cores)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn step_produces_consistent_report() {
        let mut sys = small_system(8, 1);
        let r = sys.step(&[LevelId(4); 8]).unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.cores.len(), 8);
        let sum: f64 = r.cores.iter().map(|c| c.power.total().value()).sum();
        assert!((sum - r.total_power.value()).abs() < 1e-9);
        assert!(r.total_instructions() > 0.0);
        assert_eq!(sys.epoch(), 1);
    }

    #[test]
    fn rejects_bad_actions() {
        let mut sys = small_system(4, 1);
        assert!(matches!(
            sys.step(&[LevelId(0); 3]),
            Err(SystemError::ActionLengthMismatch { .. })
        ));
        assert!(matches!(
            sys.step(&[LevelId(99); 4]),
            Err(SystemError::Power(_))
        ));
        // A failed step must not advance the epoch.
        assert_eq!(sys.epoch(), 0);
    }

    #[test]
    fn higher_levels_mean_more_power_and_throughput() {
        let mut slow = small_system(8, 7);
        let mut fast = small_system(8, 7);
        let r_slow = slow.step(&[LevelId(0); 8]).unwrap();
        let r_fast = fast.step(&[LevelId(7); 8]).unwrap();
        assert!(r_fast.total_power > r_slow.total_power);
        assert!(r_fast.total_instructions() > r_slow.total_instructions());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = small_system(8, 5);
        let mut b = small_system(8, 5);
        for i in 0..20 {
            let lv = vec![LevelId(i % 8); 8];
            let ra = a.step(&lv).unwrap();
            let rb = b.step(&lv).unwrap();
            assert_eq!(ra.total_power, rb.total_power);
            assert_eq!(ra.measured_power, rb.measured_power);
            assert_eq!(ra.total_instructions(), rb.total_instructions());
        }
    }

    #[test]
    fn step_in_place_matches_step() {
        let mut owned = small_system(8, 5);
        let mut borrowed = small_system(8, 5);
        for i in 0..20 {
            let lv = vec![LevelId(i % 8); 8];
            let ra = owned.step(&lv).unwrap();
            let rb = borrowed.step_in_place(&lv).unwrap();
            assert_eq!(&ra, rb, "epoch {i}");
        }
        assert_eq!(owned.telemetry(), borrowed.telemetry());
        assert_eq!(
            owned.observation(Watts::new(10.0)),
            borrowed.observation(Watts::new(10.0))
        );
    }

    #[test]
    fn parallel_step_is_bit_identical_to_serial() {
        use crate::parallel::Parallelism;
        let mk = |par| {
            System::new(
                SystemConfig::builder()
                    .cores(16)
                    .seed(11)
                    .parallelism(par)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let mut serial = mk(Parallelism::Serial);
        for threads in [1, 2, 4, 8] {
            let mut par = mk(Parallelism::Threads(threads));
            let mut reference = mk(Parallelism::Serial);
            for e in 0..30u64 {
                let lv = vec![LevelId((e % 8) as usize); 16];
                let rs = reference.step(&lv).unwrap();
                let rp = par.step(&lv).unwrap();
                assert_eq!(rs, rp, "diverged at epoch {e} with {threads} threads");
            }
        }
        // And the reference run matches an untouched serial system.
        let mut other = mk(Parallelism::Serial);
        for e in 0..30u64 {
            let lv = vec![LevelId((e % 8) as usize); 16];
            assert_eq!(serial.step(&lv).unwrap(), other.step(&lv).unwrap());
        }
    }

    #[test]
    fn initial_observation_has_zero_rates() {
        let sys = small_system(4, 2);
        let obs = sys.observation(Watts::new(10.0));
        assert_eq!(obs.num_cores(), 4);
        assert_eq!(obs.total_power, Watts::ZERO);
        assert!(obs.cores.iter().all(|c| c.ips == 0.0));
        assert!(obs.cores.iter().all(|c| c.counters.cpi_base > 0.0));
    }

    #[test]
    fn observation_reflects_last_epoch() {
        let mut sys = small_system(4, 2);
        sys.step(&[LevelId(5); 4]).unwrap();
        let obs = sys.observation(Watts::new(10.0));
        assert!(obs.total_power.value() > 0.0);
        assert!(obs.cores.iter().all(|c| c.ips > 0.0));
        assert!(obs.cores.iter().all(|c| c.level == LevelId(5)));
        assert_eq!(obs.epoch, 1);
    }

    #[test]
    fn sustained_load_heats_the_die() {
        let mut sys = small_system(16, 3);
        let t0 = sys.observation(Watts::ZERO).cores[0].temperature;
        sys.run_fixed(&[LevelId(7); 16], 200).unwrap();
        let t1 = sys.observation(Watts::ZERO).cores[0].temperature;
        assert!(
            t1.value() > t0.value() + 5.0,
            "die should heat: {t0} -> {t1}"
        );
    }

    #[test]
    fn telemetry_accumulates_over_run() {
        let mut sys = small_system(4, 9);
        sys.run_fixed(&[LevelId(3); 4], 50).unwrap();
        let t = sys.telemetry();
        assert_eq!(t.epochs(), 50);
        assert!(t.total_instructions() > 0.0);
        assert!(t.total_energy().value() > 0.0);
        assert!((t.elapsed().value() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_core_gains_little_from_frequency() {
        let config = SystemConfig::builder()
            .cores(2)
            .mix(MixPolicy::Homogeneous("streamcluster".into()))
            .seed(1)
            .build()
            .unwrap();
        let mut slow = System::new(config.clone()).unwrap();
        let mut fast = System::new(config).unwrap();
        let rs = slow.step(&[LevelId(0); 2]).unwrap();
        let rf = fast.step(&[LevelId(7); 2]).unwrap();
        let perf_gain = rf.total_instructions() / rs.total_instructions();
        let power_gain = rf.total_power / rs.total_power;
        assert!(perf_gain < 1.6, "memory-bound perf gain {perf_gain}");
        assert!(power_gain > 2.0, "power gain {power_gain}");
    }

    #[test]
    fn transitions_cost_execution_time() {
        use odrl_power::Seconds;
        let mk = |penalty: f64| {
            SystemConfig::builder()
                .cores(4)
                .seed(1)
                .transition_penalty(Seconds::new(penalty))
                .build()
                .unwrap()
        };
        // Thrash levels every epoch with and without a transition penalty.
        let mut free = System::new(mk(0.0)).unwrap();
        let mut costly = System::new(mk(100e-6)).unwrap();
        for e in 0..50u64 {
            let lv = vec![LevelId((e % 2) as usize + 3); 4];
            free.step(&lv).unwrap();
            costly.step(&lv).unwrap();
        }
        let lost =
            1.0 - costly.telemetry().total_instructions() / free.telemetry().total_instructions();
        // 100 us lost per 1 ms epoch (after the first) ~ 10%.
        assert!((0.05..0.15).contains(&lost), "lost fraction {lost}");

        // A steady level vector pays only the very first transition check.
        let mut steady = System::new(mk(100e-6)).unwrap();
        let mut ideal = System::new(mk(0.0)).unwrap();
        for _ in 0..50 {
            steady.step(&[LevelId(4); 4]).unwrap();
            ideal.step(&[LevelId(4); 4]).unwrap();
        }
        let lost =
            1.0 - steady.telemetry().total_instructions() / ideal.telemetry().total_instructions();
        assert!(lost < 0.01, "steady levels should be nearly free: {lost}");
    }

    #[test]
    fn barrier_groups_share_throughput() {
        use crate::sync::SyncModel;
        let config = SystemConfig::builder()
            .cores(8)
            .sync(SyncModel::barrier(4))
            .seed(6)
            .build()
            .unwrap();
        let mut sys = System::new(config).unwrap();
        // Heterogeneous levels inside each group: fast members must be
        // gated down to the group's slowest.
        let levels: Vec<LevelId> = (0..8)
            .map(|i| LevelId(if i % 2 == 0 { 7 } else { 0 }))
            .collect();
        let r = sys.step(&levels).unwrap();
        for g in 0..2 {
            let group = &r.cores[g * 4..(g + 1) * 4];
            let first = group[0].instructions;
            assert!(
                group.iter().all(|c| (c.instructions - first).abs() < 1e-6),
                "group {g} not gated: {:?}",
                group.iter().map(|c| c.instructions).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn gated_fast_cores_burn_less_power() {
        use crate::sync::SyncModel;
        // Same actions, same seed: coupling an idle-prone fast core to a
        // slow one must reduce its power vs running independently.
        let mk = |sync| {
            SystemConfig::builder()
                .cores(2)
                .sync(sync)
                .seed(3)
                .build()
                .unwrap()
        };
        let mut coupled = System::new(mk(SyncModel::barrier(2))).unwrap();
        let mut free = System::new(mk(SyncModel::Independent)).unwrap();
        let levels = vec![LevelId(7), LevelId(0)]; // core 0 races ahead
        let rc = coupled.step(&levels).unwrap();
        let rf = free.step(&levels).unwrap();
        assert!(
            rc.cores[0].power.total() < rf.cores[0].power.total(),
            "gated core should idle-save: {} vs {}",
            rc.cores[0].power.total(),
            rf.cores[0].power.total()
        );
        assert!(rc.cores[0].instructions < rf.cores[0].instructions);
        // The slow core is unaffected.
        assert_eq!(rc.cores[1].instructions, rf.cores[1].instructions);
    }

    #[test]
    fn process_variation_spreads_core_power() {
        use crate::variation::VariationModel;
        let config = SystemConfig::builder()
            .cores(16)
            .mix(MixPolicy::Homogeneous("swaptions".into()))
            .variation(VariationModel::typical())
            .seed(21)
            .build()
            .unwrap();
        let mut varied = System::new(config.clone()).unwrap();
        let r = varied.step(&[LevelId(7); 16]).unwrap();
        // Same benchmark, same level: only variation separates the cores.
        let powers: Vec<f64> = r.cores.iter().map(|c| c.power.total().value()).collect();
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min > 1.1,
            "variation should spread power: {min}..{max}"
        );

        // Nominal chip: all cores identical.
        let mut nominal_cfg = config;
        nominal_cfg.variation = VariationModel::none();
        let mut nominal = System::new(nominal_cfg).unwrap();
        let r = nominal.step(&[LevelId(7); 16]).unwrap();
        let powers: Vec<f64> = r.cores.iter().map(|c| c.power.total().value()).collect();
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max / min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noc_congestion_couples_cores() {
        use odrl_noc::NocConfig;
        use odrl_thermal::Floorplan;
        let mk = |mix: MixPolicy| {
            SystemConfig::builder()
                .cores(64)
                .mix(mix)
                .noc(NocConfig::for_floorplan(Floorplan::new(8, 8).unwrap()))
                .seed(8)
                .build()
                .unwrap()
        };
        // Memory-heavy homogeneous load at top level: corner cores (next to
        // a controller) should out-run the die center once congestion kicks
        // in.
        let mut sys = System::new(mk(MixPolicy::Homogeneous("streamcluster".into()))).unwrap();
        let top = [LevelId(7); 64];
        for _ in 0..10 {
            sys.step_in_place(&top).unwrap();
        }
        let r = sys.last_report().unwrap();
        let corner = r.cores[0].ips;
        let center = r.cores[27].ips;
        assert!(
            corner > center * 1.02,
            "corner {corner} should beat center {center} under congestion"
        );

        // And NoC-enabled throughput is below the flat-latency ideal.
        let flat = SystemConfig::builder()
            .cores(64)
            .mix(MixPolicy::Homogeneous("streamcluster".into()))
            .seed(8)
            .build()
            .unwrap();
        let mut flat_sys = System::new(flat).unwrap();
        for _ in 0..10 {
            flat_sys.step_in_place(&top).unwrap();
        }
        // Note: flat model uses 80 ns everywhere; the NoC's unloaded corner
        // latency is lower (60 ns DRAM + short path), so compare totals
        // qualitatively: congestion must hurt the center cores vs flat.
        let flat_center = flat_sys.last_report().unwrap().cores[27].ips;
        assert!(center < flat_center);
    }

    #[test]
    fn recording_system_captures_series() {
        let config = SystemConfig::builder().cores(4).seed(1).build().unwrap();
        let mut sys = System::new_recording_decimated(config, 1).unwrap();
        sys.run_fixed(&[LevelId(2); 4], 10).unwrap();
        assert_eq!(sys.telemetry().series().len(), 10);
    }
}
