//! The OD-RL controller: fine-grain per-core Q-learning plus coarse-grain
//! global budget reallocation.

use crate::budget::{AllocScratch, BudgetAllocator};
use crate::config::OdRlConfig;
use crate::error::OdRlError;
use crate::obs::CtrlTracer;
use crate::reward::{RewardRows, RewardShaper};
use crate::state::StateEncoder;
use crate::watchdog::SensorWatchdog;
use odrl_controllers::PowerController;
use odrl_faults::{BudgetChannel, FaultEngine};
use odrl_manycore::parallel::{shard_chunks, stream_seed, ShardSplit};
use odrl_manycore::{Observation, Stage, StageTimers, SystemSpec};
use odrl_obs::{Event, EventCounts, EventRecord, LearnDiag, TraceRing, DIAG_PERIOD};
use odrl_power::{LevelId, Watts};
use odrl_rl::snapshot as rl_snapshot;
use odrl_rl::{Agent, EpsCache, Policy, RlError, SnapshotError, UpdateMask, KIND_POLICY_SET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// On-line Distributed Reinforcement Learning DVFS control
/// (Chen & Marculescu, DATE 2015).
///
/// * **Fine grain** — one tabular Q-learning [`Agent`] per core learns,
///   model-free, which VF level maximizes its throughput without exceeding
///   its share of the chip power budget. State: (local power/budget ratio,
///   memory-boundedness, current level); actions: VF levels; reward:
///   normalized IPS minus a strong local overshoot penalty.
/// * **Coarse grain** — every `realloc_period` epochs a [`BudgetAllocator`]
///   redistributes the chip budget toward the cores with the highest
///   observed marginal throughput per watt.
///
/// The per-epoch decision cost is **O(n · L)** for `n` cores and `L`
/// levels — no combinatorial search — which is the source of the paper's
/// two-orders-of-magnitude runtime advantage over MaxBIPS-class controllers
/// at hundreds of cores.
///
/// ```
/// use odrl_core::{OdRlConfig, OdRlController};
/// use odrl_controllers::PowerController;
/// use odrl_manycore::{System, SystemConfig};
/// use odrl_power::Watts;
///
/// let config = SystemConfig::builder().cores(16).seed(7).build()?;
/// let budget = Watts::new(0.6 * config.max_power().value());
/// let mut system = System::new(config)?;
/// let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), budget)?;
/// for _ in 0..30 {
///     let obs = system.observation(budget);
///     let actions = ctrl.decide(&obs);
///     system.step(&actions)?;
/// }
/// assert!(system.telemetry().total_instructions() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct OdRlController {
    config: OdRlConfig,
    encoder: StateEncoder,
    agents: Vec<Agent>,
    shaper: RewardShaper,
    allocator: Option<BudgetAllocator>,
    budgets: Vec<Watts>,
    total_budget: Watts,
    /// Decaying per-core maximum of observed power — the denominator of
    /// the state's budget-affordability dimension.
    max_power_seen: Vec<f64>,
    /// Chip-level utilisation feedback: per-core shares are scaled by this
    /// factor so that *measured chip power* tracks the budget. Discrete VF
    /// levels leave each core a safety margin below its share; without this
    /// term those margins add up to 15-25 % of unused budget. The scale
    /// rises while the chip is under budget and falls immediately when it
    /// is over (asymmetric gains: slow fill, fast back-off).
    utilisation_scale: f64,
    /// One private exploration stream per core, derived from the config
    /// seed and the core index — draws never depend on execution order, so
    /// the sharded decide path is bit-identical to the serial one.
    rngs: Vec<StdRng>,
    /// (state, action) pairs awaiting their reward.
    pending: Option<Vec<(usize, usize)>>,
    /// Retired pending buffer, reused for the next epoch's decisions so the
    /// two (state, action) vectors ping-pong without reallocating.
    spare: Vec<(usize, usize)>,
    /// Per-core TD bootstraps captured by this epoch's decide pass (the
    /// max/selected Q at the successor state, read *before* any update) —
    /// consumed by the same epoch's learn pass. Scratch, sized once.
    boots: Vec<f64>,
    /// Per-shard `[decide_ns, learn_ns]` stamps, written at each shard's
    /// chunk-base slot inside the parallel region and folded into the
    /// stage timers afterwards. Scratch, sized once.
    rl_ns: Vec<[u64; 2]>,
    /// Pre-drawn raw ε draws, one `next_u64` per core whose policy
    /// pre-draws (see `Policy::pre_draws_uniform`), refilled block-wide
    /// inside each shard by the RL block pipeline. Scratch, sized once.
    eps_draws: Vec<Option<u64>>,
    /// Memory-boundedness bin per core, cached by the pipeline's encode
    /// pass and reused by its learn pass (the same observation feeds both,
    /// so re-deriving it would repeat two divisions per core). Scratch,
    /// sized once.
    mem_phase: Vec<u16>,
    /// Telemetry-health tracker, present when the config enables it.
    watchdog: Option<SensorWatchdog>,
    /// Unreliable budget-message link, present after
    /// [`OdRlController::attach_budget_faults`]. When absent,
    /// reallocations take effect instantly (the paper's assumption).
    channel: Option<BudgetChannel>,
    /// Validity of the (state, action) pairs recorded *this* epoch.
    mask: UpdateMask,
    /// Validity of the pending pairs (recorded last epoch); ping-pongs
    /// with `mask` so masking never reallocates.
    mask_prev: UpdateMask,
    /// Working buffers for the coarse-grain reallocation.
    alloc_scratch: AllocScratch,
    /// Double buffer for the per-core budgets across a reallocation.
    budgets_next: Vec<Watts>,
    /// Structured-event recorder, present only when
    /// [`OdRlConfig::obs`] enables it (boxed: ~8 bytes on the hot
    /// struct when tracing is off).
    tracer: Option<Box<CtrlTracer>>,
    /// Per-stage time spent in the controller side of the epoch pipeline
    /// (`Rl` and `Realloc`).
    timers: StageTimers,
    epochs: u64,
    name: &'static str,
}

impl OdRlController {
    /// Creates the full OD-RL controller (fine + coarse grain).
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::EmptySpec`] for a degenerate spec or
    /// [`OdRlError::InvalidConfig`] for bad tuning parameters.
    pub fn new(
        config: OdRlConfig,
        spec: &SystemSpec,
        initial_budget: Watts,
    ) -> Result<Self, OdRlError> {
        Self::build(config, spec, initial_budget, true)
    }

    /// The ablation variant: per-core RL only, with budgets frozen at the
    /// fair split (no coarse-grain reallocation).
    ///
    /// # Errors
    ///
    /// As [`OdRlController::new`].
    pub fn without_reallocation(
        config: OdRlConfig,
        spec: &SystemSpec,
        initial_budget: Watts,
    ) -> Result<Self, OdRlError> {
        Self::build(config, spec, initial_budget, false)
    }

    fn build(
        config: OdRlConfig,
        spec: &SystemSpec,
        initial_budget: Watts,
        reallocate: bool,
    ) -> Result<Self, OdRlError> {
        config.validate()?;
        if spec.cores == 0 || spec.vf_table.is_empty() {
            return Err(OdRlError::EmptySpec);
        }
        let levels = spec.vf_table.len();
        let encoder = StateEncoder::new(&config, levels)?;
        // Optimistic initialisation at the value of a perfect steady
        // reward (1/(1-gamma)) makes every untried level greedily
        // attractive once, so agents discover newly affordable levels
        // after a budget reallocation without waiting for epsilon
        // exploration.
        let optimistic = 1.0 / (1.0 - config.gamma);
        let policy = Policy::EpsilonGreedy {
            epsilon: config.epsilon,
        };
        // Sized up front: collecting through `Result` would grow the
        // vector by doubling, its size hint having no lower bound.
        let mut agents = Vec::with_capacity(spec.cores);
        for _ in 0..spec.cores {
            agents.push(
                Agent::builder(encoder.num_states(), encoder.num_actions())
                    .algorithm(config.algorithm)
                    .gamma(config.gamma)
                    .alpha(config.alpha)
                    .policy(policy)
                    .layout(config.layout)
                    .optimistic(optimistic)
                    .build()?,
            );
        }
        let allocator = reallocate
            .then(|| BudgetAllocator::new(spec.cores, config.realloc_gain, config.min_share));
        let watchdog = config
            .watchdog
            .enabled
            .then(|| SensorWatchdog::new(config.watchdog, spec.cores));
        Ok(Self {
            shaper: RewardShaper::new(spec.cores, encoder.num_mem_bins(), config.overshoot_penalty),
            budgets: BudgetAllocator::fair_split(initial_budget, spec.cores),
            max_power_seen: vec![0.0; spec.cores],
            utilisation_scale: 1.0,
            total_budget: initial_budget,
            rngs: (0..spec.cores)
                .map(|i| {
                    StdRng::seed_from_u64(stream_seed(
                        config.seed ^ 0x0D51_5EED_0D51_5EED,
                        i as u64,
                    ))
                })
                .collect(),
            pending: None,
            spare: Vec::new(),
            boots: vec![0.0; spec.cores],
            rl_ns: vec![[0, 0]; spec.cores],
            eps_draws: vec![None; spec.cores],
            mem_phase: vec![0; spec.cores],
            watchdog,
            channel: None,
            mask: UpdateMask::new(spec.cores),
            mask_prev: UpdateMask::new(spec.cores),
            alloc_scratch: AllocScratch::default(),
            budgets_next: Vec::new(),
            tracer: config.obs.enabled.then(|| {
                Box::new(CtrlTracer::new(
                    &config.obs,
                    spec.cores,
                    config.parallelism.shards(spec.cores),
                ))
            }),
            timers: StageTimers::new(),
            epochs: 0,
            name: if reallocate { "od-rl" } else { "od-rl-local" },
            config,
            encoder,
            agents,
            allocator,
        })
    }

    /// The per-core budgets currently in force.
    pub fn budgets(&self) -> &[Watts] {
        &self.budgets
    }

    /// Per-stage time spent in this controller's decision path
    /// ([`Stage::Rl`], its [`Stage::RlDecide`]/[`Stage::RlLearn`] split,
    /// and [`Stage::Realloc`]); [`odrl_manycore::System::stage_timers`]
    /// holds the system side of the epoch.
    pub fn stage_timers(&self) -> &StageTimers {
        &self.timers
    }

    /// Routes coarse-grain budget messages through the fault engine's
    /// unreliable channel: reallocated shares may now be lost, delayed or
    /// replaced by stale retransmissions, and agents that hear nothing
    /// keep their old share. Without this call the controller assumes the
    /// paper's perfect same-epoch delivery.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::InvalidConfig`] if the engine models a
    /// different core count than this controller.
    pub fn attach_budget_faults(&mut self, engine: &FaultEngine) -> Result<(), OdRlError> {
        if engine.num_cores() != self.agents.len() {
            return Err(OdRlError::InvalidConfig {
                field: "faults",
                reason: format!(
                    "fault engine models {} cores, controller has {}",
                    engine.num_cores(),
                    self.agents.len()
                ),
            });
        }
        self.channel = Some(engine.budget_channel());
        Ok(())
    }

    /// The sensor watchdog, when [`crate::WatchdogConfig::enabled`] is
    /// set — for telemetry and tests.
    pub fn watchdog(&self) -> Option<&SensorWatchdog> {
        self.watchdog.as_ref()
    }

    /// The structured-event tracer, when [`OdRlConfig::obs`] enables it.
    pub fn tracer(&self) -> Option<&CtrlTracer> {
        self.tracer.as_deref()
    }

    /// Appends every trace record this controller holds whose epoch lies
    /// in the half-open range `epochs` onto `out` (`0..u64::MAX` for the
    /// whole trace; no-op when tracing is disabled). Pass the result
    /// through [`odrl_obs::merge_records`] for the canonical order.
    pub fn extend_trace_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        if let Some(tr) = self.tracer.as_deref() {
            tr.extend_into(epochs, out);
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &OdRlConfig {
        &self.config
    }

    /// Exports the learned per-core policies for persistence or transfer
    /// (warm-starting a controller on another chip or a later run). Only
    /// the Q-tables travel; fast-relearning state (reward normalizers,
    /// power ceilings, budgets) is rebuilt on-line within tens of epochs.
    pub fn export_policy(&self) -> PolicySnapshot {
        PolicySnapshot {
            states: self.encoder.num_states(),
            actions: self.encoder.num_actions(),
            agents: self.agents.clone(),
        }
    }

    /// Replaces the per-core agents with a previously exported snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::InvalidConfig`] if the snapshot's state/action
    /// dimensions or core count do not match this controller.
    pub fn import_policy(&mut self, snapshot: PolicySnapshot) -> Result<(), OdRlError> {
        if snapshot.states != self.encoder.num_states()
            || snapshot.actions != self.encoder.num_actions()
        {
            return Err(OdRlError::InvalidConfig {
                field: "snapshot",
                reason: format!(
                    "snapshot is {}x{}, controller expects {}x{}",
                    snapshot.states,
                    snapshot.actions,
                    self.encoder.num_states(),
                    self.encoder.num_actions()
                ),
            });
        }
        if snapshot.agents.len() != self.agents.len() {
            return Err(OdRlError::InvalidConfig {
                field: "snapshot",
                reason: format!(
                    "snapshot has {} agents, controller has {}",
                    snapshot.agents.len(),
                    self.agents.len()
                ),
            });
        }
        self.agents = snapshot.agents;
        // Rewards already earned under the old tables are stale.
        self.pending = None;
        Ok(())
    }

    /// Fraction of `(state, action)` pairs the per-core agents have visited
    /// (averaged over cores) — a learning-progress diagnostic.
    pub fn coverage(&self) -> f64 {
        let sum: f64 = self.agents.iter().map(Agent::coverage).sum();
        sum / self.agents.len() as f64
    }

    /// Rescales per-core budgets when the chip budget changes, preserving
    /// relative shares.
    fn track_budget(&mut self, budget: Watts) {
        if (budget - self.total_budget).abs().value() < 1e-12 {
            return;
        }
        let old = self.total_budget.value();
        if old > 0.0 {
            let k = budget.value() / old;
            for b in &mut self.budgets {
                *b = *b * k;
            }
        } else {
            self.budgets = BudgetAllocator::fair_split(budget, self.budgets.len());
        }
        self.total_budget = budget;
    }

    /// Coarse grain: update marginal estimates every epoch, reallocate
    /// every K epochs. The new allocation is written into the budget
    /// double buffer and swapped in, so periodic reallocations stay
    /// allocation-free at steady state. With an unreliable budget channel
    /// attached the shares travel as messages instead: each core's new
    /// share is sent on its link, and only what arrives is applied — an
    /// agent whose message is lost keeps its old share.
    fn reallocate(&mut self, obs: &Observation, n: usize, epoch: u64) {
        let t_realloc = Instant::now();
        if let Some(allocator) = &mut self.allocator {
            allocator.observe(obs);
            if self.epochs > 0 && self.epochs.is_multiple_of(self.config.realloc_period) {
                allocator.reallocate_into(
                    obs,
                    &self.budgets,
                    obs.budget,
                    &mut self.alloc_scratch,
                    &mut self.budgets_next,
                );
                if let Some(tr) = self.tracer.as_deref_mut() {
                    let moved: f64 = self
                        .budgets_next
                        .iter()
                        .zip(&self.budgets)
                        .map(|(new, old)| (*new - *old).abs().value())
                        .sum();
                    tr.record_realloc(epoch, moved);
                }
                match &mut self.channel {
                    None => std::mem::swap(&mut self.budgets, &mut self.budgets_next),
                    Some(ch) => {
                        for (i, b) in self.budgets_next.iter().enumerate().take(n) {
                            ch.send(i, b.value());
                        }
                    }
                }
            }
        }
        if let Some(ch) = &mut self.channel {
            for (i, b) in self.budgets.iter_mut().enumerate().take(n) {
                if let Some(v) = ch.poll(i) {
                    *b = Watts::new(v);
                }
            }
        }
        self.timers.record(Stage::Realloc, t_realloc);
    }

    /// A dead core burns no watts: hand its share to the survivors so the
    /// chip budget keeps getting spent on work. The freed watts go out
    /// evenly; the next reallocation re-optimises the split (and restores
    /// a floor share to a core that rejoins).
    fn redistribute_dead_shares(&mut self, n: usize, epoch: u64) {
        let Some(wd) = self.watchdog.as_ref().filter(|wd| wd.any_dead()) else {
            return;
        };
        let mut freed = 0.0;
        let mut alive = 0usize;
        for i in 0..n {
            if wd.is_dead(i) {
                freed += self.budgets[i].value();
                self.budgets[i] = Watts::ZERO;
            } else {
                alive += 1;
            }
        }
        if freed > 0.0 && alive > 0 {
            let bonus = Watts::new(freed / alive as f64);
            for i in 0..n {
                if !wd.is_dead(i) {
                    self.budgets[i] += bonus;
                }
            }
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record_redistribution(epoch, freed);
            }
        }
    }

    /// Chip-level utilisation feedback (see `utilisation_scale`), with
    /// AIMD dynamics: additive fill while under budget, multiplicative
    /// back-off on any overshoot epoch. The multiplicative decrease is
    /// what keeps homogeneous workloads — where all cores hit their share
    /// boundary in lock-step — just below the chip budget instead of
    /// oscillating across it. Also tracks each core's power ceiling
    /// (decaying max) for the affordability state dimension; stale and
    /// dead readings are frozen out, since a stuck register must not decay
    /// (or define) a ceiling the core never actually drew.
    fn track_power(&mut self, obs: &Observation) {
        if obs.total_power.value() > 0.0 && obs.budget.value() > 0.0 {
            let err = (obs.budget - obs.total_power).value() / obs.budget.value();
            if err >= 0.0 {
                self.utilisation_scale += 0.01 * err;
            } else {
                self.utilisation_scale *= 0.95;
            }
            self.utilisation_scale = self.utilisation_scale.clamp(0.9, 1.6);
        }
        let wd = self.watchdog.as_ref();
        for (i, (seen, core)) in self.max_power_seen.iter_mut().zip(&obs.cores).enumerate() {
            if wd.is_some_and(|w| w.is_dead(i) || w.is_stale(i)) {
                continue;
            }
            *seen = (*seen * 0.999).max(core.power.value());
        }
    }

    /// Fine grain: closes the RL loop per core through the block pipeline
    /// ([`RlPass::run_shard`]). Each core touches only its own agent,
    /// exploration RNG and reward row, so the cores shard across threads
    /// with bit-identical results (per-core streams plus contiguous chunks
    /// written in place).
    fn rl_pipeline(&mut self, obs: &Observation, n: usize, epoch: u64, out: &mut [LevelId]) {
        let t_rl = Instant::now();
        let old_pending = self.pending.take();
        let mut decisions = std::mem::take(&mut self.spare);
        decisions.clear();
        decisions.resize(n, (0, 0));
        // Validity ping-pong: `mask_prev` now covers the pending pairs,
        // `mask` is re-armed for the decisions recorded below.
        std::mem::swap(&mut self.mask, &mut self.mask_prev);
        self.mask.reset();
        let chunk = n.div_ceil(self.config.parallelism.shards(n));
        let tracer = self.tracer.as_deref();
        let pass = RlPass {
            config: &self.config,
            encoder: &self.encoder,
            obs,
            budgets: &self.budgets,
            scale: self.utilisation_scale,
            max_seen: &self.max_power_seen,
            pending: old_pending.as_deref(),
            prev_valid: self.mask_prev.as_slice(),
            wd: self.watchdog.as_ref(),
            // Exploration events are recorded inside the sharded loop, so
            // each shard writes a private ring (`base / chunk` — the same
            // chunking `shard_chunks` applies), locked once per pass and
            // never contended.
            trace_rings: tracer.map(CtrlTracer::shard_rings),
            // Learning-health taps mirror the ring layout: each shard folds
            // its TD-error / Q-span / visit-spread samples into a private
            // accumulator and merges it once at shard end, so the summary
            // algebra sees the same exact integer adds at any shard count.
            diag_shards: tracer.and_then(CtrlTracer::shard_diags),
            // Q-row statistics (greedy-Q span, visit spread) cost a full
            // row scan per decide, and a full TD-error summary record is
            // ~15 integer/float ops per core, so both sample on the
            // diagnostics period — keyed on the epoch alone, hence
            // shard-invariant. Off-period epochs keep only the TD peak
            // (two compares) so watermark rules still see every blowup the
            // epoch it happens; the decision/exploration tallies are plain
            // increments and run every epoch.
            diag_rows: tracer
                .is_some_and(|t| t.diag_enabled() && epoch.is_multiple_of(DIAG_PERIOD)),
            epoch,
            chunk,
        };
        let (rows, _) = self.shaper.rows_view().split_at_mut(n);
        let (mask_bits, _) = self.mask.as_mut_slice().split_at_mut(n);
        shard_chunks(
            self.config.parallelism,
            (
                &mut self.agents[..n],
                &mut self.rngs[..n],
                rows,
                &mut decisions[..n],
                mask_bits,
                &mut self.boots[..n],
                &mut self.eps_draws[..n],
                &mut self.mem_phase[..n],
                &mut self.rl_ns[..n],
            ),
            |base, shard| pass.run_shard(base, shard),
        );
        // Fold the per-shard stamps: shards ran concurrently, so each
        // half's wall-clock contribution is the widest shard.
        let (mut decide_ns, mut learn_ns) = (0u64, 0u64);
        for &[d, l] in self.rl_ns[..n].iter().step_by(chunk) {
            decide_ns = decide_ns.max(d);
            learn_ns = learn_ns.max(l);
        }
        self.timers.add_nanos(Stage::RlDecide, decide_ns);
        self.timers.add_nanos(Stage::RlLearn, learn_ns);
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record_rl_split(decide_ns, learn_ns);
        }
        for (slot, &(_, a)) in out.iter_mut().zip(decisions.iter()) {
            *slot = LevelId(a);
        }
        self.spare = old_pending.unwrap_or_default();
        self.pending = Some(decisions);
        self.timers.record(Stage::Rl, t_rl);
    }

    /// Serial diagnostics epilogue. The quantized-health scan walks every
    /// agent's table, so it is period-gated; the channel tap hands the
    /// tracer the lifetime delivery counters (the tracer differences them
    /// into a per-epoch loss rate).
    fn record_diagnostics(&mut self, n: usize, epoch: u64) {
        let Some(tr) = self.tracer.as_deref_mut().filter(|tr| tr.diag_enabled()) else {
            return;
        };
        if epoch.is_multiple_of(DIAG_PERIOD) {
            let (mut doublings, mut saturated, mut lanes) = (0u64, 0u64, 0u64);
            for table in self.agents[..n].iter().flat_map(Agent::tables) {
                if let Some(h) = table.quant_health() {
                    doublings += h.doublings;
                    saturated += h.saturated;
                    lanes += h.lanes;
                }
            }
            tr.record_quant_health(doublings, saturated, lanes);
        }
        if let Some(ch) = &self.channel {
            tr.record_channel(ch.messages_sent(), ch.messages_delivered());
        }
    }
}

/// One shard's per-core slices of the RL state, as `shard_chunks` splits
/// them: agents, exploration streams, reward rows, this epoch's
/// `(state, action)` decisions, their validity bits, TD bootstraps, ε
/// draws, mem bins, and the shard's `[decide_ns, learn_ns]` stamp slot.
type RlShard<'a> = (
    &'a mut [Agent],
    &'a mut [StdRng],
    RewardRows<'a>,
    &'a mut [(usize, usize)],
    &'a mut [bool],
    &'a mut [f64],
    &'a mut [Option<u64>],
    &'a mut [u16],
    &'a mut [[u64; 2]],
);

/// What every shard of the RL block pipeline reads: this epoch's
/// observation plus the controller state the coarse-grain steps left
/// behind, frozen for the fine-grain pass.
struct RlPass<'a> {
    config: &'a OdRlConfig,
    encoder: &'a StateEncoder,
    obs: &'a Observation,
    budgets: &'a [Watts],
    scale: f64,
    max_seen: &'a [f64],
    /// Last epoch's `(state, action)` pairs, awaiting their reward.
    pending: Option<&'a [(usize, usize)]>,
    /// Validity of the pending pairs.
    prev_valid: &'a [bool],
    wd: Option<&'a SensorWatchdog>,
    trace_rings: Option<&'a [Mutex<TraceRing>]>,
    diag_shards: Option<&'a [Mutex<LearnDiag>]>,
    diag_rows: bool,
    epoch: u64,
    chunk: usize,
}

/// Cores per RL pipeline block: a whole-shard pass walks more agent rows
/// than L1/L2 hold, so by the time a later pass returned to an agent its
/// prefetched row was evicted again; a 64-agent block stays resident
/// across all four passes.
const BLOCK: usize = 64;

impl RlPass<'_> {
    /// Runs the RL block pipeline over one shard (cores `base..`), block
    /// by block:
    ///
    /// 1. encode every state, prefetch its row, and prefetch the next
    ///    block's pending update targets;
    /// 2. refill the block's ε draws — one `next_u64` per live core whose
    ///    policy pre-draws, from that core's own stream, so per-core draw
    ///    order (ε uniform, then the action draw only when exploring)
    ///    matches drawing at decision time; other policies draw inside
    ///    `decide`;
    /// 3. scan the block's rows in one [`odrl_rl::kernel::scan_rows`]
    ///    call (one-table agents on quantized storage) and select;
    /// 4. learn: price last epoch's transition and TD-step it while the
    ///    agent's scale line and the core's observation are still hot.
    ///
    /// Core j's decide completes before its learn, cores touch only their
    /// own tables and shaper rows, and blocks run in core order, so trace
    /// records and all per-core values are independent of the blocking
    /// and of the shard count. Per-block timer stamps keep the
    /// decide/learn substage split honest at ~3 clock reads per block.
    fn run_shard(&self, base: usize, shard: RlShard<'_>) {
        let (agents, rngs, mut rows, dec, valid, boots, draws, mem_phase, rl_ns) = shard;
        let len = agents.len();
        // All the parallel arrays are exactly `len` items (one-time
        // asserts, so the indexed passes run without per-iteration bounds
        // checks).
        assert!(
            dec.len() == len
                && draws.len() == len
                && boots.len() == len
                && valid.len() == len
                && mem_phase.len() == len
                && rngs.len() == len
        );
        // Per-shard epsilon memo: every lockstep agent shares the same
        // (schedule, step) pair, so one `exp()` serves the whole shard.
        let mut cache = EpsCache::new();
        // Stack-local diagnostics accumulator; merged into the shard slot
        // once at the end so the hot loops never touch the mutex.
        let diag_on = self.diag_shards.is_some();
        let mut diag = LearnDiag::new();
        // The shard's own trace ring, locked once for the whole pass (no
        // other shard touches it).
        let mut trace = self.trace_rings.map(|rings| {
            rings[base / self.chunk]
                .lock()
                .expect("shard ring poisoned")
        });
        let (mut decide_ns, mut learn_ns) = (0u64, 0u64);
        self.prefetch_updates(agents, base, 0, BLOCK.min(len));
        let mut blk = 0usize;
        while blk < len {
            let end = (blk + BLOCK).min(len);
            let t0 = Instant::now();
            // Pass 1: encode + prefetch. The update targets of block B+1
            // are requested here, giving them two full passes to land
            // before B+1's learn touches them.
            for j in blk..end {
                let (s, mb) = self.encode(base + j);
                dec[j].0 = s;
                mem_phase[j] = mb as u16;
                agents[j].tables().for_each(|t| t.prefetch_row(s));
            }
            self.prefetch_updates(agents, base, end, (end + BLOCK).min(len));
            // Pass 2: ε refill.
            for j in blk..end {
                draws[j] = (agents[j].policy_pre_draws() && !self.is_dead(base + j))
                    .then(|| rngs[j].next_u64());
            }
            // Pass 3a: one dispatched kernel call scans the whole block's
            // rows when every agent offers a banked row. Each result is
            // exactly what that agent's own scan would compute; dead
            // cores' rows are scanned too (a pure read) and the result
            // ignored.
            let mut scans = [(0u16, 0f64); BLOCK];
            let scanned = {
                const EMPTY_ROW: &[i16] = &[];
                let mut rows_buf: [(&[i16], f32); BLOCK] = [(EMPTY_ROW, 0.0); BLOCK];
                let ok = (blk..end).all(|j| match agents[j].quant_row(dec[j].0) {
                    Some(pair) => {
                        rows_buf[j - blk] = pair;
                        true
                    }
                    None => false,
                });
                if ok {
                    odrl_rl::kernel::scan_rows(&rows_buf[..end - blk], &mut scans[..end - blk]);
                }
                ok
            };
            // Pass 3b: select.
            for j in blk..end {
                let i = base + j;
                let s_next = dec[j].0;
                // A dead core takes no decision: pin it to the floor and
                // taint the recorded pair so the agent never learns from a
                // transition it did not choose.
                if self.is_dead(i) {
                    valid[j] = false;
                    dec[j] = (s_next, 0);
                    boots[j] = 0.0;
                    continue;
                }
                let scan = scanned.then(|| {
                    let (best, max_v) = scans[j - blk];
                    (usize::from(best), max_v)
                });
                let (a_next, explored, bootstrap) = agents[j]
                    .decide(s_next, draws[j], scan, &mut rngs[j], &mut cache)
                    .expect("encoded state and indices are in range");
                boots[j] = bootstrap;
                if diag_on {
                    diag.decisions += 1;
                    if explored {
                        diag.explorations += 1;
                    }
                    if self.diag_rows {
                        if let Ok(st) = agents[j].row_stats(s_next) {
                            diag.q_span.record(st.q_span());
                            diag.visit_span.record(st.visit_spread() as f64);
                        }
                    }
                }
                if explored {
                    if let Some(ring) = trace.as_mut() {
                        ring.record(
                            self.epoch,
                            i as u32,
                            Event::RlChoice {
                                action: a_next as u8,
                                explored: true,
                            },
                        );
                    }
                }
                dec[j] = (s_next, a_next);
            }
            let t1 = Instant::now();
            decide_ns += t1.duration_since(t0).as_nanos() as u64;
            // Pass 4: learn, with the bootstrap pass 3 read from the
            // pre-update table. The reward draws no randomness.
            if let Some(pending) = self.pending {
                for j in blk..end {
                    let i = base + j;
                    if !self.prev_valid[i] || self.is_dead(i) {
                        continue;
                    }
                    let (s, a) = pending[i];
                    let r = self.reward(&mut rows, j, i, usize::from(mem_phase[j]));
                    let td = agents[j]
                        .learn(s, a, r, boots[j])
                        .expect("recorded state and action are in range");
                    if self.diag_rows {
                        diag.td_error.record(td);
                    } else if diag_on {
                        diag.td_error.record_extreme(td);
                    }
                }
            }
            learn_ns += t1.elapsed().as_nanos() as u64;
            blk = end;
        }
        rl_ns[0] = [decide_ns, learn_ns];
        if let Some(ds) = self.diag_shards {
            ds[base / self.chunk]
                .lock()
                .expect("shard diag poisoned")
                .merge(&diag);
        }
    }

    /// Core `i`'s state and mem bin: same arithmetic as
    /// `OdRlController::affordability`, with the decaying power ceiling
    /// read from the frozen slice.
    #[inline]
    fn encode(&self, i: usize) -> (usize, usize) {
        let p_max = self.max_seen[i];
        let afford = if p_max > 0.0 {
            (self.budgets[i] * self.scale).value() / p_max
        } else {
            f64::INFINITY
        };
        self.encoder.encode_with_mem(&self.obs.cores[i], afford)
    }

    #[inline]
    fn is_dead(&self, i: usize) -> bool {
        self.wd.is_some_and(|w| w.is_dead(i))
    }

    /// Prices core `i`'s (shard row `j`) pending transition. A stale
    /// sensor prices it with the last good reading against a
    /// margin-reduced budget: conservative while partially blind.
    #[inline]
    fn reward(&self, rows: &mut RewardRows<'_>, j: usize, i: usize, phase: usize) -> f64 {
        let core = &self.obs.cores[i];
        let (power, local_budget) = match self.wd {
            Some(w) if w.is_stale(i) => {
                (w.held_power(i), self.budgets[i] * (self.scale * w.margin()))
            }
            _ => (core.power, self.budgets[i] * self.scale),
        };
        let mut r = rows.reward(j, phase, core.ips, power, local_budget);
        if let Some(limit) = self.config.thermal_limit {
            let excess = (core.temperature.value() - limit).max(0.0);
            r -= self.config.thermal_penalty * excess / 10.0;
        }
        r
    }

    /// Prefetches the pending TD-update targets of shard cores
    /// `from..to` (last epoch's decisions are known before any pass runs).
    #[inline]
    fn prefetch_updates(&self, agents: &[Agent], base: usize, from: usize, to: usize) {
        if let Some(pending) = self.pending {
            for k in from..to {
                let (s, a) = pending[base + k];
                agents[k].tables().for_each(|t| t.prefetch_update(s, a));
            }
        }
    }
}

impl PowerController for OdRlController {
    fn name(&self) -> &str {
        self.name
    }

    fn decide_into(&mut self, obs: &Observation, out: &mut [LevelId]) {
        debug_assert_eq!(out.len(), obs.cores.len());
        let n = obs.cores.len().min(self.agents.len());
        if n == 0 {
            return;
        }
        // Cores beyond the agent population (defensive) get the floor.
        out.fill(LevelId(0));
        self.track_budget(obs.budget);
        let epoch = self.epochs;
        // Clock reads only when tracing: the disabled path must cost
        // nothing beyond the `Option` branches.
        let t0 = self.tracer.is_some().then(Instant::now);

        // Telemetry health first: every degradation decision below keys
        // off the flags this refreshes.
        if let Some(wd) = &mut self.watchdog {
            wd.observe(obs);
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            if let Some(wd) = &self.watchdog {
                tr.record_watchdog(epoch, wd);
            }
            tr.record_power(epoch, obs.total_power.value(), obs.budget.value());
        }

        // Overshoot guard: with chip telemetry dark the controller cannot
        // know whether it is over budget, and flying blind upward risks
        // the part. Pin every core to the floor level (already written to
        // `out`), drop the unpriceable pending transition, and wait for
        // the meter to return.
        if self
            .watchdog
            .as_ref()
            .is_some_and(SensorWatchdog::chip_dark)
        {
            if let Some(p) = self.pending.take() {
                self.spare = p;
            }
        } else {
            if let Some(ch) = &mut self.channel {
                ch.begin_epoch(self.epochs);
            }
            self.reallocate(obs, n, epoch);
            self.redistribute_dead_shares(n, epoch);
            self.track_power(obs);
            self.rl_pipeline(obs, n, epoch, out);
            self.record_diagnostics(n, epoch);
        }
        if let (Some(tr), Some(t0)) = (self.tracer.as_deref_mut(), t0) {
            tr.end_epoch(epoch, t0);
        }
        self.epochs += 1;
    }

    fn event_counts(&self) -> Option<EventCounts> {
        self.tracer.as_deref().map(CtrlTracer::counts)
    }

    fn extend_trace_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        OdRlController::extend_trace_into(self, epochs, out);
    }

    fn metrics_snapshot(&self) -> Option<&odrl_obs::MetricsSnapshot> {
        self.tracer.as_deref().map(CtrlTracer::last_snapshot)
    }

    fn learn_diag(&self) -> Option<&odrl_obs::LearnDiag> {
        self.tracer.as_deref().and_then(CtrlTracer::last_diag)
    }

    fn policy_bytes(&self) -> Option<Vec<u8>> {
        Some(self.export_policy().to_bytes())
    }
}

/// An exported set of learned per-core policies (see
/// [`OdRlController::export_policy`]). Opaque; it persists as versioned
/// snapshot bytes ([`PolicySnapshot::to_bytes`], [`PolicySnapshot::save`])
/// and can be imported into a compatible controller later.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    states: usize,
    actions: usize,
    agents: Vec<Agent>,
}

impl PolicySnapshot {
    /// Number of per-core agents in the snapshot.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// State-space size each agent's table was built for.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Action-space size each agent's table was built for.
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Encodes the snapshot in the versioned binary format (see
    /// `odrl_rl::snapshot`): the common header with kind
    /// [`KIND_POLICY_SET`], the table dimensions and agent count, then
    /// one kind-tagged agent block per core. Floats travel as raw bits,
    /// so a decode-encode round trip is bit-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = rl_snapshot::header(KIND_POLICY_SET);
        rl_snapshot::put_u64(&mut out, self.states as u64);
        rl_snapshot::put_u64(&mut out, self.actions as u64);
        rl_snapshot::put_u64(&mut out, self.agents.len() as u64);
        for agent in &self.agents {
            rl_snapshot::put_u64(&mut out, u64::from(agent.snapshot_kind()));
            agent.encode_block(&mut out);
        }
        out
    }

    /// Decodes a snapshot produced by [`PolicySnapshot::to_bytes`],
    /// validating the magic, version, kind, every agent block and that
    /// each agent's table matches the header dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for any malformed, truncated or
    /// mismatched input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RlError> {
        let mut cur = rl_snapshot::check_header(bytes, KIND_POLICY_SET)?;
        let states = cur.take_len()?;
        let actions = cur.take_len()?;
        let count = cur.take_len()?;
        let mut agents = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let kind = u8::try_from(cur.take_u64()?).unwrap_or(u8::MAX);
            let agent = Agent::decode_block(&mut cur, kind)?;
            if (agent.q().states(), agent.q().actions()) != (states, actions) {
                return Err(RlError::Snapshot {
                    reason: "agent dimensions disagree with the policy-set header",
                });
            }
            agents.push(agent);
        }
        cur.finish()?;
        Ok(Self {
            states,
            actions,
            agents,
        })
    }

    /// Writes the binary snapshot to `path` — the on-disk warm-start
    /// artifact [`crate::OdRlController::import_policy`] boots from after
    /// a [`PolicySnapshot::load`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes()).map_err(SnapshotError::Io)
    }

    /// Reads a binary snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be read, or
    /// [`SnapshotError::Format`] if its contents do not decode.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_manycore::{System, SystemConfig};
    use odrl_workload::MixPolicy;

    fn run(
        cores: usize,
        budget_frac: f64,
        epochs: u64,
        seed: u64,
    ) -> (System, OdRlController, Watts) {
        let config = SystemConfig::builder()
            .cores(cores)
            .seed(seed)
            .build()
            .unwrap();
        let budget = Watts::new(budget_frac * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut ctrl = OdRlController::new(
            OdRlConfig {
                seed,
                ..OdRlConfig::default()
            },
            &system.spec(),
            budget,
        )
        .unwrap();
        for _ in 0..epochs {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            system.step(&actions).unwrap();
        }
        (system, ctrl, budget)
    }

    #[test]
    fn tracer_absent_by_default_and_event_counts_none() {
        let (_, ctrl, _) = run(8, 0.6, 20, 9);
        assert!(ctrl.tracer().is_none());
        assert!(ctrl.event_counts().is_none());
        let mut recs = Vec::new();
        ctrl.extend_trace_into(0..u64::MAX, &mut recs);
        assert!(recs.is_empty());
    }

    #[test]
    fn tracer_records_and_merged_trace_is_shard_count_invariant() {
        use odrl_manycore::Parallelism;
        use odrl_obs::{merge_records, ObsConfig};

        let mut traces = Vec::new();
        let mut counts = Vec::new();
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let sys_config = SystemConfig::builder().cores(16).seed(11).build().unwrap();
            let budget = Watts::new(0.5 * sys_config.max_power().value());
            let mut system = System::new(sys_config).unwrap();
            let mut ctrl = OdRlController::new(
                OdRlConfig {
                    seed: 11,
                    parallelism: par,
                    obs: ObsConfig::enabled(),
                    ..OdRlConfig::default()
                },
                &system.spec(),
                budget,
            )
            .unwrap();
            let mut out = vec![LevelId(0); 16];
            for _ in 0..150 {
                let obs = system.observation(budget);
                ctrl.decide_into(&obs, &mut out);
                system.step(&out).unwrap();
            }
            let c = ctrl.event_counts().expect("tracer enabled");
            assert!(c.explorations > 0, "epsilon floor guarantees exploration");
            assert!(c.reallocations > 0, "realloc every 10 epochs");
            counts.push(c);
            let mut recs = Vec::new();
            ctrl.extend_trace_into(0..u64::MAX, &mut recs);
            merge_records(&mut recs);
            traces.push(recs);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(
            traces[0], traces[1],
            "merged trace must not depend on shard count"
        );
    }

    #[test]
    fn actions_are_always_valid() {
        let config = SystemConfig::builder().cores(8).seed(3).build().unwrap();
        let budget = Watts::new(0.5 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), budget).unwrap();
        for _ in 0..100 {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            assert_eq!(actions.len(), 8);
            assert!(actions.iter().all(|a| a.index() < 8));
            system.step(&actions).unwrap();
        }
    }

    #[test]
    fn learns_to_respect_the_budget() {
        let (system, _, budget) = run(16, 0.5, 600, 1);
        // Average power over the last quarter of the run must be near or
        // under the budget — the learned policy caps power.
        let total_energy = system.telemetry().total_energy().value();
        let avg_power = total_energy / system.telemetry().elapsed().value();
        assert!(
            avg_power < budget.value() * 1.10,
            "avg power {avg_power} vs budget {}",
            budget.value()
        );
    }

    #[test]
    fn budgets_sum_to_chip_budget() {
        let (_, ctrl, budget) = run(16, 0.6, 100, 2);
        let sum: f64 = ctrl.budgets().iter().map(|w| w.value()).sum();
        assert!(
            (sum - budget.value()).abs() < 1e-6 * budget.value(),
            "budgets sum {sum} vs {budget}"
        );
    }

    #[test]
    fn coverage_grows_with_experience() {
        let (_, ctrl_short, _) = run(8, 0.6, 20, 3);
        let (_, ctrl_long, _) = run(8, 0.6, 400, 3);
        assert!(ctrl_long.coverage() > ctrl_short.coverage());
        assert!(ctrl_long.coverage() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (sys_a, _, _) = run(8, 0.6, 100, 42);
        let (sys_b, _, _) = run(8, 0.6, 100, 42);
        assert_eq!(
            sys_a.telemetry().total_instructions(),
            sys_b.telemetry().total_instructions()
        );
        assert_eq!(
            sys_a.telemetry().total_energy(),
            sys_b.telemetry().total_energy()
        );
    }

    #[test]
    fn parallel_decide_is_bit_identical_to_serial() {
        use odrl_manycore::Parallelism;
        let run = |par: Parallelism| {
            let config = SystemConfig::builder()
                .cores(16)
                .seed(13)
                .parallelism(par)
                .build()
                .unwrap();
            let budget = Watts::new(0.55 * config.max_power().value());
            let mut system = System::new(config).unwrap();
            let mut ctrl = OdRlController::new(
                OdRlConfig {
                    parallelism: par,
                    seed: 13,
                    ..OdRlConfig::default()
                },
                &system.spec(),
                budget,
            )
            .unwrap();
            let mut all_actions = Vec::new();
            for _ in 0..120 {
                let obs = system.observation(budget);
                let actions = ctrl.decide(&obs);
                all_actions.push(actions.clone());
                system.step(&actions).unwrap();
            }
            (all_actions, ctrl.export_policy(), system)
        };
        let (serial_actions, serial_policy, serial_sys) = run(Parallelism::Serial);
        for threads in [1, 2, 4, 8] {
            let (actions, policy, sys) = run(Parallelism::Threads(threads));
            assert_eq!(actions, serial_actions, "{threads} threads");
            assert_eq!(policy, serial_policy, "{threads} threads");
            assert_eq!(
                sys.telemetry().total_instructions(),
                serial_sys.telemetry().total_instructions()
            );
            assert_eq!(
                sys.telemetry().total_energy(),
                serial_sys.telemetry().total_energy()
            );
        }
    }

    #[test]
    fn tracks_budget_steps() {
        let config = SystemConfig::builder().cores(8).seed(5).build().unwrap();
        let max = config.max_power();
        let mut system = System::new(config).unwrap();
        let mut ctrl =
            OdRlController::new(OdRlConfig::default(), &system.spec(), max * 0.8).unwrap();
        for _ in 0..50 {
            let obs = system.observation(max * 0.8);
            let a = ctrl.decide(&obs);
            system.step(&a).unwrap();
        }
        // Halve the budget: the controller's internal allocation follows.
        let new_budget = max * 0.4;
        let obs = system.observation(new_budget);
        ctrl.decide(&obs);
        let sum: f64 = ctrl.budgets().iter().map(|w| w.value()).sum();
        assert!((sum - new_budget.value()).abs() < 1e-6 * new_budget.value());
    }

    #[test]
    fn without_reallocation_keeps_fair_split() {
        let config = SystemConfig::builder()
            .cores(8)
            .mix(MixPolicy::RoundRobin)
            .seed(6)
            .build()
            .unwrap();
        let budget = Watts::new(0.5 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut ctrl =
            OdRlController::without_reallocation(OdRlConfig::default(), &system.spec(), budget)
                .unwrap();
        assert_eq!(ctrl.name(), "od-rl-local");
        for _ in 0..60 {
            let obs = system.observation(budget);
            let a = ctrl.decide(&obs);
            system.step(&a).unwrap();
        }
        let fair = budget.value() / 8.0;
        for b in ctrl.budgets() {
            assert!((b.value() - fair).abs() < 1e-9, "shares drifted: {b}");
        }
    }

    #[test]
    fn reallocation_diverges_budgets_on_heterogeneous_load() {
        let (_, ctrl, budget) = run(12, 0.6, 400, 7);
        let fair = budget.value() / 12.0;
        let max_dev = ctrl
            .budgets()
            .iter()
            .map(|b| (b.value() - fair).abs() / fair)
            .fold(0.0, f64::max);
        assert!(
            max_dev > 0.05,
            "heterogeneous mix should move budgets, max dev {max_dev}"
        );
    }

    #[test]
    fn thermal_limit_reduces_peak_temperature() {
        // Uncapped power budget, aggressive thermal limit: the thermally
        // aware controller must run measurably cooler than the plain one.
        let run = |limit: Option<f64>| {
            let config = SystemConfig::builder().cores(16).seed(9).build().unwrap();
            let budget = config.max_power(); // power cap never binds
            let mut system = System::new(config).unwrap();
            let mut ctrl = OdRlController::new(
                OdRlConfig {
                    thermal_limit: limit,
                    thermal_penalty: 5.0,
                    ..OdRlConfig::default()
                },
                &system.spec(),
                budget,
            )
            .unwrap();
            for _ in 0..600 {
                let obs = system.observation(budget);
                let actions = ctrl.decide(&obs);
                system.step(&actions).unwrap();
            }
            system.telemetry().peak_temperature().value()
        };
        let hot = run(None);
        let cool = run(Some(60.0));
        assert!(
            cool < hot - 1.0,
            "thermal limit should cool the die: {cool} vs {hot}"
        );
    }

    /// Pins the ε-greedy double-Q controller: the action stream and the
    /// exported policy bytes over both table layouts, serial and sharded
    /// four ways.
    #[test]
    fn double_q_controller_is_pinned_and_shard_invariant() {
        use odrl_manycore::Parallelism;
        use odrl_rl::{Algorithm, QTableLayout};
        const CORES: usize = 48;
        const GOLDEN: u64 = 18398126560090273698;

        let fnv = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let run = |layout: QTableLayout, par: Parallelism| {
            let config = SystemConfig::builder()
                .cores(CORES)
                .seed(23)
                .build()
                .unwrap();
            let budget = Watts::new(0.55 * config.max_power().value());
            let mut system = System::new(config).unwrap();
            let mut ctrl = OdRlController::new(
                OdRlConfig {
                    algorithm: Algorithm::DoubleQLearning,
                    seed: 23,
                    layout,
                    parallelism: par,
                    ..OdRlConfig::default()
                },
                &system.spec(),
                budget,
            )
            .unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut out = vec![LevelId(0); CORES];
            for _ in 0..200 {
                let obs = system.observation(budget);
                ctrl.decide_into(&obs, &mut out);
                for a in &out {
                    fnv(&mut h, &(a.index() as u16).to_le_bytes());
                }
                system.step(&out).unwrap();
            }
            fnv(&mut h, &ctrl.export_policy().to_bytes());
            h
        };
        let mut all = 0xcbf2_9ce4_8422_2325u64;
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            let serial = run(layout, Parallelism::Serial);
            let sharded = run(layout, Parallelism::Threads(4));
            assert_eq!(serial, sharded, "{layout:?}: shard count leaked");
            fnv(&mut all, &serial.to_le_bytes());
        }
        assert_eq!(
            all, GOLDEN,
            "double-Q controller stream drifted from golden"
        );
    }

    #[test]
    fn every_algorithm_variant_runs() {
        use odrl_rl::Algorithm;
        for algorithm in [Algorithm::QLearning, Algorithm::DoubleQLearning] {
            let config = SystemConfig::builder().cores(8).seed(4).build().unwrap();
            let budget = Watts::new(0.6 * config.max_power().value());
            let mut system = System::new(config).unwrap();
            let mut ctrl = OdRlController::new(
                OdRlConfig {
                    algorithm,
                    ..OdRlConfig::default()
                },
                &system.spec(),
                budget,
            )
            .unwrap();
            for _ in 0..100 {
                let obs = system.observation(budget);
                let actions = ctrl.decide(&obs);
                system.step(&actions).unwrap();
            }
            assert!(
                system.telemetry().total_instructions() > 0.0,
                "{algorithm:?}"
            );
            assert!(ctrl.coverage() > 0.0, "{algorithm:?}");
        }
    }

    #[test]
    fn warm_start_transfers_learning() {
        let mk = || {
            let config = SystemConfig::builder().cores(12).seed(45).build().unwrap();
            let budget = Watts::new(0.55 * config.max_power().value());
            let system = System::new(config).unwrap();
            let ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), budget).unwrap();
            (system, ctrl, budget)
        };
        // Train a controller for 800 epochs and export its policy.
        let (mut system, mut trained, budget) = mk();
        for _ in 0..800 {
            let obs = system.observation(budget);
            let a = trained.decide(&obs);
            system.step(&a).unwrap();
        }
        let snapshot = trained.export_policy();
        assert_eq!(snapshot.num_agents(), 12);

        // Cold vs warm on a fresh system: compare the first 150 epochs.
        let early = |warm: bool| {
            let (mut system, mut ctrl, budget) = mk();
            if warm {
                ctrl.import_policy(snapshot.clone()).unwrap();
            }
            let mut instr = 0.0;
            for _ in 0..150 {
                let obs = system.observation(budget);
                let a = ctrl.decide(&obs);
                let r = system.step(&a).unwrap();
                instr += r.total_instructions();
            }
            instr
        };
        let cold = early(false);
        let warm = early(true);
        assert!(
            warm > cold * 1.02,
            "warm start should beat cold start early: {warm} vs {cold}"
        );
    }

    #[test]
    fn policy_set_decoder_rejects_impossible_dimensions() {
        let spec = SystemConfig::builder().cores(4).build().unwrap().spec();
        let ctrl = OdRlController::new(OdRlConfig::default(), &spec, Watts::new(10.0)).unwrap();
        let mut bytes = ctrl.export_policy().to_bytes();
        assert!(PolicySnapshot::from_bytes(&bytes).is_ok());
        // Header (16) · states, actions, count (24) · first agent's kind
        // (8) · its gamma, step, alpha and ε-greedy policy (104) · storage
        // layout tag (8), then the table's `states` and `actions`.
        let huge = (1u64 << 30).to_le_bytes();
        bytes[160..168].copy_from_slice(&huge);
        bytes[168..176].copy_from_slice(&huge);
        assert!(matches!(
            PolicySnapshot::from_bytes(&bytes),
            Err(RlError::Snapshot { .. })
        ));
    }

    #[test]
    fn import_rejects_mismatched_snapshots() {
        let config = SystemConfig::builder().cores(8).seed(1).build().unwrap();
        let budget = Watts::new(20.0);
        let spec = config.spec();
        let ctrl = OdRlController::new(OdRlConfig::default(), &spec, budget).unwrap();
        let snapshot = ctrl.export_policy();

        // Different core count.
        let mut small_spec = spec.clone();
        small_spec.cores = 4;
        let mut other = OdRlController::new(OdRlConfig::default(), &small_spec, budget).unwrap();
        assert!(other.import_policy(snapshot.clone()).is_err());

        // Different state space (more bins).
        let mut other = OdRlController::new(
            OdRlConfig {
                power_bins: 16,
                ..OdRlConfig::default()
            },
            &spec,
            budget,
        )
        .unwrap();
        assert!(other.import_policy(snapshot).is_err());
    }

    #[test]
    fn degradation_survives_core_unplug() {
        use crate::watchdog::WatchdogConfig;
        use odrl_faults::{CoreFault, FaultKind, FaultPlan, Target};
        let plan = FaultPlan::new().with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Core(2),
            50,
            100,
        );
        let config = SystemConfig::builder().cores(8).seed(11).build().unwrap();
        let budget = Watts::new(0.6 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        system.attach_faults(&plan).unwrap();
        let mut ctrl = OdRlController::new(
            OdRlConfig {
                watchdog: WatchdogConfig::enabled(),
                seed: 11,
                ..OdRlConfig::default()
            },
            &system.spec(),
            budget,
        )
        .unwrap();
        ctrl.attach_budget_faults(system.fault_engine().unwrap())
            .unwrap();
        let mut saw_dead = false;
        for _ in 0..250 {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            if ctrl.watchdog().unwrap().is_dead(2) {
                saw_dead = true;
                // The dead core's share has been handed to the survivors.
                assert_eq!(ctrl.budgets()[2], Watts::ZERO);
                let sum: f64 = ctrl.budgets().iter().map(|w| w.value()).sum();
                assert!(sum > 0.0);
            }
            system.step(&actions).unwrap();
        }
        assert!(saw_dead, "watchdog never flagged the unplugged core");
        // The outage ended at epoch 150: the core has rejoined by now.
        assert!(!ctrl.watchdog().unwrap().is_dead(2));
        assert!(system.telemetry().total_instructions() > 0.0);
    }

    #[test]
    fn dark_chip_telemetry_pins_the_floor() {
        use crate::watchdog::WatchdogConfig;
        use odrl_faults::{FaultKind, FaultPlan, SensorFault, Target};
        let plan = FaultPlan::new().with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Chip,
            60,
            40,
        );
        let config = SystemConfig::builder().cores(8).seed(21).build().unwrap();
        let budget = Watts::new(0.6 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        system.attach_faults(&plan).unwrap();
        let mut ctrl = OdRlController::new(
            OdRlConfig {
                watchdog: WatchdogConfig::enabled(),
                seed: 21,
                ..OdRlConfig::default()
            },
            &system.spec(),
            budget,
        )
        .unwrap();
        let mut dark_epochs = 0;
        for _ in 0..150 {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            if ctrl.watchdog().unwrap().chip_dark() {
                dark_epochs += 1;
                assert!(
                    actions.iter().all(|&a| a == LevelId(0)),
                    "blind controller must pin the floor"
                );
            }
            system.step(&actions).unwrap();
        }
        assert!(dark_epochs > 10, "dark window never detected");
        // The meter healed at epoch 100; the controller runs freely again.
        assert!(!ctrl.watchdog().unwrap().chip_dark());
    }

    #[test]
    fn lost_budget_messages_keep_old_shares() {
        use odrl_faults::{BudgetFault, FaultEngine, FaultKind, FaultPlan, Target};
        let plan = FaultPlan::new().with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::All,
            0,
            10_000,
        );
        let engine = FaultEngine::compile(&plan, 8, 1).unwrap();
        let config = SystemConfig::builder().cores(8).seed(31).build().unwrap();
        let budget = Watts::new(0.6 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), budget).unwrap();
        ctrl.attach_budget_faults(&engine).unwrap();
        for _ in 0..100 {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            system.step(&actions).unwrap();
        }
        // Every reallocation message was lost: agents still hold the
        // initial fair split.
        let fair = budget.value() / 8.0;
        for b in ctrl.budgets() {
            assert!((b.value() - fair).abs() < 1e-9, "share drifted: {b}");
        }
    }

    #[test]
    fn attach_budget_faults_rejects_core_mismatch() {
        use odrl_faults::{FaultEngine, FaultPlan};
        let engine = FaultEngine::compile(&FaultPlan::new(), 4, 0).unwrap();
        let spec = SystemConfig::builder().cores(8).build().unwrap().spec();
        let mut ctrl = OdRlController::new(OdRlConfig::default(), &spec, Watts::new(10.0)).unwrap();
        assert!(ctrl.attach_budget_faults(&engine).is_err());
    }

    #[test]
    fn rejects_empty_spec() {
        let spec = SystemConfig::builder().cores(4).build().unwrap().spec();
        let mut empty = spec.clone();
        empty.cores = 0;
        assert!(matches!(
            OdRlController::new(OdRlConfig::default(), &empty, Watts::new(10.0)),
            Err(OdRlError::EmptySpec)
        ));
    }

    /// A greedy policy (only reachable through an imported snapshot) does
    /// not pre-draw an ε uniform. Pins the action and budget stream of
    /// such controllers, alone and mixed with ε-greedy agents, over single
    /// and double agents on both layouts, and checks it is shard-invariant.
    #[test]
    fn imported_non_epsilon_policies_are_pinned_and_shard_invariant() {
        use odrl_manycore::Parallelism;
        use odrl_rl::{Algorithm, QTableLayout};
        const CORES: usize = 96;
        const GOLDEN: u64 = 1908518206904670182;

        let eps = Policy::default_epsilon_greedy();
        let cases: [&[Policy]; 2] = [&[Policy::Greedy], &[Policy::Greedy, eps]];
        let fnv = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let run = |layout: QTableLayout, case: usize, par: Parallelism| {
            let config = SystemConfig::builder()
                .cores(CORES)
                .seed(17)
                .build()
                .unwrap();
            let budget = Watts::new(0.55 * config.max_power().value());
            let mut system = System::new(config).unwrap();
            let cfg = OdRlConfig {
                seed: 17,
                layout,
                parallelism: par,
                ..OdRlConfig::default()
            };
            let mut ctrl = OdRlController::new(cfg.clone(), &system.spec(), budget).unwrap();
            let (states, actions) = {
                let t = ctrl.export_policy();
                (t.states(), t.actions())
            };
            let optimistic = 1.0 / (1.0 - cfg.gamma);
            let agents = (0..CORES)
                .map(|i| {
                    let policy = cases[case][i % cases[case].len()];
                    let algorithm = if i % 2 == 0 {
                        Algorithm::QLearning
                    } else {
                        Algorithm::DoubleQLearning
                    };
                    Agent::builder(states, actions)
                        .algorithm(algorithm)
                        .gamma(cfg.gamma)
                        .alpha(cfg.alpha)
                        .policy(policy)
                        .layout(layout)
                        .optimistic(optimistic)
                        .build()
                        .unwrap()
                })
                .collect();
            ctrl.import_policy(PolicySnapshot {
                states,
                actions,
                agents,
            })
            .unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut out = vec![LevelId(0); CORES];
            for _ in 0..200 {
                let obs = system.observation(budget);
                ctrl.decide_into(&obs, &mut out);
                for a in &out {
                    fnv(&mut h, &(a.index() as u16).to_le_bytes());
                }
                for b in ctrl.budgets() {
                    fnv(&mut h, &b.value().to_bits().to_le_bytes());
                }
                system.step(&out).unwrap();
            }
            h
        };
        let mut all = 0xcbf2_9ce4_8422_2325u64;
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            for case in 0..cases.len() {
                let serial = run(layout, case, Parallelism::Serial);
                let sharded = run(layout, case, Parallelism::Threads(4));
                assert_eq!(
                    serial, sharded,
                    "{layout:?} case {case}: shard count leaked"
                );
                fnv(&mut all, &serial.to_le_bytes());
            }
        }
        assert_eq!(all, GOLDEN, "imported-policy stream drifted from golden");
    }
}
