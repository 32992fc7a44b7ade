//! Observability configuration and the aggregate event-count summary.

use crate::ring::TraceRing;
use serde::{DeError, Deserialize, Serialize, Value};

/// Records a whole-run ring holds at least, and the most records one
/// segment of a recorder-sized ring reserves. Rings never grow: once full
/// they clear their oldest segment.
pub const RING_CAPACITY: usize = 65_536;

/// How often (epochs) the quantized-storage health scan and the
/// Q-row statistics of the learning-health diagnostics run. The scan
/// walks every Q-row, so it is period-gated rather than per-epoch.
pub const DIAG_PERIOD: u64 = 16;

/// Observability switches, embedded in `SystemConfig` and `OdRlConfig`.
///
/// Defaults to **off**: the instrumented components then hold no tracer at
/// all and every recording site is a single `Option` check on the no-op
/// path, so disabled tracing costs nothing measurable and allocates
/// nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether structured tracing + metrics are recorded.
    pub enabled: bool,
    /// Whether learning-health diagnostics (TD-error / greedy-Q-span /
    /// exploration summaries and quantized-storage health) are recorded.
    /// Requires `enabled`; off by default like all obs features.
    pub diag: bool,
    /// The flight-recorder window the trace rings are sized for (see
    /// [`ObsConfig::for_recorder`]); `None` keeps whole-run rings. Set by
    /// the run that owns the recorder, never serialized.
    window: Option<u64>,
}

impl ObsConfig {
    /// Tracing enabled, diagnostics off.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Tracing and learning-health diagnostics both enabled.
    pub fn with_diagnostics() -> Self {
        Self {
            diag: true,
            ..Self::enabled()
        }
    }

    /// Tracing and diagnostics for a run whose only trace reader is a
    /// flight recorder dumping the last `window` epochs (min 1): every
    /// ring keeps that window and at most twice it (see
    /// [`TraceRing::windowed`]), instead of the last
    /// [`RING_CAPACITY`] records.
    pub fn for_recorder(window: u64) -> Self {
        Self {
            window: Some(window.max(1)),
            ..Self::with_diagnostics()
        }
    }

    /// Whether learning-health diagnostics are actually on (requires the
    /// tracer itself to be enabled).
    pub fn diagnostics(&self) -> bool {
        self.enabled && self.diag
    }

    /// The recorder window the rings are sized for, `None` for whole-run
    /// rings.
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// A trace ring for a writer of at most `per_epoch` records an epoch:
    /// [`TraceRing::windowed`] over the recorder window, or a whole-run
    /// ring of [`RING_CAPACITY`] records.
    pub fn ring(&self, per_epoch: usize) -> TraceRing {
        match self.window {
            Some(window) => TraceRing::windowed(window, per_epoch),
            None => TraceRing::with_capacity(RING_CAPACITY),
        }
    }
}

/// The serialized form of [`ObsConfig`]: its two switches.
#[derive(Serialize, Deserialize)]
struct Switches {
    #[serde(default)]
    enabled: bool,
    #[serde(default)]
    diag: bool,
}

impl Serialize for ObsConfig {
    fn to_value(&self) -> Value {
        Switches {
            enabled: self.enabled,
            diag: self.diag,
        }
        .to_value()
    }
}

impl Deserialize for ObsConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = Switches::from_value(v)?;
        Ok(Self {
            enabled: s.enabled,
            diag: s.diag,
            window: None,
        })
    }
}

/// Per-kind event totals for one run, summed across the instrumented
/// components (controller watchdog/budget/RL events plus simulator fault
/// edges). The compact summary `exp_resilience` prints per cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Watchdog stale-flag transitions (enter + clear).
    pub watchdog_stale: u64,
    /// Watchdog dead-flag transitions (enter + clear).
    pub watchdog_dead: u64,
    /// Chip-dark transitions (enter + clear).
    pub watchdog_dark: u64,
    /// Coarse-grain budget reallocations applied.
    pub reallocations: u64,
    /// Dead-core budget redistributions applied.
    pub redistributions: u64,
    /// Budget-overshoot onsets.
    pub overshoot_onsets: u64,
    /// RL exploration choices taken.
    pub explorations: u64,
    /// Fault windows opened (all classes).
    pub faults_injected: u64,
    /// Fault windows closed (all classes).
    pub faults_cleared: u64,
}

impl EventCounts {
    /// Element-wise sum of two summaries (e.g. controller + system).
    #[must_use]
    pub fn merged(&self, other: &EventCounts) -> EventCounts {
        EventCounts {
            watchdog_stale: self.watchdog_stale + other.watchdog_stale,
            watchdog_dead: self.watchdog_dead + other.watchdog_dead,
            watchdog_dark: self.watchdog_dark + other.watchdog_dark,
            reallocations: self.reallocations + other.reallocations,
            redistributions: self.redistributions + other.redistributions,
            overshoot_onsets: self.overshoot_onsets + other.overshoot_onsets,
            explorations: self.explorations + other.explorations,
            faults_injected: self.faults_injected + other.faults_injected,
            faults_cleared: self.faults_cleared + other.faults_cleared,
        }
    }

    /// Total events across every kind.
    pub fn total(&self) -> u64 {
        self.watchdog_stale
            + self.watchdog_dead
            + self.watchdog_dark
            + self.reallocations
            + self.redistributions
            + self.overshoot_onsets
            + self.explorations
            + self.faults_injected
            + self.faults_cleared
    }

    /// Compact per-kind rendering for table cells, e.g.
    /// `st2 dd1 dk0 ra12 rd3 ov5 f8` (explorations omitted: they dominate
    /// volume without being resilience events).
    pub fn compact(&self) -> String {
        format!(
            "st{} dd{} dk{} ra{} rd{} ov{} f{}",
            self.watchdog_stale,
            self.watchdog_dead,
            self.watchdog_dark,
            self.reallocations,
            self.redistributions,
            self.overshoot_onsets,
            self.faults_injected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        assert!(!ObsConfig::default().enabled);
        assert!(ObsConfig::enabled().enabled);
        // Diagnostics default off and require the tracer to be enabled.
        assert!(!ObsConfig::enabled().diagnostics());
        let d = ObsConfig::with_diagnostics();
        assert!(d.enabled && d.diag && d.diagnostics());
        let orphan = ObsConfig {
            diag: true,
            ..ObsConfig::default()
        };
        assert!(!orphan.diagnostics());
    }

    #[test]
    fn serde_missing_fields_mean_disabled() {
        let c: ObsConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, ObsConfig::default());
        let c: ObsConfig = serde_json::from_str(r#"{"enabled":true}"#).unwrap();
        assert_eq!(c, ObsConfig::enabled());
        // Unknown fields are ignored, so configs that still carry retired
        // knobs (the old ring capacity and scan period) keep loading.
        let c: ObsConfig =
            serde_json::from_str(r#"{"enabled":true,"capacity":32,"diag":true,"period":4}"#)
                .unwrap();
        assert_eq!(c, ObsConfig::with_diagnostics());
        let back: ObsConfig =
            serde_json::from_str(&serde_json::to_string(&ObsConfig::with_diagnostics()).unwrap())
                .unwrap();
        assert_eq!(back, ObsConfig::with_diagnostics());
        // The recorder window sizes rings for one run; it is not a setting
        // and does not serialize.
        let rec = ObsConfig::for_recorder(32);
        assert_eq!(rec.window(), Some(32));
        assert!(rec.diagnostics());
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            serde_json::to_string(&ObsConfig::with_diagnostics()).unwrap()
        );
    }

    #[test]
    fn counts_merge_and_render() {
        let a = EventCounts {
            watchdog_stale: 2,
            faults_injected: 1,
            ..EventCounts::default()
        };
        let b = EventCounts {
            watchdog_stale: 1,
            explorations: 10,
            ..EventCounts::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.watchdog_stale, 3);
        assert_eq!(m.total(), 14);
        assert_eq!(m.compact(), "st3 dd0 dk0 ra0 rd0 ov0 f1");
    }
}
