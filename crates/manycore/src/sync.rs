//! Thread-synchronization coupling: barrier groups.
//!
//! SPLASH-2/PARSEC applications are multithreaded: threads meet at barriers,
//! so a group's forward progress is gated by its slowest member, and the
//! fast members idle (clock-gated, low activity) until the laggard arrives.
//! For a DVFS controller this changes the game — watts spent speeding up a
//! non-critical thread buy *zero* throughput, so the right policy throttles
//! the gated threads and spends the budget on the critical one.
//!
//! [`SyncModel::Barrier`] partitions cores into contiguous groups of
//! `group_size`; each epoch, every member retires exactly the instructions
//! of the slowest member, and the time a faster member would have saved is
//! spent idling at a reduced activity factor.

use crate::error::SystemError;
use serde::{Deserialize, Serialize};

/// How cores' progress is coupled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum SyncModel {
    /// Independent cores (multiprogrammed mix) — the default.
    #[default]
    Independent,
    /// Barrier-synchronized groups of `group_size` contiguous cores, with
    /// idle activity factor `idle_activity` while waiting at the barrier.
    Barrier {
        /// Cores per barrier group (the last group may be smaller).
        group_size: usize,
        /// Activity factor of a core spinning/idling at the barrier, in
        /// `[0, 1]` (clock-gated cores still burn some front-end power).
        idle_activity: f64,
    },
}

impl SyncModel {
    /// A barrier model with the default idle activity (0.15).
    pub fn barrier(group_size: usize) -> Self {
        Self::Barrier {
            group_size,
            idle_activity: 0.15,
        }
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] for a zero group size or an
    /// idle activity outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SystemError> {
        match *self {
            Self::Independent => Ok(()),
            Self::Barrier {
                group_size,
                idle_activity,
            } => {
                if group_size == 0 {
                    return Err(SystemError::InvalidConfig {
                        field: "sync.group_size",
                        reason: "must be at least 1".into(),
                    });
                }
                if !(idle_activity.is_finite() && (0.0..=1.0).contains(&idle_activity)) {
                    return Err(SystemError::InvalidConfig {
                        field: "sync.idle_activity",
                        reason: format!("must be in [0, 1], got {idle_activity}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Given each core's standalone instruction count for the epoch,
    /// returns `(actual_instructions, idle_fraction)` per core after
    /// barrier gating.
    pub fn gate(&self, standalone: &[f64]) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); standalone.len()];
        self.gate_into(standalone, &mut out);
        out
    }

    /// Allocation-free [`SyncModel::gate`]: writes each core's
    /// `(actual_instructions, idle_fraction)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != standalone.len()`.
    pub fn gate_into(&self, standalone: &[f64], out: &mut [(f64, f64)]) {
        assert_eq!(
            standalone.len(),
            out.len(),
            "gate output must have one slot per core"
        );
        match *self {
            Self::Independent => {
                for (o, &s) in out.iter_mut().zip(standalone) {
                    *o = (s, 0.0);
                }
            }
            Self::Barrier { group_size, .. } => {
                let n = standalone.len();
                let mut start = 0;
                while start < n {
                    let end = (start + group_size).min(n);
                    let slowest = standalone[start..end]
                        .iter()
                        .copied()
                        .fold(f64::MAX, f64::min);
                    for i in start..end {
                        let idle = if standalone[i] > 0.0 {
                            (1.0 - slowest / standalone[i]).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        out[i] = (slowest, idle);
                    }
                    start = end;
                }
            }
        }
    }

    /// The idle activity factor (0 when independent — unused).
    pub fn idle_activity(&self) -> f64 {
        match *self {
            Self::Independent => 0.0,
            Self::Barrier { idle_activity, .. } => idle_activity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_passes_through() {
        let m = SyncModel::Independent;
        let gated = m.gate(&[1.0, 5.0, 3.0]);
        assert_eq!(gated, vec![(1.0, 0.0), (5.0, 0.0), (3.0, 0.0)]);
    }

    #[test]
    fn barrier_gates_to_group_minimum() {
        let m = SyncModel::barrier(2);
        let gated = m.gate(&[4.0, 2.0, 6.0, 6.0]);
        assert_eq!(gated[0].0, 2.0);
        assert_eq!(gated[1].0, 2.0);
        assert!((gated[0].1 - 0.5).abs() < 1e-12); // fast member idles half
        assert_eq!(gated[1].1, 0.0); // the laggard never idles
        assert_eq!(gated[2].0, 6.0);
        assert_eq!(gated[3].0, 6.0);
    }

    #[test]
    fn uneven_final_group() {
        let m = SyncModel::barrier(2);
        let gated = m.gate(&[4.0, 2.0, 9.0]);
        assert_eq!(gated[2], (9.0, 0.0)); // singleton group ungated
    }

    #[test]
    fn zero_standalone_is_safe() {
        let m = SyncModel::barrier(2);
        let gated = m.gate(&[0.0, 3.0]);
        assert_eq!(gated[0], (0.0, 0.0));
        assert_eq!(gated[1].0, 0.0);
        assert_eq!(gated[1].1, 1.0);
    }

    #[test]
    fn validation() {
        assert!(SyncModel::Independent.validate().is_ok());
        assert!(SyncModel::barrier(4).validate().is_ok());
        assert!(SyncModel::Barrier {
            group_size: 0,
            idle_activity: 0.1
        }
        .validate()
        .is_err());
        assert!(SyncModel::Barrier {
            group_size: 4,
            idle_activity: 1.5
        }
        .validate()
        .is_err());
    }
}
