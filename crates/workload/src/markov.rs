//! Row-stochastic Markov transition matrices for phase switching.

use crate::error::WorkloadError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A validated row-stochastic transition matrix over phase indices.
///
/// Entry `(i, j)` is the probability of switching to phase `j` when phase
/// `i` ends. Rows must sum to 1 (within 1e-9) and contain no negative
/// entries.
///
/// ```
/// use odrl_workload::TransitionMatrix;
/// let m = TransitionMatrix::new(vec![
///     vec![0.0, 1.0],
///     vec![0.5, 0.5],
/// ])?;
/// assert_eq!(m.len(), 2);
/// # Ok::<(), odrl_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionMatrix {
    rows: Vec<Vec<f64>>,
}

impl TransitionMatrix {
    /// Builds and validates a transition matrix.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidTransitionMatrix`] if the matrix is
    /// empty, non-square, has negative/non-finite entries, or a row does not
    /// sum to 1.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self, WorkloadError> {
        let n = rows.len();
        if n == 0 {
            return Err(WorkloadError::InvalidTransitionMatrix {
                reason: "matrix is empty".into(),
            });
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(WorkloadError::InvalidTransitionMatrix {
                    reason: format!("row {i} has {} entries, expected {n}", row.len()),
                });
            }
            let mut sum = 0.0;
            for (j, &p) in row.iter().enumerate() {
                if !p.is_finite() || p < 0.0 {
                    return Err(WorkloadError::InvalidTransitionMatrix {
                        reason: format!("entry ({i},{j}) = {p} is not a probability"),
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(WorkloadError::InvalidTransitionMatrix {
                    reason: format!("row {i} sums to {sum}, expected 1"),
                });
            }
        }
        Ok(Self { rows })
    }

    /// A single-state matrix (benchmark with one phase).
    pub fn identity(n: usize) -> Result<Self, WorkloadError> {
        let rows = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        Self::new(rows)
    }

    /// A uniform matrix: every phase end jumps to a uniformly random phase
    /// (including itself).
    pub fn uniform(n: usize) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::InvalidTransitionMatrix {
                reason: "matrix is empty".into(),
            });
        }
        let p = 1.0 / n as f64;
        Self::new(vec![vec![p; n]; n])
    }

    /// A cyclic matrix: phase `i` always transitions to `(i+1) mod n`.
    pub fn cycle(n: usize) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::InvalidTransitionMatrix {
                reason: "matrix is empty".into(),
            });
        }
        let rows = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if j == (i + 1) % n { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        Self::new(rows)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the matrix has no states (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Samples the successor of state `i` using `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample_next<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (j, &p) in self.rows[i].iter().enumerate() {
            acc += p;
            if u < acc {
                return j;
            }
        }
        self.rows.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_and_non_square() {
        assert!(TransitionMatrix::new(vec![]).is_err());
        assert!(TransitionMatrix::new(vec![vec![1.0], vec![1.0]]).is_err());
        assert!(TransitionMatrix::new(vec![vec![0.5, 0.5], vec![1.0]]).is_err());
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert!(TransitionMatrix::new(vec![vec![-0.1, 1.1]]).is_err());
        assert!(TransitionMatrix::new(vec![vec![0.4, 0.4]]).is_err());
        assert!(TransitionMatrix::new(vec![vec![f64::NAN, 1.0]]).is_err());
    }

    #[test]
    fn identity_never_moves() {
        let m = TransitionMatrix::identity(3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..3 {
            for _ in 0..20 {
                assert_eq!(m.sample_next(i, &mut rng), i);
            }
        }
    }

    #[test]
    fn cycle_moves_in_order() {
        let m = TransitionMatrix::cycle(3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample_next(0, &mut rng), 1);
        assert_eq!(m.sample_next(1, &mut rng), 2);
        assert_eq!(m.sample_next(2, &mut rng), 0);
    }

    #[test]
    fn uniform_visits_all_states() {
        let m = TransitionMatrix::uniform(4).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[m.sample_next(0, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_frequencies_match_probabilities() {
        let m = TransitionMatrix::new(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| m.sample_next(0, &mut rng) == 0)
            .count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.8).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn accessors() {
        let m = TransitionMatrix::uniform(2).unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
