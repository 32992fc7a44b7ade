//! Discretization of continuous observations into tabular state indices.

use crate::error::RlError;
use serde::{Deserialize, Serialize};

/// Uniform binning of a bounded continuous quantity.
///
/// Values below `lo` map to bin 0 and values above `hi` to the last bin —
/// saturating, never panicking, because sensor readings can exceed the
/// nominal range.
///
/// ```
/// use odrl_rl::UniformBins;
/// let bins = UniformBins::new(0.0, 2.0, 4)?;
/// assert_eq!(bins.bin(-1.0), 0);
/// assert_eq!(bins.bin(0.6), 1);
/// assert_eq!(bins.bin(5.0), 3);
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformBins {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl UniformBins {
    /// Creates a binning of `[lo, hi]` into `bins` equal intervals.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidParameter`] if `bins == 0`, bounds are
    /// non-finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, RlError> {
        if bins == 0 {
            return Err(RlError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(RlError::InvalidParameter {
                name: "lo/hi",
                value: lo,
            });
        }
        Ok(Self { lo, hi, bins })
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins
    }

    /// Returns `true` if there are no bins (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.bins == 0
    }

    /// The bin index of `x`, saturating at the range ends. NaN maps to 0.
    #[inline]
    pub fn bin(&self, x: f64) -> usize {
        // `!(x > lo)` rather than `x <= lo`: NaN must land in bin 0 too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(x > self.lo) {
            return 0;
        }
        if x >= self.hi {
            return self.bins - 1;
        }
        let t = (x - self.lo) / (self.hi - self.lo);
        ((t * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// The midpoint value of bin `i` (useful for debugging policies).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn midpoint(&self, i: usize) -> f64 {
        assert!(i < self.bins, "bin index {i} out of range");
        let w = (self.hi - self.lo) / self.bins as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

/// A product of per-dimension bin counts, flattening multi-dimensional
/// discrete coordinates into a single state index (row-major).
///
/// ```
/// use odrl_rl::StateSpace;
/// let space = StateSpace::new(vec![4, 3, 8])?; // e.g. power × memb × level
/// assert_eq!(space.len(), 96);
/// assert_eq!(space.index(&[0, 0, 0])?, 0);
/// assert_eq!(space.index(&[3, 2, 7])?, 95);
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSpace {
    dims: Vec<usize>,
}

impl StateSpace {
    /// Creates a state space from per-dimension sizes.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptySpace`] if `dims` is empty or any dimension
    /// is zero.
    pub fn new(dims: Vec<usize>) -> Result<Self, RlError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(RlError::EmptySpace { what: "state" });
        }
        Ok(Self { dims })
    }

    /// Total number of states.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if the space has no states (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flattens coordinates into a state index (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] if the coordinate count or any
    /// coordinate is out of range.
    #[inline]
    pub fn index(&self, coords: &[usize]) -> Result<usize, RlError> {
        if coords.len() != self.dims.len() {
            return Err(RlError::IndexOutOfRange {
                what: "coordinate",
                requested: coords.len(),
                size: self.dims.len(),
            });
        }
        let mut idx = 0;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            if c >= d {
                return Err(RlError::IndexOutOfRange {
                    what: "coordinate",
                    requested: c,
                    size: d,
                });
            }
            idx = idx * d + c;
        }
        Ok(idx)
    }

    /// Unflattens a state index back into coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] if `index >= len()`.
    pub fn coords(&self, index: usize) -> Result<Vec<usize>, RlError> {
        if index >= self.len() {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: index,
                size: self.len(),
            });
        }
        let mut rem = index;
        let mut out = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            out[i] = rem % d;
            rem /= d;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let b = UniformBins::new(0.0, 1.0, 5).unwrap();
        assert_eq!(b.bin(0.0), 0);
        assert_eq!(b.bin(0.19), 0);
        assert_eq!(b.bin(0.21), 1);
        assert_eq!(b.bin(0.99), 4);
        assert_eq!(b.bin(1.0), 4);
    }

    #[test]
    fn bins_saturate_out_of_range() {
        let b = UniformBins::new(-1.0, 1.0, 4).unwrap();
        assert_eq!(b.bin(-100.0), 0);
        assert_eq!(b.bin(100.0), 3);
        assert_eq!(b.bin(f64::NAN), 0);
    }

    #[test]
    fn midpoints_round_trip() {
        let b = UniformBins::new(0.0, 2.0, 8).unwrap();
        for i in 0..8 {
            assert_eq!(b.bin(b.midpoint(i)), i);
        }
    }

    #[test]
    fn bins_rejects_degenerate_ranges() {
        assert!(UniformBins::new(0.0, 0.0, 4).is_err());
        assert!(UniformBins::new(1.0, 0.0, 4).is_err());
        assert!(UniformBins::new(0.0, 1.0, 0).is_err());
        assert!(UniformBins::new(f64::NAN, 1.0, 4).is_err());
    }

    #[test]
    fn state_space_index_roundtrip() {
        let s = StateSpace::new(vec![3, 4, 5]).unwrap();
        assert_eq!(s.len(), 60);
        for i in 0..60 {
            let c = s.coords(i).unwrap();
            assert_eq!(s.index(&c).unwrap(), i);
        }
    }

    #[test]
    fn state_space_validates_coords() {
        let s = StateSpace::new(vec![2, 2]).unwrap();
        assert!(s.index(&[0]).is_err());
        assert!(s.index(&[2, 0]).is_err());
        assert!(s.coords(4).is_err());
    }

    #[test]
    fn state_space_rejects_empty() {
        assert!(StateSpace::new(vec![]).is_err());
        assert!(StateSpace::new(vec![3, 0]).is_err());
    }

    #[test]
    fn single_dimension_is_identity() {
        let s = StateSpace::new(vec![7]).unwrap();
        for i in 0..7 {
            assert_eq!(s.index(&[i]).unwrap(), i);
        }
    }
}
