//! Versioned binary snapshot format for agents and their Q-table storage.
//!
//! The format is little-endian throughout and designed so the bulk payload
//! — the raw table banks — lands at 8-byte-aligned offsets, mmap-friendly
//! for a future zero-copy loader. Round trips are bit-identical: floats
//! travel as raw IEEE-754 bits.
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"ODRLQSNP"
//!      8     4  version (u32, currently 1)
//!     12     1  kind    (1 = single-table `Agent`,
//!                        2 = two-table (double-Q) `Agent`, 3 = policy set)
//!     13     3  reserved (zero)
//!     16     …  kind-specific payload
//! ```
//!
//! An **agent block** (the payload of kind 1; kind 2 appends its `updates`
//! counter and a second storage block) is:
//!
//! ```text
//! gamma f64 · step u64 · alpha schedule · policy · storage
//! ```
//!
//! A **schedule** is `tag u8 · pad[7] · p0 f64 · p1 f64 · p2 f64 · p3 u64`
//! (40 bytes; unused params zero). A **policy** is `tag u8 · pad[7]`:
//! tag 0 (greedy) ends there, tag 1 (ε-greedy) is followed by its
//! schedule. Tags 2 (softmax) and 3 (UCB1) are retired and rejected. A
//! **storage block** is `layout u8 · pad[7] · states u64 · actions u64`
//! followed by the raw banks: `f64` values then `u64` visits (each at
//! most `u32::MAX`, the in-memory counter's width) for the scalar layout;
//! `stride u64`, `f32` row scales, `i16` lanes and `u32` visits (each
//! section zero-padded to 8 bytes) for the quantized layout.
//!
//! Decoders validate magic, version, every tag, dimension consistency and
//! exact buffer length, rejecting corrupt, truncated or version-mismatched
//! snapshots with [`RlError::Snapshot`]. Padding, reserved bytes and the
//! schedule parameters a tag leaves unused must be zero, so every buffer
//! that decodes re-encodes to the same bytes. Table dimensions are checked
//! against the bytes actually left before anything is reserved, so a
//! tampered header cannot trigger a huge (or overflowing) allocation.

use crate::error::RlError;
use crate::policy::Policy;
use crate::qtable::QTable;
use crate::schedule::Schedule;
use crate::storage::{QTableStorage, QuantizedTable};
use std::error::Error;
use std::fmt;

/// Magic bytes every snapshot file starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ODRLQSNP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header kind tag for a single-table (Q-learning) [`crate::Agent`].
pub const KIND_AGENT: u8 = 1;

/// Header kind tag for a two-table (double Q-learning) [`crate::Agent`].
pub const KIND_DOUBLE_AGENT: u8 = 2;

/// Header kind tag for a multi-agent policy set (one block per agent,
/// framed by the owning controller crate).
pub const KIND_POLICY_SET: u8 = 3;

/// Errors from file-level snapshot save/load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes did not decode as a snapshot.
    Format(RlError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot io: {e}"),
            Self::Format(e) => write!(f, "snapshot format: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Format(e) => Some(e),
        }
    }
}

impl From<RlError> for SnapshotError {
    fn from(e: RlError) -> Self {
        Self::Format(e)
    }
}

/// A bounds-checked reader over a snapshot buffer. Obtain one from
/// [`check_header`]; every `take_*` advances past what it reads and fails
/// with [`RlError::Snapshot`] on truncation.
#[derive(Debug)]
pub struct SnapCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RlError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(RlError::Snapshot {
                reason: "snapshot truncated",
            }),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation.
    pub fn take_u8(&mut self) -> Result<u8, RlError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation.
    pub fn take_u32(&mut self) -> Result<u32, RlError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64, RlError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation or overflow.
    pub fn take_len(&mut self) -> Result<usize, RlError> {
        usize::try_from(self.take_u64()?).map_err(|_| RlError::Snapshot {
            reason: "length exceeds usize",
        })
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation.
    pub fn take_f64(&mut self) -> Result<f64, RlError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an `f32` from its raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] on truncation.
    pub fn take_f32(&mut self) -> Result<f32, RlError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Fails unless `count` items of `size` bytes fit in the unread rest
    /// of the buffer — the guard in front of every allocation sized from
    /// header fields.
    fn expect_section(&self, count: usize, size: usize) -> Result<(), RlError> {
        match count.checked_mul(size) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(()),
            _ => Err(RlError::Snapshot {
                reason: "table dimensions exceed the snapshot",
            }),
        }
    }

    /// Skips `n` bytes that must all be zero (padding and reserved
    /// fields), so every accepted buffer is the one the writer produces.
    fn take_zeros(&mut self, n: usize) -> Result<(), RlError> {
        if self.take(n)?.iter().any(|&b| b != 0) {
            return Err(RlError::Snapshot {
                reason: "nonzero padding",
            });
        }
        Ok(())
    }

    fn skip_pad(&mut self, payload: usize) -> Result<(), RlError> {
        self.take_zeros(payload.next_multiple_of(8) - payload)
    }

    /// Asserts the buffer is fully consumed (no trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] if bytes remain.
    pub fn finish(&self) -> Result<(), RlError> {
        if self.pos != self.buf.len() {
            return Err(RlError::Snapshot {
                reason: "trailing bytes after snapshot payload",
            });
        }
        Ok(())
    }
}

/// Starts a snapshot buffer with the 16-byte header for `kind`.
pub fn header(kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0u8; 3]);
    out
}

/// Validates the 16-byte header and returns a cursor over the payload.
///
/// # Errors
///
/// Returns [`RlError::Snapshot`] for wrong magic, an unsupported version,
/// or a kind other than `expect_kind`.
pub fn check_header(bytes: &[u8], expect_kind: u8) -> Result<SnapCursor<'_>, RlError> {
    let (kind, cur) = read_header(bytes)?;
    if kind != expect_kind {
        return Err(RlError::Snapshot {
            reason: "snapshot kind mismatch",
        });
    }
    Ok(cur)
}

/// Validates the magic and version of the 16-byte header and returns the
/// kind byte with a cursor over the payload.
///
/// # Errors
///
/// Returns [`RlError::Snapshot`] for wrong magic, an unsupported version
/// or a truncated header.
pub fn read_header(bytes: &[u8]) -> Result<(u8, SnapCursor<'_>), RlError> {
    let mut cur = SnapCursor { buf: bytes, pos: 0 };
    let magic = cur.take(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RlError::Snapshot {
            reason: "bad magic (not an OD-RL snapshot)",
        });
    }
    let version = cur.take_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(RlError::Snapshot {
            reason: "unsupported snapshot version",
        });
    }
    let kind = cur.take_u8()?;
    cur.take_zeros(3)?; // reserved
    Ok((kind, cur))
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as raw bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_tag(out: &mut Vec<u8>, tag: u8) {
    out.push(tag);
    out.extend_from_slice(&[0u8; 7]);
}

fn pad_to_8(out: &mut Vec<u8>, payload: usize) {
    let pad = payload.next_multiple_of(8) - payload;
    out.extend(std::iter::repeat_n(0u8, pad));
}

/// A schedule's `(tag, p0, p1, p2, p3)` fields, unused parameters zero.
fn schedule_fields(schedule: &Schedule) -> (u8, f64, f64, f64, u64) {
    match *schedule {
        Schedule::Constant { value } => (0u8, value, 0.0, 0.0, 0u64),
        Schedule::Exponential {
            initial,
            rate,
            floor,
        } => (1, initial, rate, floor, 0),
        Schedule::InverseTime { initial, floor } => (2, initial, floor, 0.0, 0),
        Schedule::Linear {
            initial,
            floor,
            steps,
        } => (3, initial, floor, 0.0, steps),
    }
}

fn write_schedule(out: &mut Vec<u8>, schedule: &Schedule) {
    let (tag, p0, p1, p2, p3) = schedule_fields(schedule);
    put_tag(out, tag);
    put_f64(out, p0);
    put_f64(out, p1);
    put_f64(out, p2);
    put_u64(out, p3);
}

fn read_schedule(cur: &mut SnapCursor<'_>) -> Result<Schedule, RlError> {
    let tag = cur.take_u8()?;
    cur.take_zeros(7)?;
    let p0 = cur.take_f64()?;
    let p1 = cur.take_f64()?;
    let p2 = cur.take_f64()?;
    let p3 = cur.take_u64()?;
    // Reconstruct through the validating constructors so a tampered
    // snapshot cannot smuggle NaN or negative rates into a schedule.
    let schedule = match tag {
        0 => Schedule::constant(p0),
        1 => Schedule::exponential(p0, p1, p2),
        2 => Schedule::inverse_time(p0, p1),
        3 => Schedule::linear(p0, p1, p3),
        _ => {
            return Err(RlError::Snapshot {
                reason: "unknown schedule tag",
            })
        }
    }
    .map_err(|_| RlError::Snapshot {
        reason: "schedule parameters out of range",
    })?;
    // The parameters the tag leaves unused must be zero.
    let (_, q0, q1, q2, q3) = schedule_fields(&schedule);
    let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if !(bits(p0, q0) && bits(p1, q1) && bits(p2, q2) && p3 == q3) {
        return Err(RlError::Snapshot {
            reason: "schedule parameters not canonical",
        });
    }
    Ok(schedule)
}

fn write_policy(out: &mut Vec<u8>, policy: &Policy) {
    match *policy {
        Policy::Greedy => put_tag(out, 0),
        Policy::EpsilonGreedy { epsilon } => {
            put_tag(out, 1);
            write_schedule(out, &epsilon);
        }
    }
}

fn read_policy(cur: &mut SnapCursor<'_>) -> Result<Policy, RlError> {
    let tag = cur.take_u8()?;
    cur.take_zeros(7)?;
    match tag {
        0 => Ok(Policy::Greedy),
        1 => Ok(Policy::EpsilonGreedy {
            epsilon: read_schedule(cur)?,
        }),
        _ => Err(RlError::Snapshot {
            reason: "unknown policy tag",
        }),
    }
}

/// Writes the common agent prefix (`gamma · step · alpha · policy`).
pub(crate) fn write_agent_block(
    out: &mut Vec<u8>,
    gamma: f64,
    step: u64,
    alpha: &Schedule,
    policy: &Policy,
) {
    put_f64(out, gamma);
    put_u64(out, step);
    write_schedule(out, alpha);
    write_policy(out, policy);
}

/// Reads the common agent prefix written by [`write_agent_block`].
pub(crate) fn read_agent_block(
    cur: &mut SnapCursor<'_>,
) -> Result<(f64, u64, Schedule, Policy), RlError> {
    let gamma = cur.take_f64()?;
    if !(gamma.is_finite() && (0.0..1.0).contains(&gamma)) {
        return Err(RlError::Snapshot {
            reason: "gamma outside [0, 1)",
        });
    }
    let step = cur.take_u64()?;
    let alpha = read_schedule(cur)?;
    let policy = read_policy(cur)?;
    Ok((gamma, step, alpha, policy))
}

/// Writes one storage block (layout tag, dimensions, raw banks).
pub(crate) fn write_storage(out: &mut Vec<u8>, storage: &QTableStorage) {
    match storage {
        QTableStorage::Scalar(t) => {
            put_tag(out, 0);
            put_u64(out, t.states() as u64);
            put_u64(out, t.actions() as u64);
            let (values, visits) = t.parts();
            for &v in values {
                put_f64(out, v);
            }
            for &v in visits {
                put_u64(out, u64::from(v));
            }
        }
        QTableStorage::Quantized(t) => {
            put_tag(out, 1);
            put_u64(out, t.states() as u64);
            put_u64(out, t.actions() as u64);
            let (stride, bank, scales, visits) = t.parts();
            put_u64(out, stride as u64);
            for &s in scales {
                out.extend_from_slice(&s.to_bits().to_le_bytes());
            }
            pad_to_8(out, scales.len() * 4);
            for &q in bank {
                out.extend_from_slice(&q.to_le_bytes());
            }
            pad_to_8(out, bank.len() * 2);
            for &v in visits {
                out.extend_from_slice(&v.to_le_bytes());
            }
            pad_to_8(out, visits.len() * 4);
        }
    }
}

/// Reads one storage block written by [`write_storage`].
pub(crate) fn read_storage(cur: &mut SnapCursor<'_>) -> Result<QTableStorage, RlError> {
    let tag = cur.take_u8()?;
    cur.take_zeros(7)?;
    let states = cur.take_len()?;
    let actions = cur.take_len()?;
    let cells = states.checked_mul(actions).ok_or(RlError::Snapshot {
        reason: "table dimensions overflow",
    })?;
    match tag {
        0 => {
            cur.expect_section(cells, 8)?;
            let mut values = Vec::with_capacity(cells);
            for _ in 0..cells {
                values.push(cur.take_f64()?);
            }
            cur.expect_section(cells, 8)?;
            let mut visits = Vec::with_capacity(cells);
            for _ in 0..cells {
                let v = cur.take_u64()?;
                visits.push(u32::try_from(v).map_err(|_| RlError::Snapshot {
                    reason: "scalar visit count exceeds u32",
                })?);
            }
            Ok(QTableStorage::Scalar(QTable::from_parts(
                states, actions, values, visits,
            )?))
        }
        1 => {
            let stride = cur.take_len()?;
            let lanes = states.checked_mul(stride).ok_or(RlError::Snapshot {
                reason: "table dimensions overflow",
            })?;
            cur.expect_section(states, 4)?;
            let mut scales = Vec::with_capacity(states);
            for _ in 0..states {
                scales.push(cur.take_f32()?);
            }
            cur.skip_pad(states * 4)?;
            cur.expect_section(lanes, 2)?;
            let mut bank = Vec::with_capacity(lanes);
            for _ in 0..lanes {
                let b = cur.take(2)?;
                bank.push(i16::from_le_bytes([b[0], b[1]]));
            }
            cur.skip_pad(lanes * 2)?;
            cur.expect_section(cells, 4)?;
            let mut visits = Vec::with_capacity(cells);
            for _ in 0..cells {
                visits.push(cur.take_u32()?);
            }
            cur.skip_pad(cells * 4)?;
            Ok(QTableStorage::Quantized(QuantizedTable::from_parts(
                states, actions, stride, bank, scales, visits,
            )?))
        }
        _ => Err(RlError::Snapshot {
            reason: "unknown storage layout tag",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::QTableLayout;

    fn sample_storage(layout: QTableLayout) -> QTableStorage {
        let mut st = QTableStorage::optimistic(layout, 3, 5, 1.5).unwrap();
        st.set(0, 1, -0.75).unwrap();
        st.set(2, 4, 3.25).unwrap();
        st.visit(0, 1).unwrap();
        st.visit(2, 4).unwrap();
        st.visit(2, 4).unwrap();
        st
    }

    #[test]
    fn storage_roundtrip_is_bit_identical() {
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            let st = sample_storage(layout);
            let mut buf = Vec::new();
            write_storage(&mut buf, &st);
            let mut cur = SnapCursor { buf: &buf, pos: 0 };
            let back = read_storage(&mut cur).unwrap();
            cur.finish().unwrap();
            assert_eq!(st, back);
        }
    }

    #[test]
    fn quantized_storage_rejects_misplaced_padding() {
        let mut good = Vec::new();
        write_storage(&mut good, &sample_storage(QTableLayout::Quantized));
        // Tag, states, actions, stride (32) · 3 row scales padded to 16;
        // row 0's five real lanes come first, then its padding.
        let bank = 48;
        for (lane, value) in [(0, i16::MIN), (5, 0i16)] {
            let mut bad = good.clone();
            let at = bank + 2 * lane;
            bad[at..at + 2].copy_from_slice(&value.to_le_bytes());
            let mut cur = SnapCursor { buf: &bad, pos: 0 };
            assert!(read_storage(&mut cur).is_err(), "lane {lane} = {value}");
        }
    }

    #[test]
    fn schedule_and_policy_roundtrip() {
        let schedules = [
            Schedule::constant(0.25).unwrap(),
            Schedule::exponential(0.5, 5e-3, 0.05).unwrap(),
            Schedule::inverse_time(0.9, 0.05).unwrap(),
            Schedule::linear(1.0, 0.1, 500).unwrap(),
        ];
        for s in schedules {
            let mut buf = Vec::new();
            write_schedule(&mut buf, &s);
            let mut cur = SnapCursor { buf: &buf, pos: 0 };
            assert_eq!(read_schedule(&mut cur).unwrap(), s);
            cur.finish().unwrap();
        }
        let policies = [Policy::Greedy, Policy::default_epsilon_greedy()];
        for p in policies {
            let mut buf = Vec::new();
            write_policy(&mut buf, &p);
            let mut cur = SnapCursor { buf: &buf, pos: 0 };
            assert_eq!(read_policy(&mut cur).unwrap(), p);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn header_rejects_tampering() {
        let good = header(KIND_AGENT);
        assert!(check_header(&good, KIND_AGENT).is_ok());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            check_header(&bad, KIND_AGENT),
            Err(RlError::Snapshot { .. })
        ));
        // Future version.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            check_header(&bad, KIND_AGENT),
            Err(RlError::Snapshot { .. })
        ));
        // Kind mismatch.
        assert!(check_header(&good, KIND_DOUBLE_AGENT).is_err());
        // Truncation.
        assert!(check_header(&good[..10], KIND_AGENT).is_err());
    }

    #[test]
    fn snapshot_error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<SnapshotError>();
        let e = SnapshotError::from(RlError::Snapshot {
            reason: "snapshot truncated",
        });
        assert!(e.to_string().contains("truncated"));
    }
}
