//! Explicit-SIMD row scans over 16-lane-padded `i16` Q-banks.
//!
//! The [`QuantizedTable`](crate::QuantizedTable) layout pads every state row
//! to a multiple of [`QUANT_LANES`] lanes of `i16`, with
//! pad lanes pinned to `i16::MIN` and real lanes clamped to `±i16::MAX`.
//! That invariant is what this module exploits: a whole bank can be scanned
//! with wide integer max/compare instructions and pad lanes can never win
//! (a real lane is always `> i16::MIN`), so no masking is needed.
//!
//! [`scan_row`] scans one row. On `x86_64` it dispatches at
//! runtime between an AVX2 path (one 256-bit bank per iteration) and the
//! baseline SSE2 path (two 128-bit loads per bank); elsewhere it falls back
//! to [`scan_row_portable`], a chunked two-pass scan written so LLVM
//! auto-vectorizes the inner max reduction. All three return bit-identical
//! results: the *lowest* index attaining the row maximum, exactly like a
//! scalar select chain over the row. The portable scan is also the
//! reference the equivalence tests hold the x86_64 paths to.
//!
//! [`scan_rows`] is the block form the controller's decide pipeline calls:
//! one dispatch per block of agents instead of one per row.

use crate::storage::QUANT_LANES;

/// Converts one raw 64-bit RNG draw into the same `[0, 1)` double that
/// `rng.gen::<f64>()` produces (53 high bits scaled by 2⁻⁵³).
///
/// Used by the block decide pipeline: callers pre-fill a block of
/// `next_u64` draws (one per agent) and the ε test consumes them through
/// this function, keeping each agent's RNG stream bit-identical to drawing
/// the uniform at decision time.
#[inline]
#[must_use]
pub fn draw_to_unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Scans one padded row and returns `(argmax, max)` with ties broken
/// toward the lowest index — bit-identical to the scalar select chain.
///
/// # Panics
///
/// Panics if `row` is empty or its length is not a multiple of
/// [`QUANT_LANES`] (the `QuantizedTable` stride invariant).
#[inline]
#[must_use]
pub fn scan_row(row: &[i16]) -> (usize, i16) {
    assert!(
        !row.is_empty() && row.len().is_multiple_of(QUANT_LANES),
        "row length {} is not a positive multiple of {QUANT_LANES}",
        row.len()
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        unsafe { scan_row_avx2(row) }
    } else {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { scan_row_sse2(row) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scan_row_portable(row)
}

/// Portable chunked scan: per-bank max reduction (auto-vectorizable) plus a
/// first-equal position search only in banks that raise the running max.
///
/// Reference implementation for the equivalence tests; also the non-x86_64
/// fallback. Same contract and tie-breaking as [`scan_row`].
///
/// # Panics
///
/// Panics if `row` is empty or its length is not a multiple of
/// [`QUANT_LANES`].
#[must_use]
pub fn scan_row_portable(row: &[i16]) -> (usize, i16) {
    assert!(
        !row.is_empty() && row.len().is_multiple_of(QUANT_LANES),
        "row length {} is not a positive multiple of {QUANT_LANES}",
        row.len()
    );
    let mut best = 0usize;
    let mut best_q = i16::MIN;
    for (b, bank) in row.chunks_exact(QUANT_LANES).enumerate() {
        let mut m = i16::MIN;
        for &q in bank {
            m = m.max(q);
        }
        if m > best_q {
            best_q = m;
            let off = bank.iter().position(|&q| q == m).unwrap_or(0);
            best = b * QUANT_LANES + off;
        }
    }
    (best, best_q)
}

/// Scans one padded row per entry of `rows` — `(row, scale)` pairs, one
/// per agent — writing `(argmax, argmax_q × scale)` into `out`. The scaled
/// maximum uses the same `f64::from(q) * f64::from(scale)` expression as
/// `QuantizedTable::best_action_and_max`, so results are bit-identical to
/// per-row calls.
///
/// The point of the batch is dispatch amortization: [`scan_row`] crosses a
/// `target_feature` boundary per call, which costs as much as the 16-lane
/// scan itself for small action sets. Here the runtime check and the call
/// happen once per block and the per-row scans inline inside the wide
/// function, letting independent rows' reductions overlap.
///
/// # Panics
///
/// Panics if `out` is shorter than `rows`, or any row is empty or not a
/// multiple of [`QUANT_LANES`] long.
pub fn scan_rows(rows: &[(&[i16], f32)], out: &mut [(u16, f64)]) {
    assert!(out.len() >= rows.len(), "output shorter than input");
    for (row, _) in rows {
        assert!(
            !row.is_empty() && row.len().is_multiple_of(QUANT_LANES),
            "row length {} is not a positive multiple of {QUANT_LANES}",
            row.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 presence was just verified at runtime; row
            // geometry was asserted above.
            unsafe { scan_rows_avx2(rows, out) };
            return;
        }
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { scan_rows_sse2(rows, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        for (o, &(row, scale)) in out.iter_mut().zip(rows) {
            let (best, q) = scan_row_portable(row);
            *o = (best as u16, f64::from(q) * f64::from(scale));
        }
    }
}

/// Batched [`scan_row_sse2`]: one call, many rows.
///
/// # Safety
///
/// As [`scan_row_sse2`], for every row.
#[cfg(target_arch = "x86_64")]
unsafe fn scan_rows_sse2(rows: &[(&[i16], f32)], out: &mut [(u16, f64)]) {
    for (o, &(row, scale)) in out.iter_mut().zip(rows) {
        let (best, q) = scan_row_sse2(row);
        *o = (best as u16, f64::from(q) * f64::from(scale));
    }
}

/// Batched [`scan_row_avx2`]: the runtime check is the caller's, the
/// per-row scans inline into this one wide function.
///
/// # Safety
///
/// As [`scan_row_avx2`], for every row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_rows_avx2(rows: &[(&[i16], f32)], out: &mut [(u16, f64)]) {
    for (o, &(row, scale)) in out.iter_mut().zip(rows) {
        let (best, q) = scan_row_avx2(row);
        *o = (best as u16, f64::from(q) * f64::from(scale));
    }
}

/// Whether the AVX2 path is usable, detected once and cached.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = unknown, 1 = absent, 2 = present.
    static AVX2: AtomicU8 = AtomicU8::new(0);
    match AVX2.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let has = std::arch::is_x86_feature_detected!("avx2");
            AVX2.store(if has { 2 } else { 1 }, Ordering::Relaxed);
            has
        }
    }
}

/// SSE2 scan: each 16-lane bank is two 128-bit vectors. SSE2 is baseline on
/// x86_64 so this path needs no runtime check.
///
/// # Safety
///
/// Caller must ensure `row.len()` is a positive multiple of `QUANT_LANES`
/// (checked by the public wrappers). SSE2 is always present on x86_64.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn scan_row_sse2(row: &[i16]) -> (usize, i16) {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi16, _mm_extract_epi16, _mm_loadu_si128, _mm_max_epi16,
        _mm_movemask_epi8, _mm_set1_epi16, _mm_shuffle_epi32, _mm_shufflelo_epi16,
    };

    /// Horizontal max over 8 × i16.
    #[inline]
    unsafe fn hmax(v: __m128i) -> i16 {
        // Fold 8 lanes → 4 → 2 → 1 by pairing progressively closer lanes.
        let v = _mm_max_epi16(v, _mm_shuffle_epi32::<0b0100_1110>(v));
        let v = _mm_max_epi16(v, _mm_shuffle_epi32::<0b1011_0001>(v));
        let v = _mm_max_epi16(v, _mm_shufflelo_epi16::<0b1011_0001>(v));
        _mm_extract_epi16::<0>(v) as u16 as i16
    }

    let mut best = 0usize;
    let mut best_q = i16::MIN;
    for (b, bank) in row.chunks_exact(QUANT_LANES).enumerate() {
        let lo = _mm_loadu_si128(bank.as_ptr().cast::<__m128i>());
        let hi = _mm_loadu_si128(bank.as_ptr().add(8).cast::<__m128i>());
        let m = hmax(_mm_max_epi16(lo, hi));
        if m > best_q {
            best_q = m;
            let needle = _mm_set1_epi16(m);
            let mask_lo = _mm_movemask_epi8(_mm_cmpeq_epi16(lo, needle)) as u32;
            let off = if mask_lo != 0 {
                (mask_lo.trailing_zeros() / 2) as usize
            } else {
                let mask_hi = _mm_movemask_epi8(_mm_cmpeq_epi16(hi, needle)) as u32;
                8 + (mask_hi.trailing_zeros() / 2) as usize
            };
            best = b * QUANT_LANES + off;
        }
    }
    (best, best_q)
}

/// AVX2 scan: one 256-bit load covers a full 16-lane bank.
///
/// # Safety
///
/// Caller must verify AVX2 at runtime and ensure `row.len()` is a positive
/// multiple of `QUANT_LANES` (both checked by [`scan_row`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn scan_row_avx2(row: &[i16]) -> (usize, i16) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_castsi256_si128, _mm256_cmpeq_epi16, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi16, _mm_extract_epi16,
        _mm_max_epi16, _mm_shuffle_epi32, _mm_shufflelo_epi16,
    };

    /// Horizontal max over 16 × i16 in one 256-bit register.
    #[inline]
    unsafe fn hmax256(v: __m256i) -> i16 {
        let m: __m128i = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_max_epi16(m, _mm_shuffle_epi32::<0b0100_1110>(m));
        let m = _mm_max_epi16(m, _mm_shuffle_epi32::<0b1011_0001>(m));
        let m = _mm_max_epi16(m, _mm_shufflelo_epi16::<0b1011_0001>(m));
        _mm_extract_epi16::<0>(m) as u16 as i16
    }

    let mut best = 0usize;
    let mut best_q = i16::MIN;
    for (b, bank) in row.chunks_exact(QUANT_LANES).enumerate() {
        let v = _mm256_loadu_si256(bank.as_ptr().cast::<__m256i>());
        let m = hmax256(v);
        if m > best_q {
            best_q = m;
            let eq = _mm256_cmpeq_epi16(v, _mm256_set1_epi16(m));
            let mask = _mm256_movemask_epi8(eq) as u32;
            best = b * QUANT_LANES + (mask.trailing_zeros() / 2) as usize;
        }
    }
    (best, best_q)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar select chain the quantized layout used before the kernel
    /// existed — the ground truth every path must match bit-for-bit.
    fn scalar_reference(row: &[i16]) -> (usize, i16) {
        let mut best = 0usize;
        let mut best_q = row[0];
        for (a, &q) in row.iter().enumerate().skip(1) {
            let better = q > best_q;
            best = if better { a } else { best };
            best_q = if better { q } else { best_q };
        }
        (best, best_q)
    }

    fn padded(values: &[i16]) -> Vec<i16> {
        let stride = values.len().next_multiple_of(QUANT_LANES).max(QUANT_LANES);
        let mut row = vec![i16::MIN; stride];
        row[..values.len()].copy_from_slice(values);
        row
    }

    #[test]
    fn matches_scalar_on_every_remainder_size() {
        // Cheap deterministic value mixer (no RNG dependency in unit tests).
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Clamp into the real-lane range so pads stay strictly smaller.
            ((state >> 33) as i16).max(-i16::MAX)
        };
        for actions in 1..=2 * QUANT_LANES {
            for _ in 0..50 {
                let values: Vec<i16> = (0..actions).map(|_| next()).collect();
                let row = padded(&values);
                let want = scalar_reference(&row);
                assert_eq!(scan_row(&row), want, "scan_row, {actions} actions");
                assert_eq!(
                    scan_row_portable(&row),
                    want,
                    "scan_row_portable, {actions} actions"
                );
            }
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        for actions in 1..=2 * QUANT_LANES {
            // All real lanes equal: argmax must be 0.
            let row = padded(&vec![123i16; actions]);
            assert_eq!(scan_row(&row), (0, 123));
            assert_eq!(scan_row_portable(&row), (0, 123));
            // Duplicate max later in the row: first occurrence wins.
            if actions >= 3 {
                let mut values = vec![-5i16; actions];
                values[1] = 999;
                values[actions - 1] = 999;
                let row = padded(&values);
                assert_eq!(scan_row(&row), (1, 999));
                assert_eq!(scan_row_portable(&row), (1, 999));
            }
        }
    }

    #[test]
    fn all_pad_row_returns_index_zero() {
        let row = vec![i16::MIN; QUANT_LANES];
        assert_eq!(scan_row(&row), (0, i16::MIN));
        assert_eq!(scan_row_portable(&row), (0, i16::MIN));
    }

    #[test]
    fn max_in_second_bank_of_multi_bank_row() {
        let mut row = vec![i16::MIN; 3 * QUANT_LANES];
        row[0] = -100;
        row[QUANT_LANES + 5] = 7;
        row[2 * QUANT_LANES + 1] = 7; // tie in a later bank must lose
        assert_eq!(scan_row(&row), (QUANT_LANES + 5, 7));
        assert_eq!(scan_row_portable(&row), (QUANT_LANES + 5, 7));
    }

    #[test]
    fn draw_matches_rand_shim_formula() {
        for u in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x0123_4567_89AB_CDEF,
        ] {
            let want = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(draw_to_unit_f64(u).to_bits(), want.to_bits());
            assert!((0.0..1.0).contains(&draw_to_unit_f64(u)));
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rejects_unpadded_rows() {
        let _ = scan_row(&[1i16; 7]);
    }
}
