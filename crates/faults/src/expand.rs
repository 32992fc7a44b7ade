//! Burst expansion: which epochs of a [`RandomBurst`](crate::RandomBurst)
//! start a window on which core.
//!
//! Every (burst, core) pair owns one `StdRng` stream (xoshiro256++, seeded
//! by SplitMix64 from [`mix_seed`]`(stream, core)`), and epoch `e` of the
//! burst hits when that stream's `e`-th draw falls below the burst's
//! [`burst_threshold`]. A burst over `E` epochs on `C` cores therefore costs
//! `C · E` draws; the benchmark's five-burst plan over 20,500 epochs on 256
//! cores makes 26 M.
//!
//! The streams are independent, so [`Expander`] steps 16 of them — 16
//! consecutive cores — together, one lane step per epoch. The lane step is
//! one safe loop over `[u64; 16]` state words that LLVM vectorises; it is
//! compiled twice:
//!
//! * **AVX-512F** — each state word fills two 512-bit registers, rotates
//!   are native and the hit test is two unsigned compares into mask
//!   registers, whose bits are the lane mask a hit records. Picked by
//!   runtime detection.
//! * **Portable** — the same loop for the target's baseline instruction
//!   set. Sixteen independent streams still overlap where one `StdRng`
//!   stream waits on its own previous draw.
//!
//! Each lane's hit epochs go to a reused per-lane buffer and are emitted
//! lane by lane once the group is done, so hits come out in the scalar
//! loop's (core, epoch) order and the compiled schedule is bit-identical
//! whichever path ran. Lanes past the last core of a partial group are
//! stepped but masked out.

use std::ops::Range;

/// Cores expanded together, one per lane.
const LANES: usize = 16;

/// Epochs [`lane_step`] covers per call. Bounds its hit list, so the lane loop
/// never calls the allocator and keeps the lane states in registers for
/// the whole chunk.
const CHUNK: usize = 1024;

/// The xoshiro256++ states of one group of lanes, word-major: word `w` of
/// lane `l` is `state[w][l]`.
type Lanes = [[u64; LANES]; 4];

/// SplitMix64 — the same per-stream seed derivation the simulator uses, so
/// burst expansion is decorrelated across (burst, core) pairs.
pub(crate) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The threshold `t` with `u < p ⇔ (x >> 11) < t` for the uniform draw
/// `u = (x >> 11) · 2⁻⁵³` that `rng.gen::<f64>()` makes from the raw bits
/// `x`, for `0 < p ≤ 1`.
///
/// Proof: `m = x >> 11 < 2⁵³` converts to `f64` exactly, and scaling by a
/// power of two is exact, so `u = m / 2⁵³` with no rounding. Likewise
/// `q = p · 2⁵³` is exact (`p ≤ 1`, so `q ≤ 2⁵³`). Then `u < p ⇔ m < q`,
/// and for an integer `m`, `m < q ⇔ m < ⌈q⌉`. `⌈q⌉ ≤ 2⁵³` is an integer
/// `f64` and converts to `u64` exactly. Comparing integers skips the
/// int-to-float conversion per draw and is bit-for-bit the same decision.
pub(crate) fn burst_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A compilation of the lane step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// Compiled with AVX-512F enabled.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// Compiled for the target's baseline instruction set.
    Portable,
}

impl Path {
    /// The fastest path this host supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if Self::Avx512.available() {
            return Self::Avx512;
        }
        Self::Portable
    }

    /// Every path this host can run, fastest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Self> {
        let mut paths = vec![Self::detect(), Self::Portable];
        paths.dedup();
        paths
    }

    /// Whether this host's CPU has the instructions the path uses
    /// (runtime detection; the standard library caches the answer).
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            Self::Portable => true,
        }
    }
}

/// Expands bursts on one [`Path`], reusing its buffers from one group of
/// cores (and one burst) to the next.
#[derive(Debug)]
pub(crate) struct Expander {
    path: Path,
    /// One chunk's hit steps: `(epoch, lane mask)`.
    steps: Box<[(u64, u32); CHUNK]>,
    /// Each lane's hit epochs in the current group.
    hits: [Vec<u64>; LANES],
}

impl Expander {
    /// # Panics
    ///
    /// Panics if this host cannot run `path`: calling the AVX-512F lane
    /// step is sound only after this check.
    pub(crate) fn new(path: Path) -> Self {
        assert!(
            path.available(),
            "{path:?} burst expansion is not supported on this CPU"
        );
        Self {
            path,
            steps: Box::new([(0, 0); CHUNK]),
            hits: Default::default(),
        }
    }

    /// Calls `emit(core, hits)` for every `core < cores`, in core order,
    /// with the epochs of `epochs` at which the core's stream, seeded with
    /// `mix_seed(stream, core)`, draws a mantissa below `threshold`,
    /// ascending.
    pub(crate) fn expand(
        &mut self,
        stream: u64,
        cores: usize,
        epochs: Range<u64>,
        threshold: u64,
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        for base in (0..cores).step_by(LANES) {
            let n = (cores - base).min(LANES);
            let active = (1u32 << n) - 1;
            let mut state = lane_states(stream, base);
            let mut from = epochs.start;
            while from < epochs.end {
                let to = epochs.end.min(from.saturating_add(CHUNK as u64));
                let found = self.step(&mut state, from..to, threshold);
                for &(epoch, mask) in &self.steps[..found] {
                    let mut mask = mask & active;
                    while mask != 0 {
                        self.hits[mask.trailing_zeros() as usize].push(epoch);
                        mask &= mask - 1;
                    }
                }
                from = to;
            }
            for (lane, hits) in self.hits[..n].iter_mut().enumerate() {
                emit(base + lane, hits);
                hits.clear();
            }
        }
    }

    /// Runs [`lane_step`] on this expander's path, into `self.steps`.
    fn step(&mut self, state: &mut Lanes, epochs: Range<u64>, threshold: u64) -> usize {
        match self.path {
            // SAFETY: `Expander::new` verified at runtime that the CPU has
            // AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Path::Avx512 => unsafe { lane_step_avx512(state, epochs, threshold, &mut self.steps) },
            Path::Portable => lane_step(state, epochs, threshold, &mut self.steps, hit_mask),
        }
    }
}

/// The states of cores `base..base + LANES`. Each is what
/// `StdRng::seed_from_u64(mix_seed(stream, core))` starts from: the first
/// four SplitMix64 outputs from that seed, and SplitMix64's `k`-th output
/// from seed `s` is `mix_seed(s, k)`.
fn lane_states(stream: u64, base: usize) -> Lanes {
    let mut state = [[0u64; LANES]; 4];
    for lane in 0..LANES {
        let seed = mix_seed(stream, (base + lane) as u64);
        for (k, word) in (1..).zip(&mut state) {
            word[lane] = mix_seed(seed, k);
        }
    }
    state
}

/// Steps every lane of `state` once per epoch of `epochs` (at most
/// [`CHUNK`] of them), writes `(epoch, lane mask)` into `steps` for every
/// epoch at which some lane's draw `x` has `(x >> 11) < threshold`, and
/// returns how many it wrote. `hits` turns one epoch's draws into that
/// lane mask.
///
/// The step is written to `steps` whether or not it hit, and only a hit
/// advances the count: at link-plan densities about a quarter of the
/// steps hit, in no pattern a branch predictor could learn.
#[inline(always)]
fn lane_step(
    state: &mut Lanes,
    epochs: Range<u64>,
    threshold: u64,
    steps: &mut [(u64, u32); CHUNK],
    hits: impl Fn(&[u64; LANES], u64) -> u32,
) -> usize {
    debug_assert!(epochs.end - epochs.start <= CHUNK as u64);
    let [mut s0, mut s1, mut s2, mut s3] = *state;
    let mut found = 0;
    for epoch in epochs {
        let mut x = [0u64; LANES];
        for l in 0..LANES {
            // xoshiro256++, as `StdRng::next_u64`.
            x[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            let shifted = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= shifted;
            s3[l] = s3[l].rotate_left(45);
        }
        let mask = hits(&x, threshold);
        steps[found] = (epoch, mask);
        found += usize::from(mask != 0);
    }
    *state = [s0, s1, s2, s3];
    found
}

/// The portable lane mask. The draws are tested for any hit first and the
/// mask is built only for the epochs that have one: the compiler turns
/// the mask loop into a horizontal reduction, too dear for every epoch.
#[inline(always)]
fn hit_mask(x: &[u64; LANES], threshold: u64) -> u32 {
    if !x.iter().any(|&x| (x >> 11) < threshold) {
        return 0;
    }
    let mut mask = 0u32;
    for (l, &x) in x.iter().enumerate() {
        mask |= u32::from((x >> 11) < threshold) << l;
    }
    mask
}

/// [`hit_mask`] on AVX-512F: two unsigned compares straight into mask
/// registers, which the compiler does not find on its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn hit_mask_avx512(x: &[u64; LANES], threshold: u64) -> u32 {
    use std::arch::x86_64::{
        _mm512_cmplt_epu64_mask, _mm512_set1_epi64, _mm512_setr_epi64, _mm512_srli_epi64,
    };
    let t = _mm512_set1_epi64(threshold as i64);
    let half = |h: &[u64]| {
        let v = _mm512_setr_epi64(
            h[0] as i64,
            h[1] as i64,
            h[2] as i64,
            h[3] as i64,
            h[4] as i64,
            h[5] as i64,
            h[6] as i64,
            h[7] as i64,
        );
        _mm512_cmplt_epu64_mask(_mm512_srli_epi64::<11>(v), t)
    };
    u32::from(half(&x[..8])) | u32::from(half(&x[8..])) << 8
}

/// [`lane_step`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_step_avx512(
    state: &mut Lanes,
    epochs: Range<u64>,
    threshold: u64,
    steps: &mut [(u64, u32); CHUNK],
) -> usize {
    lane_step(state, epochs, threshold, steps, |x, t| {
        hit_mask_avx512(x, t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scalar reference: one `StdRng` per core, drawn epoch by epoch.
    fn reference(
        stream: u64,
        cores: usize,
        epochs: Range<u64>,
        threshold: u64,
    ) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for core in 0..cores {
            let mut rng = StdRng::seed_from_u64(mix_seed(stream, core as u64));
            for epoch in epochs.clone() {
                if (rng.next_u64() >> 11) < threshold {
                    out.push((core, epoch));
                }
            }
        }
        out
    }

    #[test]
    fn every_supported_path_matches_the_scalar_reference() {
        let dyadic = 0.25f64;
        let ps = [
            1e-4,
            0.002,
            0.5,
            1.0,
            f64::from_bits(dyadic.to_bits() - 1),
            dyadic,
            f64::from_bits(dyadic.to_bits() + 1),
        ];
        let ranges = [0..0, 7..7, 0..1, 41..42, 0..300, 1_000..1_613];
        for path in Path::supported() {
            let mut expander = Expander::new(path);
            let mut cases = 0;
            for cores in [1, 7, 15, 16, 17, 33, 256, 257] {
                for epochs in ranges.clone() {
                    for (i, &p) in ps.iter().enumerate() {
                        let stream = 0x5EED ^ (cores as u64) << 8 ^ i as u64;
                        let threshold = burst_threshold(p);
                        let mut got = Vec::new();
                        expander.expand(stream, cores, epochs.clone(), threshold, |c, hits| {
                            got.extend(hits.iter().map(|&e| (c, e)));
                        });
                        let want = reference(stream, cores, epochs.clone(), threshold);
                        assert_eq!(got, want, "{path:?}: {cores} cores, {epochs:?}, p = {p}");
                        cases += 1;
                    }
                }
            }
            println!("burst expansion path {path:?}: {cases} cases match the scalar reference");
        }
    }

    #[test]
    fn lane_step_matches_the_scalar_test_at_the_boundary() {
        // A random draw lands on the threshold with odds of 2^-53, so seed
        // the lanes to draw the mantissas around it: with s0 = 0, a lane's
        // first xoshiro256++ output is rotl(s3, 23).
        let dyadic = 0.25f64;
        for p in [
            1e-4,
            0.002,
            0.5,
            1.0,
            f64::from_bits(dyadic.to_bits() - 1),
            f64::from_bits(dyadic.to_bits() + 1),
        ] {
            let t = burst_threshold(p);
            // Mantissas t-8 ..= t+7, then t ..= t+15 (capped at the 53-bit
            // maximum), with low bits set that the shift must discard,
            // rotated so the boundary mantissa visits every lane.
            for (below, rotate) in [8, 0]
                .into_iter()
                .flat_map(|b| (0..LANES).map(move |r| (b, r)))
            {
                let mut draws = [0u64; LANES];
                for (l, d) in draws.iter_mut().enumerate() {
                    let k = ((l + rotate) % LANES) as u64;
                    let m = (t + k).saturating_sub(below).min((1 << 53) - 1);
                    *d = m << 11 | (k * 0x9D) & 0x7FF;
                }
                let want = draws
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| (x >> 11) < t)
                    .fold(0u32, |m, (l, _)| m | 1 << l);
                for path in Path::supported() {
                    let mut expander = Expander::new(path);
                    let mut state = [[0; LANES], [0; LANES], [0; LANES], draws];
                    for s3 in &mut state[3] {
                        *s3 = s3.rotate_right(23);
                    }
                    let found = expander.step(&mut state, 5..6, t);
                    // An epoch without hits writes no step.
                    let got = match found {
                        0 => 0,
                        1 => {
                            assert_eq!(expander.steps[0].0, 5, "{path:?}: hit epoch");
                            expander.steps[0].1
                        }
                        n => panic!("{path:?}: {n} hit steps from one epoch"),
                    };
                    assert_eq!(
                        (found, got),
                        (usize::from(want != 0), want),
                        "{path:?}: p = {p}, mantissas from t-{below}, rotate = {rotate}"
                    );
                }
            }
        }
    }
}
