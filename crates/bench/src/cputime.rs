//! Steal-immune timing for overhead gates on shared runners.
//!
//! Wall-clock overhead gates flake on oversubscribed CI hosts: a
//! scheduler steal or frequency epoch landing on one side of an
//! interleaved comparison fakes double-digit overhead on an unmodified
//! checkout. Process CPU time only advances while the process is actually
//! running, so host steal cancels out of on/off ratios. It is read from
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` to the nanosecond, so even a
//! window of a few hundred milliseconds is not quantised the way
//! `/proc/self/stat`'s 10 ms clock ticks would quantise it.

use std::time::Instant;

/// Process CPU time (user + system, all threads) in seconds, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. `None` off 64-bit Linux or
/// if the clock cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, so
    // `ts` is a valid, writable, exclusively borrowed timespec for the
    // call, and the clock id is one every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// Process CPU time is read on 64-bit Linux only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_seconds() -> Option<f64> {
    None
}

/// A stopwatch that reads process CPU time where available and falls back
/// to wall clock elsewhere, so gate code stays portable.
#[derive(Debug, Clone, Copy)]
pub struct CpuStopwatch {
    cpu_start: Option<f64>,
    wall_start: Instant,
}

impl CpuStopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            cpu_start: process_cpu_seconds(),
            wall_start: Instant::now(),
        }
    }

    /// Seconds elapsed: CPU seconds where the process CPU clock is
    /// readable, wall seconds otherwise.
    pub fn elapsed_secs(&self) -> f64 {
        match (self.cpu_start, process_cpu_seconds()) {
            (Some(t0), Some(t1)) => t1 - t0,
            _ => self.wall_start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_load() {
        let sw = CpuStopwatch::start();
        let mut acc = 0u64;
        while sw.elapsed_secs() < 0.05 {
            for i in 0..100_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
        }
        assert!(acc != 1); // keep the loop observable
        assert!(sw.elapsed_secs() >= 0.05);
    }

    #[test]
    fn cpu_clock_reads_below_a_clock_tick_on_linux() {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            let t0 = process_cpu_seconds().expect("the process CPU clock is readable");
            // Spin until the clock moves: the first step it shows must be
            // far below the 10 ms tick of `/proc/self/stat`.
            let step = std::iter::repeat_with(|| process_cpu_seconds().unwrap() - t0)
                .find(|&dt| dt > 0.0)
                .unwrap();
            assert!(step < 1e-3, "the CPU clock moved in a {step} s step");
        }
    }
}
