//! Deterministic sharded execution over per-core state.
//!
//! The simulator's per-core work (performance model, power, sensors) is
//! embarrassingly parallel *within* an epoch; the couplings between cores
//! (barrier gating, the thermal grid, NoC congestion) are applied as serial
//! fixed-order reductions between the parallel passes. Combined with
//! per-core RNG streams — every random draw belongs to exactly one core and
//! its stream is derived from the master seed and the core index, never from
//! execution order — the output is **bit-identical** for any shard count,
//! including [`Parallelism::Serial`].
//!
//! Shards are contiguous core ranges, and each writes its results into its
//! own range in place ([`shard_chunks`]). Execution uses a small
//! persistent worker pool built on `std::thread` + `Mutex`/`Condvar` only
//! (no external dependencies): an epoch's work (tens of microseconds) is
//! far cheaper than spawning even one OS thread, so per-call
//! `thread::scope` spawning would make every sharded run slower than
//! serial. The pool parks its workers between epochs and
//! hands each job over with a single lock/notify round trip instead. On a
//! machine with no spare hardware threads the pool degenerates to the
//! calling thread running every shard back to back — same chunk boundaries,
//! same results, no handoff cost.

use serde::{Deserialize, Serialize};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// How the per-core work inside an epoch is executed.
///
/// The default is [`Parallelism::Serial`], which runs everything on the
/// calling thread exactly as the simulator always has. Because random draws
/// use per-core streams, every variant produces bit-identical results; the
/// knob only trades wall-clock time for threads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Everything on the calling thread (the default).
    #[default]
    Serial,
    /// A fixed number of worker shards (clamped to at least 1).
    Threads(usize),
    /// One shard per available hardware thread, as
    /// `std::thread::available_parallelism` reports it the first time any
    /// `Auto` setting or the shard pool needs it. The answer is kept for
    /// the rest of the process (the query costs microseconds and heap
    /// allocations), so later changes to CPU affinity or quotas are not
    /// seen.
    Auto,
}

impl Parallelism {
    /// Resolves the shard count for `n` work items: at least 1, at most `n`.
    pub fn shards(self, n: usize) -> usize {
        let want = match self {
            Self::Serial => 1,
            Self::Threads(k) => k.max(1),
            Self::Auto => hardware_threads(),
        };
        want.min(n.max(1))
    }

    /// Whether this setting ever spawns worker threads.
    pub fn is_parallel(self) -> bool {
        !matches!(self, Self::Serial)
    }
}

/// The process's hardware threads, queried once: sizes both
/// [`Parallelism::Auto`] and the shard pool.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Derives the seed for one core's private RNG stream from a base seed.
///
/// SplitMix64 finalizer over `base + index`: adjacent cores get
/// well-decorrelated streams, and the mapping depends only on the master
/// seed and the core index — never on shard layout or execution order.
#[must_use]
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-core state that can be split into contiguous shard chunks for
/// in-place sharded mutation (see [`shard_chunks`]).
///
/// Implemented for `&mut [T]` and for tuples of up to nine `ShardSplit`
/// values of equal length, so a pass over several parallel arrays (the
/// struct-of-arrays layout in [`crate::soa::CoreArrays`]) can be sharded
/// without collecting results into a fresh `Vec`.
pub trait ShardSplit: Sized {
    /// Number of per-core items in this state.
    fn shard_len(&self) -> usize;
    /// Splits into the leading `mid` items and the rest.
    fn split_at_mut(self, mid: usize) -> (Self, Self);
}

impl<T> ShardSplit for &mut [T] {
    fn shard_len(&self) -> usize {
        self.len()
    }
    fn split_at_mut(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at_mut(self, mid)
    }
}

macro_rules! impl_shard_split_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ShardSplit),+> ShardSplit for ($($name,)+) {
            fn shard_len(&self) -> usize {
                let len = self.0.shard_len();
                $(debug_assert_eq!(self.$idx.shard_len(), len,
                    "sharded tuple slices must have equal length");)+
                len
            }
            #[allow(non_snake_case)]
            fn split_at_mut(self, mid: usize) -> (Self, Self) {
                $(let $name = self.$idx.split_at_mut(mid);)+
                (($($name.0,)+), ($($name.1,)+))
            }
        }
    };
}

impl_shard_split_tuple!(A: 0);
impl_shard_split_tuple!(A: 0, B: 1);
impl_shard_split_tuple!(A: 0, B: 1, C: 2);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
impl_shard_split_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);

/// Runs `f(base_index, chunk)` over contiguous chunks of `state`, sharded
/// across pool workers.
///
/// The caller's closure writes its results directly into the mutable chunk
/// it receives, so nothing is collected. The serial path
/// ([`Parallelism::Serial`] or a single shard) is exactly `f(0, state)`.
/// The pool path allocates nothing either: the remaining state sits behind
/// one lock on the caller's stack, and each pool shard splits the next
/// `ceil(n / shards)` items off its front and runs `f` on them. Chunk
/// boundaries, and the `base_index` each chunk is run with, therefore
/// depend only on `n` and the shard count, never on which thread takes
/// which chunk. Per-item work must not depend on any other item's
/// evaluation, so results are bit-identical for every shard count.
pub fn shard_chunks<S, F>(par: Parallelism, state: S, f: F)
where
    S: ShardSplit + Send,
    F: Fn(usize, S) + Sync,
{
    let n = state.shard_len();
    let shards = par.shards(n);
    if shards <= 1 {
        f(0, state);
        return;
    }
    let chunk = n.div_ceil(shards);
    let rest = Mutex::new(Some((0usize, state)));
    pool::global().run_shards(n.div_ceil(chunk), &|_| {
        let (base, head) = {
            let mut rest = rest.lock().expect("shard state poisoned");
            let (base, s) = rest.take().expect("the pool runs one shard per chunk");
            if s.shard_len() > chunk {
                let (head, tail) = s.split_at_mut(chunk);
                *rest = Some((base + chunk, tail));
                (base, head)
            } else {
                (base, s)
            }
        };
        f(base, head);
    });
}

mod pool {
    //! A persistent shard-execution pool.
    //!
    //! Epoch updates are microsecond-scale, so the pool must hand work to
    //! already-running threads: workers are spawned once (lazily, capped at
    //! the machine's hardware threads), park on a condvar between jobs, and
    //! each job is one borrowed `Fn(shard_index)` executed for every shard.
    //! The caller always runs shard 0 itself (plus any shards beyond the
    //! worker count), so a machine with no spare hardware threads executes
    //! all shards on the calling thread with zero handoff cost.
    //!
    //! The only unsafe code is the lifetime erasure of the borrowed job
    //! closure; `run_shards` never returns before every worker that picked
    //! the job up has finished it, so the borrow strictly outlives all uses.

    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::thread;

    /// Type-erased pointer to the caller's borrowed shard closure.
    #[derive(Clone, Copy)]
    struct JobPtr(*const (dyn Fn(usize) + Sync));

    // SAFETY: the pointee is `Sync` (shared access from any thread is fine)
    // and `run_shards` keeps the referent alive until the job completes.
    unsafe impl Send for JobPtr {}

    struct State {
        job: Option<JobPtr>,
        /// Total shards of the current job (workers run `1..=participants`).
        shards: usize,
        /// Bumped once per published job so parked workers can detect it.
        epoch: u64,
        /// Worker shards not yet finished; the caller waits for zero.
        remaining: usize,
        panicked: bool,
    }

    pub(super) struct ShardPool {
        state: Mutex<State>,
        work: Condvar,
        done: Condvar,
        /// Serializes concurrent `run_shards` callers (one job at a time).
        submit: Mutex<()>,
        /// Workers spawned so far; grown on demand up to `max_workers`.
        spawned: Mutex<usize>,
        max_workers: usize,
    }

    /// The process-wide pool, created on first parallel use. It keeps at
    /// most one worker per hardware thread but the caller's (the same
    /// once-per-process count [`Parallelism::Auto`](super::Parallelism::Auto)
    /// resolves to), so a machine with a single hardware thread gets none:
    /// every shard then runs on the calling thread, and sharded execution
    /// costs the same as serial.
    pub(super) fn global() -> &'static ShardPool {
        static POOL: OnceLock<&'static ShardPool> = OnceLock::new();
        POOL.get_or_init(|| Box::leak(Box::new(ShardPool::new(super::hardware_threads() - 1))))
    }

    impl ShardPool {
        pub(super) fn new(max_workers: usize) -> Self {
            ShardPool {
                state: Mutex::new(State {
                    job: None,
                    shards: 0,
                    epoch: 0,
                    remaining: 0,
                    panicked: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                submit: Mutex::new(()),
                spawned: Mutex::new(0),
                max_workers,
            }
        }
        /// Runs `f(k)` for every shard `k` in `0..shards`, returning once
        /// all shards have finished. Shards run concurrently when workers
        /// are available; excess shards run on the calling thread. Panics
        /// (rethrown here) leave the pool reusable.
        ///
        /// `f` must not itself call `run_shards` (the pool runs one job at
        /// a time and the nested submission would deadlock).
        pub(super) fn run_shards(&'static self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
            if shards <= 1 {
                f(0);
                return;
            }
            let participants = shards.saturating_sub(1).min(self.max_workers);
            if participants == 0 {
                for k in 0..shards {
                    f(k);
                }
                return;
            }
            self.ensure_workers(participants);
            let _submit = self.submit.lock().expect("pool submit lock poisoned");
            {
                let mut st = self.state.lock().expect("pool state poisoned");
                // SAFETY: erasing the closure's lifetime is sound because
                // this function blocks on `remaining == 0` below before
                // returning (even on panic), so no worker can touch the
                // pointer after the borrow ends.
                st.job = Some(JobPtr(unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync),
                        *const (dyn Fn(usize) + Sync),
                    >(f as *const _)
                }));
                st.shards = participants + 1;
                st.epoch += 1;
                st.remaining = participants;
                st.panicked = false;
                self.work.notify_all();
            }
            // The caller's own share: shard 0 plus anything beyond the
            // worker count. A panic is deferred until the workers are done
            // so the borrowed closure stays valid for them.
            let mine = catch_unwind(AssertUnwindSafe(|| {
                f(0);
                for k in (participants + 1)..shards {
                    f(k);
                }
            }));
            let worker_panicked = {
                let mut st = self.state.lock().expect("pool state poisoned");
                while st.remaining > 0 {
                    st = self.done.wait(st).expect("pool state poisoned");
                }
                st.job = None;
                st.panicked
            };
            drop(_submit);
            match mine {
                Err(cause) => resume_unwind(cause),
                Ok(()) if worker_panicked => panic!("shard worker panicked"),
                Ok(()) => {}
            }
        }

        fn ensure_workers(&'static self, need: usize) {
            let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
            while *spawned < need.min(self.max_workers) {
                let index = *spawned;
                thread::Builder::new()
                    .name(format!("odrl-shard-{index}"))
                    .spawn(move || self.worker_loop(index))
                    .expect("failed to spawn shard worker");
                *spawned += 1;
            }
        }

        fn worker_loop(&'static self, index: usize) {
            let mut seen = 0u64;
            loop {
                let (job, shards) = {
                    let mut st = self.state.lock().expect("pool state poisoned");
                    while st.epoch == seen {
                        st = self.work.wait(st).expect("pool state poisoned");
                    }
                    seen = st.epoch;
                    (st.job, st.shards)
                };
                let my_shard = index + 1;
                let Some(job) = job else { continue };
                if my_shard >= shards {
                    continue;
                }
                // SAFETY: the publishing `run_shards` call is still blocked
                // waiting for `remaining` to reach zero, which includes this
                // worker's decrement below, so the closure is alive.
                let f = unsafe { &*job.0 };
                let ok = catch_unwind(AssertUnwindSafe(|| f(my_shard))).is_ok();
                let mut st = self.state.lock().expect("pool state poisoned");
                if !ok {
                    st.panicked = true;
                }
                st.remaining -= 1;
                if st.remaining == 0 {
                    self.done.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_clamp() {
        assert_eq!(Parallelism::Serial.shards(100), 1);
        assert_eq!(Parallelism::Threads(4).shards(100), 4);
        assert_eq!(Parallelism::Threads(0).shards(100), 1);
        assert_eq!(Parallelism::Threads(16).shards(3), 3);
        assert!(Parallelism::Auto.shards(1000) >= 1);
    }

    #[test]
    fn shard_chunks_covers_every_index_once() {
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(3),
            Parallelism::Threads(8),
        ] {
            let mut a = vec![0u64; 37];
            let mut b = vec![0u64; 37];
            shard_chunks(par, (&mut a[..], &mut b[..]), |base, (ca, cb)| {
                for j in 0..ca.len() {
                    ca[j] += 1;
                    cb[j] = (base + j) as u64;
                }
            });
            assert!(a.iter().all(|&v| v == 1), "every item visited once");
            assert_eq!(b, (0..37).map(|i| i as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_split_tuple_boundaries_match() {
        let mut a = [0u32; 10];
        let mut b = [0u32; 10];
        let state = (&mut a[..], &mut b[..]);
        assert_eq!(state.shard_len(), 10);
        let (head, tail) = state.split_at_mut(4);
        assert_eq!(head.0.len(), 4);
        assert_eq!(head.1.len(), 4);
        assert_eq!(tail.0.len(), 6);
        assert_eq!(tail.1.len(), 6);
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1024).map(|i| stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1024);
    }

    /// A private pool with real workers, so the cross-thread handoff
    /// protocol is exercised even when the test host has a single hardware
    /// thread (where the global pool keeps zero workers).
    fn test_pool(workers: usize) -> &'static pool::ShardPool {
        Box::leak(Box::new(pool::ShardPool::new(workers)))
    }

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = test_pool(2);
        for shards in [1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.run_shards(shards, &|k| {
                hits[k].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every shard of {shards} must run exactly once"
            );
        }
    }

    #[test]
    fn pool_survives_worker_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = test_pool(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_shards(3, &|k| {
                if k > 0 {
                    panic!("shard {k} fails");
                }
            });
        }));
        assert!(
            caught.is_err(),
            "worker panics must propagate to the caller"
        );
        // The pool stays usable after a panicking job.
        let done = AtomicUsize::new(0);
        pool.run_shards(3, &|_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn serde_round_trip_and_default() {
        let p = Parallelism::Threads(8);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<Parallelism>(&json).unwrap(), p);
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }
}
