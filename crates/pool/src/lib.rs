//! Persistent worker pool for sharding engine decode steps across cores.
//!
//! The serving engine advances every active sequence once per step. The
//! per-sequence work (one weight-stationary sweep over the model layers)
//! is independent across sequences, so a step over a batch of `n`
//! sequences is an embarrassingly parallel map of `n` tasks. This crate
//! provides the one primitive that map needs: a pool of persistent
//! threads that executes `f(0) .. f(n-1)` with the calling thread
//! participating, then returns once every task has finished.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero steady-state allocation.** The decode hot loop is pinned
//!    allocation-free by counting-allocator tests, and worker-thread
//!    allocations count against the same global allocator. Dispatch
//!    therefore uses a mutex-guarded job slot plus condvars — not
//!    channels, whose `send` heap-allocates per message. Publishing a
//!    job writes an `Option<Job>` (two words) under the lock; claiming a
//!    task increments a counter. Nothing touches the heap after
//!    [`WorkerPool::new`].
//! 2. **Determinism.** The pool never splits or reorders a task: task
//!    `i` is exactly the closure applied to index `i`, and callers shard
//!    work into contiguous ranges *before* dispatch. Which thread runs
//!    which task is scheduling-dependent, but since tasks write disjoint
//!    output slots, results are bit-identical for any thread count.
//! 3. **No dependencies.** `std::thread` + `Mutex` + `Condvar` only.
//!
//! # Example: a sharded map
//!
//! ```
//! use lightmamba_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! // Shard a flat output buffer: each task owns exactly one slot.
//! let mut squares = vec![0u64; 16];
//! pool.run_over(&mut squares, |i, out| *out = (i as u64) * (i as u64));
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares[15], 225);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Error returned by [`WorkerPool::try_run`] when one or more tasks
/// panicked. All non-panicking tasks of the map still ran to
/// completion before this is returned — the completion barrier is
/// unconditional — so output slots written by surviving tasks are
/// valid; slots owned by panicked tasks must be treated as torn.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// The first captured panic payload, rendered as a string
    /// (`"<non-string panic payload>"` for exotic payload types).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a caught panic payload for [`TaskPanic::message`].
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The published unit of work: a type-erased `&dyn Fn(usize)` that every
/// pool thread applies to the task indices it claims.
///
/// The pointee lives on the caller's stack inside [`WorkerPool::run`],
/// which does not return until `finished == tasks`, so the pointer is
/// valid for exactly as long as any thread can observe it (workers drop
/// their reference before incrementing `finished`).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `run` keeps it alive until all claims complete, so sending the
// pointer to worker threads is sound.
unsafe impl Send for Job {}

/// Dispatch state guarded by [`Shared::state`].
struct PoolState {
    /// Bumped once per `run`; workers use it to detect a new job.
    epoch: u64,
    /// The current job, present from publish until the run completes.
    job: Option<Job>,
    /// Next unclaimed task index.
    next: usize,
    /// Total tasks in the current job.
    tasks: usize,
    /// Tasks whose closure call has returned (or panicked).
    finished: usize,
    /// Set if any task panicked; `try_run` reports it after the
    /// barrier and `run` re-raises it.
    panicked: bool,
    /// First captured panic payload of the current epoch (cold path:
    /// only ever written when a task panics).
    panic_msg: Option<String>,
    /// Set by `Drop` to retire the worker threads.
    shutdown: bool,
    /// Worker threads that have entered their dispatch loop.
    started: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a new epoch is published or on shutdown.
    work_cv: Condvar,
    /// Signalled when the last task of an epoch finishes.
    done_cv: Condvar,
}

/// A fixed-size pool of persistent worker threads executing sharded
/// maps (see the [crate docs](crate) for the dispatch design).
///
/// `WorkerPool::new(n)` spawns `n - 1` workers; the thread calling
/// [`run`](Self::run) participates as the `n`-th, so `n = 1` spawns
/// nothing and runs inline. Dropping the pool retires the workers.
///
/// # Panic safety
///
/// Task panics are contained: every `f(i)` call is wrapped in
/// `catch_unwind` on whichever thread claims it, the completion
/// barrier always resolves (no hang, no orphaned claim), and the
/// caller learns about the panic as an error from
/// [`try_run`](Self::try_run) (or a deferred re-raise from
/// [`run`](Self::run)). A worker whose task panicked *retires* after
/// finishing its bookkeeping — thread-local state on a thread that
/// just unwound is suspect — and a supervisor check at the start of
/// the next dispatch respawns any retired worker, so the pool returns
/// to full strength without caller involvement.
///
/// Every lock acquisition recovers from [`std::sync::PoisonError`]
/// via `into_inner`. This is sound because no code path panics while
/// holding the state lock: user closures run with the lock released
/// (the claim loop drops the guard before calling `f`), and the lock
/// regions themselves only touch plain counters whose invariants are
/// restored before the guard drops. Poisoning can therefore only be
/// observed if a *worker thread is killed externally* mid-update,
/// which `std::thread` does not expose.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Worker join handles, behind a lock so the supervisor (called
    /// from `try_run` under `run_lock`) can replace retired workers
    /// through `&self`.
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
    /// Serializes concurrent `run` calls (the job slot holds one job).
    run_lock: Mutex<()>,
    /// Set after any task panic; gates the (cold) supervisor scan so
    /// the steady-state dispatch path never touches `workers`.
    panic_seen: AtomicBool,
    /// Total worker threads respawned by the supervisor.
    respawns: AtomicU64,
    /// Monotonic id source for respawned worker thread names.
    worker_seq: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool that executes maps on `threads` threads total
    /// (`threads - 1` spawned workers plus the caller). A request for
    /// zero threads is clamped to one.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                next: 0,
                tasks: 0,
                finished: 0,
                panicked: false,
                panic_msg: None,
                shutdown: false,
                started: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| spawn_worker(Arc::clone(&shared), k as u64, 0))
            .collect();
        // Wait until every worker runs: thread start-up allocates (std
        // records the thread's name), and a worker the OS first
        // schedules mid-run would put that allocation on the
        // allocation-free dispatch path.
        {
            let mut st = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while st.started < threads - 1 {
                st = shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
            threads,
            run_lock: Mutex::new(()),
            panic_seen: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
            worker_seq: AtomicU64::new(threads as u64),
        }
    }

    /// Number of threads that execute each map, including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0) .. f(tasks - 1)` across the pool and returns once all
    /// calls have completed. The calling thread participates, so the
    /// pool makes progress even with `threads == 1` (which runs inline,
    /// no synchronization at all).
    ///
    /// Tasks are claimed one index at a time from a shared counter;
    /// which thread runs which index is unspecified, so `f` must be
    /// safe to call concurrently for distinct indices (it is `Sync`)
    /// and tasks must not alias mutable state (see
    /// [`run_over`](Self::run_over) for the checked slice form).
    ///
    /// Not reentrant: calling `run` from inside `f` deadlocks.
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is caught, the remaining tasks
    /// still run, and `run` panics after the completion barrier — the
    /// pool itself stays usable. Callers that want the panic as a
    /// value instead use [`try_run`](Self::try_run).
    pub fn run(&self, tasks: usize, f: impl Fn(usize) + Sync) {
        if let Err(e) = self.try_run(tasks, f) {
            panic!("lightmamba_pool: a pool task panicked: {}", e.message);
        }
    }

    /// [`run`](Self::run) with panic containment surfaced as a value:
    /// if any task panics, the panic is caught where it happened, the
    /// remaining tasks still run to the completion barrier, and the
    /// first panic payload comes back as `Err(TaskPanic)` instead of
    /// unwinding through the caller.
    ///
    /// Before publishing the job, a supervisor pass respawns any
    /// worker thread that retired after a previous panic (gated on a
    /// panic actually having been seen, so the fault-free dispatch
    /// path is untouched). On success nothing allocates.
    pub fn try_run(&self, tasks: usize, f: impl Fn(usize) + Sync) -> Result<(), TaskPanic> {
        if tasks == 0 {
            return Ok(());
        }
        if self.threads == 1 || tasks == 1 {
            for i in 0..tasks {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    // Inline path: no worker state to repair, but the
                    // contract is the same — remaining tasks run.
                    let msg = payload_message(payload.as_ref());
                    for j in i + 1..tasks {
                        let _ = catch_unwind(AssertUnwindSafe(|| f(j)));
                    }
                    return Err(TaskPanic { message: msg });
                }
            }
            return Ok(());
        }
        let _serial = self
            .run_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Supervisor: a worker that saw a task panic retires its
        // thread; bring the pool back to full strength before the next
        // dispatch. Cold path — `panic_seen` is only set on faults.
        if self.panic_seen.load(Ordering::Acquire) {
            self.respawn_retired_workers();
            self.panic_seen.store(false, Ordering::Release);
        }
        let f_obj: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the job pointer escapes to worker threads, but this
        // function blocks below until `finished == tasks`, and workers
        // drop their borrow of the closure before incrementing
        // `finished`, so the closure outlives every dereference.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_obj) };
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(Job(f_static));
            st.next = 0;
            st.tasks = tasks;
            st.finished = 0;
            st.panicked = false;
            st.panic_msg = None;
        }
        self.shared.work_cv.notify_all();

        // The caller claims tasks alongside the workers.
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if st.next >= st.tasks {
                break;
            }
            let i = st.next;
            st.next += 1;
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(|| f_obj(i)));
            st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Err(payload) = result {
                if st.panic_msg.is_none() {
                    st.panic_msg = Some(payload_message(payload.as_ref()));
                }
                st.panicked = true;
            }
            st.finished += 1;
        }
        while st.finished < st.tasks {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panicked;
        let msg = st.panic_msg.take();
        drop(st);
        if panicked {
            self.panic_seen.store(true, Ordering::Release);
            return Err(TaskPanic {
                message: msg.unwrap_or_else(|| "<lost panic payload>".to_string()),
            });
        }
        Ok(())
    }

    /// Replaces every retired (finished) worker thread with a fresh
    /// one. Called by the supervisor check in [`try_run`](Self::try_run)
    /// under `run_lock`, so no job is in flight while handles are
    /// swapped.
    fn respawn_retired_workers(&self) {
        let mut workers = self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let epoch = {
            let st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.epoch
        };
        for slot in workers.iter_mut() {
            if slot.is_finished() {
                let k = self.worker_seq.fetch_add(1, Ordering::Relaxed);
                let fresh = spawn_worker(Arc::clone(&self.shared), k, epoch);
                let old = std::mem::replace(slot, fresh);
                let _ = old.join();
                self.respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Worker threads the supervisor has respawned after panics.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Spawned worker threads that are currently alive (excludes the
    /// caller thread; retired workers count as dead until the next
    /// dispatch respawns them).
    pub fn live_workers(&self) -> usize {
        let workers = self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        workers.iter().filter(|h| !h.is_finished()).count()
    }

    /// Runs `f(i, &mut items[i])` for every element of `items`, with
    /// each task receiving exclusive mutable access to its own slot —
    /// the shape every sharded decode step uses (one workspace per
    /// shard, written by exactly one thread).
    ///
    /// ```
    /// use lightmamba_pool::WorkerPool;
    /// let pool = WorkerPool::new(2);
    /// let mut sums = [0u32; 3];
    /// pool.run_over(&mut sums, |i, s| *s = (0..=i as u32).sum());
    /// assert_eq!(sums, [0, 1, 3]);
    /// ```
    pub fn run_over<W: Send>(&self, items: &mut [W], f: impl Fn(usize, &mut W) + Sync) {
        if let Err(e) = self.try_run_over(items, f) {
            panic!("lightmamba_pool: a pool task panicked: {}", e.message);
        }
    }

    /// [`run_over`](Self::run_over) with panic containment surfaced as
    /// a value (see [`try_run`](Self::try_run)). On `Err`, slots whose
    /// task panicked may hold torn partial writes; slots of surviving
    /// tasks are fully written.
    pub fn try_run_over<W: Send>(
        &self,
        items: &mut [W],
        f: impl Fn(usize, &mut W) + Sync,
    ) -> Result<(), TaskPanic> {
        let base = SendPtr(items.as_mut_ptr());
        let n = items.len();
        self.try_run(n, move |i| {
            debug_assert!(i < n);
            // SAFETY: `try_run` hands out each index in 0..n exactly
            // once, so this is the only reference to `items[i]`, and
            // the slice outlives the call (the caller's borrow is held
            // across the blocking call).
            let slot = unsafe { &mut *base.get().add(i) };
            f(i, slot);
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let mut workers = self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pointer wrapper so a `*mut W` can cross the closure's `Sync` bound;
/// exclusivity is guaranteed by the claim counter, not the type.
struct SendPtr<W>(*mut W);

impl<W> SendPtr<W> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole wrapper — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut W`, which is not `Sync`.
    fn get(&self) -> *mut W {
        self.0
    }
}

// SAFETY: see `run_over` — each task dereferences a distinct slot.
unsafe impl<W: Send> Send for SendPtr<W> {}
unsafe impl<W: Send> Sync for SendPtr<W> {}

/// Spawns one worker thread. `start_epoch` is the dispatch epoch at
/// spawn time so a worker respawned between jobs never mistakes the
/// already-drained previous epoch for fresh work.
fn spawn_worker(shared: Arc<Shared>, k: u64, start_epoch: u64) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lm-pool-{k}"))
        .spawn(move || worker_loop(&shared, start_epoch))
        .expect("spawn pool worker")
}

fn worker_loop(shared: &Shared, start_epoch: u64) {
    let mut last_epoch = start_epoch;
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .started += 1;
    shared.done_cv.notify_all();
    loop {
        let mut st = shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while st.epoch == last_epoch && !st.shutdown {
            st = shared
                .work_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.shutdown {
            return;
        }
        last_epoch = st.epoch;
        while st.next < st.tasks {
            let i = st.next;
            st.next += 1;
            let job = st.job.expect("job present while tasks remain");
            drop(st);
            // SAFETY: `try_run` keeps the closure alive until
            // `finished == tasks`; we finish using it before the
            // increment below.
            let f = unsafe { &*job.0 };
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            st = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let panicked = if let Err(payload) = result {
                if st.panic_msg.is_none() {
                    st.panic_msg = Some(payload_message(payload.as_ref()));
                }
                st.panicked = true;
                true
            } else {
                false
            };
            st.finished += 1;
            if st.finished == st.tasks {
                shared.done_cv.notify_all();
            }
            if panicked {
                // Retire: a thread that just unwound through user code
                // may hold suspect thread-local state. Remaining tasks
                // are drained by the other workers and the caller; the
                // supervisor respawns a replacement before the next
                // dispatch.
                return;
            }
        }
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn run_over_gives_exclusive_slots() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 100];
        pool.run_over(&mut out, |i, v| *v = i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = [0u8; 5];
        pool.run_over(&mut out, |i, v| *v = i as u8 + 1);
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn empty_map_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("task 3 fails");
                }
            });
        }));
        assert!(caught.is_err(), "run re-raises the task panic");
        // The pool is still usable after a task panic.
        let mut out = [0u32; 4];
        pool.run_over(&mut out, |i, v| *v = i as u32);
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn try_run_reports_the_panic_as_an_error() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let err = pool
            .try_run(8, |i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(
            err.message.contains("task 5 exploded"),
            "payload surfaces in the error: {}",
            err.message
        );
        // The barrier is unconditional: every surviving task ran.
        assert_eq!(done.load(Ordering::Relaxed), 7);
        // And the pool still works.
        assert!(pool.try_run(4, |_| ()).is_ok());
    }

    #[test]
    fn inline_path_contains_panics_too() {
        let pool = WorkerPool::new(1);
        let done = AtomicUsize::new(0);
        let err = pool
            .try_run(4, |i| {
                if i == 1 {
                    panic!("inline boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(err.message.contains("inline boom"));
        assert_eq!(done.load(Ordering::Relaxed), 3, "remaining tasks still ran");
        assert!(pool.try_run(2, |_| ()).is_ok());
    }

    #[test]
    fn supervisor_respawns_a_retired_worker() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.live_workers(), 1);
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        // The barrier forces the caller and the worker to take one
        // task each; the worker's task panics, so the worker retires.
        let err = pool
            .try_run(2, |_| {
                barrier.wait();
                if std::thread::current().id() != caller {
                    panic!("worker-side fault");
                }
            })
            .unwrap_err();
        assert!(err.message.contains("worker-side fault"));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.live_workers() != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.live_workers(), 0, "panicking worker retires");
        // The next dispatch respawns it and completes normally.
        let mut out = [0u32; 8];
        pool.run_over(&mut out, |i, v| *v = i as u32 * 2);
        assert_eq!(out, [0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(pool.respawns(), 1);
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn try_run_over_surfaces_surviving_slots() {
        let pool = WorkerPool::new(2);
        let mut out = [0u32; 6];
        let err = pool
            .try_run_over(&mut out, |i, v| {
                if i == 2 {
                    panic!("slot 2 fault");
                }
                *v = i as u32 + 10;
            })
            .unwrap_err();
        assert!(err.message.contains("slot 2 fault"));
        for (i, v) in out.iter().enumerate() {
            if i != 2 {
                assert_eq!(*v, i as u32 + 10, "surviving slot {i} written");
            }
        }
    }
}
