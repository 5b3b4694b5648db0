//! Persistent worker pool: the mechanism behind [`crate::backend`].
//!
//! This module owns the thread pool itself — one shared FIFO job queue,
//! the workers that drain it, the fork-join entry point
//! ([`Pool::run_scoped`]) and the journal-ordered commit stream
//! ([`Pool::ordered_stream`]). The policy layer (`parallel_chunks_mut`,
//! `parallel_map`, chunking) lives in [`crate::backend`] and is a thin
//! shim over these primitives.
//!
//! # Queueing discipline
//!
//! Every submission appends its jobs, in submission order, to the one
//! queue, and every lane takes from its front, so jobs start in
//! submission order. The calling thread is a lane too: while it waits for
//! its latch it takes queued jobs exactly like a worker.
//!
//! # Determinism contract
//!
//! Which lane runs a job, and when it finishes, is nondeterministic, so
//! determinism is enforced one level up, at the *commit* point:
//!
//! * every task writes only state it owns (a disjoint output slot or
//!   buffer range), and
//! * results are consumed in **submission order** on the calling thread —
//!   [`Pool::ordered_stream`] buffers each task's result in its
//!   submission-indexed slot and releases the consumer callback strictly
//!   in index order, and `run_scoped` callers reduce their tasks' outputs
//!   in task order after the join.
//!
//! Under that discipline the bitwise result is a pure function of the
//! submission sequence, which depends only on the problem shape — never on
//! thread count, completion order, or injected jitter.
//!
//! # Why lanes never block
//!
//! Workers never wait on a latch — only the thread that *submitted* a
//! batch does, and while waiting it drains the queue itself. A task that
//! submits nested work runs it inline on its own lane ([`serial_active`]
//! is true on every pool lane). Together these rules make the pool
//! deadlock-free for arbitrarily nested submissions (see the regression
//! tests in `tests/integration_sched.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A unit of queued work. Lifetime-erased to `'static`; soundness is
/// provided by the call that submitted it, which does not return until
/// every job it enqueued has finished (see [`Pool::run_scoped`] /
/// [`Pool::ordered_stream`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state of one pool: the job queue and the sleep protocol.
struct Shared {
    /// The one FIFO queue every lane takes from, so submission order is
    /// the start order.
    queue: Mutex<VecDeque<Job>>,
    /// Count of queued-but-not-yet-taken jobs. Lags a pop (decremented
    /// after the job leaves the queue), which errs on the side of keeping
    /// lanes awake — never on the side of losing a wake.
    pending: AtomicUsize,
    /// Sleep mutex + condvar, deliberately separate from the queue lock:
    /// waking a sleeper never contends with lanes pushing or popping work.
    sleep: Mutex<()>,
    available: Condvar,
    /// Set when the [`Pool`] is dropped: a worker that finds the queue
    /// empty exits instead of sleeping.
    shutdown: AtomicBool,
}

impl Shared {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Wakes one sleeping lane. The lock round-trip on `sleep` pairs with
    /// the sleeper's pending re-check under the same lock: a lane can only
    /// commit to sleeping while holding `sleep`, and it re-checks
    /// `pending` there, so a push that bumped `pending` before we acquired
    /// the lock is either seen by the re-check or its notify lands after
    /// the `wait` began. No lost wakeups either way.
    fn wake_one(&self) {
        let _guard = self.sleep.lock().unwrap();
        self.available.notify_one();
    }

    /// Enqueues jobs in submission order. One wake; the taker chain (see
    /// [`Shared::take`]) fans out to further lanes.
    fn push_batch(&self, jobs: Vec<Job>) {
        let count = jobs.len();
        self.queue.lock().unwrap().extend(jobs);
        self.pending.fetch_add(count, Ordering::SeqCst);
        self.wake_one();
    }

    /// Takes the oldest queued job. Chains a wake to the next sleeper
    /// while work remains, so a burst of N jobs costs N wakes total
    /// instead of a thundering herd per push.
    fn take(&self) -> Option<Job> {
        let job = self.queue.lock().unwrap().pop_front()?;
        if self.pending.fetch_sub(1, Ordering::SeqCst) > 1 {
            self.wake_one();
        }
        Some(job)
    }
}

thread_local! {
    /// True on pool lanes (spawned workers, and waiting callers while they
    /// run a queued job); nested parallel helpers on a lane run inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Process-wide serial override (see [`force_serial`]).
static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

/// Switches the whole process to guaranteed-serial execution (`on =
/// true`) or back to pooled execution (`on = false`). Parallel helpers
/// observe the flag at entry. Because every kernel is
/// thread-count-invariant, toggling this changes wall-clock only, never
/// results — which is exactly what the benchmark harness and the parity
/// tests rely on.
pub fn force_serial(on: bool) {
    FORCE_SERIAL.store(on, Ordering::SeqCst);
}

/// Whether execution is currently serial: forced via [`force_serial`], or
/// running on a pool lane (nested parallelism runs inline).
pub fn serial_active() -> bool {
    FORCE_SERIAL.load(Ordering::SeqCst) || IN_WORKER.with(std::cell::Cell::get)
}

/// Marks the current thread as a pool lane for the guard's lifetime, so
/// nested parallel helpers inside a job run inline. Restores the previous
/// state on drop (waiting callers toggle this around each job they take).
struct LaneGuard {
    prev: bool,
}

impl LaneGuard {
    fn enter() -> Self {
        let prev = IN_WORKER.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|f| f.set(prev));
    }
}

/// Executes one dequeued job on the current thread (with the jitter
/// fuzz hook applied first when the `sched-fuzz` feature is enabled).
fn run_job(job: Job) {
    #[cfg(feature = "sched-fuzz")]
    fuzz_jitter();
    job();
}

/// Injected per-task jitter for completion-order fuzzing: sleeps a few
/// dozen deterministic-pseudo-random microseconds before each pooled task
/// when `XBAR_SCHED_JITTER=<nonzero seed>` is set. Perturbs which lane
/// takes each job and the order jobs finish in without touching any
/// computed value — the determinism tests assert results are bitwise
/// identical anyway.
#[cfg(feature = "sched-fuzz")]
fn fuzz_jitter() {
    use std::sync::OnceLock;
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    let Some(seed) = *SEED.get_or_init(|| {
        std::env::var("XBAR_SCHED_JITTER")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&s| s != 0)
    }) else {
        return;
    };
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let i = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut h = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    std::thread::sleep(std::time::Duration::from_micros(h % 120));
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Counts outstanding tasks of one submission and captures the first
/// panic so it can be re-thrown on the caller. Notifies on *every*
/// completion (not only the last) because ordered-stream consumers wake
/// per completion to re-check for newly committable results.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = self.state.lock().unwrap();
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        self.done.notify_all();
    }
}

/// A scoped worker pool over `threads` concurrent lanes (workers plus the
/// calling thread). Most callers want the process-wide
/// [`crate::backend::global`] pool; explicit construction exists for tests
/// and embedders. Dropping a pool stops and joins its workers.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    /// Spawned worker threads — `min(threads, available_parallelism) - 1`.
    /// Empty means every submission runs inline on the caller.
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pool({} threads, {} workers)",
            self.threads,
            self.workers.len()
        )
    }
}

impl Drop for Pool {
    /// Sets the shutdown flag, wakes every sleeping worker and joins them
    /// all. No job is queued: every submission borrows the pool until
    /// its last job has finished.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Notified under the sleep lock, which a worker holds while it
            // re-checks the flag: it either sees the flag or is already
            // waiting when this wake lands.
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            // Jobs catch their own panics, so a worker only ever returns.
            let _ = worker.join();
        }
    }
}

impl Pool {
    /// Creates a pool with `threads` total lanes; the caller is always
    /// one lane. Worker spawn count is clamped to the host's available
    /// parallelism: lanes the hardware cannot run concurrently are
    /// virtual (the caller drains their share inline), so an oversized
    /// `threads` never adds queueing or context-switch overhead.
    /// `threads <= 1` creates a serial pool that never spawns and always
    /// runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let spawned = threads
            .min(crate::backend::hardware_threads())
            .saturating_sub(1);
        let shared = Arc::new(Shared::new());
        let workers = (0..spawned)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xbar-worker-{}", lane + 1))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    /// Total concurrent lanes (including the calling thread). Always >= 1.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the pool has spawned workers to dispatch to. False for
    /// serial pools and for pools whose lanes were clamped away by the
    /// host's available parallelism — the `parallel_*` helpers use this
    /// to skip task construction entirely when every task would run on
    /// the caller anyway.
    pub fn has_workers(&self) -> bool {
        !self.workers.is_empty()
    }

    /// Waits until every task accounted to `latch` has completed, helping
    /// by running queued jobs (from any submission — helping a sibling
    /// is sound because *its* caller waits on its own latch) while
    /// waiting. Returns the first captured task panic, if any.
    fn wait_latch(&self, latch: &Latch) -> Option<Box<dyn std::any::Any + Send>> {
        loop {
            match self.shared.take() {
                Some(job) => {
                    // While running a queued job the caller is a lane:
                    // nested parallel helpers inside it run inline, same
                    // as on spawned workers.
                    let _lane = LaneGuard::enter();
                    run_job(job);
                }
                None => {
                    let mut st = latch.state.lock().unwrap();
                    if st.remaining == 0 {
                        return st.panic.take();
                    }
                    // Nothing queued and tasks still in flight: sleep
                    // until a completion (every complete() notifies), then
                    // re-check the queue — a sibling submission may have
                    // queued work meanwhile.
                    let _st = latch.done.wait(st).unwrap();
                }
            }
        }
    }

    /// Runs every task to completion, using the pool workers plus the
    /// calling thread, and returns once all have finished. Tasks may
    /// borrow from the caller's stack (the `'scope` lifetime): none of
    /// them outlives this call.
    ///
    /// Runs inline, in order, when the pool has no spawned workers (serial
    /// pool, or lanes clamped by the host's available parallelism),
    /// [`force_serial`] is active, the caller is itself a pool lane
    /// (nested parallelism), or there is at most one task.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is captured and re-thrown on the
    /// calling thread after the remaining tasks have completed — the same
    /// contract on the inline and queued paths.
    pub fn run_scoped<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.len() <= 1 || self.workers.is_empty() || serial_active() {
            let mut first_panic = None;
            for task in tasks {
                if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(p);
                }
            }
            if let Some(p) = first_panic {
                std::panic::resume_unwind(p);
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        let jobs: Vec<Job> = tasks
            .into_iter()
            .map(|task| {
                // SAFETY: the job is only erased to 'static so it can sit
                // in a queue; this function blocks until the latch reports
                // every job finished, so no borrow in `task` outlives its
                // referent.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                let latch = Arc::clone(&latch);
                Box::new(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    latch.complete(result.err());
                }) as Job
            })
            .collect();
        self.shared.push_batch(jobs);
        if let Some(payload) = self.wait_latch(&latch) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Streams `items` through `produce` on the pool and feeds each result
    /// to `consume` **in submission order** on the calling thread — the
    /// journal-ordered commit buffer. Task `i`'s result is buffered in
    /// slot `i`; the consumer cursor only ever advances to the lowest
    /// unconsumed index, so the observable commit sequence is independent
    /// of completion order and thread count. While the next-in-order
    /// result is pending the caller runs queued tasks instead of
    /// sleeping, so lanes stay busy across heterogeneous item costs.
    ///
    /// Equivalent to `for (i, it) in items { consume(i, produce(i, it)) }`
    /// — and runs exactly that loop when serial.
    ///
    /// # Panics
    ///
    /// If `produce` panics for some item, the panic is re-thrown on the
    /// caller after in-flight items finish; `consume` is not called for
    /// the panicked item or any later one. (Callers needing per-item fault
    /// isolation catch inside `produce`, as the sweep runner does.)
    pub fn ordered_stream<I, R, F, C>(&self, items: Vec<I>, produce: F, mut consume: C)
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
        C: FnMut(usize, R),
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        if n == 1 || self.workers.is_empty() || serial_active() {
            for (i, item) in items.into_iter().enumerate() {
                consume(i, produce(i, item));
            }
            return;
        }

        /// One submission-indexed commit slot: the producing task is the
        /// only writer, the consuming caller the only reader, and the
        /// `ready` flag (Release store / Acquire load) orders the two.
        struct Slot<R> {
            ready: AtomicBool,
            value: std::cell::UnsafeCell<Option<R>>,
        }
        // SAFETY: cross-thread access is the producer's single write
        // followed by the consumer's single read, sequenced by `ready`.
        unsafe impl<R: Send> Sync for Slot<R> {}

        let slots: Vec<Slot<R>> = (0..n)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                value: std::cell::UnsafeCell::new(None),
            })
            .collect();
        let latch = Arc::new(Latch::new(n));
        {
            let produce = &produce;
            let slots = &slots;
            let jobs: Vec<Job> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let latch = Arc::clone(&latch);
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            produce(i, item)
                        }));
                        match result {
                            Ok(value) => {
                                // SAFETY: sole writer of slot i; the
                                // consumer reads only after `ready`.
                                unsafe { *slots[i].value.get() = Some(value) };
                                slots[i].ready.store(true, Ordering::Release);
                                latch.complete(None);
                            }
                            Err(payload) => latch.complete(Some(payload)),
                        }
                    });
                    // SAFETY: erased to 'static to sit in the queue; this
                    // function does not return until the latch drains, so
                    // the borrows of `produce`/`slots` stay valid.
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
                })
                .collect();
            self.shared.push_batch(jobs);

            let mut next = 0usize;
            loop {
                while next < n && slots[next].ready.load(Ordering::Acquire) {
                    // SAFETY: `ready` is set, so the producer is done with
                    // this slot and we are the only reader.
                    let value = unsafe { (*slots[next].value.get()).take() }
                        .expect("ordered_stream: ready slot must hold a value");
                    consume(next, value);
                    next += 1;
                }
                if next == n {
                    break;
                }
                if let Some(job) = self.shared.take() {
                    let _lane = LaneGuard::enter();
                    run_job(job);
                    continue;
                }
                let st = latch.state.lock().unwrap();
                // Re-check under the latch lock: a producer sets `ready`
                // *before* locking the latch to complete, so if the slot
                // is still not ready here, its notify has not fired yet
                // and the wait below cannot miss it.
                if slots[next].ready.load(Ordering::Acquire) {
                    continue;
                }
                if st.remaining == 0 {
                    // All tasks done yet slot `next` never became ready:
                    // its producer panicked. Fall through to rethrow.
                    break;
                }
                let _st = latch.done.wait(st).unwrap();
            }
        }
        let mut st = latch.state.lock().unwrap();
        while st.remaining > 0 {
            st = latch.done.wait(st).unwrap();
        }
        if let Some(payload) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        if let Some(job) = shared.take() {
            run_job(job);
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        // Double-check under the sleep lock (pairs with wake_one): a push
        // that raced our empty queue scan has either bumped `pending`
        // (seen here → retry) or will notify after our wait begins. The
        // shutdown flag pairs with `Pool::drop` the same way.
        if shared.pending.load(Ordering::SeqCst) > 0 {
            drop(guard);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _guard = shared.available.wait(guard).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_pool_joins_its_workers() {
        let pool = Pool::new(2);
        let shared = Arc::downgrade(&pool.shared);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        drop(pool);
        // Each worker held a clone of the shared state until its thread
        // ended; the drop joined them all, so no clone is left.
        assert!(shared.upgrade().is_none(), "a worker outlived its pool");
    }
}
