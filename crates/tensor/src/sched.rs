//! Persistent work-stealing scheduler: the mechanism behind [`crate::backend`].
//!
//! This module owns the thread pool itself — per-lane work-stealing deques,
//! the task-graph submission API ([`TaskScope`] with `spawn` and the
//! dependency-counted `defer`), and the journal-ordered commit stream
//! ([`Pool::ordered_stream`]). The policy layer (`parallel_chunks_mut`,
//! `parallel_map`, chunking) lives in [`crate::backend`] and is a thin
//! shim over these primitives.
//!
//! # Queueing discipline
//!
//! Every spawned worker owns a deque. The owner pushes and pops at the
//! *back* (LIFO — newest first, keeping its cache hot), thieves steal from
//! the *front* (FIFO — oldest first, so stolen work is the work least
//! likely to be touched by the owner next). Tasks submitted from outside
//! the pool land in a shared *injector* queue that every lane drains FIFO
//! before trying to steal from siblings. The calling thread of a scope is
//! a lane too: while it waits for its latch it steals exactly like a
//! worker.
//!
//! # Determinism contract
//!
//! Steal order is nondeterministic by construction, so determinism is
//! enforced one level up, at the *commit* point:
//!
//! * every task writes only state it owns (a disjoint output slot or
//!   buffer range), and
//! * results are consumed in **submission order** on the calling thread —
//!   [`Pool::ordered_stream`] buffers each task's result in its
//!   submission-indexed slot and releases the consumer callback strictly
//!   in index order, and reductions behind [`TaskScope::defer`] run their
//!   accumulation loops in a fixed (shard/segment) order that does not
//!   depend on which lane executed them.
//!
//! Under that discipline the bitwise result is a pure function of the
//! submission sequence, which depends only on the problem shape — never on
//! thread count, steal interleaving, or injected jitter.
//!
//! # Why lanes never block
//!
//! Workers never wait on a latch — only the thread that *opened* a scope
//! does, and while waiting it drains queues itself. A task that opens a
//! nested scope runs the nested work inline on its own lane
//! ([`serial_active`] is true on every pool lane). Deferred tasks are
//! enqueued by whichever lane delivers the final dependency signal, onto
//! that lane's own deque, so dependency chains cannot strand work on a
//! sleeping thread. Together these rules make the scheduler deadlock-free
//! for arbitrarily nested submissions (see the regression tests in
//! `tests/integration_sched.rs`).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A unit of queued work. Lifetime-erased to `'static`; soundness is
/// provided by the scope that submitted it, which does not return until
/// every task it enqueued has finished (see [`Pool::scope`] /
/// [`Pool::run_scoped`]).
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state of one pool: the per-worker deques, the injector queue,
/// and the sleep protocol.
pub(crate) struct Shared {
    /// One work-stealing deque per spawned worker lane. The owning worker
    /// pushes/pops at the back; everyone else steals from the front.
    lanes: Vec<Mutex<VecDeque<Job>>>,
    /// Submission queue for tasks spawned off-pool (scope callers) —
    /// drained FIFO by every lane, so submission order is the base
    /// execution order when nobody is stealing.
    injector: Mutex<VecDeque<Job>>,
    /// Count of queued-but-not-yet-taken jobs across all queues. Lags a
    /// pop (decremented after the job leaves a queue), which errs on the
    /// side of keeping lanes awake — never on the side of losing a wake.
    pending: AtomicUsize,
    /// Sleep mutex + condvar, deliberately separate from every queue lock:
    /// waking a sleeper never contends with lanes pushing or popping work.
    sleep: Mutex<()>,
    available: Condvar,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Self {
            lanes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            available: Condvar::new(),
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

    /// Enqueues one job, preferring the current lane's own deque when the
    /// calling thread is a worker of this pool (owner-LIFO keeps the
    /// just-unblocked dependency chain hot), falling back to the injector.
    pub(crate) fn push(self: &Arc<Self>, job: Job) {
        match current_lane_of(self) {
            Some(lane) => self.lanes[lane].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.wake_one();
    }

    /// Bulk-enqueues jobs into the injector in submission order. One wake;
    /// the taker chain (see [`Shared::take`]) fans out to further lanes.
    fn push_batch(&self, jobs: Vec<Job>) {
        let count = jobs.len();
        {
            let mut q = self.injector.lock().unwrap();
            q.extend(jobs);
        }
        self.pending.fetch_add(count, Ordering::SeqCst);
        self.wake_one();
    }

    /// Takes one job: own deque back (LIFO) when called from worker
    /// `lane`, then injector front, then sibling deque fronts (FIFO
    /// steal). Chains a wake to the next sleeper while work remains, so a
    /// burst of N jobs costs N wakes total instead of a thundering herd
    /// per push.
    fn take(&self, lane: Option<usize>) -> Option<Job> {
        let job = self.pop_any(lane)?;
        if self.pending.fetch_sub(1, Ordering::SeqCst) > 1 {
            self.wake_one();
        }
        Some(job)
    }

    fn pop_any(&self, lane: Option<usize>) -> Option<Job> {
        if let Some(own) = lane {
            if let Some(job) = self.lanes[own].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        let n = self.lanes.len();
        let start = lane.map_or(0, |l| l + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == lane {
                continue;
            }
            if let Some(job) = self.lanes[victim].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }
}

thread_local! {
    /// True on pool lanes (spawned workers, and scope callers while they
    /// drain); nested parallel helpers on a lane run inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Worker identity: (address of the owning pool's `Shared`, lane + 1).
    /// `(0, 0)` on non-worker threads. Worker threads keep their pool's
    /// `Arc<Shared>` alive forever, so the address is never reused.
    static WORKER_CTX: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// The lane index of the current thread *within this pool*, or `None` when
/// the thread is not one of this pool's workers.
fn current_lane_of(shared: &Arc<Shared>) -> Option<usize> {
    let (addr, lane1) = WORKER_CTX.with(std::cell::Cell::get);
    (lane1 > 0 && addr == Arc::as_ptr(shared) as usize).then(|| lane1 - 1)
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
/// state on drop (scope callers toggle this around each stolen job).
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

/// Executes one dequeued job on the current thread (with the steal-order
/// fuzz hook applied first when the `sched-fuzz` feature is enabled).
fn run_job(job: Job) {
    #[cfg(feature = "sched-fuzz")]
    fuzz_jitter();
    job();
}

/// Injected per-task jitter for steal-order fuzzing: sleeps a few dozen
/// deterministic-pseudo-random microseconds before each pooled task when
/// `XBAR_SCHED_JITTER=<nonzero seed>` is set. Perturbs which lane wins
/// each steal race without touching any computed value — the determinism
/// tests assert results are bitwise identical anyway.
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

/// Counts outstanding tasks of one scope and captures the first panic so
/// it can be re-thrown on the caller. Notifies on *every* completion (not
/// only the last) because scope callers and ordered-stream consumers wake
/// per completion to re-check for newly committable results or newly
/// stealable work.
pub(crate) struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

impl Latch {
    pub(crate) fn new(count: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Registers `n` more outstanding tasks (called at submission time —
    /// before the task is enqueued or can possibly complete).
    fn add(&self, n: usize) {
        self.state.lock().unwrap().remaining += n;
    }

    pub(crate) fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
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
/// and embedders.
pub struct Pool {
    pub(crate) shared: Arc<Shared>,
    threads: usize,
    /// Spawned worker threads — `min(threads, available_parallelism) - 1`.
    /// Zero means every scope runs inline on the caller.
    workers: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pool({} threads, {} workers)",
            self.threads, self.workers
        )
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
        let workers = threads
            .min(crate::backend::hardware_threads())
            .saturating_sub(1);
        let shared = Arc::new(Shared::new(workers));
        for lane in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("xbar-worker-{}", lane + 1))
                .spawn(move || worker_loop(shared, lane))
                .expect("spawning pool worker");
        }
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
        self.workers > 0
    }

    /// Waits until every task accounted to `latch` has completed, helping
    /// by stealing queued jobs (from any scope — helping a sibling scope
    /// is sound because *its* caller waits on its own latch) while
    /// waiting. Returns the first captured task panic, if any.
    fn wait_latch(&self, latch: &Latch) -> Option<Box<dyn std::any::Any + Send>> {
        loop {
            match self.shared.take(None) {
                Some(job) => {
                    // While running a stolen job the caller is a lane:
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
                    // Nothing to steal and tasks still in flight: sleep
                    // until a completion (every complete() notifies), then
                    // re-check the queues — a running task may have pushed
                    // follow-on work (deferred tasks, nested spawns).
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
        if tasks.len() <= 1 || self.workers == 0 || serial_active() {
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

    /// Opens a task-graph scope: `f` receives a [`TaskScope`] on which it
    /// may [`TaskScope::spawn`] independent tasks and create
    /// dependency-counted deferred tasks with [`TaskScope::defer`]. The
    /// call returns only after every submitted task (including deferred
    /// ones) has completed, so tasks may borrow from the caller's stack.
    ///
    /// When the pool is serial (no workers, [`force_serial`], or the
    /// caller is itself a pool lane) every task runs inline **at
    /// submission** — spawns in submission order, deferred tasks at the
    /// moment their final dependency signal arrives — which is exactly the
    /// order the parallel path commits in, preserving bitwise parity.
    ///
    /// # Panics
    ///
    /// Task panics are captured and the first is re-thrown here after all
    /// tasks finish. Panics in `f` itself are re-thrown after the tasks it
    /// already spawned have drained.
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&TaskScope<'scope>) -> R) -> R {
        let scope = TaskScope {
            shared: Arc::clone(&self.shared),
            latch: Arc::new(Latch::new(0)),
            inline: self.workers == 0 || serial_active(),
            _marker: PhantomData,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        let task_panic = if scope.inline {
            // Inline tasks ran (and completed) at submission, so there is
            // nothing to wait for; a non-zero latch means a deferred
            // task's trigger was never fully signaled, which in pooled
            // mode would hang — fail loudly instead (unless `f` panicked
            // first, in which case its panic wins below).
            let mut st = scope.latch.state.lock().unwrap();
            assert!(
                st.remaining == 0 || result.is_err(),
                "TaskScope closed with {} deferred task(s) whose triggers were never signaled",
                st.remaining
            );
            st.panic.take()
        } else {
            self.wait_latch(&scope.latch)
        };
        match result {
            Ok(value) => {
                if let Some(payload) = task_panic {
                    std::panic::resume_unwind(payload);
                }
                value
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Streams `items` through `produce` on the pool and feeds each result
    /// to `consume` **in submission order** on the calling thread — the
    /// journal-ordered commit buffer. Task `i`'s result is buffered in
    /// slot `i`; the consumer cursor only ever advances to the lowest
    /// unconsumed index, so the observable commit sequence is independent
    /// of steal order and thread count. While the next-in-order result is
    /// pending the caller steals queued tasks instead of sleeping, so
    /// lanes stay busy across heterogeneous item costs.
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
        if n == 1 || self.workers == 0 || serial_active() {
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
                if let Some(job) = self.shared.take(None) {
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

fn worker_loop(shared: Arc<Shared>, lane: usize) {
    IN_WORKER.with(|f| f.set(true));
    WORKER_CTX.with(|c| c.set((Arc::as_ptr(&shared) as usize, lane + 1)));
    loop {
        if let Some(job) = shared.take(Some(lane)) {
            run_job(job);
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        // Double-check under the sleep lock (pairs with wake_one): a push
        // that raced our empty queue scan has either bumped `pending`
        // (seen here → retry) or will notify after our wait begins.
        if shared.pending.load(Ordering::SeqCst) > 0 {
            drop(guard);
            continue;
        }
        let _guard = shared.available.wait(guard).unwrap();
    }
}

/// A dependency-counted pending task: holds the job until `remaining`
/// signals arrive, then runs it (inline in serial mode, enqueued on the
/// signaling lane's deque otherwise).
struct Deferred {
    remaining: AtomicUsize,
    job: Mutex<Option<Job>>,
    shared: Arc<Shared>,
    inline: bool,
}

impl Deferred {
    fn signal(self: &Arc<Self>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let job = self.job.lock().unwrap().take();
        let Some(job) = job else { return };
        if self.inline {
            // Serial mode: dependencies completed synchronously in
            // submission order, so firing here — at the final signal —
            // is the deterministic commit point.
            run_job(job);
        } else {
            self.shared.push(job);
        }
    }
}

/// The explicit dependency-count handle returned by [`TaskScope::defer`].
///
/// The deferred task runs after exactly `deps` [`Trigger::signal`] calls.
/// **Contract:** every trigger must receive its full signal count before
/// the scope closes — an unsignaled trigger leaves the scope waiting
/// forever (the inline path asserts on it). Call sites guard their signal
/// loops so early returns and panics still deliver the remaining signals.
///
/// Clones share the same count; `Trigger` is `Send + Sync` so shard tasks
/// can signal segment triggers from any lane.
pub struct Trigger {
    deferred: Arc<Deferred>,
}

impl Clone for Trigger {
    fn clone(&self) -> Self {
        Self {
            deferred: Arc::clone(&self.deferred),
        }
    }
}

impl Trigger {
    /// Delivers one dependency signal. The deferred task runs when the
    /// count reaches zero. Signaling more than `deps` times is a bug (the
    /// extra signals are ignored).
    pub fn signal(&self) {
        self.deferred.signal();
    }
}

/// A task-graph submission scope: spawn independent tasks and defer
/// dependency-counted reductions. Created by [`Pool::scope`]; every
/// submitted task completes before `scope` returns.
pub struct TaskScope<'scope> {
    shared: Arc<Shared>,
    latch: Arc<Latch>,
    /// Serial mode: run every task inline at its (deterministic)
    /// submission point instead of enqueueing.
    inline: bool,
    /// Invariant over 'scope: a longer-lived scope must not be usable
    /// where a shorter one is expected (spawned tasks borrow for 'scope).
    _marker: PhantomData<std::cell::Cell<&'scope ()>>,
}

impl<'scope> TaskScope<'scope> {
    fn submit(&self, job: Box<dyn FnOnce() + Send + 'scope>) {
        // SAFETY: erased to 'static to sit in a queue; `Pool::scope` does
        // not return until this scope's latch drains, so borrows captured
        // for 'scope outlive the job's execution.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.shared.push(job);
    }

    fn wrap<F>(&self, f: F) -> impl FnOnce() + Send + 'scope
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.add(1);
        let latch = Arc::clone(&self.latch);
        move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            latch.complete(result.err());
        }
    }

    /// Submits an independent task.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let job = self.wrap(f);
        if self.inline {
            run_job_inline(job);
        } else {
            self.submit(Box::new(job));
        }
    }

    /// Submits a task that runs after exactly `deps` explicit
    /// [`Trigger::signal`] calls — the primitive behind per-segment
    /// gradient reduction, where shard k signals segment g as soon as its
    /// copy of that segment commits. `deps == 0` fires immediately.
    ///
    /// See [`Trigger`] for the signal-count contract.
    pub fn defer<F>(&self, deps: usize, f: F) -> Trigger
    where
        F: FnOnce() + Send + 'scope,
    {
        let job = self.wrap(f);
        let deferred = self.make_deferred(deps, Box::new(job));
        if deps == 0 {
            deferred.signal();
        }
        Trigger { deferred }
    }

    fn make_deferred(&self, deps: usize, job: Box<dyn FnOnce() + Send + 'scope>) -> Arc<Deferred> {
        // SAFETY: same erasure argument as `submit` — the scope's latch
        // already counts this task (wrap() added it), so `Pool::scope`
        // waits for it to run before any 'scope borrow dies.
        let job: Job = unsafe { std::mem::transmute(job) };
        Arc::new(Deferred {
            remaining: AtomicUsize::new(deps.max(1)),
            job: Mutex::new(Some(job)),
            shared: Arc::clone(&self.shared),
            inline: self.inline,
        })
    }
}

/// Runs a not-yet-boxed job inline (serial scopes): same panic capture as
/// the pooled path, without the queue round-trip.
fn run_job_inline(job: impl FnOnce()) {
    job();
}
