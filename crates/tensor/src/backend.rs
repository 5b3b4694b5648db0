//! Parallel compute backend: a dependency-free persistent work-stealing
//! scheduler (its mechanism lives in the private `sched` module) plus
//! the data-parallel helpers every hot kernel in the workspace is
//! written against.
//!
//! Every hot kernel in the workspace (GEMM, im2col, pooling, Monte-Carlo
//! trial fan-out, per-tile MVM, sharded gradient reduction, the sweep
//! runner) runs through this module. The design goals, in order:
//!
//! 1. **Determinism** — results are bitwise identical regardless of the
//!    thread count. Work is split into *fixed* chunks whose boundaries
//!    depend only on the problem size, every chunk writes a disjoint
//!    region of the output, and per-element arithmetic is the same code
//!    on the serial and parallel paths. Reductions over chunk results are
//!    always performed in chunk order on the calling thread — or, for the
//!    task-graph paths, committed in submission order via
//!    [`ordered_stream`] / fixed-order [`TaskScope::defer`] reductions.
//! 2. **Zero dependencies** — `std::thread` + `Mutex`/`Condvar` only, so
//!    the workspace keeps building fully offline.
//! 3. **Graceful degradation** — on a single-core host (whatever
//!    `XBAR_THREADS` says) and with `XBAR_THREADS=1` everything runs
//!    inline on the caller with no queueing overhead: requested lanes
//!    beyond [`std::thread::available_parallelism`] are never spawned,
//!    because a worker the hardware cannot run concurrently only adds
//!    context-switch cost to work the caller would finish sooner itself.
//!
//! # Configuration
//!
//! * `XBAR_THREADS=N` caps the pool at `N` lanes (the calling thread
//!   counts as one lane; `N = 1` is the guaranteed-serial mode). Unset, the
//!   pool sizes itself from [`std::thread::available_parallelism`].
//! * [`force_serial`] switches the process to serial execution at runtime
//!   — used by the benchmark harness to time the serial baseline, and by
//!   parity tests to compare serial and parallel results in one process.
//! * `XBAR_SCHED_JITTER=<seed>` (with the `sched-fuzz` cargo feature)
//!   injects a per-task pseudo-random sleep to fuzz steal order — the
//!   determinism tests assert results are bitwise identical anyway.
//!
//! # Nested parallelism
//!
//! A task already running on a pool lane — a spawned worker, or the
//! calling thread while it drains scoped jobs — that calls back into a
//! `parallel_*` helper executes its sub-work inline. Lanes never block
//! on other lanes, so pool-in-pool usage cannot deadlock, and a nested
//! kernel call costs nothing beyond the serial loop it runs.

use std::ops::Range;
use std::sync::OnceLock;

pub use crate::sched::{force_serial, serial_active, Pool, TaskHandle, TaskScope, Trigger};

/// Resolves the configured lane count: `XBAR_THREADS` if set and valid,
/// otherwise [`std::thread::available_parallelism`]. This is what the
/// global pool is sized with on first use; later env changes have no
/// effect on an already-built pool.
pub fn configured_threads() -> usize {
    match std::env::var("XBAR_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("XBAR_THREADS={s:?} is not a positive integer; using hardware default");
                hardware_threads()
            }
        },
        Err(_) => hardware_threads(),
    }
}

pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool, created on first use from `XBAR_THREADS` /
/// available parallelism.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(configured_threads()))
}

/// Total concurrent lanes of the global pool.
pub fn threads() -> usize {
    global().threads()
}

/// Opens a task-graph scope on the global pool — see [`Pool::scope`].
pub fn scope<'scope, R>(f: impl FnOnce(&TaskScope<'scope>) -> R) -> R {
    global().scope(f)
}

/// Journal-ordered commit stream on the global pool: `produce` runs on the
/// pool (one stealable task per item), `consume` runs on the calling
/// thread strictly in submission order — see [`Pool::ordered_stream`].
pub fn ordered_stream<I, R, F, C>(items: Vec<I>, produce: F, consume: C)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
    C: FnMut(usize, R),
{
    global().ordered_stream(items, produce, consume);
}

/// How many tasks to split `n_items` into: enough to load every lane with
/// a little slack for imbalance, never more than the item count. The task
/// count influences scheduling only — results are chunk-invariant — so it
/// may depend on the lane count without breaking determinism.
fn task_count(n_items: usize) -> usize {
    n_items.min(threads().saturating_mul(3))
}

/// Runs `f` over disjoint sub-ranges covering `0..n`. Ranges are multiples
/// of `grain` items (the last may be short); `f` must only touch state
/// owned by its range. Runs `f(0..n)` inline when serial or when the work
/// is one grain or less.
pub fn parallel_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let n_chunks = n.div_ceil(grain);
    crate::sched::parallel_for_impl(global(), n, grain, task_count(n_chunks), f);
}

/// Splits `data` into consecutive `chunk_len`-sized pieces (the last may
/// be short) and runs `f(chunk_index, chunk)` for each, in parallel.
/// Chunk boundaries depend only on `chunk_len`, so any per-chunk
/// computation that matches the serial loop is bitwise reproducible.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        chunk_len > 0,
        "parallel_chunks_mut: chunk_len must be positive"
    );
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks <= 1 || !global().has_workers() || serial_active() {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let groups = task_count(n_chunks);
    let chunks_per_group = n_chunks.div_ceil(groups);
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(groups);
    let mut rest = data;
    let mut base = 0usize;
    while !rest.is_empty() {
        let take = (chunks_per_group * chunk_len).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        rest = tail;
        let first_chunk = base;
        tasks.push(Box::new(move || {
            for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                f(first_chunk + i, chunk);
            }
        }));
        base += take.div_ceil(chunk_len);
    }
    global().run_scoped(tasks);
}

/// Applies `f(index, item)` to every item, in parallel, preserving input
/// order in the returned vector. The reduction (vector assembly) happens
/// in index order, so `parallel_map(v, f)` equals the serial
/// `v.into_iter().map(f).collect()` whenever each `f(i, item)` is
/// independent of the others.
pub fn parallel_map<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    parallel_map_with(|| (), items, |(), i, item| f(i, item))
}

/// Like [`parallel_map`], but each task first builds a private scratch
/// state with `make_state` (e.g. a cloned network for Monte-Carlo trials)
/// that is reused across the items of that task. `f` must leave the state
/// equivalent to fresh after each item — results must not depend on how
/// items are grouped into tasks, which is also what keeps the output
/// thread-count-invariant.
pub fn parallel_map_with<S, I, R, MK, F>(make_state: MK, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    MK: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || !global().has_workers() || serial_active() {
        let mut state = make_state();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    let groups = task_count(n);
    let per_group = n.div_ceil(groups);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let f = &f;
        let make_state = &make_state;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(groups);
        let mut item_groups: Vec<Vec<I>> = Vec::with_capacity(groups);
        let mut items = items;
        while !items.is_empty() {
            let tail = items.split_off(per_group.min(items.len()));
            item_groups.push(std::mem::replace(&mut items, tail));
        }
        for (gi, (group, out)) in item_groups
            .into_iter()
            .zip(slots.chunks_mut(per_group))
            .enumerate()
        {
            let base = gi * per_group;
            tasks.push(Box::new(move || {
                let mut state = make_state();
                for ((off, item), slot) in group.into_iter().enumerate().zip(out.iter_mut()) {
                    *slot = Some(f(&mut state, base + off, item));
                }
            }));
        }
        global().run_scoped(tasks);
    }
    slots
        .into_iter()
        .map(|r| r.expect("parallel_map task filled every slot"))
        .collect()
}

/// The captured payload of a panicking task — the per-task error type of
/// [`try_parallel_map`] / [`try_parallel_map_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Human-readable panic message (the `&str`/`String` payload when the
    /// task panicked with one, a placeholder otherwise).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Extracts a readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-isolating [`parallel_map`]: a panicking item yields
/// `Err(TaskPanic)` in its slot instead of poisoning the whole map. Every
/// other item still runs to completion, and output order matches input
/// order exactly as in [`parallel_map`]. This is the primitive the
/// resilient sweep runner builds on — one crashed Monte-Carlo cell must
/// not discard the rest of the grid.
pub fn try_parallel_map<I, R, F>(items: Vec<I>, f: F) -> Vec<Result<R, TaskPanic>>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    try_parallel_map_with(|| (), items, |(), i, item| f(i, item))
}

/// Fault-isolating [`parallel_map_with`]. Like [`try_parallel_map`], but
/// each task carries private scratch state built by `make_state`. A panic
/// may leave that state inconsistent, so it is discarded and rebuilt
/// before the task's next item — later items never observe a
/// half-mutated scratch.
pub fn try_parallel_map_with<S, I, R, MK, F>(
    make_state: MK,
    items: Vec<I>,
    f: F,
) -> Vec<Result<R, TaskPanic>>
where
    I: Send,
    R: Send,
    MK: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> R + Sync,
{
    let make_state = &make_state;
    let f = &f;
    parallel_map_with(
        || None::<S>,
        items,
        move |slot, i, item| {
            let state = slot.get_or_insert_with(make_state);
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(state, i, item)));
            match result {
                Ok(r) => Ok(r),
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    *slot = None; // scratch may be torn mid-panic: rebuild
                    Err(TaskPanic { message })
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_executes_all_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scoped_borrow_of_stack_data() {
        let pool = Pool::new(3);
        let mut data = vec![0u64; 97];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (i, chunk) in data.chunks_mut(10).enumerate() {
                tasks.push(Box::new(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 10 + j) as u64;
                    }
                }));
            }
            pool.run_scoped(tasks);
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn panic_in_task_propagates_after_completion() {
        let pool = Pool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 7, "surviving tasks all ran");
    }

    #[test]
    fn parallel_for_covers_range_once() {
        let n = 1013;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_empty_and_single() {
        parallel_for(0, 8, |_| panic!("must not be called"));
        let hits = AtomicUsize::new(0);
        parallel_for(3, 8, |r| {
            assert_eq!(r, 0..3);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_chunks_mut_indexes_match_serial() {
        let mut par = vec![0u32; 257];
        parallel_chunks_mut(&mut par, 10, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 1000 + j) as u32;
            }
        });
        let mut ser = vec![0u32; 257];
        for (i, chunk) in ser.chunks_mut(10).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 1000 + j) as u32;
            }
        }
        assert_eq!(par, ser);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..533).collect();
        let out = parallel_map(items, |i, x| {
            assert_eq!(i, x);
            x * 2 + 1
        });
        assert_eq!(out, (0..533).map(|x| x * 2 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_with_builds_state_per_task() {
        let builds = AtomicUsize::new(0);
        let out = parallel_map_with(
            || {
                builds.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            (0..40).collect::<Vec<usize>>(),
            |scratch, _i, x| {
                *scratch += 1; // scratch usage must not leak into results
                x + 1
            },
        );
        assert_eq!(out, (1..=40).collect::<Vec<_>>());
        assert!(builds.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn try_parallel_map_isolates_panics() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let out = try_parallel_map((0..64).collect::<Vec<usize>>(), |_, x| {
            if x % 13 == 5 {
                panic!("boom at {x}");
            }
            x * 2
        });
        std::panic::set_hook(hook);
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn try_parallel_map_with_rebuilds_state_after_panic() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Force a single task so items share (and re-share) scratch state:
        // after the panic at item 1 the scratch must come back fresh.
        force_serial(true);
        let builds = AtomicUsize::new(0);
        let out = try_parallel_map_with(
            || {
                builds.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            vec![10usize, 11, 12],
            |scratch, _i, x| {
                *scratch += 1;
                if x == 11 {
                    panic!("poisoned");
                }
                (*scratch, x)
            },
        );
        force_serial(false);
        std::panic::set_hook(hook);
        assert_eq!(out[0], Ok((1, 10)));
        assert!(out[1].is_err());
        // Scratch was rebuilt: the post-panic item sees a fresh counter.
        assert_eq!(out[2], Ok((1, 12)));
        assert!(builds.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn try_parallel_map_non_string_payload_is_labelled() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = try_parallel_map(vec![0usize], |_, _| {
            std::panic::panic_any(42usize);
            #[allow(unreachable_code)]
            ()
        });
        std::panic::set_hook(hook);
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        // A parallel_for body that itself calls parallel_for: the inner
        // call must run inline on the worker rather than re-entering the
        // pool (which could deadlock a fully-busy pool).
        let n = 64;
        let hits: Vec<AtomicUsize> = (0..n * n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 1, |outer| {
            for i in outer {
                parallel_for(n, 1, |inner| {
                    for j in inner {
                        hits[i * n + j].fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn force_serial_round_trip() {
        assert!(!serial_active());
        force_serial(true);
        assert!(serial_active());
        let hits = AtomicUsize::new(0);
        parallel_for(100, 1, |r| {
            // Forced-serial: a single inline call over the whole range.
            assert_eq!(r, 0..100);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        force_serial(false);
        assert!(!serial_active());
    }

    #[test]
    fn scope_spawn_runs_all_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_spawn_after_orders_dependents() {
        let pool = Pool::new(4);
        for _ in 0..50 {
            let stage = AtomicUsize::new(0);
            pool.scope(|s| {
                let a = s.spawn(|| {
                    stage.fetch_max(1, Ordering::SeqCst);
                });
                let b = s.spawn(|| {
                    stage.fetch_max(1, Ordering::SeqCst);
                });
                s.spawn_after(&[&a, &b], || {
                    assert!(
                        stage.load(Ordering::SeqCst) >= 1,
                        "dependent ran before its dependencies"
                    );
                    stage.fetch_max(2, Ordering::SeqCst);
                });
            });
            assert_eq!(stage.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn scope_defer_fires_on_final_signal() {
        let pool = Pool::new(4);
        let fired = AtomicUsize::new(0);
        let signaled = AtomicUsize::new(0);
        pool.scope(|s| {
            let trigger = s.defer(3, || {
                assert_eq!(signaled.load(Ordering::SeqCst), 3);
                fired.fetch_add(1, Ordering::SeqCst);
            });
            for _ in 0..3 {
                let trigger = trigger.clone();
                let signaled = &signaled;
                s.spawn(move || {
                    signaled.fetch_add(1, Ordering::SeqCst);
                    trigger.signal();
                });
            }
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_defer_zero_deps_fires_immediately() {
        let pool = Pool::new(2);
        let fired = AtomicUsize::new(0);
        pool.scope(|s| {
            let _trigger = s.defer(0, || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_serial_runs_in_submission_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..4 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
            let t = s.defer(2, || order.lock().unwrap().push(99));
            s.spawn({
                let t = t.clone();
                move || t.signal()
            });
            s.spawn(move || t.signal());
        });
        // Inline mode: spawns run at submission; the deferred task fires
        // inside the second signaling spawn.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 99]);
    }

    #[test]
    fn scope_task_panic_propagates() {
        let pool = Pool::new(2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("scoped boom"));
            });
        }));
        std::panic::set_hook(hook);
        assert!(result.is_err(), "task panic must reach the scope caller");
    }

    #[test]
    fn ordered_stream_commits_in_submission_order() {
        let pool = Pool::new(4);
        // Heterogeneous costs: early items are the slowest, so completion
        // order differs from submission order with high probability.
        let items: Vec<usize> = (0..64).collect();
        let mut seen = Vec::new();
        pool.ordered_stream(
            items,
            |i, x| {
                assert_eq!(i, x);
                if x < 8 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * 3
            },
            |i, r| seen.push((i, r)),
        );
        assert_eq!(seen, (0..64).map(|i| (i, i * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_stream_serial_matches_parallel() {
        let items: Vec<u32> = (0..40).collect();
        let run = || {
            let mut out = Vec::new();
            ordered_stream(
                items.clone(),
                |_, x| (x as f32).sqrt(),
                |_, r| out.push(r.to_bits()),
            );
            out
        };
        let parallel = run();
        force_serial(true);
        let serial = run();
        force_serial(false);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn ordered_stream_panic_propagates() {
        let pool = Pool::new(2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let consumed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.ordered_stream(
                (0..16).collect::<Vec<usize>>(),
                |_, x| {
                    if x == 7 {
                        panic!("cell boom");
                    }
                    x
                },
                |_, _| {
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
            );
        }));
        std::panic::set_hook(hook);
        assert!(result.is_err(), "producer panic must propagate");
        assert!(
            consumed.load(Ordering::SeqCst) <= 7,
            "nothing at or past the panicked index may be consumed"
        );
    }

    #[test]
    fn nested_scope_inside_stolen_task_is_inline() {
        // Regression (caller-lane starvation): a stolen task that opens
        // its own scope and a nested parallel_for must complete without
        // blocking any lane on another lane.
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                let total = &total;
                s.spawn(move || {
                    crate::backend::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                parallel_for(8, 1, |r| {
                                    total.fetch_add(r.len(), Ordering::SeqCst);
                                });
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16 * 4 * 8);
    }
}
