//! Parallel compute backend: a dependency-free persistent worker pool
//! with one FIFO job queue (its mechanism lives in the private `sched`
//! module) plus the data-parallel helpers every hot kernel in the
//! workspace is written against.
//!
//! Every hot kernel in the workspace runs through one of three entry
//! points:
//!
//! * [`parallel_chunks_mut`] — disjoint output chunks (GEMM row chunks,
//!   convolution and pooling planes, transposes);
//! * [`parallel_map`] / [`parallel_map_with`] — independent items with
//!   results in input order (Monte-Carlo trials, per-sample conv work,
//!   the sharded trainer's shards);
//! * [`ordered_stream`] — results committed in submission order (the
//!   int8 readout's tiles, the sweep runner).
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — results are bitwise identical regardless of the
//!    thread count. Work is split into *fixed* chunks whose boundaries
//!    depend only on the problem size, every chunk writes a disjoint
//!    region of the output, and per-element arithmetic is the same code
//!    on the serial and parallel paths. Reductions over chunk results are
//!    always performed in chunk order on the calling thread, and
//!    [`ordered_stream`] commits its results in submission order.
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
//!   injects a per-task pseudo-random sleep to fuzz which lane runs each
//!   task and the order tasks finish in — the determinism tests assert
//!   results are bitwise identical anyway.
//!
//! # Nested parallelism
//!
//! A task already running on a pool lane — a spawned worker, or the
//! calling thread while it runs queued jobs — that calls back into a
//! helper executes its sub-work inline. Lanes never block on other lanes,
//! so pool-in-pool usage cannot deadlock, and a nested kernel call costs
//! nothing beyond the serial loop it runs.

use std::sync::OnceLock;

pub use crate::sched::{force_serial, serial_active, Pool};

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

/// Journal-ordered commit stream on the global pool: `produce` runs on the
/// pool (one queued task per item), `consume` runs on the calling thread
/// strictly in submission order — see [`Pool::ordered_stream`].
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
    fn panic_message_labels_non_string_payloads() {
        let text = std::panic::catch_unwind(|| panic!("boom at {}", 3)).unwrap_err();
        assert_eq!(panic_message(text.as_ref()), "boom at 3");
        let literal = std::panic::catch_unwind(|| std::panic::panic_any("literal")).unwrap_err();
        assert_eq!(panic_message(literal.as_ref()), "literal");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        // A parallel_chunks_mut body that itself calls parallel_chunks_mut:
        // the inner call must run inline on the worker rather than
        // re-entering the pool (which could deadlock a fully-busy pool).
        let n = 64;
        let mut hits = vec![0u32; n * n];
        parallel_chunks_mut(&mut hits, n, |_, row| {
            parallel_chunks_mut(row, 1, |_, cell| cell[0] += 1);
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn force_serial_round_trip() {
        assert!(!serial_active());
        force_serial(true);
        assert!(serial_active());
        let calls = AtomicUsize::new(0);
        let mut data = vec![0u32; 100];
        parallel_chunks_mut(&mut data, 1, |i, chunk| {
            // Forced-serial: the chunks run inline, in index order.
            assert_eq!(calls.fetch_add(1, Ordering::SeqCst), i);
            chunk[0] = i as u32;
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
        force_serial(false);
        assert!(!serial_active());
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
        // Regression (caller-lane starvation): a queued task — whichever
        // lane takes it, a worker or the waiting caller — that fans out
        // again through parallel_map, ordered_stream and
        // parallel_chunks_mut must complete without blocking any lane on
        // another lane.
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let total = &total;
                Box::new(move || {
                    let counts = parallel_map((0..4).collect::<Vec<usize>>(), |_, _| {
                        let mut cells = [0u8; 8];
                        parallel_chunks_mut(&mut cells, 1, |_, c| {
                            total.fetch_add(c.len(), Ordering::SeqCst);
                        });
                        cells.len()
                    });
                    let mut committed = 0;
                    ordered_stream(counts, |_, n| n, |_, n| committed += n);
                    assert_eq!(committed, 4 * 8, "nested stream returned early");
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(total.load(Ordering::SeqCst), 16 * 4 * 8);
    }
}
