//! Thread-local scratch-buffer recycling for the training hot path.
//!
//! A training step allocates the same tensor shapes over and over —
//! per-sample convolution patch blocks, GEMM pack buffers, per-layer
//! activations and gradients. Instead of threading an explicit
//! workspace object through every kernel signature, the pool intercepts
//! the buffers at the [`crate::Tensor`] boundary: when a tensor is
//! dropped its `Vec<f32>` is parked in a thread-local free list keyed by
//! exact capacity, and `Tensor::zeros`/`Tensor::full` reuse a parked
//! buffer of the right size instead of calling the allocator. After the first step of a training
//! loop the hot path therefore performs (almost) no heap allocation.
//!
//! Semantics are unchanged: a reused buffer is `clear()`ed and
//! `resize()`d to the requested fill value, which is bit-identical to a
//! fresh `vec![value; n]`. The pool is purely a cache.
//!
//! Each thread's pool is capped at [`MAX_POOL_BYTES`]; buffers past the
//! cap, and buffers smaller than [`MIN_RECYCLE_LEN`] (where the free-list
//! bookkeeping would cost as much as the allocation), fall through to the
//! normal allocator. Worker threads in [`crate::backend`] live for the
//! process lifetime, so their pools persist across steps exactly like the
//! caller's.

use std::cell::RefCell;
use std::collections::HashMap;

/// Per-thread cap on parked bytes (64 MiB), shared across element types.
pub const MAX_POOL_BYTES: usize = 64 * 1024 * 1024;

/// Buffers shorter than this are not worth recycling.
pub const MIN_RECYCLE_LEN: usize = 64;

struct BufferPool<T> {
    /// Free buffers keyed by exact capacity.
    free: HashMap<usize, Vec<Vec<T>>>,
    /// Total parked bytes across all buckets.
    bytes: usize,
    hits: u64,
    misses: u64,
}

// Manual impl: `derive(Default)` would demand `T: Default` for nothing.
impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self {
            free: HashMap::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl<T: Copy> BufferPool<T> {
    fn pop(&mut self, len: usize) -> Option<Vec<T>> {
        match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.bytes -= len * std::mem::size_of::<T>();
                self.hits += 1;
                Some(buf)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<BufferPool<f32>> = RefCell::new(BufferPool::default());
    static POOL_I8: RefCell<BufferPool<i8>> = RefCell::new(BufferPool::default());
    static POOL_I32: RefCell<BufferPool<i32>> = RefCell::new(BufferPool::default());
}

fn take_filled_in<T: Copy>(
    pool: &'static std::thread::LocalKey<RefCell<BufferPool<T>>>,
    len: usize,
    value: T,
) -> Vec<T> {
    if len >= MIN_RECYCLE_LEN {
        let reused = pool.with(|p| p.borrow_mut().pop(len));
        if let Some(mut buf) = reused {
            buf.clear();
            buf.resize(len, value);
            return buf;
        }
    }
    vec![value; len]
}

fn give_in<T: Copy>(pool: &'static std::thread::LocalKey<RefCell<BufferPool<T>>>, buf: Vec<T>) {
    let cap = buf.capacity();
    if cap < MIN_RECYCLE_LEN {
        return;
    }
    let size = cap * std::mem::size_of::<T>();
    // `try_with`: a buffer dropped during thread teardown must not panic.
    let _ = pool.try_with(|p| {
        if let Ok(mut p) = p.try_borrow_mut() {
            if p.bytes + size <= MAX_POOL_BYTES {
                p.bytes += size;
                p.free.entry(cap).or_default().push(buf);
            }
        }
    });
}

/// Returns a buffer of exactly `len` elements filled with `value`,
/// reusing a parked buffer when one of matching capacity exists.
pub(crate) fn take_filled(len: usize, value: f32) -> Vec<f32> {
    take_filled_in(&POOL, len, value)
}

/// Returns a buffer holding a copy of `src`, reusing a parked buffer of
/// matching capacity when one exists.
pub(crate) fn take_copied(src: &[f32]) -> Vec<f32> {
    take_gathered(src.len(), std::iter::once(src))
}

/// Returns a buffer holding the `len` elements of `parts` back to back,
/// reusing a parked buffer of matching capacity when one exists. Unlike
/// [`take_filled`] the buffer is written exactly once
/// (`extend_from_slice`, no pre-fill), so a pooled copy costs one memcpy
/// per part — same as `slice::to_vec` minus the allocator round-trip.
pub(crate) fn take_gathered<'a>(len: usize, parts: impl Iterator<Item = &'a [f32]>) -> Vec<f32> {
    let reused = if len >= MIN_RECYCLE_LEN {
        POOL.with(|p| p.borrow_mut().pop(len))
    } else {
        None
    };
    let mut buf = reused.unwrap_or_else(|| Vec::with_capacity(len));
    buf.clear();
    for part in parts {
        buf.extend_from_slice(part);
    }
    debug_assert_eq!(buf.len(), len, "parts must hold exactly len elements");
    buf
}

/// Parks `buf` for reuse. Called from `Tensor::drop`; buffers that do not
/// qualify (too small, pool full, thread-local storage torn down) are
/// simply freed.
pub(crate) fn give(buf: Vec<f32>) {
    give_in(&POOL, buf);
}

/// Pooled `i8` buffer for quantized-kernel operands (codes, packed
/// blocks). Return it with [`give_i8`] when done so the quantized hot
/// path stays allocation-free after warmup.
pub fn take_filled_i8(len: usize, value: i8) -> Vec<i8> {
    take_filled_in(&POOL_I8, len, value)
}

/// Parks an `i8` buffer taken with [`take_filled_i8`].
pub fn give_i8(buf: Vec<i8>) {
    give_in(&POOL_I8, buf);
}

/// Pooled `i32` buffer for quantized-kernel accumulators. Return it with
/// [`give_i32`].
pub fn take_filled_i32(len: usize, value: i32) -> Vec<i32> {
    take_filled_in(&POOL_I32, len, value)
}

/// Parks an `i32` buffer taken with [`take_filled_i32`].
pub fn give_i32(buf: Vec<i32>) {
    give_in(&POOL_I32, buf);
}

/// Point-in-time statistics for the calling thread's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Bytes currently parked.
    pub cached_bytes: usize,
    /// Number of parked buffers.
    pub cached_buffers: usize,
    /// Requests served from the pool.
    pub hits: u64,
    /// Requests that fell through to the allocator.
    pub misses: u64,
}

/// Returns the calling thread's pool statistics, summed over the f32,
/// i8, and i32 pools.
pub fn stats() -> ScratchStats {
    fn add<T>(pool: &RefCell<BufferPool<T>>, s: &mut ScratchStats) {
        let p = pool.borrow();
        s.cached_bytes += p.bytes;
        s.cached_buffers += p.free.values().map(Vec::len).sum::<usize>();
        s.hits += p.hits;
        s.misses += p.misses;
    }
    let mut s = ScratchStats {
        cached_bytes: 0,
        cached_buffers: 0,
        hits: 0,
        misses: 0,
    };
    POOL.with(|p| add(p, &mut s));
    POOL_I8.with(|p| add(p, &mut s));
    POOL_I32.with(|p| add(p, &mut s));
    s
}

/// Frees every buffer parked by the calling thread and resets counters.
pub fn clear_pool() {
    fn clear<T>(pool: &RefCell<BufferPool<T>>) {
        let mut p = pool.borrow_mut();
        p.free.clear();
        p.bytes = 0;
        p.hits = 0;
        p.misses = 0;
    }
    POOL.with(clear);
    POOL_I8.with(clear);
    POOL_I32.with(clear);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn dropped_tensor_buffer_is_reused() {
        clear_pool();
        let t = Tensor::zeros(&[32, 32]);
        let ptr = t.data().as_ptr();
        drop(t);
        let t2 = Tensor::zeros(&[32, 32]);
        assert_eq!(t2.data().as_ptr(), ptr, "same-size alloc should reuse");
        assert!(t2.data().iter().all(|&v| v == 0.0));
        clear_pool();
    }

    #[test]
    fn reused_buffer_is_reset_to_fill_value() {
        clear_pool();
        let mut t = Tensor::full(&[64], 3.0);
        t.data_mut()[7] = -9.0;
        drop(t);
        let t2 = Tensor::full(&[64], 1.5);
        assert!(t2.data().iter().all(|&v| v == 1.5));
        clear_pool();
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        clear_pool();
        drop(Tensor::zeros(&[4]));
        assert_eq!(stats().cached_buffers, 0);
    }

    #[test]
    fn mismatched_sizes_do_not_alias() {
        clear_pool();
        drop(Tensor::zeros(&[100]));
        let t = Tensor::zeros(&[101]);
        assert_eq!(t.len(), 101);
        clear_pool();
    }

    #[test]
    fn stats_track_hits_and_misses() {
        clear_pool();
        drop(Tensor::zeros(&[256]));
        let before = stats();
        let _t = Tensor::zeros(&[256]);
        let after = stats();
        assert_eq!(after.hits, before.hits + 1);
        clear_pool();
    }

    #[test]
    fn integer_pools_recycle_independently() {
        clear_pool();
        let b8 = take_filled_i8(256, 3);
        let p8 = b8.as_ptr();
        give_i8(b8);
        let b8b = take_filled_i8(256, -1);
        assert_eq!(b8b.as_ptr(), p8, "i8 pool should reuse");
        assert!(b8b.iter().all(|&v| v == -1));
        // Same length in the i32 pool must not alias the i8 buffer.
        let b32 = take_filled_i32(256, 7);
        assert!(b32.iter().all(|&v| v == 7));
        give_i8(b8b);
        give_i32(b32);
        assert_eq!(stats().cached_buffers, 2);
        clear_pool();
        assert_eq!(stats().cached_bytes, 0);
    }
}
