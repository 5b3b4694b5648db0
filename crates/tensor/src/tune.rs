//! Routine-selection bookkeeping read by the end-to-end benchmark.
//!
//! GEMM routines are picked by a pure function of the problem shape
//! (see [`crate::dispatch`]), so nothing is measured, cached or
//! persisted at run time.

/// Number of stored routine selections: always 0, since the routine
/// choice is a function of the problem shape alone.
pub fn entry_count() -> usize {
    0
}
