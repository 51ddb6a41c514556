//! Counting `#[global_allocator]` wrapper: process-wide allocation
//! totals plus per-span attribution through [`crate::prof`].
//!
//! `#[global_allocator]` is per-binary, so this crate only defines the
//! type; each binary that wants attribution installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;
//! ```
//!
//! When the profiler is disabled the entire hook is one relaxed atomic
//! load per allocation; nothing is counted and no thread-local is
//! touched, so binaries that never enable profiling pay (almost) nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Process-wide allocation counters since the last [`reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls observed (allocs + grow-reallocs).
    pub allocs: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
    /// Live bytes right now (clamped at 0: frees of pre-reset blocks).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
}

/// Snapshot the counters.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Zero all counters (start of a measured region).
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

#[inline]
fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    crate::prof::note_alloc(size as u64);
}

/// Frees of blocks allocated before the last [`reset`], on any thread,
/// would drive `LIVE` below zero and make every later `PEAK` under-report;
/// live bytes are clamped at zero instead.
#[inline]
fn note_dealloc(size: usize) {
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some((live - size as i64).max(0))
    });
}

/// System-allocator wrapper that counts when the profiler is enabled.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && crate::prof::enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && crate::prof::enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if crate::prof::enabled() {
            note_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && crate::prof::enabled() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}
