//! Heap-footprint tracking for the paper's §3 memory claims.
//!
//! The paper reports that 10 PageRank iterations on Twitter2010 ran within
//! 18.3GB and triangle counting within 22.6GB — "less than twice the size
//! of the graph object itself". [`TrackingAllocator`] wraps the system
//! allocator with current/peak byte counters so the `footprint` benchmark
//! binary can reproduce that measurement, and so spans can attribute
//! allocator deltas to individual operations:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ringo_trace::mem::TrackingAllocator = ringo_trace::mem::TrackingAllocator;
//! ```
//!
//! (Formerly `ringo_core::mem`, which now re-exports this module; it lives
//! here so every engine crate below the facade can read the watermarks.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` wrapper around the system allocator that maintains
/// current and peak heap usage counters.
pub struct TrackingAllocator;

// SAFETY: delegates allocation to `System` verbatim; only counters are
// updated around the calls.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: trait-mandated unsafe fn; the caller's `GlobalAlloc`
    // contract is forwarded to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            // ORDERING: Relaxed — advisory watermark counters; nothing is
            // published through them.
            COUNT.fetch_add(1, Ordering::Relaxed);
            add(layout.size());
        }
        ptr
    }

    // SAFETY: trait-mandated unsafe fn; contract forwarded to `System`,
    // whose zeroed allocation of a large block takes fresh pages as they
    // are instead of writing every byte.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            // ORDERING: Relaxed — advisory watermark counters.
            COUNT.fetch_add(1, Ordering::Relaxed);
            add(layout.size());
        }
        ptr
    }

    // SAFETY: trait-mandated unsafe fn; contract forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        // ORDERING: Relaxed — advisory watermark counter.
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: trait-mandated unsafe fn; contract forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // ORDERING: Relaxed — advisory watermark counters.
            COUNT.fetch_add(1, Ordering::Relaxed);
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            add(new_size);
        }
        new_ptr
    }
}

fn add(bytes: usize) {
    // ORDERING: Relaxed — advisory watermark counters; the racy max update
    // below is good enough for footprint reporting.
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Bytes currently allocated (0 unless [`TrackingAllocator`] is installed
/// as the global allocator).
pub fn current_bytes() -> usize {
    // ORDERING: Relaxed — advisory watermark read.
    CURRENT.load(Ordering::Relaxed)
}

/// Peak bytes allocated since start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    // ORDERING: Relaxed — advisory watermark read.
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current allocation level, so a code section's
/// own peak can be isolated.
pub fn reset_peak() {
    // ORDERING: Relaxed — advisory watermark reset.
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Number of heap allocations (including reallocations) performed since
/// process start. Deltas of this counter around a code section bound how
/// many times that section hit the allocator — the measurement behind the
/// "allocation-free per node" fill-phase guarantee.
pub fn alloc_count() -> usize {
    // ORDERING: Relaxed — advisory allocation-count read.
    COUNT.load(Ordering::Relaxed)
}

/// Formats a byte count as a human-readable string (GB/MB/KB).
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Formats a signed byte delta (`+1.2MB` / `-340.0KB` / `0B`).
pub fn format_bytes_delta(delta: i64) -> String {
    match delta {
        0 => "0B".to_string(),
        d if d > 0 => format!("+{}", format_bytes(d as usize)),
        d => format!("-{}", format_bytes(d.unsigned_abs() as usize)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.0KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0MB");
        assert_eq!(format_bytes(5 * 1024 * 1024 * 1024), "5.00GB");
        assert_eq!(format_bytes_delta(0), "0B");
        assert_eq!(format_bytes_delta(2048), "+2.0KB");
        assert_eq!(format_bytes_delta(-512), "-512B");
    }

    #[test]
    fn counters_without_installation_are_consistent() {
        // Without installing the allocator the counters just stay put.
        let p = peak_bytes();
        reset_peak();
        assert!(peak_bytes() <= p.max(current_bytes()));
    }
}
