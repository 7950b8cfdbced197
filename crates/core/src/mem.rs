//! Heap-footprint tracking for the paper's §3 memory claims.
//!
//! The implementation moved to [`ringo_trace::mem`] so that every engine
//! crate (tables, conversions, algorithms) can attribute allocator deltas
//! to its spans; this module re-exports it unchanged for users of the
//! facade such as `bench_e2e`, which installs it to read each session's
//! peak heap:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ringo_core::mem::TrackingAllocator = ringo_core::mem::TrackingAllocator;
//! ```

pub use ringo_trace::mem::*;
