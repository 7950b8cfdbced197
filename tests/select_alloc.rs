//! Allocation discipline of the selection kernel.
//!
//! The select path counts matches per chunk, prefix-sums the counts, and
//! fills one exact-size output buffer — no growable push-vector per
//! chunk, no second predicate pass over a temporary index list. This
//! test pins that behavior with the tracking allocator: the allocation
//! count of a select over a large table stays below a small constant
//! bound regardless of match count (a doubling-growth match vector alone
//! would exceed it). The result is a view, so no column is gathered.
//!
//! Kept in its own test binary so concurrent sibling tests cannot
//! inflate the process-global allocation counter mid-measurement.

use ringo::trace::mem::{alloc_count, TrackingAllocator};
use ringo::{Cmp, Predicate, Table};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn select_allocation_count_is_bounded() {
    const N: i64 = 1_000_000;
    let mut t = Table::from_int_column("id", (0..N).collect());
    t.add_float_column("w", (0..N).map(|v| v as f64 * 0.5).collect())
        .unwrap();
    t.set_threads(4);
    // ~half the rows match: a push-grown Vec<usize> would reallocate
    // ~20 times per chunk on top of the gather allocations.
    let pred = Predicate::int("id", Cmp::Lt, N / 2);

    // Warm up: thread-pool spin-up, lazy statics.
    for _ in 0..3 {
        let out = t.select(&pred).unwrap();
        assert_eq!(out.n_rows(), (N / 2) as usize);
    }

    let mut best = usize::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        let out = t.select(&pred).unwrap();
        let delta = alloc_count() - before;
        assert_eq!(out.n_rows(), (N / 2) as usize);
        drop(out);
        best = best.min(delta);
    }
    // Exact-fill path: counts + offsets + one keep vector, the view's
    // selection, column and schema bookkeeping, the pool's dispatch: 19
    // at 4 threads. Gathering the two columns and the ids would make 23;
    // a per-chunk doubling-growth regression makes hundreds.
    assert!(
        best <= 20,
        "select allocated {best} times for 1M rows; expected the \
         count-then-fill kernel's small constant"
    );
}
