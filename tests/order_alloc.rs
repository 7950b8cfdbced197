//! Allocation discipline of `order_by`.
//!
//! Numeric sort columns are sorted as one packed `(keys…, position)`
//! word per row, and the positions read back off the sorted words are
//! the sorted table: a view of the columns it had, 4 B a row. So beside
//! the table it sorts, `order_by` holds the keys and the permutation —
//! no sorter scratch, no copy of a column, no ids — and keeps only the
//! permutation. A column borrowed whole afterwards is gathered then,
//! once; the table here is its columns' only owner, so the sorted view
//! keeps them beside the gathered ones until a `&mut` verb materializes
//! it. Sorting a clone, whose columns stay with the original, is
//! `table_views_alloc.rs`'s account (and `bench_e2e`'s `tw_relational`).
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::Table;
use ringo_rng::Rng64;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn order_by_peaks_below_seven_tenths_of_its_table() {
    const N: usize = 1_000_000;
    let mut rng = Rng64::new(20);
    let mut table = Table::from_int_column("a", (0..N).map(|_| rng.range_i64(0..1000)).collect());
    table
        .add_int_column("b", (0..N).map(|_| rng.range_i64(-500..0)).collect())
        .unwrap();
    table
        .add_float_column("p", (0..N).map(|i| i as f64 * 0.5).collect())
        .unwrap();
    table.set_threads(2);
    // The first call registers spans and counters, which the process keeps.
    table.clone().order_by(&["a", "b"], true).unwrap();

    // Sorted as its columns' only owner (`table_views_alloc.rs` sorts a
    // clone, which shares them).
    let mut sorted = table;
    let live = current_bytes();
    reset_peak();
    sorted.order_by(&["a", "b"], true).unwrap();
    let peak = peak_bytes() - live;

    let (a, b) = (sorted.int_col("a").unwrap(), sorted.int_col("b").unwrap());
    assert!((1..N).all(|i| (a[i - 1], b[i - 1]) <= (a[i], b[i])));
    let held = current_bytes() - live;
    assert!(
        (20 * N..20 * N + 4096).contains(&held),
        "the sorted view holds {held} B: its permutation and the two columns borrowed are {} B",
        20 * N
    );

    // Keys (8 B a row) and the permutation (4): 12 B a row, against the
    // sorted view's 44 (three columns, the permutation, two borrowed
    // columns).
    let bound = 12 * N + (1 << 16);
    assert!(
        peak <= bound,
        "order_by peaked {peak} B above its table, {:.2} B a row",
        peak as f64 / N as f64
    );
    let size = sorted.mem_size();
    assert!(
        peak * 10 <= size * 7,
        "order_by peaked {peak} B above a table of {size} B: {:.2}x",
        peak as f64 / size as f64
    );
}
