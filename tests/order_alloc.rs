//! Allocation discipline of `order_by`.
//!
//! Numeric sort columns are sorted as one packed `(keys…, position)`
//! word per row; the `Int` sort columns are then decoded from the sorted
//! keys and the other columns gathered, one new vector at a time, each
//! old vector dropped before the next is made. The table here is built
//! from whole columns and is their only owner, so it stores no row ids:
//! the sort takes the new ids from the positions in the keys, and no old
//! id vector stands beside them. So beside the table it sorts, `order_by`
//! holds the keys and one new vector — no permutation, no sorter scratch,
//! no second copy of a sort column — and keeps only the ids it made.
//! Sorting a clone, whose columns stay with the original, is
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

    // Sorted as its only owner: a clone shares the columns, and sorting
    // one makes all new vectors (`table_views_alloc.rs` pins that).
    let mut sorted = table;
    let live = current_bytes();
    reset_peak();
    sorted.order_by(&["a", "b"], true).unwrap();
    let peak = peak_bytes() - live;

    let (a, b) = (sorted.int_col("a").unwrap(), sorted.int_col("b").unwrap());
    assert!((1..N).all(|i| (a[i - 1], b[i - 1]) <= (a[i], b[i])));
    assert_eq!(
        current_bytes() - live,
        8 * N,
        "order_by keeps what it was given and the ids it made"
    );

    // Keys (8 B a row) and one new vector — the gathered float column or
    // the ids (8 B a row) — against the sorted table's 32 B a row (three
    // columns and the ids): half. A permutation beside two gathered
    // columns, as before the packed sort, is 0.83.
    let size = sorted.mem_size();
    assert!(
        peak * 10 <= size * 7,
        "order_by peaked {peak} B above a table of {size} B: {:.2}x",
        peak as f64 / size as f64
    );
}
