//! Allocation discipline of `order_by`.
//!
//! Numeric sort columns are sorted as one packed `(keys…, position)`
//! word per row. When the word is a `u64`, one pass over the sorted
//! words reads each row's position and decodes every sort column off
//! its word: the first column is the words' own buffer, each word
//! rewritten in place as its value, and the second is decoded beside the
//! permutation. So beside the table it sorts, `order_by` holds the words
//! (8 B a row), the permutation (4) and the second column (8) — no
//! sorter scratch, no ids — and the sorted table keeps its two sort
//! columns whole, so borrowing them copies nothing. Its other columns
//! and its ids are read through the permutation. The table here is its
//! columns' only owner, so the input's two sort columns are freed with
//! it, and the sorted table holds 4 B a row more than its input did.
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
fn order_by_peaks_below_three_quarters_of_its_table() {
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

    let before = current_bytes();
    let (a, b) = (sorted.int_col("a").unwrap(), sorted.int_col("b").unwrap());
    assert_eq!(
        current_bytes(),
        before,
        "borrowing the sort columns whole allocates nothing"
    );
    assert!((1..N).all(|i| (a[i - 1], b[i - 1]) <= (a[i], b[i])));
    let held = current_bytes() - live;
    assert!(
        held.abs_diff(4 * N) < 4096,
        "the sorted table holds {held} B more than its input: its permutation is {} B",
        4 * N
    );

    // The words (8 B a row, then the first column), the permutation (4)
    // and the second column (8): 20 B a row, against the sorted table's
    // 28 (its two sort columns, the permutation, the column `p`).
    let bound = 20 * N + (1 << 16);
    assert!(
        peak <= bound,
        "order_by peaked {peak} B above its table, {:.2} B a row",
        peak as f64 / N as f64
    );
    let size = sorted.mem_size();
    assert!(
        peak * 4 <= size * 3,
        "order_by peaked {peak} B above a table of {size} B: {:.2}x",
        peak as f64 / size as f64
    );
}
