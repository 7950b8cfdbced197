//! Allocation account of row ids.
//!
//! A table built from whole columns stores no row ids: a row's id is its
//! position. So building one allocates nothing for ids, a clone shares
//! the columns and copies nothing a row, and sorting a clone holds the
//! sort column, decoded in place in the sorted words, and the
//! permutation, which reads the ids it shares with the original — never
//! 8 B a row of ids, copied or made.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::table::{ColumnData, StringPool};
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{ColumnType, Schema, Table};
use ringo_rng::Rng64;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

const N: usize = 1_000_000;

/// Two random `Int` columns of `N` rows, built from whole columns.
fn two_columns() -> Table {
    let mut rng = Rng64::new(27);
    let mut t = Table::from_int_column("a", (0..N).map(|_| rng.range_i64(0..1000)).collect());
    t.add_int_column("b", (0..N).map(|_| rng.i64()).collect())
        .unwrap();
    t.set_threads(2);
    t
}

#[test]
fn from_parts_allocates_nothing_for_row_ids() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new([("a", ColumnType::Int)]);
    // The first call sets up the process-wide thread count.
    drop(
        Table::from_parts(
            schema.clone(),
            vec![ColumnData::Int(vec![1])],
            StringPool::new(),
        )
        .unwrap(),
    );

    let col = ColumnData::Int((0..N as i64).collect());
    let pool = StringPool::new();
    let live = current_bytes();
    reset_peak();
    let t = Table::from_parts(schema, vec![col], pool).unwrap();
    let grew = peak_bytes() - live;
    assert_eq!(t.n_rows(), N);
    assert_eq!(t.row_id(N - 1), N as u64 - 1);
    // Eight bytes a row would be 8 MB.
    assert!(grew < 4096, "from_parts allocated {grew} B for {N} rows");
}

#[test]
fn clone_shares_the_columns() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = two_columns();
    let before = current_bytes();
    let copy = t.clone();
    let copied = current_bytes() - before;
    assert_eq!(copy.n_rows(), N);
    // The schema's names and the column pointers; a copied column would
    // be 8 B a row, stored ids 8 more.
    assert!(
        copied < 4096,
        "a clone of two {N}-row columns copied {copied} B"
    );
}

#[test]
fn sorting_a_clone_holds_its_permutation_and_no_ids() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = two_columns();
    // The first call registers spans and counters, which the process keeps.
    t.ordered_by(&["a"], true).unwrap();

    let live = current_bytes();
    reset_peak();
    let sorted = t.ordered_by(&["a"], true).unwrap();
    let peak = peak_bytes() - live;
    let a = sorted.int_col("a").unwrap();
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    let kept = current_bytes() - live;
    assert!(
        (12 * N..12 * N + 4096).contains(&kept),
        "ordered_by kept {kept} B: the permutation and the one sort column are {} B",
        12 * N
    );

    // The words (8 B a row, then the sort column) and the permutation
    // (4): 12 B a row, plus the sorter's counters; a clone that copied
    // ids would add 8.
    let bound = 12 * N + (1 << 16);
    assert!(
        peak <= bound,
        "ordered_by peaked {peak} B above its input, {:.2} B a row",
        peak as f64 / N as f64
    );
}
