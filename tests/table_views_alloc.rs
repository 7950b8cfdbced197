//! Allocation account of shared columns and views.
//!
//! Tables share their columns and string pool, and `select` returns a
//! view: the shared columns plus 4 B a kept row. So a select allocates
//! its selection and little else, a clone copies pointers, a join of two
//! views reads them through their selections without gathering either,
//! and sorting a clone never copies the input: its sort columns come back
//! decoded off the sorted words, its other columns are read through the
//! permutation.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Cmp, Predicate, Table};
use ringo_rng::Rng64;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

const N: usize = 1_000_000;

/// Rows a morsel holds by default: the select kernel keeps a few words a
/// morsel beside its output.
const MORSEL: usize = 1 << 16;

/// `N` rows: a unique int key `k`, two random int columns, a float and a
/// string column of `N / 8` distinct strings, so the pool is megabytes.
fn wide() -> Table {
    let mut rng = Rng64::new(29);
    let mut t = Table::from_int_column("k", (0..N as i64).collect());
    t.add_int_column("a", (0..N).map(|_| rng.range_i64(0..1000)).collect())
        .unwrap();
    t.add_int_column("b", (0..N).map(|_| rng.i64()).collect())
        .unwrap();
    t.add_float_column("f", (0..N).map(|i| i as f64 * 0.5).collect())
        .unwrap();
    let strs: Vec<String> = (0..N).map(|i| format!("user-{}", i % (N / 8))).collect();
    t.add_str_column("s", &strs).unwrap();
    t.set_threads(2);
    t
}

#[test]
fn select_allocates_four_bytes_a_selected_row() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = wide();
    let pred = Predicate::int("a", Cmp::Lt, 500);
    // The first call registers spans and counters, which the process keeps.
    drop(t.select(&pred).unwrap());

    let live = current_bytes();
    reset_peak();
    let out = t.select(&pred).unwrap();
    let (peak, held) = (peak_bytes() - live, current_bytes() - live);
    let hits = out.n_rows();
    assert!(hits > N / 3, "{hits} rows selected");
    // A copy of the five columns and their ids would be 36 B a row.
    let bound = 4 * hits + 64 * N.div_ceil(MORSEL) + 4096;
    assert!(
        peak <= bound,
        "select peaked {peak} B for {hits} rows, bound {bound}"
    );
    assert!(
        held <= 4 * hits + 4096,
        "a view of {hits} rows holds {held} B"
    );
    assert_eq!(out.int_col("k").unwrap().len(), hits);
}

#[test]
fn a_clone_copies_no_column_or_pool_bytes() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = wide();
    let view = t.select(&Predicate::int("a", Cmp::Ge, 100)).unwrap();
    // A borrowed column of a view is gathered once and kept in it.
    let gathered = view.int_col("b").unwrap().len();
    for (what, table) in [("table", &t), ("view", &view)] {
        let before = current_bytes();
        let copy = table.clone();
        let copied = current_bytes() - before;
        assert_eq!(copy.n_rows(), table.n_rows());
        assert!(copied < 4096, "a clone of the {what} copied {copied} B");
    }
    let before = current_bytes();
    assert_eq!(view.int_col("b").unwrap().len(), gathered);
    assert_eq!(current_bytes(), before, "the second borrow gathers nothing");
}

#[test]
fn a_join_of_two_views_gathers_neither() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let base = wide();
    let (cut, band) = (600_000, 10_000);
    let probe = Predicate::int("k", Cmp::Lt, cut);
    let build = Predicate::int_between("k", cut - band, cut - 1);
    // The first calls register spans and counters.
    let warm = base.select(&probe).unwrap();
    drop(warm.join(&base.select(&build).unwrap(), "k", "k").unwrap());
    drop(warm);

    let live = current_bytes();
    reset_peak();
    let (left, right) = (base.select(&probe).unwrap(), base.select(&build).unwrap());
    let joined = left.join(&right, "k", "k").unwrap();
    let peak = peak_bytes() - live;
    assert_eq!(joined.n_rows(), band as usize);
    assert_eq!(joined.n_cols(), 10);

    // The two selections, the output's columns (the pool is the base's,
    // shared) and the join's pairs and index, which are a few dozen bytes
    // a matched or built row. A gathered copy of the left view alone is
    // 21 MB, of its string column 2.4 MB, a copy of the pool 10 MB.
    let sels = 4 * (cut + band) as usize;
    let out = 10 * 8 * band as usize;
    let bound = sels + out + 64 * band as usize + (1 << 20);
    assert!(
        peak <= bound,
        "selects and join peaked {peak} B, bound {bound}"
    );
    let held = current_bytes() - live;
    assert!(
        held <= sels + out + 4096,
        "views and join output hold {held} B"
    );
}

#[test]
fn sorting_a_clone_copies_no_input() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng64::new(31);
    let mut t = Table::from_int_column("a", (0..N).map(|_| rng.range_i64(0..1000)).collect());
    t.add_int_column("b", (0..N).map(|_| rng.range_i64(-500..0)).collect())
        .unwrap();
    t.set_threads(2);
    // The first call registers spans and counters.
    t.ordered_by(&["a", "b"], true).unwrap();

    let live = current_bytes();
    reset_peak();
    let mut sorted = t.clone();
    let copied = current_bytes() - live;
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

    assert!(copied < 4096, "the clone copied {copied} B");
    // Beside the original's columns: the packed words (8 B a row, then
    // the first sort column), the permutation read off them (4) and the
    // second sort column decoded beside it (8).
    let bound = 20 * N + (1 << 16);
    assert!(
        peak <= bound,
        "clone and order_by peaked {peak} B above the input, {:.2} B a row",
        peak as f64 / N as f64
    );
    // The permutation and the two sort columns; no ids.
    let held = current_bytes() - live;
    assert!(
        (20 * N..20 * N + 4096).contains(&held),
        "the sorted clone holds {held} B: its permutation and two columns are {} B",
        20 * N
    );
}
