//! Allocation account of `tw_relational`'s two largest verbs.
//!
//! `join_rest` joins an edge table `(src, dst)` with a one-column table
//! of most of its `src` values. The output is a view: the left columns
//! read through the join's left positions, the right ones through its
//! right positions. Every output row's two keys are equal, so the right
//! key column is the left key column, read through the left positions;
//! no right column is left to read the right positions, so they are
//! dropped, and the output holds 4 B a row.
//! `order_by` on a clone of the edge table decodes its two sort columns
//! off the sorted words — the first in the words' own buffer — beside the
//! permutation, 20 B a row, and keeps them: borrowing them copies
//! nothing.
//!
//! `so_session`'s join indexes a view of questions, each on a key of its
//! own, and probes it with a larger view of answers. The index lays the
//! build rows out by hash bucket in flat arrays, so its bytes a build
//! row and its allocations do not depend on how many distinct keys there
//! are.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::trace::mem::{alloc_count, current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Cmp, Predicate, Table};
use ringo_rng::Rng64;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

const N: usize = 1_000_000;

/// `N` edges over `N / 64` sources, so the join's hash index on the key
/// table is small beside its output.
fn edges() -> Table {
    let mut rng = Rng64::new(34);
    let src = (0..N).map(|_| rng.range_i64(0..(N / 64) as i64)).collect();
    let mut t = Table::from_int_column("src", src);
    t.add_int_column("dst", (0..N).map(|_| rng.range_i64(0..N as i64)).collect())
        .unwrap();
    t.set_threads(2);
    t
}

#[test]
fn a_join_stores_its_key_once() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = edges();
    // Nine in ten sources: most rows match, as in `join_rest`.
    let mut keys = Table::from_int_column("key", (0..(N / 64) as i64 * 9 / 10).collect());
    keys.set_threads(2);
    // The first call registers spans and counters, which the process keeps.
    drop(t.join(&keys, "src", "key").unwrap());

    let live = current_bytes();
    reset_peak();
    let j = t.join(&keys, "src", "key").unwrap();
    let peak = peak_bytes() - live;
    let held = current_bytes() - live;
    let out = j.n_rows();
    assert!(out > N * 8 / 10, "{out} rows joined");

    // The left positions (4 B a row): `src` and `dst` read through them,
    // `key` as `src`, and no column reads the right positions.
    assert!(
        (4 * out..4 * out + 4096).contains(&held),
        "the join output holds {held} B: its left positions are {} B",
        4 * out
    );
    // The probe's two position lists (8 B a row), one of them copied
    // into one vector (4), beside the small index.
    let bound = 12 * out + (1 << 20);
    assert!(
        peak <= bound,
        "the join peaked {peak} B above its input, {:.2} B an output row",
        peak as f64 / out as f64
    );
    assert_eq!(j.mem_size(), 16 * N + 4 * out + j.pool().mem_size());
    assert!(std::ptr::eq(j.column(0), j.column(2)), "one key vector");
}

#[test]
fn sorting_a_clone_holds_keys_and_a_permutation() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = edges();
    // The first call registers spans and counters.
    t.ordered_by(&["src", "dst"], true).unwrap();

    let live = current_bytes();
    reset_peak();
    let mut sorted = t.clone();
    sorted.order_by(&["src", "dst"], true).unwrap();
    let peak = peak_bytes() - live;
    let held = current_bytes() - live;

    // The packed words (8 B a row, then `src`), the permutation read off
    // them (4) and `dst` decoded beside it (8).
    let bound = 20 * N + (1 << 16);
    assert!(
        peak <= bound,
        "clone and order_by peaked {peak} B above the input, {:.2} B a row",
        peak as f64 / N as f64
    );
    assert!(
        (20 * N..20 * N + 4096).contains(&held),
        "the sorted clone holds {held} B: its permutation and two sort columns are {} B",
        20 * N
    );
    let (src, dst) = (
        sorted.int_col("src").unwrap(),
        sorted.int_col("dst").unwrap(),
    );
    assert!((1..N).all(|i| (src[i - 1], dst[i - 1]) <= (src[i], dst[i])));
    let borrowed = current_bytes() - live;
    assert_eq!(borrowed, held, "the two borrows copy nothing");
}

/// `N` posts, about 36% of them questions (`kind` 0) and the rest answers
/// (`kind` 1). A question's `accepted` key is its own: the next post's id
/// (an answer's, mostly) or, for 45% of them, a negative number no post
/// has. `few` holds 16 keys in all, and `none` keys no post has.
fn posts() -> Table {
    let mut rng = Rng64::new(39);
    let kind: Vec<i64> = (0..N).map(|_| i64::from(rng.below(100) >= 36)).collect();
    let accepted = (0..N as i64)
        .map(|i| if rng.below(100) < 55 { i + 1 } else { -i - 1 })
        .collect();
    let mut t = Table::from_int_column("id", (0..N as i64).collect());
    for (name, col) in [
        ("kind", kind),
        ("accepted", accepted),
        ("few", (0..N as i64).map(|i| i % 16).collect()),
        ("none", (0..N as i64).map(|i| -i - 1).collect()),
    ] {
        t.add_int_column(name, col).unwrap();
    }
    t.set_threads(2);
    t
}

#[test]
fn a_join_index_is_flat_whatever_the_keys() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = posts();
    // Each view narrowed to its key: the output is one shared key vector,
    // so the join's peak is its index and its pairs.
    let kind = |k, col| {
        let view = t.select(&Predicate::int("kind", Cmp::Eq, k)).unwrap();
        view.project(&[col]).unwrap()
    };
    let (questions, answers) = (kind(0, "accepted"), kind(1, "id"));
    let build = questions.n_rows();
    assert!(
        build >= 300_000 && answers.n_rows() > build,
        "{build} questions"
    );
    // The first call registers spans and counters, which the process keeps.
    drop(questions.join(&answers, "accepted", "id").unwrap());

    let live = current_bytes();
    reset_peak();
    let j = questions.join(&answers, "accepted", "id").unwrap();
    let peak = peak_bytes() - live;
    let pairs = j.n_rows();
    assert!(pairs > build / 3, "{pairs} pairs");
    // The partition scatter and the index (4 B a build row each, 4–8 B of
    // bucket offsets), then the index and the pairs: 13.8 B a build row
    // at 2 threads. A hash table of one `Vec` a key peaked at 73.1.
    let bound = 24 * build;
    assert!(
        peak <= bound,
        "the join peaked {peak} B above its input, {:.2} B a build row ({pairs} pairs)",
        peak as f64 / build as f64,
    );
    drop(j);

    // No pair: the probe morsels allocate nothing, so what the join
    // allocates is the index and an empty output.
    let allocs = |key| {
        let (q, a) = (kind(0, key), kind(1, "none"));
        let before = alloc_count();
        let j = q.join(&a, key, "none").unwrap();
        assert_eq!(j.n_rows(), 0);
        alloc_count() - before
    };
    let (unique, few) = (allocs("accepted"), allocs("few"));
    assert_eq!(
        unique, few,
        "{build} build rows: {unique} allocations on unique keys, {few} on 16 keys"
    );
    // 52 at 2 threads; one `Vec` a key made 359,624 here.
    assert!(unique < 256, "{unique} allocations for {build} build rows");
}
