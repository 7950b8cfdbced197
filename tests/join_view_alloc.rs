//! Allocation account of a join that returns a view.
//!
//! An equi-join's output reads each input's columns where they lie: its
//! left columns through the join's left positions, its right ones through
//! its right positions, 4 B a row a side, composed with each input's own
//! selection. So what a join keeps is its two position lists. Beside
//! them it builds the hash index over the smaller side; the probe's
//! per-morsel lists are joined into one list a side by growing the first
//! and freeing each once it is copied, so no side is held twice.
//! `to_graph` reads the output's two id
//! columns through their positions, so it gathers no column, and an
//! `so_session`-shaped chain — select, select, join, `to_graph` — keeps
//! 8 B a joined row above its inputs.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::gen::StackOverflowConfig;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Cmp, Predicate, Ringo, Table};
use ringo_rng::Rng64;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

const N: usize = 1_000_000;

/// What a join may keep beside its position lists: `Arc` and `Vec`
/// headers, the schema, the row-id record.
const SLACK: usize = 64 << 10;

/// `N` rows of `(k, side, a, b, f)`: a key of `N / 2` values, a side tag
/// splitting the rows into a smaller build view and a larger probe view,
/// and three payload columns the join's output reads but never gathers.
fn table() -> Table {
    let mut rng = Rng64::new(41);
    let mut t = Table::from_int_column(
        "k",
        (0..N).map(|_| rng.range_i64(0..N as i64 / 2)).collect(),
    );
    t.add_int_column(
        "side",
        (0..N).map(|_| i64::from(rng.below(100) >= 30)).collect(),
    )
    .unwrap();
    t.add_int_column("a", (0..N).map(|_| rng.i64()).collect())
        .unwrap();
    t.add_int_column("b", (0..N as i64).collect()).unwrap();
    t.add_float_column("f", (0..N).map(|i| i as f64).collect())
        .unwrap();
    t.set_threads(2);
    t
}

#[test]
fn a_join_keeps_its_position_lists_and_builds_only_the_index() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = table();
    let side = |s| t.select(&Predicate::int("side", Cmp::Eq, s)).unwrap();
    let (build, probe) = (side(0), side(1));
    // The first call registers spans and counters, which the process keeps.
    drop(build.join(&probe, "k", "k").unwrap());

    let live = current_bytes();
    reset_peak();
    let j = build.join(&probe, "k", "k").unwrap();
    let (peak, held) = (peak_bytes() - live, current_bytes() - live);
    let pairs = j.n_rows();
    assert!(pairs > N / 3, "{pairs} pairs");
    assert_eq!(j.n_cols(), 10);

    // Both sides are read through their positions: 8 B a pair, not the
    // 8 B a cell of ten gathered columns.
    assert!(
        (8 * pairs..8 * pairs + SLACK).contains(&held),
        "the join keeps {held} B for {pairs} pairs, {:.2} B a pair",
        held as f64 / pairs as f64
    );
    // The index: 4 B a build row laid out by bucket, 4–8 B of bucket
    // offsets and the partition scatter (4), beside the probe's morsel
    // lists, 8 B a pair; the lists joined into one a side never hold a
    // side twice.
    let index = 16 * build.n_rows();
    let bound = held + index + SLACK;
    assert!(
        peak <= bound,
        "the join peaked {peak} B above its inputs, bound {bound} ({:.2} B a pair)",
        peak as f64 / pairs as f64
    );
    // Every cell reads as it would from a copy.
    let (ks, ks1) = (j.int_col("k").unwrap(), j.int_col("k-1").unwrap());
    assert_eq!(ks, ks1, "one key");
    let (bs, bs1) = (j.int_col("b").unwrap(), j.int_col("b-1").unwrap());
    let keys = t.int_col("k").unwrap();
    assert!((0..pairs).all(|r| keys[bs[r] as usize] == ks[r] && keys[bs1[r] as usize] == ks[r]));
}

/// A join with many pairs a build row, so its pairs, not its index, set
/// its peak: the probe's morsel lists (8 B a pair) are joined into one
/// list a side by growing the first and freeing each once copied, so the
/// join peaks at its two lists and one morsel's, never one side twice
/// (4 B a pair more).
#[test]
fn a_join_of_many_pairs_a_build_row_never_holds_a_side_twice() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = table();
    let mut build = Table::from_int_column("key", (0..1_000).collect());
    // A right column beside the key keeps the right positions.
    build.add_int_column("w", (0..1_000).collect()).unwrap();
    // The first call registers spans and counters, which the process keeps.
    drop(t.join(&build, "side", "key").unwrap());

    let live = current_bytes();
    reset_peak();
    let j = t.join(&build, "side", "key").unwrap();
    let (peak, held) = (peak_bytes() - live, current_bytes() - live);
    let pairs = j.n_rows();
    assert_eq!(pairs, N, "every row matches one key");
    assert!(
        (8 * pairs..8 * pairs + SLACK).contains(&held),
        "the join keeps {held} B for {pairs} pairs"
    );
    // One morsel's two lists, in flight while the sides are joined.
    let morsel = 8 * ringo::concurrent::DEFAULT_MORSEL_ROWS;
    let bound = held + morsel + SLACK;
    assert!(
        peak <= bound,
        "the join peaked {peak} B above its inputs, bound {bound} ({:.2} B a pair)",
        peak as f64 / pairs as f64
    );
}

/// `to_graph` on `view`'s columns `src` and `dst` peaks and keeps as on
/// a copy of the two columns, and leaves `view` as it was.
fn to_graph_reads_in_place(ringo: &Ringo, view: &Table, src: &str, dst: &str) {
    let copy = {
        let gathered = view.clone();
        let mut c = Table::from_int_column(src, gathered.int_col(src).unwrap().to_vec());
        c.add_int_column(dst, gathered.int_col(dst).unwrap().to_vec())
            .unwrap();
        c
    };
    // The first call registers spans and counters, which the process keeps.
    drop(ringo.to_graph(&copy, src, dst).unwrap());
    let peak_of = |t: &Table| {
        let live = current_bytes();
        reset_peak();
        let g = ringo.to_graph(t, src, dst).unwrap();
        let (peak, held) = (peak_bytes() - live, current_bytes() - live);
        (g, peak, held)
    };
    let before = view.mem_size();
    let (on_copy, copy_peak, copy_held) = peak_of(&copy);
    let (on_view, view_peak, view_held) = peak_of(view);
    assert_eq!(view.mem_size(), before, "the view keeps no gathered column");
    assert_eq!(view_held, copy_held, "both keep the graph alone");
    // A gather of the two columns would add 16 B a row.
    assert!(
        view_peak <= copy_peak + SLACK,
        "to_graph peaked {view_peak} B on the view, {copy_peak} B on a copy of its columns"
    );
    assert_eq!(on_view.edge_count(), on_copy.edge_count());
    assert_eq!(
        ringo.to_edge_table(&on_view).int_col("dst").unwrap(),
        ringo.to_edge_table(&on_copy).int_col("dst").unwrap()
    );
}

#[test]
fn to_graph_on_a_join_view_gathers_no_column() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let ringo = Ringo::with_threads(2);
    let t = table();
    let side = |s| t.select(&Predicate::int("side", Cmp::Eq, s)).unwrap();
    // Its two columns read through the left and the right positions.
    let j = side(0).join(&side(1), "k", "k").unwrap();
    to_graph_reads_in_place(&ringo, &j, "a", "b-1");
    // A select's two columns read through one selection.
    to_graph_reads_in_place(&ringo, &side(1), "a", "b");
}

#[test]
fn an_so_session_chain_keeps_eight_bytes_a_joined_row() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let ringo = Ringo::with_threads(2);
    let posts = ringo.generate_stackoverflow(&StackOverflowConfig {
        questions: 80_000,
        answers: 140_000,
        users: 30_000,
        seed: 41,
        ..StackOverflowConfig::default()
    });
    let chain = || {
        let tagged = ringo
            .select(&posts, &Predicate::str_eq("Tag", "java"))
            .unwrap();
        let of = |kind| {
            ringo
                .select(&tagged, &Predicate::str_eq("Type", kind))
                .unwrap()
        };
        let (q, a) = (of("question"), of("answer"));
        let inputs = current_bytes();
        let qa = ringo.join(&q, &a, "AcceptedAnswerId", "PostId").unwrap();
        let joined = current_bytes() - inputs;
        let g = ringo.to_graph(&qa, "UserId", "UserId-1").unwrap();
        drop(g);
        (qa, joined, current_bytes() - inputs)
    };
    // The first chain registers spans, counters and op-log records.
    drop(chain());

    let (qa, joined, after_graph) = chain();
    let rows = qa.n_rows();
    assert!(rows > 5_000, "{rows} joined rows");
    assert!(
        joined <= 8 * rows + SLACK,
        "the join keeps {joined} B above its inputs for {rows} rows"
    );
    // `to_graph` read the two user columns through their positions: the
    // join still holds its position lists alone.
    assert!(
        after_graph <= 8 * rows + SLACK,
        "after to_graph the join holds {after_graph} B for {rows} rows"
    );
}
