//! Allocation discipline of table → graph.
//!
//! The conversion sorts 8-byte packed keys read straight off the two
//! columns, once, ranks them into the first slab and frees them; the
//! second orientation is a transpose of that slab, not a second sort. So
//! beside the graph it returns it holds one key a distinct edge (8 B) at
//! most, and per-node arrays: no second key buffer, no tuple array (16
//! bytes a pair, twice over with the sorter's scratch) and no copy of the
//! table. `bench_e2e`'s `tw_convert` session peaked inside
//! `to_undirected_graph` against a 5% bound; these tests pin the same
//! account in tier 1, in *bytes*.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement; the tests take a lock so they do
//! not move each other's.

use ringo::convert::table_to_undirected;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{Ringo, Table};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static MEASURING: Mutex<()> = Mutex::new(());

/// 400k R-MAT rows over 16k ids: edges outnumber nodes as they do in the
/// bench's tables, so per-edge buffers dominate per-node ones.
fn rmat_table() -> Table {
    let mut t = edges_to_table(&rmat(&RmatConfig {
        scale: 14,
        edges: 400_000,
        seed: 19,
        ..Default::default()
    }));
    t.set_threads(2);
    t
}

#[test]
fn undirected_conversion_peaks_below_its_input_columns() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let table = rmat_table();
    let columns = 2 * table.n_rows() * std::mem::size_of::<i64>();
    // The first call registers spans and counters, which the process keeps.
    drop(table_to_undirected(&table, "src", "dst").unwrap());

    let live = current_bytes();
    reset_peak();
    let g = table_to_undirected(&table, "src", "dst").unwrap();
    let peak = peak_bytes() - live;
    assert!(g.edge_count() > 250_000);

    // One `(min, max)` key a row is half the columns' bytes, beside the
    // forward slab (4 B an edge) it is ranked into; after the keys, the
    // forward slab, the graph's slab (8 B an edge) and the transpose's
    // target buffer (2 B an edge): ≈0.74× here. Both orientations of
    // every row as keys would alone be 1×.
    assert!(
        peak < columns,
        "table_to_undirected peaked {peak} B above its input, {:.2}x the {columns} B of its columns",
        peak as f64 / columns as f64
    );
}

#[test]
fn facade_conversion_makes_no_table_sized_buffer() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let table = rmat_table();
    let ringo = Ringo::with_threads(2);
    drop(ringo.to_graph(&table, "src", "dst").unwrap());

    let live = current_bytes();
    reset_peak();
    let g = ringo.to_graph(&table, "src", "dst").unwrap();
    let transient = peak_bytes() - current_bytes();
    let kept = current_bytes() - live;
    assert!(g.edge_count() > 250_000);

    // What the conversion held beside what it returned: the keys (half
    // the table: 8 of its 16 B a row, the table storing no row ids) while
    // the out-slab is ranked from them, less the in-slab that is not yet
    // allocated then, and per-node arrays: ≈0.21× here. A second
    // orientation's keys (≈0.64×) or a clone of the table to carry a
    // thread count does not fit.
    assert!(
        transient < table.mem_size() / 3,
        "Ringo::to_graph held {transient} B beside the {kept} B it returned, \
         against a table of {} B",
        table.mem_size()
    );
}
