//! Conversion smoke: a table→graph run large enough to exercise the
//! radix sort path and the slab fill, for CI trace assertions.
//!
//! Run with `RINGO_TRACE_JSON=out.json \
//! cargo run --release --example convert_smoke`. CI checks that the
//! dumped trace contains `sort.radix.*` and `convert.fill.*` spans, so
//! a refactor that silently drops conversions off the radix path fails
//! the build rather than just losing throughput.

use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::trace::mem::TrackingAllocator;
use ringo::Ringo;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();

    // 50k edges: far above the radix sequential threshold (4096) so the
    // bucketed path, not the sort_unstable fallback, is what CI smokes.
    let edges = rmat(&RmatConfig {
        scale: 16,
        edges: 50_000,
        ..Default::default()
    });
    let table = edges_to_table(&edges);
    let g = ringo.to_graph(&table, "src", "dst")?;
    println!(
        "convert smoke: {} rows -> {} nodes, {} edges",
        table.n_rows(),
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}
