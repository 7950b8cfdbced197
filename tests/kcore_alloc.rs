//! Allocation discipline of the k-core.
//!
//! `k_core` peels from the removed side and splices its result from the
//! input's own lists, so beyond the graph it returns it holds only
//! per-node scratch: a degree, a cut count and a new slot per slot, the
//! slot, id and offset of each kept node, and one pair per cut edge. It
//! builds no second adjacency — no translated or oriented copy — and
//! this test pins that in *bytes*: `bench_e2e`'s `lj_kernels` session
//! peaks inside this kernel against a 5% bound, and a 4-byte-per-neighbour
//! slot copy of the input must fail here, in tier 1, not there.
//!
//! Kept in its own test binary so nothing else moves the process-global
//! allocation counters mid-measurement.

use ringo::algo::k_core;
use ringo::gen::{edges_to_table, rmat, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn k_core_holds_only_per_node_scratch_beside_its_result() {
    let edges = rmat(&RmatConfig {
        scale: 14,
        edges: 200_000,
        seed: 5,
        ..Default::default()
    });
    let g = ringo::convert::table_to_undirected(&edges_to_table(&edges), "src", "dst").unwrap();
    drop(edges);
    assert!(g.edge_count() > 150_000);
    let stored: usize = (0..g.n_slots()).map(|s| g.out_row(s).len()).sum();

    // The first call registers the kernel's counters, which the process
    // keeps.
    drop(k_core(&g, 3));

    let live = current_bytes();
    reset_peak();
    let core = k_core(&g, 3);
    let transient = peak_bytes() - live - core.mem_size();
    assert!(core.node_count() > 1_000 && core.node_count() < g.node_count());

    // Measured: 35 B per input node — 4 B each for the degree and the cut
    // cursor of every slot, 24 B for the slot, id and offset of every kept
    // node (69% of them here), the rest the removed list, the cut pairs
    // and the placed cut ids. The allowance is under twice that, well
    // below the 1.34 MB a `u32` copy of the 335k stored neighbours costs.
    let allowance = 64 * g.node_count();
    assert!(
        transient <= allowance,
        "k_core peaked {transient} B above its result ({} B per node, {allowance} B allowed) \
         on a graph of {} B",
        transient / g.node_count(),
        g.mem_size()
    );
    // And it is what a slot copy of the adjacency would break.
    assert!(
        allowance < 4 * stored,
        "the allowance ({allowance} B) must stay below a u32 copy of {stored} neighbours"
    );
}
