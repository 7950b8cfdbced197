//! Regenerates **Table 6**: sequential implementations of commonly used
//! graph algorithms on the LiveJournal-like graph — 3-core, single-source
//! shortest paths (averaged over 10 random sources), and strongly
//! connected components.
//!
//! Paper: 3-core 31.0s, SSSP 7.4s, SCC 18.0s — all interactive-scale.

use ringo_bench::{fmt_secs, lj_data, print_header};
use ringo_core::algo::{k_core, sssp_unweighted, strongly_connected_components, Direction};
use ringo_core::Ringo;
use std::time::Instant;

fn main() {
    print_header("Table 6: sequential graph algorithms (LiveJournal-like)");
    // Sequential per the paper: all kernels single-threaded.
    let ringo = Ringo::with_threads(1);
    let d = lj_data(&ringo);
    println!(
        "graph: {} nodes, {} edges\n",
        d.graph.node_count(),
        d.graph.edge_count()
    );
    println!("{:<10} {:>10}", "Algorithm", "Runtime");

    let start = Instant::now();
    let core = k_core(&d.undirected, 3);
    let t_core = start.elapsed();
    println!("{:<10} {:>10}", "3-core", fmt_secs(t_core));

    // SSSP averaged over 10 deterministic pseudo-random sources.
    let ids: Vec<i64> = d.graph.node_ids().collect();
    let mut state = 0x1234_5678_9abc_def0u64;
    let sources: Vec<i64> = (0..10)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ids[(state % ids.len() as u64) as usize]
        })
        .collect();
    let start = Instant::now();
    for &s in &sources {
        std::hint::black_box(sssp_unweighted(&d.graph, s, Direction::Out));
    }
    let t_sssp = start.elapsed() / sources.len() as u32;
    println!("{:<10} {:>10}", "SSSP", fmt_secs(t_sssp));

    let start = Instant::now();
    let scc = strongly_connected_components(&d.graph);
    let t_scc = start.elapsed();
    println!("{:<10} {:>10}", "SCC", fmt_secs(t_scc));

    println!(
        "\n3-core kept {} nodes / {} edges; SCC found {} components (largest {}).",
        core.node_count(),
        core.edge_count(),
        scc.n_components(),
        scc.largest()
    );
    // The paper's order is 3-core > SCC > SSSP. Since PR 18 the 3-core
    // reads only the lists of the nodes that fall and lands beside SCC,
    // so the measured order is printed, not assumed.
    let mut order = [("3-core", t_core), ("SCC", t_scc), ("SSSP", t_sssp)];
    order.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    let measured: Vec<String> = order
        .iter()
        .map(|(name, t)| format!("{name} {:.3}s", t.as_secs_f64()))
        .collect();
    println!(
        "shape check: paper 3-core > SCC > SSSP; measured {}",
        measured.join(" > ")
    );
}
