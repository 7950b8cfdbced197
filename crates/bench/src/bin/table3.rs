//! Regenerates **Table 3**: parallel PageRank (10 iterations) and
//! parallel triangle counting on the two benchmark graphs.
//!
//! Paper (80 hyperthreads): LJ 2.76s / 6.13s; TW 60.5s / 263.6s. The
//! reproduction targets the shape: triangle counting costs a small
//! multiple of 10 PageRank iterations, and both scale roughly linearly
//! in edges between the two graphs.

use ringo_bench::{fmt_secs, lj_data, print_header, time_avg, tw_data};
use ringo_core::algo::{count_triangles, pagerank, PageRankConfig};
use ringo_core::Ringo;

fn main() {
    print_header("Table 3: parallel graph algorithms");
    let ringo = Ringo::new();
    let runs = 3;

    println!(
        "{:<18} {:>18} {:>18}",
        "Operation", "LiveJournal-like", "Twitter-like"
    );
    let datasets = [lj_data(&ringo), tw_data(&ringo)];

    let cfg = PageRankConfig {
        threads: ringo.threads(),
        ..PageRankConfig::default()
    };
    let pr_times: Vec<_> = datasets
        .iter()
        .map(|d| {
            time_avg(runs, || {
                std::hint::black_box(pagerank(&d.graph, &cfg));
            })
        })
        .collect();
    println!(
        "{:<18} {:>18} {:>18}",
        "PageRank (10 it)",
        fmt_secs(pr_times[0]),
        fmt_secs(pr_times[1])
    );

    let tri_times: Vec<_> = datasets
        .iter()
        .map(|d| {
            time_avg(runs, || {
                std::hint::black_box(count_triangles(&d.undirected, ringo.threads()));
            })
        })
        .collect();
    println!(
        "{:<18} {:>18} {:>18}",
        "Triangle Counting",
        fmt_secs(tri_times[0]),
        fmt_secs(tri_times[1])
    );

    println!(
        "\nshape check: triangles/PageRank ratio LJ {:.1}x (paper 2.2x), TW {:.1}x (paper 4.4x)",
        tri_times[0].as_secs_f64() / pr_times[0].as_secs_f64(),
        tri_times[1].as_secs_f64() / pr_times[1].as_secs_f64()
    );
    println!(
        "edge ratio TW/LJ: {:.1}x; PageRank time ratio {:.1}x (paper 21.9x at 21.7x edges)",
        datasets[1].graph.edge_count() as f64 / datasets[0].graph.edge_count() as f64,
        pr_times[1].as_secs_f64() / pr_times[0].as_secs_f64()
    );
}
