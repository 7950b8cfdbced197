//! Shared workload builders and timing helpers for the paper-table
//! benchmark binaries (`table1` ... `table6`, `footprint`, `all_tables`).
//! Performance is recorded by `bench_e2e` + `BENCHMARK.json`, not here.
//!
//! Scales default to laptop-class sizes and grow via environment
//! variables, mirroring how the paper's 80-core numbers relate to its
//! laptop demo:
//!
//! * `RINGO_LJ_SCALE` — LiveJournal-like edge multiplier (default 0.25 ≈
//!   260k edges; the real snapshot is 69M ≈ scale 66),
//! * `RINGO_TW_SCALE` — Twitter-like multiplier (default 0.125 ≈ 1M
//!   edges; the real graph is 1.5B ≈ scale 180),
//! * `RINGO_THREADS` — worker threads (default: all cores).

#![warn(missing_docs)]

use ringo_core::{DirectedGraph, Ringo, Table, UndirectedGraph};
use std::time::{Duration, Instant};

/// One benchmark dataset: the edge table plus both graph views.
pub struct BenchData {
    /// Display name ("LiveJournal-like", "Twitter2010-like").
    pub name: &'static str,
    /// The two-column edge table.
    pub table: Table,
    /// Directed graph built from the table.
    pub graph: DirectedGraph,
    /// Undirected view (for triangle counting and cores).
    pub undirected: UndirectedGraph,
}

fn env_scale(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// LiveJournal-like workload at the configured scale.
pub fn lj_data(ringo: &Ringo) -> BenchData {
    let table = ringo.generate_lj_like(env_scale("RINGO_LJ_SCALE", 0.25), 42);
    let graph = ringo.to_graph(&table, "src", "dst").expect("int columns");
    let undirected = ringo
        .to_undirected_graph(&table, "src", "dst")
        .expect("int columns");
    BenchData {
        name: "LiveJournal-like",
        table,
        graph,
        undirected,
    }
}

/// Twitter2010-like workload at the configured scale.
pub fn tw_data(ringo: &Ringo) -> BenchData {
    let table = ringo.generate_tw_like(env_scale("RINGO_TW_SCALE", 0.125), 43);
    let graph = ringo.to_graph(&table, "src", "dst").expect("int columns");
    let undirected = ringo
        .to_undirected_graph(&table, "src", "dst")
        .expect("int columns");
    BenchData {
        name: "Twitter2010-like",
        table,
        graph,
        undirected,
    }
}

/// Times `f` over `runs` executions and returns the mean duration (the
/// paper: "We ran each experiment 5 times, and report the average").
pub fn time_avg<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed() / runs as u32
}

/// Formats a throughput as the paper's "Rows/s" / "Edges/s" lines
/// (millions of items per second).
pub fn fmt_rate(items: usize, dur: Duration) -> String {
    let per_sec = items as f64 / dur.as_secs_f64();
    format!("{:.1}M", per_sec / 1.0e6)
}

/// Formats a duration the way the paper prints cell values (seconds).
pub fn fmt_secs(dur: Duration) -> String {
    format!("{:.2}s", dur.as_secs_f64())
}

/// Number of bytes the table would occupy as a TSV text file, computed
/// through a counting writer (Table 2's "Text File Size" without touching
/// disk).
pub fn tsv_byte_size(table: &Table) -> usize {
    struct Counter(usize);
    impl std::io::Write for Counter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Render rows exactly like save_tsv (sans header) into the counter.
    use std::io::Write;
    let mut c = Counter(0);
    for row in 0..table.n_rows() {
        for i in 0..table.n_cols() {
            if i > 0 {
                c.write_all(b"\t").unwrap();
            }
            match table.column(i) {
                ringo_core::table::ColumnData::Int(v) => write!(c, "{}", v[row]).unwrap(),
                ringo_core::table::ColumnData::Float(v) => write!(c, "{}", v[row]).unwrap(),
                ringo_core::table::ColumnData::Str(v) => {
                    c.write_all(table.str_value(v[row]).as_bytes()).unwrap()
                }
            }
        }
        c.write_all(b"\n").unwrap();
    }
    c.0
}

/// Prints the standard benchmark header (hardware + scale context).
pub fn print_header(what: &str) {
    let threads = ringo_core::concurrent::num_threads();
    println!("=== {what} ===");
    println!(
        "host: {} hardware threads available, using {} workers \
         (paper: 80 hyperthreads, 1TB RAM)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads
    );
    println!(
        "scales: RINGO_LJ_SCALE={} RINGO_TW_SCALE={} (1.0 ~ 1M / 8M edges)\n",
        env_scale("RINGO_LJ_SCALE", 0.25),
        env_scale("RINGO_TW_SCALE", 0.125)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_byte_size_matches_save_tsv_body() {
        let ringo = Ringo::with_threads(1);
        let t = ringo.generate_lj_like(0.001, 1);
        let counted = tsv_byte_size(&t);
        let path = std::env::temp_dir().join(format!("ringo_bench_{}.tsv", std::process::id()));
        ringo.save_table_tsv(&t, &path).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
        std::fs::remove_file(&path).ok();
        // save_tsv adds one header line.
        assert!(on_disk > counted);
        assert!(on_disk - counted < 64, "only the header differs");
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(10_000_000, Duration::from_secs(1)), "10.0M");
        assert_eq!(fmt_secs(Duration::from_millis(2760)), "2.76s");
    }

    #[test]
    fn workloads_build() {
        std::env::set_var("RINGO_LJ_SCALE", "0.002");
        let ringo = Ringo::with_threads(2);
        let d = lj_data(&ringo);
        assert!(d.graph.edge_count() > 500);
        assert!(d.undirected.node_count() == d.graph.node_count());
        std::env::remove_var("RINGO_LJ_SCALE");
    }
}
