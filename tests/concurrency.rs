//! The concurrency substrate under real threads (table growth, a
//! panicking worker), and determinism checks: every parallel operator
//! must produce bit-identical results regardless of worker count.

use ringo::concurrent::{parallel_for, IntHashTable};
use ringo::{Cmp, PageRankConfig, Predicate, Ringo};

#[test]
fn open_addressing_table_survives_grow_under_load_factor_pressure() {
    // Insert far beyond the initial capacity, forcing repeated growth.
    let mut t: IntHashTable<u64> = IntHashTable::with_capacity(4);
    let n = 100_000i64;
    for k in 0..n {
        t.insert(k * 7 - 350_000, k as u64);
    }
    assert_eq!(t.len(), n as usize);
    for k in (0..n).step_by(709) {
        assert_eq!(t.get(k * 7 - 350_000), Some(&(k as u64)));
    }
    // Delete half, confirm the rest.
    for k in (0..n).step_by(2) {
        assert!(t.remove(k * 7 - 350_000).is_some());
    }
    assert_eq!(t.len(), n as usize / 2);
    for k in (1..n).step_by(2) {
        assert!(t.contains(k * 7 - 350_000));
    }
}

#[test]
fn table_operators_are_thread_count_invariant() {
    let base = Ringo::with_threads(1).generate_lj_like(0.02, 99);
    let pred = Predicate::int("dst", Cmp::Lt, 5_000);
    let reference_select = base.select(&pred).unwrap();
    let partner = ringo::Table::from_int_column("key", (0..2_000).collect());
    let reference_join = base.join(&partner, "src", "key").unwrap();
    for threads in [2usize, 4, 8] {
        let mut t = base.clone();
        t.set_threads(threads);
        let s = t.select(&pred).unwrap();
        assert_eq!(s.row_ids(), reference_select.row_ids());
        assert_eq!(
            s.int_col("src").unwrap(),
            reference_select.int_col("src").unwrap()
        );
        let j = t.join(&partner, "src", "key").unwrap();
        assert_eq!(j.n_rows(), reference_join.n_rows());
        // Join output order depends on probe chunking only through
        // concatenation order, which is chunk-ordered: same result.
        assert_eq!(
            j.int_col("src").unwrap(),
            reference_join.int_col("src").unwrap()
        );
    }
}

#[test]
fn conversions_and_kernels_are_thread_count_invariant() {
    let ringo1 = Ringo::with_threads(1);
    let table = ringo1.generate_lj_like(0.01, 7);
    let g1 = ringo1.to_graph(&table, "src", "dst").unwrap();
    let pr1 = ringo1.pagerank_with(
        &g1,
        &PageRankConfig {
            threads: 1,
            ..Default::default()
        },
    );
    for threads in [2usize, 6] {
        let ringo_n = Ringo::with_threads(threads);
        let gn = ringo_n.to_graph(&table, "src", "dst").unwrap();
        assert_eq!(gn.edge_count(), g1.edge_count());
        for id in g1.node_ids().take(500) {
            assert_eq!(gn.out_nbrs(id), g1.out_nbrs(id));
        }
        let prn = ringo_n.pagerank_with(
            &gn,
            &PageRankConfig {
                threads,
                ..Default::default()
            },
        );
        for ((ia, sa), (ib, sb)) in pr1.iter().zip(&prn) {
            assert_eq!(ia, ib);
            assert!((sa - sb).abs() < 1e-12, "bit-stable across threads");
        }
    }
}

#[test]
fn worker_panic_propagates_not_deadlocks() {
    // A panicking worker must abort the whole parallel_for with a panic,
    // not hang the scope.
    let result = std::panic::catch_unwind(|| {
        parallel_for(1000, 4, |_, range| {
            for i in range {
                assert!(i != 500, "injected failure");
            }
        });
    });
    assert!(result.is_err(), "panic must propagate to the caller");
}
