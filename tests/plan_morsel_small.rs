//! Morsel-merge coverage with tiny morsels.
//!
//! The default morsel is 64Ki rows, so the randomized pipeline tables in
//! `tests/plan.rs` (a few thousand rows) run as a single morsel and never
//! exercise the partial-merge paths. This binary runs in its own process
//! and pins `RINGO_MORSEL_ROWS=512` *before* any kernel reads the cached
//! knob, forcing every pipeline here through many-morsel dispatch — then
//! asserts the lazy result is bit-identical across threads {1, 2, 4, 8}
//! and equal to the eager chain.
//!
//! Kept to a single `#[test]` so the env var is set once, race-free,
//! before the morsel size is first read.

use ringo::{AggOp, Cmp, Predicate, Ringo, Table, Value};

fn build(threads: usize) -> Table {
    const N: i64 = 20_000; // ~40 morsels at 512 rows each
    let mut t = Table::from_int_column("id", (0..N).collect());
    t.add_int_column("bucket", (0..N).map(|v| (v * 7919) % 97).collect())
        .unwrap();
    t.add_float_column(
        "w",
        (0..N).map(|v| 1e9 + (v % 1013) as f64 * 0.125).collect(),
    )
    .unwrap();
    t.set_threads(threads);
    t
}

fn assert_bitwise_equal(a: &Table, b: &Table, ctx: &str) {
    assert_eq!(a.n_rows(), b.n_rows(), "{ctx}: rows");
    assert_eq!(a.row_ids(), b.row_ids(), "{ctx}: row ids");
    for (name, _) in b.schema().iter() {
        for row in 0..b.n_rows() {
            let (x, y) = (a.get(row, name).unwrap(), b.get(row, name).unwrap());
            let same = match (&x, &y) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => x == y,
            };
            assert!(same, "{ctx}: [{row}][{name}]: {x:?} != {y:?}");
        }
    }
}

#[test]
fn pipelines_bitwise_stable_with_tiny_morsels() {
    std::env::set_var("RINGO_MORSEL_ROWS", "512");
    let dim = {
        let mut d = Table::from_int_column("k", (0..97).collect());
        d.add_float_column("boost", (0..97).map(|v| v as f64).collect())
            .unwrap();
        d
    };
    let run = |threads: usize| -> Vec<Table> {
        let ringo = Ringo::with_threads(threads);
        let t = build(threads);
        let p1 = Predicate::int("id", Cmp::Lt, 15_000);
        let p2 = Predicate::int("bucket", Cmp::Ge, 20);
        vec![
            // Select chain + projection: many select morsels.
            ringo
                .query(&t)
                .select(&p1)
                .select(&p2)
                .project(&["id", "w"])
                .collect()
                .unwrap(),
            // Partitioned build + morsel probe, then a pending select.
            ringo
                .query(&t)
                .select(&p1)
                .join(&dim, "bucket", "k")
                .select(&Predicate::float("boost", Cmp::Lt, 60.0))
                .collect()
                .unwrap(),
            // Parallel group-by partial merge over every aggregate.
            ringo
                .query(&t)
                .select(&p2)
                .group_by(&["bucket"], Some("w"), AggOp::Var, "v")
                .collect()
                .unwrap(),
            ringo
                .query(&t)
                .group_by(&["bucket"], Some("id"), AggOp::Sum, "s")
                .collect()
                .unwrap(),
            ringo
                .query(&t)
                .group_by(&["bucket"], Some("w"), AggOp::Mean, "m")
                .collect()
                .unwrap(),
        ]
    };
    let baseline = run(1);

    // Eager spot-check at threads=1 (shared kernels, but through the
    // materializing verbs).
    let t = build(1);
    let eager = t
        .select(&Predicate::int("bucket", Cmp::Ge, 20))
        .unwrap()
        .group_by(&["bucket"], Some("w"), AggOp::Var, "v")
        .unwrap();
    assert_bitwise_equal(&baseline[2], &eager, "lazy vs eager var");

    for threads in [2usize, 4, 8] {
        for (i, (out, base)) in run(threads).iter().zip(&baseline).enumerate() {
            assert_bitwise_equal(out, base, &format!("pipeline {i} threads={threads} vs 1"));
        }
    }
}
