//! Plan smoke: lazy queries shaped so CI can pin the late-materialization
//! contract in trace output.
//!
//! Run with `RINGO_TRACE_JSON=out.json \
//! cargo run --release --example plan_smoke`. The first three
//! `collect()`s each end in a pending selection/projection, so the
//! dumped trace must contain `plan.*` spans and a `table.gather`
//! histogram with count == 3 — a regression that sneaks a second gather
//! into the executor (or stops gathering lazily at all) fails CI — and
//! the third's sort must decode its sort columns off its sorted words
//! (counter `table.order.decoded`). The
//! fourth collect ends in a group-by, whose output is already owned
//! (gathers=0); under `RINGO_THREADS>1` it also pins the `plan.morsel.*`
//! dispatch spans. `explain` reads no rows and gathers nothing.

use ringo::trace::mem::TrackingAllocator;
use ringo::{Cmp, Predicate, Ringo, Table};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();

    const N: i64 = 1_000_000;
    let mut t = Table::from_int_column("id", (0..N).collect());
    t.add_int_column("bucket", (0..N).map(|v| v % 97).collect())?;
    t.add_float_column("w", (0..N).map(|v| v as f64 * 0.5).collect())?;
    t.set_threads(ringo.threads());
    let dim = {
        let mut d = Table::from_int_column("k", (0..97).collect());
        d.add_float_column("boost", (0..97).map(|v| v as f64).collect())?;
        d
    };
    let p1 = Predicate::int("id", Cmp::Lt, N / 2);
    let p2 = Predicate::int("bucket", Cmp::Eq, 13);

    // Collect 1: select chain + projection — one gather.
    let q = ringo
        .query(&t)
        .select(&p1)
        .select(&p2)
        .project(&["id", "w"]);
    println!("--- chain ---\n{}", q.explain()?);
    let out = q.collect()?;
    println!("select.select.project: {} rows", out.n_rows());

    // Collect 2: join followed by a pending select. The join returns a
    // view (its left and right positions) and the select composes with
    // it: one gather, at collect, of the rows the select kept.
    let out = ringo
        .query(&t)
        .select(&p1)
        .join(&dim, "bucket", "k")
        .select(&Predicate::float("boost", Cmp::Lt, 50.0))
        .collect()?;
    println!("select.join.select: {} rows", out.n_rows());

    // Collect 3: order + project. The select leaves `bucket` constant and
    // `id` under 2^20, so each row packs into a `u64` word beside its
    // position, and the sort hands back both columns decoded off the
    // sorted words, whole; the row ids are still read through the
    // permutation, so the collect gathers once. (A sort by `w` alone
    // would not decode: its float keys vary in 57 bits, which with the
    // 14 bits of a position need a `u128` word.)
    let out = ringo
        .query(&t)
        .select(&p2)
        .order_by(&["bucket", "id"], false)
        .project(&["id"])
        .collect()?;
    println!("select.order.project: {} rows", out.n_rows());

    // Collect 4: select + group-by aggregate. The group-by emits an owned
    // table, so nothing is left pending and no gather runs; with more than
    // one thread the select and group both dispatch as morsels.
    let out = ringo
        .query(&t)
        .select(&p1)
        .group_by(&["bucket"], Some("w"), ringo::AggOp::Sum, "w_sum")
        .collect()?;
    println!("select.group: {} rows", out.n_rows());

    // The pending-tail collects must have materialized exactly once; the
    // group-by collect owns its output and must not gather at all.
    for rec in ringo.op_log().iter().filter(|r| r.name == "query") {
        let want = if rec.params.contains("group[") {
            "gathers=0"
        } else {
            "gathers=1"
        };
        assert!(
            rec.params.ends_with(want),
            "collect expected {want}: {}",
            rec.params
        );
        println!("query: {}", rec.params);
    }
    Ok(())
}
