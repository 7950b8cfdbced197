//! Profile smoke: drives the flight recorder end-to-end so CI can pin
//! the profiling contract.
//!
//! Run with `RINGO_THREADS=4 RINGO_TRACE_JSON=profile_smoke.json \
//! cargo run --release --example profile_smoke`. The queries below scan
//! a 1M-row table through select/join/group plans, so the dump's
//! `events` must contain `plan.*` operator spans and `plan.morsel.*`
//! spans attributed to more than one thread id, some of them nested
//! under their operator's span on the dispatching thread, with no
//! event lost. The process also prints the first query's
//! `explain_analyze` tree (per-operator rows, time, share, morsels and
//! worker busy split) so a human can eyeball the same run.

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

    // Collect 1: select + project over the full table — morsel-parallel
    // filter with a single gather.
    let q = ringo
        .query(&t)
        .select(&Predicate::int("id", Cmp::Lt, N / 2))
        .project(&["id", "w"]);
    print!("{}", q.explain_analyze()?);
    let out = q.collect()?;
    println!("select.project: {} rows", out.n_rows());

    // Collect 2: join + group — exercises the build/probe and aggregate
    // morsel paths.
    let out = ringo
        .query(&t)
        .join(&dim, "bucket", "k")
        .group_by(&["bucket"], Some("boost"), ringo::AggOp::Sum, "b_sum")
        .collect()?;
    println!("join.group: {} rows", out.n_rows());

    // Collect 3: select + order + project — the sort path behind a
    // morsel-parallel filter.
    let out = ringo
        .query(&t)
        .select(&Predicate::int("bucket", Cmp::Eq, 13))
        .order_by(&["w"], false)
        .project(&["id"])
        .collect()?;
    println!("select.order.project: {} rows", out.n_rows());

    println!(
        "flight recorder: {} events recorded, {} dropped, {} threads",
        ringo::trace::events::total_recorded(),
        ringo::trace::events::total_dropped(),
        ringo::trace::timelines_snapshot().len()
    );
    Ok(())
}
