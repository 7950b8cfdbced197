//! Lazy-query correctness: the late-materializing chain executor is
//! observationally identical to the eager verb chain — same schema, same
//! rows in the same order, same row ids, bit-identical floats, same
//! errors — for random multi-step pipelines, and `collect()` runs exactly
//! one gather pass (visible in the op-log record's `gathers=` field).

use ringo::gen::edges_to_table;
use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Table, Value};
use ringo_rng::Rng64;

const CASES: u64 = 48;

fn for_cases(name: &str, body: impl Fn(&mut Rng64)) {
    for case in 0..CASES {
        let seed = name
            .bytes()
            .fold(case.wrapping_mul(0x9E37_79B9_7F4A_7C15), |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
            });
        body(&mut Rng64::new(seed));
    }
}

/// An R-MAT-derived base table: skewed int edge endpoints plus a float
/// weight and a low-cardinality string tag.
fn rmat_table(rng: &mut Rng64, threads: usize) -> Table {
    let scale = 0.0005 + rng.f64() * 0.002;
    let edges = ringo::gen::lj_like(scale, rng.u64());
    let mut t = edges_to_table(&edges);
    let n = t.n_rows();
    t.add_float_column(
        "w",
        (0..n).map(|i| ((i * 37) % 101) as f64 * 0.25).collect(),
    )
    .unwrap();
    let tags = ["red", "green", "blue"];
    let tag_vals: Vec<&str> = (0..n).map(|i| tags[i % tags.len()]).collect();
    t.add_str_column("tag", &tag_vals).unwrap();
    t.set_threads(threads);
    t
}

/// A small int-keyed dimension table to join against.
fn dim_table(rng: &mut Rng64, threads: usize) -> Table {
    let n = 16 + rng.below(64) as i64;
    let mut t = Table::from_int_column("k", (0..n).collect());
    t.add_float_column("boost", (0..n).map(|v| v as f64 * 1.5).collect())
        .unwrap();
    t.set_threads(threads);
    t
}

fn random_predicate(rng: &mut Rng64, schema: &ringo::Schema) -> Predicate {
    let ci = rng.below(schema.len());
    let (name, ty) = (schema.name(ci).to_string(), schema.column_type(ci));
    let cmp = [Cmp::Lt, Cmp::Le, Cmp::Eq, Cmp::Ne, Cmp::Ge, Cmp::Gt][rng.below(6)];
    match ty {
        ColumnType::Int => Predicate::int(&name, cmp, rng.range_i64(0..400)),
        ColumnType::Float => Predicate::float(&name, cmp, rng.f64() * 25.0),
        ColumnType::Str => Predicate::Str {
            column: name,
            cmp: if rng.bool() { Cmp::Eq } else { Cmp::Ne },
            value: ["red", "green", "blue", "absent"][rng.below(4)].to_string(),
        },
    }
}

fn assert_tables_identical(lazy: &Table, eager: &Table, ctx: &str) {
    assert_eq!(lazy.n_rows(), eager.n_rows(), "{ctx}: row count");
    assert_eq!(lazy.n_cols(), eager.n_cols(), "{ctx}: col count");
    let lnames: Vec<&str> = lazy.schema().iter().map(|(n, _)| n).collect();
    let enames: Vec<&str> = eager.schema().iter().map(|(n, _)| n).collect();
    assert_eq!(lnames, enames, "{ctx}: column names");
    assert_eq!(lazy.row_ids(), eager.row_ids(), "{ctx}: row ids");
    for (name, _) in eager.schema().iter() {
        for row in 0..eager.n_rows() {
            let a = lazy.get(row, name).unwrap();
            let b = eager.get(row, name).unwrap();
            let same = match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            };
            assert!(same, "{ctx}: cell [{row}][{name}]: {a:?} != {b:?}");
        }
    }
}

/// Random 2–5 step pipelines: lazy `collect()` equals the eager verb
/// chain step for step, at 1, 2 and 4 threads. Eager `order_by` is the
/// lazy order step, so this cannot check an order; `table_views.rs`'
/// `plan_shaped_pipelines_order_like_the_model` checks these shapes'
/// orders against a row model.
#[test]
fn random_pipelines_lazy_equals_eager() {
    for_cases("random_pipelines_lazy_equals_eager", |rng| {
        let threads = [1usize, 2, 4][rng.below(3)];
        let ringo = Ringo::with_threads(threads);
        let base = rmat_table(rng, threads);
        let dim = dim_table(rng, threads);
        let steps = 2 + rng.below(4);
        let mut q = ringo.query(&base);
        let mut eager = base.clone();
        let mut joined = false;
        let mut desc = String::new();
        for _ in 0..steps {
            let schema = eager.schema().clone();
            match rng.below(5) {
                0 => {
                    let p = random_predicate(rng, &schema);
                    desc.push_str(" select");
                    q = q.select(&p);
                    eager = eager.select(&p).unwrap();
                }
                1 => {
                    // Random non-empty subset of columns, in random order.
                    let mut cols: Vec<String> = schema.iter().map(|(n, _)| n.to_string()).collect();
                    rng.shuffle(&mut cols);
                    cols.truncate(1 + rng.below(cols.len()));
                    let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                    desc.push_str(" project");
                    q = q.project(&refs);
                    eager = eager.project(&refs).unwrap();
                }
                2 => {
                    let ci = rng.below(schema.len());
                    let col = schema.name(ci).to_string();
                    let asc = rng.bool();
                    desc.push_str(" order");
                    q = q.order_by(&[&col], asc);
                    eager.order_by(&[&col], asc).unwrap();
                }
                3 if !joined => {
                    // Join on the first visible int column, if any.
                    let Some(col) = schema
                        .iter()
                        .find(|(_, ty)| *ty == ColumnType::Int)
                        .map(|(n, _)| n.to_string())
                    else {
                        continue;
                    };
                    joined = true;
                    desc.push_str(" join");
                    q = q.join(&dim, &col, "k");
                    eager = eager.join(&dim, &col, "k").unwrap();
                }
                _ => {
                    let keys: Vec<String> = schema
                        .iter()
                        .filter(|(_, ty)| *ty != ColumnType::Float)
                        .map(|(n, _)| n.to_string())
                        .take(1 + rng.below(2))
                        .collect();
                    if keys.is_empty() {
                        continue;
                    }
                    let krefs: Vec<&str> = keys.iter().map(String::as_str).collect();
                    let agg = schema
                        .iter()
                        .find(|(_, ty)| *ty == ColumnType::Float)
                        .map(|(n, _)| n.to_string());
                    let (agg_col, op) = match &agg {
                        Some(a) if rng.bool() => (
                            Some(a.as_str()),
                            [
                                AggOp::Sum,
                                AggOp::Min,
                                AggOp::Max,
                                AggOp::Mean,
                                AggOp::Var,
                                AggOp::Std,
                            ][rng.below(6)],
                        ),
                        _ => (None, AggOp::Count),
                    };
                    desc.push_str(" group");
                    q = q.group_by(&krefs, agg_col, op, "agg_out");
                    eager = eager.group_by(&krefs, agg_col, op, "agg_out").unwrap();
                }
            }
        }
        let lazy = q.collect().unwrap();
        assert_tables_identical(&lazy, &eager, &format!("threads={threads} steps:{desc}"));
        assert_eq!(lazy.threads(), threads);
    });
}

/// Random 2–5 step pipelines are **bit-for-bit identical** across thread
/// counts: the morsel partition depends only on row counts and partial
/// results merge in fixed morsel order, so threads {2, 4, 8} must
/// reproduce the threads=1 output exactly — schema, row order, row ids
/// and float bits included.
#[test]
fn random_pipelines_bitwise_identical_across_threads() {
    for_cases("random_pipelines_bitwise_identical_across_threads", |rng| {
        let seed = rng.u64();
        let run_at = |threads: usize| -> Table {
            // A fresh rng from the shared seed: every thread count sees
            // the identical random pipeline over identical tables.
            let mut rng = Rng64::new(seed);
            let ringo = Ringo::with_threads(threads);
            let base = rmat_table(&mut rng, threads);
            let dim = dim_table(&mut rng, threads);
            let steps = 2 + rng.below(4);
            let mut q = ringo.query(&base);
            let mut joined = false;
            for _ in 0..steps {
                let schema = q.schema().unwrap();
                match rng.below(5) {
                    0 => q = q.select(&random_predicate(&mut rng, &schema)),
                    1 => {
                        let mut cols: Vec<String> =
                            schema.iter().map(|(n, _)| n.to_string()).collect();
                        rng.shuffle(&mut cols);
                        cols.truncate(1 + rng.below(cols.len()));
                        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                        q = q.project(&refs);
                    }
                    2 => {
                        let col = schema.name(rng.below(schema.len())).to_string();
                        q = q.order_by(&[&col], rng.bool());
                    }
                    3 if !joined => {
                        let Some(col) = schema
                            .iter()
                            .find(|(_, ty)| *ty == ColumnType::Int)
                            .map(|(n, _)| n.to_string())
                        else {
                            continue;
                        };
                        joined = true;
                        q = q.join(&dim, &col, "k");
                    }
                    _ => {
                        let keys: Vec<String> = schema
                            .iter()
                            .filter(|(_, ty)| *ty != ColumnType::Float)
                            .map(|(n, _)| n.to_string())
                            .take(1 + rng.below(2))
                            .collect();
                        if keys.is_empty() {
                            continue;
                        }
                        let krefs: Vec<&str> = keys.iter().map(String::as_str).collect();
                        let agg = schema
                            .iter()
                            .find(|(_, ty)| *ty == ColumnType::Float)
                            .map(|(n, _)| n.to_string());
                        let (agg_col, op) = match &agg {
                            Some(a) if rng.bool() => (
                                Some(a.as_str()),
                                [
                                    AggOp::Sum,
                                    AggOp::Min,
                                    AggOp::Max,
                                    AggOp::Mean,
                                    AggOp::Var,
                                    AggOp::Std,
                                ][rng.below(6)],
                            ),
                            _ => (None, AggOp::Count),
                        };
                        q = q.group_by(&krefs, agg_col, op, "agg_out");
                    }
                }
            }
            q.collect().unwrap()
        };
        let baseline = run_at(1);
        for threads in [2usize, 4, 8] {
            let out = run_at(threads);
            assert_tables_identical(&out, &baseline, &format!("threads={threads} vs 1"));
        }
    });
}

/// Seeded property test: the morsel-partitioned group-by (partial maps
/// merged at the barrier) agrees with a sequential `HashMap` reference —
/// exactly for count and integer aggregates, and to tight relative
/// tolerance for float Mean/Var/Std computed from large-mean data that
/// the pre-Welford kernel got catastrophically wrong. Tables are large
/// enough (> 2 morsels) that the merge path genuinely runs, and the
/// threads=8 result must be bit-identical to threads=1.
#[test]
fn parallel_group_by_matches_sequential_reference() {
    use std::collections::HashMap;
    for case in 0..6u64 {
        let mut rng = Rng64::new(0x5EED_0000 + case);
        let n = 150_000 + rng.below(100_000);
        // Enough keys that per-group i64 sums of ~2^53 values stay far
        // from i64::MAX (the reference must not overflow).
        let n_keys = 2048 + rng.below(2048);
        let keys: Vec<i64> = (0..n).map(|_| rng.below(n_keys) as i64).collect();
        // Int values straddling 2^53 so an f64 accumulator would round.
        let ints: Vec<i64> = (0..n)
            .map(|_| (1i64 << 53) + 1 + rng.range_i64(0..1024))
            .collect();
        // Large mean, small spread: the Welford stress regime.
        let floats: Vec<f64> = (0..n).map(|_| 1e9 + rng.f64()).collect();
        let mut t = Table::from_int_column("k", keys.clone());
        t.add_int_column("i", ints.clone()).unwrap();
        t.add_float_column("f", floats.clone()).unwrap();
        t.set_threads(8);

        // Sequential reference: per-key value lists in first-appearance
        // key order.
        let mut order: Vec<i64> = Vec::new();
        let mut by_key: HashMap<i64, (Vec<i64>, Vec<f64>)> = HashMap::new();
        for r in 0..n {
            by_key
                .entry(keys[r])
                .or_insert_with(|| {
                    order.push(keys[r]);
                    (Vec::new(), Vec::new())
                })
                .0
                .push(ints[r]);
            by_key.get_mut(&keys[r]).unwrap().1.push(floats[r]);
        }

        let mut t1 = t.clone();
        t1.set_threads(1);
        for (op, col) in [
            (AggOp::Count, None),
            (AggOp::Sum, Some("i")),
            (AggOp::Min, Some("i")),
            (AggOp::Max, Some("i")),
            (AggOp::Mean, Some("f")),
            (AggOp::Var, Some("f")),
            (AggOp::Std, Some("f")),
        ] {
            let g = t.group_by(&["k"], col, op, "out").unwrap();
            let g1 = t1.group_by(&["k"], col, op, "out").unwrap();
            assert_eq!(g.n_rows(), order.len(), "case {case} {op:?}: group count");
            for (row, key) in order.iter().enumerate() {
                let (gi, gf) = &by_key[key];
                match op {
                    AggOp::Count => {
                        assert_eq!(g.int_col("out").unwrap()[row], gi.len() as i64);
                    }
                    AggOp::Sum => {
                        let want: i64 = gi.iter().sum();
                        assert_eq!(g.int_col("out").unwrap()[row], want, "case {case} sum");
                    }
                    AggOp::Min => {
                        assert_eq!(g.int_col("out").unwrap()[row], *gi.iter().min().unwrap());
                    }
                    AggOp::Max => {
                        assert_eq!(g.int_col("out").unwrap()[row], *gi.iter().max().unwrap());
                    }
                    AggOp::Mean | AggOp::Var | AggOp::Std => {
                        let cnt = gf.len() as f64;
                        let mean = gf.iter().sum::<f64>() / cnt;
                        let want = match op {
                            AggOp::Mean => mean,
                            _ => {
                                let var =
                                    gf.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / cnt;
                                if op == AggOp::Std {
                                    var.sqrt()
                                } else {
                                    var
                                }
                            }
                        };
                        let got = g.float_col("out").unwrap()[row];
                        // At mean 1e9 / var ~0.1 both Welford and the
                        // two-pass reference carry ~1e-7 relative error
                        // (f64 conditioning); the retired naive formula
                        // was off by ~1e3 relative here.
                        let rel = match op {
                            AggOp::Mean => 1e-9,
                            _ => 1e-6,
                        };
                        let tol = rel * want.abs().max(1e-9);
                        assert!(
                            (got - want).abs() <= tol,
                            "case {case} {op:?} row {row}: got {got}, want {want}"
                        );
                    }
                }
                // Bit-identical across thread counts, not just close.
                if g.schema().column_type(1) == ColumnType::Float {
                    let a = g.float_col("out").unwrap()[row];
                    let b = g1.float_col("out").unwrap()[row];
                    assert_eq!(a.to_bits(), b.to_bits(), "case {case} {op:?} bits");
                } else {
                    assert_eq!(
                        g.int_col("out").unwrap()[row],
                        g1.int_col("out").unwrap()[row]
                    );
                }
            }
        }
    }
}

/// An empty selection flowing into group-by through the lazy path yields
/// a zero-row table with the right schema — no panic, no phantom group.
#[test]
fn empty_selection_group_by_yields_zero_rows() {
    let ringo = Ringo::with_threads(4);
    let mut t = Table::from_int_column("k", (0..1000).collect());
    t.add_float_column("w", (0..1000).map(|v| v as f64).collect())
        .unwrap();
    for (op, col) in [
        (AggOp::Count, None),
        (AggOp::Sum, Some("w")),
        (AggOp::Var, Some("w")),
    ] {
        let out = ringo
            .query(&t)
            .select(&Predicate::int("k", Cmp::Lt, 0))
            .group_by(&["k"], col, op, "out")
            .collect()
            .unwrap();
        assert_eq!(out.n_rows(), 0, "{op:?}: zero groups");
        assert_eq!(out.n_cols(), 2, "{op:?}: key + aggregate");
        let names: Vec<&str> = out.schema().iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["k", "out"], "{op:?}: schema");
    }
}

/// `explain_analyze` surfaces per-node parallelism: executed row counts
/// on every node and morsels/workers on the morsel-driven ones.
#[test]
fn explain_analyze_reports_morsel_dispatch() {
    let ringo = Ringo::with_threads(4);
    let mut t = Table::from_int_column("id", (0..200_000).collect());
    t.add_int_column("bucket", (0..200_000).map(|v| v % 97).collect())
        .unwrap();
    let q = ringo
        .query(&t)
        .select(&Predicate::int("id", Cmp::Lt, 100_000))
        .group_by(&["bucket"], Some("id"), AggOp::Sum, "s");
    let plan = q.explain_analyze().unwrap();
    assert!(plan.contains("-> rows="), "executed rows:\n{plan}");
    assert!(plan.contains("morsels="), "morsel dispatch:\n{plan}");
    assert!(plan.contains("workers="), "worker count:\n{plan}");
    assert!(
        plan.contains("Collect rows=97 gathers=0"),
        "collect line:\n{plan}"
    );
    // 200k rows at the default 64Ki morsel size = 4 select morsels.
    assert!(plan.contains("morsels=4"), "select morsel count:\n{plan}");

    // The printout renders the record `collect` logs: its lines, in step
    // order and then `Collect`, are the record's stats — same operators,
    // same rows.
    q.collect().unwrap();
    let log = ringo.op_log();
    let rec = log.iter().rev().find(|r| r.name == "query").unwrap();
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), rec.plan.len(), "{plan}");
    for (line, stat) in lines.iter().zip(&rec.plan) {
        let word = line.trim_start().split(' ').next().unwrap().to_lowercase();
        let rows = line.split("rows=").nth(1).unwrap().split(' ').next();
        assert!(word.starts_with(stat.op), "{line} vs {}", stat.op);
        assert_eq!(rows, Some(stat.rows_out.to_string().as_str()), "{line}");
    }
}

/// A select→select→project chain gathers column data exactly once, and
/// the op-log's `query` record proves it.
#[test]
fn chain_materializes_exactly_once() {
    let ringo = Ringo::with_threads(4);
    let mut t = Table::from_int_column("id", (0..100_000).collect());
    t.add_int_column("bucket", (0..100_000).map(|v| v % 97).collect())
        .unwrap();
    t.add_float_column("w", (0..100_000).map(|v| v as f64).collect())
        .unwrap();
    let out = ringo
        .query(&t)
        .select(&Predicate::int("id", Cmp::Lt, 50_000))
        .select(&Predicate::int("bucket", Cmp::Eq, 13))
        .project(&["id", "w"])
        .collect()
        .unwrap();
    let eager = t
        .select(&Predicate::int("id", Cmp::Lt, 50_000))
        .unwrap()
        .select(&Predicate::int("bucket", Cmp::Eq, 13))
        .unwrap()
        .project(&["id", "w"])
        .unwrap();
    assert_tables_identical(&out, &eager, "3-step chain");
    let log = ringo.op_log();
    let rec = log.iter().rev().find(|r| r.name == "query").unwrap();
    assert!(
        rec.params.ends_with("gathers=1"),
        "one gather pass: {}",
        rec.params
    );
    assert_eq!(
        rec.params.matches("select[").count(),
        2,
        "the chain runs as written, one node a select: {}",
        rec.params
    );
}

/// Invalid chains fail in `schema()`, `explain()` and `collect()` with
/// the error the eager verb chain reports, and log no `"query"` record.
/// `schema()` and `explain()` run the chain on zero-row views of its
/// tables, so these cases pin that validation. Each chain starts with a
/// select, so the failing step is never the first.
#[test]
fn invalid_chains_error_like_eager() {
    let ringo = Ringo::with_threads(2);
    let mut t = Table::from_int_column("a", (0..50).collect());
    t.add_int_column("b", (0..50).collect()).unwrap();
    t.add_float_column("f", (0..50).map(|v| v as f64).collect())
        .unwrap();
    let tags: Vec<String> = (0..50).map(|v| format!("t{}", v % 3)).collect();
    t.add_str_column("s", &tags).unwrap();
    let strs = {
        let mut d = Table::new(ringo::Schema::new([("k", ColumnType::Str)]));
        d.push_row(&["t1".into()]).unwrap();
        d
    };
    let mut floats = Table::from_int_column("i", vec![1]);
    floats.add_float_column("f", vec![1.0]).unwrap();

    let keep = Predicate::int("a", Cmp::Ge, 5);
    let lazy = || ringo.query(&t).select(&keep);
    let eager = t.select(&keep).unwrap();
    let b_lt = Predicate::int("b", Cmp::Lt, 10);
    let cases = [
        (
            "select on a projected-away column",
            lazy().project(&["a"]).select(&b_lt),
            eager.project(&["a"]).and_then(|p| p.select(&b_lt)),
        ),
        (
            "join keys of different types",
            lazy().join(&strs, "a", "k"),
            eager.join(&strs, "a", "k"),
        ),
        (
            "a float join key",
            lazy().join(&floats, "f", "f"),
            eager.join(&floats, "f", "f"),
        ),
        (
            "a non-count aggregate with no column",
            lazy().group_by(&["a"], None, AggOp::Sum, "out"),
            eager.group_by(&["a"], None, AggOp::Sum, "out"),
        ),
        (
            "a str aggregate",
            lazy().group_by(&["a"], Some("s"), AggOp::Sum, "out"),
            eager.group_by(&["a"], Some("s"), AggOp::Sum, "out"),
        ),
        (
            "next_k with k = 0",
            lazy().next_k(None, "a", 0),
            eager.next_k(None, "a", 0),
        ),
        (
            "a column projected twice",
            lazy().project(&["a", "a"]),
            eager.project(&["a", "a"]),
        ),
    ];
    for (what, q, eager) in cases {
        let want = format!("{:?}", eager.unwrap_err());
        let got = [
            q.schema().map(|_| ()),
            q.explain().map(|_| ()),
            q.collect().map(|_| ()),
        ];
        for (how, got) in ["schema", "explain", "collect"].iter().zip(got) {
            assert_eq!(format!("{:?}", got.unwrap_err()), want, "{what}: {how}");
        }
    }
    assert!(ringo.op_log().iter().all(|r| r.name != "query"));
}

/// Row ids thread through arbitrary select/order/project chains so
/// provenance survives the lazy path (each output row traces to its
/// source row in the base table).
#[test]
fn row_ids_trace_to_base_rows() {
    for_cases("row_ids_trace_to_base_rows", |rng| {
        let threads = [1usize, 2, 4][rng.below(3)];
        let ringo = Ringo::with_threads(threads);
        let base = rmat_table(rng, threads);
        let src: Vec<i64> = base.int_col("src").unwrap().to_vec();
        let out = ringo
            .query(&base)
            .select(&Predicate::int("src", Cmp::Ge, rng.range_i64(0..200)))
            .order_by(&["dst"], rng.bool())
            .project(&["src", "tag"])
            .collect()
            .unwrap();
        for (pos, rid) in out.row_ids().iter().enumerate() {
            let got = match out.get(pos, "src").unwrap() {
                Value::Int(v) => v,
                other => panic!("int col, got {other:?}"),
            };
            assert_eq!(
                got, src[*rid as usize],
                "row {pos} traces to base row {rid}"
            );
        }
    });
}
