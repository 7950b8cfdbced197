//! Equi-joins store their key once.
//!
//! Every row of `left ⋈ right` on `left.k == right.k` holds equal keys,
//! so the output's right key column is the left key column's vector,
//! shared — for `Str` keys too, since equal text is one symbol of the
//! output's pool. This suite runs seeded joins eagerly and as a lazy
//! chain at 1, 2 and 4 threads and checks both, row for row and in order,
//! against a row model: `Int` keys with duplicates on both sides and
//! `i64::MIN`, `Str` keys across two pools and within one, either side a
//! view, small and past the partitioned build, empty results included.
//! Fixed cases put every build row on one key, size the build side on
//! either side of the partitioned build's threshold, and join empty
//! sides. It asserts the key pair is one vector, that a view of the
//! output materialized by `map_int` keeps it one, and that `push_row`
//! then gives each column of the pair its own value and leaves the
//! joined table as it was.

use ringo::table::ColumnData;
use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Schema, Table, Value};
use ringo_rng::Rng64;
use std::collections::HashMap;

const CASES: u64 = 32;

/// One side of a join: the table, its rows in row order, and the key
/// column's name.
struct Side {
    table: Table,
    rows: Vec<Vec<Value>>,
    key: &'static str,
}

impl Side {
    fn key_index(&self) -> usize {
        self.table.schema().index_of(self.key).unwrap()
    }
}

/// A key of `range` distinct ones past `offset`; about as often as any
/// one of them, `i64::MIN`.
fn key_value(rng: &mut Rng64, ty: ColumnType, range: usize, offset: usize) -> Value {
    let x = offset + rng.below(range);
    match ty {
        ColumnType::Int if rng.below(range.max(16)) == 0 => Value::Int(i64::MIN),
        ColumnType::Int => Value::Int(x as i64),
        _ => Value::Str(format!("s{x}")),
    }
}

fn build(schema: Schema, rows: &[Vec<Value>], threads: usize) -> Table {
    let mut t = Table::new(schema);
    for row in rows {
        t.push_row(row).unwrap();
    }
    t.set_threads(threads);
    t
}

/// `a < cut` when `view`, else every row: the table and the rows kept.
fn maybe_view(
    t: Table,
    rows: Vec<Vec<Value>>,
    a: usize,
    view: bool,
    cut: i64,
) -> (Table, Vec<Vec<Value>>) {
    if !view {
        return (t, rows);
    }
    let kept = rows
        .into_iter()
        .filter(|r| matches!(r[a], Value::Int(x) if x < cut))
        .collect();
    (t.select(&Predicate::int("a", Cmp::Lt, cut)).unwrap(), kept)
}

/// Two tables with their own pools, `(k, a, s)` and `(w, a, t, k)`,
/// each whole or a view of `a < 50`.
fn own_pools(
    rng: &mut Rng64,
    ty: ColumnType,
    n: [usize; 2],
    range: usize,
    threads: usize,
) -> [Side; 2] {
    // One case in six draws the right keys from a range the left never
    // holds: an empty result.
    let offset = if rng.below(6) == 0 { range } else { 0 };
    let tags = ["x", "y", "z"];
    let left: Vec<Vec<Value>> = (0..n[0])
        .map(|_| {
            let k = key_value(rng, ty, range, 0);
            vec![
                k,
                Value::Int(rng.range_i64(0..100)),
                tags[rng.below(3)].into(),
            ]
        })
        .collect();
    let right: Vec<Vec<Value>> = (0..n[1])
        .map(|_| {
            let w = Value::Float(rng.below(8) as f64 * 0.25);
            let a = Value::Int(rng.range_i64(0..100));
            let t = ["u", "x", "new"][rng.below(3)].into();
            vec![w, a, t, key_value(rng, ty, range, offset)]
        })
        .collect();
    let lschema = Schema::new([("k", ty), ("a", ColumnType::Int), ("s", ColumnType::Str)]);
    let rschema = Schema::new([
        ("w", ColumnType::Float),
        ("a", ColumnType::Int),
        ("t", ColumnType::Str),
        ("k", ty),
    ]);
    let (lt, left) = maybe_view(build(lschema, &left, threads), left, 1, rng.bool(), 50);
    let (rt, right) = maybe_view(build(rschema, &right, threads), right, 1, rng.bool(), 50);
    [
        Side {
            table: lt,
            rows: left,
            key: "k",
        },
        Side {
            table: rt,
            rows: right,
            key: "k",
        },
    ]
}

/// Two views of one table `(k, a, s)`, so one pool: the left side keeps
/// `a < 60` under `(a, k, s)`, the right `a >= 30` under `(s, k)`.
fn one_pool(rng: &mut Rng64, ty: ColumnType, n: usize, range: usize, threads: usize) -> [Side; 2] {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            let k = key_value(rng, ty, range, 0);
            vec![
                k,
                Value::Int(rng.range_i64(0..100)),
                ["x", "y"][rng.below(2)].into(),
            ]
        })
        .collect();
    let schema = Schema::new([("k", ty), ("a", ColumnType::Int), ("s", ColumnType::Str)]);
    let base = build(schema, &rows, threads);
    let (lt, left) = maybe_view(base.clone(), rows.clone(), 1, true, 60);
    let left_rows = left
        .iter()
        .map(|r| vec![r[1].clone(), r[0].clone(), r[2].clone()]);
    let kept = |r: &&Vec<Value>| matches!(r[1], Value::Int(x) if x >= 30);
    let right_rows = rows
        .iter()
        .filter(kept)
        .map(|r| vec![r[2].clone(), r[0].clone()]);
    let rt = base.select(&Predicate::int("a", Cmp::Ge, 30)).unwrap();
    [
        Side {
            table: lt.project(&["a", "k", "s"]).unwrap(),
            rows: left_rows.collect(),
            key: "k",
        },
        Side {
            table: rt.project(&["s", "k"]).unwrap(),
            rows: right_rows.collect(),
            key: "k",
        },
    ]
}

/// `left ⋈ right` in the join's own order: the side with fewer rows is
/// indexed (the left one on a tie), and the other side's rows come out in
/// order, each with its matches in the indexed side's order.
fn model(left: &Side, right: &Side) -> Vec<Vec<Value>> {
    let left_builds = left.rows.len() <= right.rows.len();
    let (build, probe) = if left_builds {
        (left, right)
    } else {
        (right, left)
    };
    let (bk, pk) = (build.key_index(), probe.key_index());
    let mut by_key: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
    for b in &build.rows {
        by_key.entry(format!("{:?}", b[bk])).or_default().push(b);
    }
    let mut out = Vec::new();
    for p in &probe.rows {
        for &b in by_key.get(&format!("{:?}", p[pk])).into_iter().flatten() {
            let (l, r) = if left_builds { (b, p) } else { (p, b) };
            out.push(l.iter().chain(r.iter()).cloned().collect());
        }
    }
    out
}

fn column_values(t: &Table, c: usize) -> Vec<Value> {
    match t.column(c) {
        ColumnData::Int(v) => v.iter().map(|&x| Value::Int(x)).collect(),
        ColumnData::Float(v) => v.iter().map(|&x| Value::Float(x)).collect(),
        ColumnData::Str(v) => v.iter().map(|&s| Value::from(t.str_value(s))).collect(),
    }
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    let cols: Vec<Vec<Value>> = (0..t.n_cols()).map(|c| column_values(t, c)).collect();
    (0..t.n_rows())
        .map(|r| cols.iter().map(|c| c[r].clone()).collect())
        .collect()
}

/// The key pair of the output is one vector.
fn assert_one_key(t: &Table, li: usize, ri: usize, ctx: &str) {
    assert!(
        std::ptr::eq(t.column(li), t.column(ri)),
        "{ctx}: the key pair is two vectors"
    );
}

/// A view of `out` materialized by `map_int` keeps the pair one vector;
/// `push_row` then gives each column of the pair its own value, and
/// `out` is as it was.
fn edit_one_of_the_pair(out: &Table, li: usize, ri: usize, ctx: &str) {
    let before = column_values(out, li);
    let mut edited = out.select(&Predicate::int("a", Cmp::Ge, 20)).unwrap();
    edited.map_int("a", "twice", |x| 2 * x).unwrap();
    assert_one_key(&edited, li, ri, &format!("{ctx}: map_int"));
    let kept = column_values(&edited, li);
    // The pushed row's keys differ: each column of the pair takes its own.
    let mut row: Vec<Value> = edited
        .schema()
        .iter()
        .map(|(_, ty)| match ty {
            ColumnType::Int => Value::Int(7),
            ColumnType::Float => Value::Float(0.5),
            ColumnType::Str => Value::from("pushed"),
        })
        .collect();
    row[ri] = match row[li] {
        Value::Int(_) => Value::Int(i64::MIN),
        _ => Value::from("other"),
    };
    edited.push_row(&row).unwrap();
    for c in [li, ri] {
        let mut want = kept.clone();
        want.push(row[c].clone());
        assert_eq!(
            column_values(&edited, c),
            want,
            "{ctx}: push_row, column {c}"
        );
    }
    assert_eq!(column_values(out, li), before, "{ctx}: the joined table");
    assert_one_key(
        out,
        li,
        ri,
        &format!("{ctx}: the joined table after the edit"),
    );
}

fn run(case: u64, ty: ColumnType, rng: &mut Rng64) {
    let threads = [1usize, 2, 4][rng.below(3)];
    let ringo = Ringo::with_threads(threads);
    let large = rng.below(6) == 0;
    // Large sides keep past the partitioned build's 4096 rows as views.
    let n = |rng: &mut Rng64| {
        if large {
            9000 + rng.below(3000)
        } else {
            rng.below(40)
        }
    };
    let range = if large { 6000 } else { 1 + rng.below(12) };
    let shared = rng.bool();
    let [left, right] = if shared {
        let n = n(rng);
        one_pool(rng, ty, n, range, threads)
    } else {
        let sizes = [n(rng), n(rng)];
        let mut sides = own_pools(rng, ty, sizes, range, threads);
        if rng.bool() {
            sides.swap(0, 1);
        }
        sides
    };
    let ctx = format!(
        "case {case}, {ty:?} keys, threads {threads}, {} x {} rows, {}",
        left.rows.len(),
        right.rows.len(),
        if shared { "one pool" } else { "two pools" }
    );
    let (lk, rk) = (left.key_index(), right.key_index());
    let (li, ri) = (lk, left.table.n_cols() + rk);

    let eager = left.table.join(&right.table, left.key, right.key).unwrap();
    let lazy = ringo
        .query(&left.table)
        .join(&right.table, left.key, right.key)
        .collect()
        .unwrap();
    let want = model(&left, &right);
    assert_eq!(rows_of(&eager), want, "{ctx}: eager rows, in order");
    assert_eq!(lazy.schema(), eager.schema(), "{ctx}: lazy schema");
    assert_eq!(
        rows_of(&lazy),
        rows_of(&eager),
        "{ctx}: lazy rows, in order"
    );
    assert_eq!(*lazy.row_ids(), *eager.row_ids(), "{ctx}: lazy row ids");
    if shared {
        assert!(
            std::ptr::eq(eager.pool(), left.table.pool()),
            "{ctx}: one pool"
        );
    }
    for (t, form) in [(&eager, "eager"), (&lazy, "lazy")] {
        let ctx = format!("{ctx} [{form}]");
        assert_one_key(t, li, ri, &ctx);
        edit_one_of_the_pair(t, li, ri, &ctx);
    }
}

#[test]
fn int_keys_are_stored_once_and_match_the_model() {
    for case in 0..CASES {
        run(case, ColumnType::Int, &mut Rng64::new(0x6a6f_696e ^ case));
    }
}

#[test]
fn str_keys_are_stored_once_and_match_the_model() {
    for case in 0..CASES {
        run(case, ColumnType::Str, &mut Rng64::new(0x7374_726b ^ case));
    }
}

/// Duplicate keys on both sides and `i64::MIN` on both: every pair of
/// equal keys is a row, and the key is one vector.
#[test]
fn duplicates_and_i64_min_on_both_sides() {
    let left = Table::from_int_column("k", vec![i64::MIN, 1, 1, 2, i64::MIN]);
    let right = Table::from_int_column("k", vec![1, i64::MIN, 1, 3]);
    let j = left.join(&right, "k", "k").unwrap();
    let mut keys = j.int_col("k").unwrap().to_vec();
    keys.sort_unstable();
    assert_eq!(keys, [i64::MIN, i64::MIN, 1, 1, 1, 1]);
    assert_one_key(&j, 0, 1, "duplicates");
    let empty = left
        .join(&Table::from_int_column("k", vec![9]), "k", "k")
        .unwrap();
    assert_eq!(empty.n_rows(), 0);
    assert_one_key(&empty, 0, 1, "empty");
}

fn key_of(ty: ColumnType, x: usize) -> Value {
    match ty {
        ColumnType::Int => Value::Int(x as i64),
        _ => Value::Str(format!("s{x}")),
    }
}

/// `(k, a)` sides on the given keys. With `one_pool` both are views of
/// one table (`a == 0` and `a == 1`); otherwise each is a table of its
/// own, with its own pool.
fn keyed_sides(ty: ColumnType, keys: [&[usize]; 2], one_pool: bool) -> [Side; 2] {
    let rows = |side: usize| -> Vec<Vec<Value>> {
        (keys[side].iter())
            .map(|&x| vec![key_of(ty, x), Value::Int(side as i64)])
            .collect()
    };
    let schema = Schema::new([("k", ty), ("a", ColumnType::Int)]);
    let side = |table, rows| Side {
        table,
        rows,
        key: "k",
    };
    let [left, right] = [rows(0), rows(1)];
    if one_pool {
        let all: Vec<Vec<Value>> = left.iter().chain(&right).cloned().collect();
        let base = build(schema, &all, 1);
        let view = |a| base.select(&Predicate::int("a", Cmp::Eq, a)).unwrap();
        [side(view(0), left), side(view(1), right)]
    } else {
        let (lt, rt) = (build(schema.clone(), &left, 1), build(schema, &right, 1));
        [side(lt, left), side(rt, right)]
    }
}

/// The eager and the lazy join of `left` and `right` at 1, 2 and 4
/// threads, row for row against [`model`].
fn assert_ordered(left: &Side, right: &Side, ctx: &str) {
    let want = model(left, right);
    for threads in [1, 2, 4] {
        let ctx = format!("{ctx}, threads {threads}");
        let (mut lt, mut rt) = (left.table.clone(), right.table.clone());
        lt.set_threads(threads);
        rt.set_threads(threads);
        let eager = lt.join(&rt, left.key, right.key).unwrap();
        let lazy = (Ringo::with_threads(threads).query(&lt))
            .join(&rt, left.key, right.key)
            .collect()
            .unwrap();
        assert_eq!(rows_of(&eager), want, "{ctx}: eager rows, in order");
        assert_eq!(rows_of(&lazy), want, "{ctx}: lazy rows, in order");
        let (li, ri) = (left.key_index(), lt.n_cols() + right.key_index());
        assert_one_key(&eager, li, ri, &ctx);
        assert_one_key(&lazy, li, ri, &ctx);
    }
}

/// Every build row on one key: one bucket holds the whole build side,
/// in selection order, below and past the partitioned build.
#[test]
fn one_key_fills_one_bucket() {
    for ty in [ColumnType::Int, ColumnType::Str] {
        for one_pool in [false, true] {
            for n in [10usize, 5000] {
                let build = vec![7; n];
                // A few probe rows on the key, the rest on keys the build
                // side never holds.
                let probe: Vec<usize> = (0..n + 3)
                    .map(|i| if i % (n / 3) == 1 { 7 } else { 100 + i })
                    .collect();
                let [l, r] = keyed_sides(ty, [&build, &probe], one_pool);
                let ctx = format!("{ty:?}, one pool {one_pool}, {n} build rows");
                assert_ordered(&l, &r, &format!("{ctx}, build left"));
                assert_ordered(&r, &l, &format!("{ctx}, build right"));
            }
        }
    }
}

/// Build sides of 4095, 4096 and 4097 rows: one partition below
/// `PARALLEL_BUILD_MIN_ROWS`, one per worker from it on.
#[test]
fn build_sides_around_the_partitioned_build() {
    let mut rng = Rng64::new(0x0fff);
    for ty in [ColumnType::Int, ColumnType::Str] {
        for one_pool in [false, true] {
            for n in [4095usize, 4096, 4097] {
                let build: Vec<usize> = (0..n).map(|_| rng.below(n / 2)).collect();
                let probe: Vec<usize> = (0..n + 1000).map(|_| rng.below(n)).collect();
                let [l, r] = keyed_sides(ty, [&build, &probe], one_pool);
                let ctx = format!("{ty:?}, one pool {one_pool}, {n} build rows");
                assert_ordered(&l, &r, &format!("{ctx}, build left"));
                assert_ordered(&r, &l, &format!("{ctx}, build right"));
            }
        }
    }
}

/// An empty build side, an empty probe side, and both empty.
#[test]
fn empty_sides_join_to_nothing() {
    let some: Vec<usize> = (0..50).map(|i| i % 7).collect();
    for ty in [ColumnType::Int, ColumnType::Str] {
        for one_pool in [false, true] {
            for keys in [
                [&[][..], &some[..]],
                [&some[..], &[][..]],
                [&[][..], &[][..]],
            ] {
                let [l, r] = keyed_sides(ty, keys, one_pool);
                let ctx = format!(
                    "{ty:?}, one pool {one_pool}, {} x {} rows",
                    l.rows.len(),
                    r.rows.len()
                );
                assert_ordered(&l, &r, &ctx);
            }
        }
    }
}

/// `t`'s rows, in order, are `want`'s, and its row ids `want`'s ids.
fn expect(t: &Table, want: &[(u64, Vec<Value>)], ctx: &str) {
    let rows: Vec<Vec<Value>> = want.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(rows_of(t), rows, "{ctx}: rows, in order");
    let ids: Vec<u64> = want.iter().map(|(id, _)| *id).collect();
    assert_eq!(*t.row_ids(), ids[..], "{ctx}: row ids");
}

/// The `Int` value of `row`'s column `c`.
fn int_at(row: &[Value], c: usize) -> i64 {
    match row[c] {
        Value::Int(x) => x,
        ref v => panic!("{v:?} is not an int"),
    }
}

/// A join's output is a view: each column reads its input's vector
/// through the join's left or right positions. Verbs on it, a join of it,
/// a join of sorted inputs and `to_graph` on it read the rows the model
/// gives, in the join's own order, with ids `0..n` — `Int` and `Str`
/// keys, one pool and two (a right side with its own pool), views on
/// either side, at threads 1, 2 and 4.
#[test]
fn verbs_on_a_join_view_match_the_model() {
    for case in 0..CASES {
        let rng = &mut Rng64::new(0x7669_6577 ^ case);
        let threads = [1usize, 2, 4][case as usize % 3];
        let ringo = Ringo::with_threads(threads);
        let ty = [ColumnType::Int, ColumnType::Str][rng.below(2)];
        let large = case % 8 == 0;
        let n = |rng: &mut Rng64| {
            if large {
                9000 + rng.below(3000)
            } else {
                rng.below(40)
            }
        };
        let range = if large { 6000 } else { 1 + rng.below(12) };
        let shared = rng.bool();
        let [left, right] = if shared {
            let n = n(rng);
            one_pool(rng, ty, n, range, threads)
        } else {
            let sizes = [n(rng), n(rng)];
            own_pools(rng, ty, sizes, range, threads)
        };
        let ctx = format!(
            "case {case}, {ty:?} keys, threads {threads}, {} x {} rows, one pool {shared}",
            left.rows.len(),
            right.rows.len()
        );
        let j = left.table.join(&right.table, left.key, right.key).unwrap();
        let rows: Vec<(u64, Vec<Value>)> = (0..).zip(model(&left, &right)).collect();
        expect(&j, &rows, &format!("{ctx}: the join"));
        let (a, k) = (
            j.schema().index_of("a").unwrap(),
            j.schema().index_of("k").unwrap(),
        );

        // A view of the join: select, order, head, project.
        let kept = rows.iter().filter(|(_, r)| int_at(r, a) >= 20).cloned();
        let select = j.select(&Predicate::int("a", Cmp::Ge, 20)).unwrap();
        expect(
            &select,
            &kept.collect::<Vec<_>>(),
            &format!("{ctx}: select"),
        );
        let mut sorted = rows.clone();
        sorted.sort_by_key(|(_, r)| std::cmp::Reverse(int_at(r, a)));
        let ordered = j.ordered_by(&["a"], false).unwrap();
        expect(&ordered, &sorted, &format!("{ctx}: order_by"));
        expect(
            &ordered.head(7).unwrap(),
            &sorted[..sorted.len().min(7)],
            &format!("{ctx}: head of the sorted join"),
        );
        let kk = j.schema().index_of("k-1").unwrap();
        let projected: Vec<_> = (rows.iter())
            .map(|(id, r)| (*id, vec![r[kk].clone(), r[a].clone()]))
            .collect();
        let project = ordered.project(&["k-1", "a"]).unwrap();
        expect(
            &j.project(&["k-1", "a"]).unwrap(),
            &projected,
            &format!("{ctx}: project"),
        );
        assert_eq!(
            project.n_rows(),
            rows.len(),
            "{ctx}: project of the sorted join"
        );

        // unique, group_by and semi_join on the key, in first-appearance
        // order.
        let mut firsts: Vec<(u64, Vec<Value>)> = Vec::new();
        let mut counts: Vec<(Value, i64)> = Vec::new();
        for (id, r) in &rows {
            match counts.iter_mut().find(|(key, _)| *key == r[k]) {
                Some((_, c)) => *c += 1,
                None => {
                    firsts.push((*id, r.clone()));
                    counts.push((r[k].clone(), 1));
                }
            }
        }
        expect(
            &j.unique(&["k"]).unwrap(),
            &firsts,
            &format!("{ctx}: unique"),
        );
        let groups = j.group_by(&["k"], None, AggOp::Count, "n").unwrap();
        let grouped: Vec<_> = (0..)
            .zip(
                counts
                    .iter()
                    .map(|(key, c)| vec![key.clone(), Value::Int(*c)]),
            )
            .collect();
        expect(&groups, &grouped, &format!("{ctx}: group_by"));
        let half: Vec<Value> = counts
            .iter()
            .step_by(2)
            .map(|(key, _)| key.clone())
            .collect();
        let keys = build(
            Schema::new([("k", ty)]),
            &half.iter().map(|v| vec![v.clone()]).collect::<Vec<_>>(),
            threads,
        );
        let semi: Vec<_> = rows
            .iter()
            .filter(|(_, r)| half.contains(&r[k]))
            .cloned()
            .collect();
        expect(
            &j.semi_join(&keys, "k", "k").unwrap(),
            &semi,
            &format!("{ctx}: semi_join"),
        );

        // A join of the join, and a join of a sorted input.
        let joined = Side {
            table: j.clone(),
            rows: rows.iter().map(|(_, r)| r.clone()).collect(),
            key: "k",
        };
        let again = j.join(&right.table, "k", right.key).unwrap();
        let want: Vec<_> = (0..).zip(model(&joined, &right)).collect();
        expect(&again, &want, &format!("{ctx}: a join of the join"));
        let mut by_a: Vec<Vec<Value>> = left.rows.clone();
        let la = left.table.schema().index_of("a").unwrap();
        by_a.sort_by_key(|r| int_at(r, la));
        let sorted_left = Side {
            table: left.table.ordered_by(&["a"], true).unwrap(),
            rows: by_a,
            key: left.key,
        };
        let of_sorted = (sorted_left.table)
            .join(&right.table, left.key, right.key)
            .unwrap();
        let want: Vec<_> = (0..).zip(model(&sorted_left, &right)).collect();
        expect(
            &of_sorted,
            &want,
            &format!("{ctx}: a join of a sorted input"),
        );

        // `to_graph` on the join reads its two columns through their
        // positions: the graph of its rows, as a copy of them gives.
        let copy = Table::from_parts(
            j.schema().clone(),
            (0..j.n_cols()).map(|c| j.column(c).clone()).collect(),
            j.pool().clone(),
        )
        .unwrap();
        let dst = if ty == ColumnType::Int { "k-1" } else { "a" };
        let edges = |t: &Table| {
            let g = ringo.to_graph(t, "a", dst).unwrap();
            let e = ringo.to_edge_table(&g);
            let (s, d) = (e.int_col("src").unwrap(), e.int_col("dst").unwrap());
            s.iter().copied().zip(d.iter().copied()).collect::<Vec<_>>()
        };
        let fresh = left.table.join(&right.table, left.key, right.key).unwrap();
        assert_eq!(edges(&fresh), edges(&copy), "{ctx}: to_graph");
    }
}
