//! Row ids through every verb, against a row-at-a-time model.
//!
//! A table built from whole columns stores no row ids — a row's id is its
//! position — until a verb filters or reorders its rows; then it stores
//! the ids its rows carry. Neither form may show: this suite runs seeded
//! random pipelines of verbs, from fresh tables and from tables whose ids
//! a select already made explicit, at 1, 2 and 4 threads, and after every
//! verb checks ids and cells against a model that keeps one `(id, values)`
//! record a row. A verb that filters or reorders rows keeps their ids; a
//! verb that makes rows (a join, a group-by) numbers them from 0; a row
//! added to a table (`push_row`, `append_rows`, a union's rows from its
//! right side) takes the table's next id.

use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Schema, Table, Value};
use ringo_rng::Rng64;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 48;
const STEPS: usize = 10;

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

/// The table as rows: each row's id and cells, and the id the next added
/// row takes.
#[derive(Clone, Debug)]
struct Model {
    schema: Schema,
    rows: Vec<(u64, Vec<Value>)>,
    next: u64,
}

impl Model {
    /// Rows numbered from 0, as a verb that makes rows numbers them.
    fn fresh(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let next = rows.len() as u64;
        let rows = (0..).zip(rows).collect();
        Self { schema, rows, next }
    }

    fn col(&self, name: &str) -> usize {
        self.schema.index_of(name).unwrap()
    }

    fn push(&mut self, values: Vec<Value>) {
        self.rows.push((self.next, values));
        self.next += 1;
    }

    fn retain(&mut self, keep: impl Fn(&[Value]) -> bool) {
        self.rows.retain(|(_, v)| keep(v));
    }

    /// Rows whose `cols` values were not met before (nor in `seen`), in
    /// order.
    fn first_occurrences(&self, cols: &[usize], seen: &mut HashSet<String>) -> Self {
        let mut out = self.clone();
        out.rows.retain(|(_, v)| seen.insert(key(v, cols)));
        out
    }
}

/// A hashable rendering of `values[cols]`; strings compare by text.
fn key(values: &[Value], cols: &[usize]) -> String {
    format!("{:?}", cols.iter().map(|&c| &values[c]).collect::<Vec<_>>())
}

fn all_cols(m: &Model) -> Vec<usize> {
    (0..m.schema.len()).collect()
}

fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => panic!("mixed column types"),
    }
}

/// The stable sort `order_by` promises.
fn sort_model(m: &mut Model, cols: &[&str], ascending: bool) {
    let idx: Vec<usize> = cols.iter().map(|c| m.col(c)).collect();
    m.rows.sort_by(|(_, a), (_, b)| {
        let ord = idx
            .iter()
            .map(|&c| cmp_values(&a[c], &b[c]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal);
        if ascending {
            ord
        } else {
            ord.reverse()
        }
    });
}

fn cells(t: &Table, row: usize) -> Vec<Value> {
    let names: Vec<String> = t.schema().iter().map(|(n, _)| n.to_string()).collect();
    names.iter().map(|n| t.get(row, n).unwrap()).collect()
}

/// Ids, cells and schema agree with the model, and neither the id nor a
/// cell of a row past the last is answered.
fn check(t: &Table, m: &Model, ctx: &str) {
    assert_eq!(t.schema(), &m.schema, "{ctx}: schema");
    let want: Vec<u64> = m.rows.iter().map(|(id, _)| *id).collect();
    assert_eq!(*t.row_ids(), want[..], "{ctx}: row ids");
    for (row, (id, values)) in m.rows.iter().enumerate() {
        assert_eq!(t.row_id(row), *id, "{ctx}: row_id({row})");
        assert_eq!(&cells(t, row), values, "{ctx}: cells of row {row}");
    }
    let n = t.n_rows();
    if let Some((name, _)) = t.schema().iter().next() {
        assert!(t.get(n, name).is_err(), "{ctx}: get past the last row");
    }
    assert!(
        catch_unwind(AssertUnwindSafe(|| t.row_id(n))).is_err(),
        "{ctx}: row_id past the last row"
    );
}

fn random_value(rng: &mut Rng64, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Int => Value::Int(rng.range_i64(0..6)),
        ColumnType::Float => Value::Float(rng.below(4) as f64 * 0.5),
        ColumnType::Str => Value::from(["a", "b", "c"][rng.below(3)]),
    }
}

fn random_row(rng: &mut Rng64, schema: &Schema) -> Vec<Value> {
    let types: Vec<ColumnType> = schema.iter().map(|(_, ty)| ty).collect();
    types.into_iter().map(|ty| random_value(rng, ty)).collect()
}

fn build(schema: &Schema, rows: &[Vec<Value>], threads: usize) -> Table {
    let mut t = Table::new(schema.clone());
    for row in rows {
        t.push_row(row).unwrap();
    }
    t.set_threads(threads);
    t
}

/// A table of the model's schema: random rows and copies of some of the
/// model's, so set operations meet rows on both sides.
fn partner(rng: &mut Rng64, m: &Model, threads: usize) -> (Table, Vec<Vec<Value>>) {
    let mut rows: Vec<Vec<Value>> = (0..rng.below(6))
        .map(|_| random_row(rng, &m.schema))
        .collect();
    for _ in 0..rng.below(4).min(m.rows.len()) {
        rows.push(m.rows[rng.below(m.rows.len())].1.clone());
    }
    rng.shuffle(&mut rows);
    (build(&m.schema, &rows, threads), rows)
}

/// A small dimension table keyed by `k`.
fn dim(rng: &mut Rng64, threads: usize) -> (Table, Vec<Vec<Value>>) {
    let schema = Schema::new([("k", ColumnType::Int), ("w", ColumnType::Str)]);
    let rows: Vec<Vec<Value>> = (0..rng.below(7))
        .map(|_| random_row(rng, &schema))
        .collect();
    (build(&schema, &rows, threads), rows)
}

fn k_predicate(rng: &mut Rng64) -> (Predicate, Cmp, i64) {
    let cmp = [Cmp::Lt, Cmp::Le, Cmp::Eq, Cmp::Ne, Cmp::Ge, Cmp::Gt][rng.below(6)];
    let x = rng.range_i64(0..6);
    (Predicate::int("k", cmp, x), cmp, x)
}

fn holds(cmp: Cmp, v: &Value, x: i64) -> bool {
    let Value::Int(v) = *v else {
        panic!("k is an int column")
    };
    match cmp {
        Cmp::Lt => v < x,
        Cmp::Le => v <= x,
        Cmp::Eq => v == x,
        Cmp::Ne => v != x,
        Cmp::Ge => v >= x,
        Cmp::Gt => v > x,
    }
}

/// One or two distinct column names of the model, for an ordering.
fn sort_cols(rng: &mut Rng64, m: &Model) -> Vec<String> {
    let mut names: Vec<String> = m.schema.iter().map(|(n, _)| n.to_string()).collect();
    rng.shuffle(&mut names);
    names.truncate(1 + rng.below(2));
    names
}

/// `k` and a random subset of the other columns, in random order.
fn projection(rng: &mut Rng64, m: &Model) -> Vec<String> {
    let mut names: Vec<String> = m
        .schema
        .iter()
        .map(|(n, _)| n.to_string())
        .filter(|n| n != "k" && rng.bool())
        .collect();
    names.push("k".to_string());
    rng.shuffle(&mut names);
    names
}

fn project_model(m: &Model, names: &[String]) -> Model {
    let idx: Vec<usize> = names.iter().map(|n| m.col(n)).collect();
    Model {
        schema: Schema::new(
            idx.iter()
                .map(|&i| (m.schema.name(i).to_string(), m.schema.column_type(i))),
        ),
        rows: m
            .rows
            .iter()
            .map(|(id, v)| (*id, idx.iter().map(|&i| v[i].clone()).collect()))
            .collect(),
        next: m.next,
    }
}

/// Joins made their rows and number them from 0: the table's rows are
/// the model's pairs (as a multiset), and become the model.
fn adopt_joined(t: &Table, want: Vec<Vec<Value>>, ctx: &str) -> Model {
    let got: Vec<Vec<Value>> = (0..t.n_rows()).map(|r| cells(t, r)).collect();
    let sorted = |rows: &[Vec<Value>]| {
        let mut keys: Vec<String> = rows.iter().map(|v| format!("{v:?}")).collect();
        keys.sort();
        keys
    };
    assert_eq!(sorted(&got), sorted(&want), "{ctx}: joined rows");
    Model::fresh(t.schema().clone(), got)
}

/// The pairs of an inner join on `k`, and for a left join the unmatched
/// left rows padded with defaults.
fn join_rows(m: &Model, dim_rows: &[Vec<Value>], left: bool) -> Vec<Vec<Value>> {
    let k = m.col("k");
    let mut out = Vec::new();
    for (_, l) in &m.rows {
        let matched: Vec<&Vec<Value>> = dim_rows.iter().filter(|r| r[0] == l[k]).collect();
        for r in &matched {
            out.push(l.iter().chain(r.iter()).cloned().collect());
        }
        if left && matched.is_empty() {
            let pad = [Value::Int(0), Value::from("")];
            out.push(l.iter().chain(pad.iter()).cloned().collect());
        }
    }
    out
}

/// Applies one random verb to the table and the model alike; returns its
/// name.
fn step(rng: &mut Rng64, ringo: &Ringo, t: &mut Table, m: &mut Model, threads: usize) -> String {
    let big = t.n_rows() > 3000;
    match rng.below(16) {
        _ if big => {
            let n = rng.below(200);
            *t = t.head(n).unwrap();
            m.rows.truncate(n);
            format!("head({n})")
        }
        0 => {
            let row = random_row(rng, &m.schema);
            let id = t.push_row(&row).unwrap();
            assert_eq!(id, m.next, "push_row returns the next id");
            m.push(row);
            "push_row".into()
        }
        1 => {
            let (other, rows) = partner(rng, m, threads);
            t.append_rows(&other).unwrap();
            rows.into_iter().for_each(|r| m.push(r));
            "append_rows".into()
        }
        2 | 3 => {
            let (pred, cmp, x) = k_predicate(rng);
            let k = m.col("k");
            m.retain(|v| holds(cmp, &v[k], x));
            if rng.bool() {
                *t = t.select(&pred).unwrap();
                format!("select(k {cmp:?} {x})")
            } else {
                t.select_in_place(&pred).unwrap();
                format!("select_in_place(k {cmp:?} {x})")
            }
        }
        4 | 5 => {
            let cols = sort_cols(rng, m);
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let ascending = rng.bool();
            t.order_by(&cols, ascending).unwrap();
            sort_model(m, &cols, ascending);
            format!("order_by({cols:?}, {ascending})")
        }
        6 | 7 if t.n_cols() <= 6 => {
            let (d, dim_rows) = dim(rng, threads);
            let left = rng.bool();
            *t = if left {
                t.left_join(&d, "k", "k").unwrap()
            } else {
                t.join(&d, "k", "k").unwrap()
            };
            let name = if left { "left_join" } else { "join" };
            *m = adopt_joined(t, join_rows(m, &dim_rows, left), name);
            name.into()
        }
        8 => {
            let (d, dim_rows) = dim(rng, threads);
            let keys: HashSet<String> = dim_rows.iter().map(|r| key(r, &[0])).collect();
            let (k, semi) = (m.col("k"), rng.bool());
            m.retain(|v| keys.contains(&key(v, &[k])) == semi);
            *t = if semi {
                t.semi_join(&d, "k", "k").unwrap()
            } else {
                t.anti_join(&d, "k", "k").unwrap()
            };
            if semi { "semi_join" } else { "anti_join" }.into()
        }
        9 | 10 => {
            let (other, rows) = partner(rng, m, threads);
            let all = all_cols(m);
            let theirs: HashSet<String> = rows.iter().map(|r| key(r, &all)).collect();
            match rng.below(3) {
                0 => {
                    *t = t.union(&other).unwrap();
                    let mut seen = HashSet::new();
                    *m = m.first_occurrences(&all, &mut seen);
                    for r in rows {
                        if seen.insert(key(&r, &all)) {
                            m.push(r);
                        }
                    }
                    "union".into()
                }
                1 => {
                    *t = t.intersect(&other).unwrap();
                    *m = m.first_occurrences(&all, &mut HashSet::new());
                    m.retain(|v| theirs.contains(&key(v, &all)));
                    "intersect".into()
                }
                _ => {
                    *t = t.minus(&other).unwrap();
                    *m = m.first_occurrences(&all, &mut theirs.clone());
                    "minus".into()
                }
            }
        }
        11 => {
            let k = m.col("k");
            let ints: Vec<usize> = (0..m.schema.len())
                .filter(|&c| c != k && m.schema.column_type(c) == ColumnType::Int)
                .collect();
            let agg = (!ints.is_empty()).then(|| ints[rng.below(ints.len())]);
            let agg_name = agg.map(|c| m.schema.name(c).to_string());
            let op = if agg.is_some() {
                AggOp::Sum
            } else {
                AggOp::Count
            };
            *t = t.group_by(&["k"], agg_name.as_deref(), op, "agg").unwrap();
            let mut groups: Vec<(Value, i64)> = Vec::new();
            for (_, v) in &m.rows {
                let add = agg.map_or(1, |c| match v[c] {
                    Value::Int(x) => x,
                    _ => unreachable!("an int column"),
                });
                match groups.iter_mut().find(|(g, _)| *g == v[k]) {
                    Some((_, acc)) => *acc += add,
                    None => groups.push((v[k].clone(), add)),
                }
            }
            let schema = Schema::new([("k", ColumnType::Int), ("agg", ColumnType::Int)]);
            let rows = groups.into_iter().map(|(g, a)| vec![g, Value::Int(a)]);
            *m = Model::fresh(schema, rows.collect());
            "group_by".into()
        }
        12 => {
            let names = projection(rng, m);
            let cols: Vec<&str> = names.iter().map(String::as_str).collect();
            *t = t.unique(&cols).unwrap();
            let idx: Vec<usize> = names.iter().map(|n| m.col(n)).collect();
            *m = m.first_occurrences(&idx, &mut HashSet::new());
            format!("unique({names:?})")
        }
        13 => {
            let names = projection(rng, m);
            let cols: Vec<&str> = names.iter().map(String::as_str).collect();
            *t = t.project(&cols).unwrap();
            *m = project_model(m, &names);
            format!("project({names:?})")
        }
        14 => {
            let n = rng.below(m.rows.len() + 3);
            if rng.bool() {
                *t = t.head(n).unwrap();
                m.rows.truncate(n);
                format!("head({n})")
            } else {
                *t = t.sample_rows(n, rng.u64()).unwrap();
                let ids: HashSet<u64> = t.row_ids().iter().copied().collect();
                assert_eq!(ids.len(), n.min(m.rows.len()), "sample_rows({n})");
                m.rows.retain(|(id, _)| ids.contains(id));
                format!("sample_rows({n})")
            }
        }
        _ => {
            let mut q = ringo.query(t);
            let mut desc = String::from("collect:");
            for _ in 0..rng.below(4) {
                match rng.below(3) {
                    0 => {
                        let (pred, cmp, x) = k_predicate(rng);
                        let k = m.col("k");
                        m.retain(|v| holds(cmp, &v[k], x));
                        q = q.select(&pred);
                        desc.push_str(" select");
                    }
                    1 => {
                        let cols = sort_cols(rng, m);
                        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                        let ascending = rng.bool();
                        sort_model(m, &cols, ascending);
                        q = q.order_by(&cols, ascending);
                        desc.push_str(" order_by");
                    }
                    _ => {
                        let names = projection(rng, m);
                        let cols: Vec<&str> = names.iter().map(String::as_str).collect();
                        *m = project_model(m, &names);
                        q = q.project(&cols);
                        desc.push_str(" project");
                    }
                }
            }
            let out = q.collect().unwrap();
            *t = out;
            desc
        }
    }
}

/// A fresh base table of `n` rows, built row by row or from whole
/// columns.
fn base(rng: &mut Rng64, n: usize, threads: usize) -> (Table, Model) {
    let schema = Schema::new([
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
        ("s", ColumnType::Str),
    ]);
    let rows: Vec<Vec<Value>> = (0..n).map(|_| random_row(rng, &schema)).collect();
    let t = if rng.bool() {
        build(&schema, &rows, threads)
    } else {
        let col = |c: usize| rows.iter().map(move |r| r[c].clone());
        let ints = |c| {
            col(c)
                .map(|v| match v {
                    Value::Int(x) => x,
                    _ => unreachable!(),
                })
                .collect::<Vec<i64>>()
        };
        let strs: Vec<String> = col(2)
            .map(|v| match v {
                Value::Str(s) => s,
                _ => unreachable!(),
            })
            .collect();
        let mut t = Table::from_int_column("k", ints(0));
        t.add_int_column("v", ints(1)).unwrap();
        t.add_str_column("s", &strs).unwrap();
        t.set_threads(threads);
        t
    };
    (t, Model::fresh(schema, rows))
}

fn run_pipelines(name: &str, explicit_start: bool) {
    for_cases(name, |rng| {
        let threads = [1usize, 2, 4][rng.below(3)];
        let ringo = Ringo::with_threads(threads);
        // One case in four is large enough for the parallel sort paths.
        let n = if rng.below(4) == 0 {
            5000 + rng.below(3000)
        } else {
            rng.below(40)
        };
        let (mut t, mut m) = base(rng, n, threads);
        let mut ctx = format!("threads {threads}, {n} rows:");
        check(&t, &m, &ctx);
        if explicit_start {
            let v = rng.range_i64(0..6);
            t.select_in_place(&Predicate::int("v", Cmp::Ne, v)).unwrap();
            let vi = m.col("v");
            m.retain(|r| r[vi] != Value::Int(v));
            ctx.push_str(&format!(" select(v != {v})"));
            check(&t, &m, &ctx);
        }
        for _ in 0..STEPS {
            let verb = step(rng, &ringo, &mut t, &mut m, threads);
            t.set_threads(threads);
            ctx.push(' ');
            ctx.push_str(&verb);
            check(&t, &m, &ctx);
        }
    });
}

#[test]
fn every_verb_keeps_the_models_ids_from_a_fresh_table() {
    run_pipelines("fresh", false);
}

#[test]
fn every_verb_keeps_the_models_ids_from_an_explicit_table() {
    run_pipelines("explicit", true);
}

#[test]
#[should_panic(expected = "past the last")]
fn a_fresh_table_answers_no_id_past_its_last_row() {
    let t = Table::from_int_column("k", vec![7, 8, 9]);
    assert_eq!(t.row_id(2), 2);
    t.row_id(3);
}
