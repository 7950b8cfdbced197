//! Views through every verb, against materialized copies and a row model.
//!
//! `select` returns a view: the columns of the table it filtered and the
//! positions of the rows it kept. Verbs read a view through its
//! selection, a `&mut` verb materializes it first, and a whole-column
//! borrow gathers the column once. None of that may show: this suite runs
//! seeded random pipelines of verbs twice — on the tables the verbs
//! return, views wherever they can be, and on copies materialized after
//! every verb — at 1, 2 and 4 threads, from fresh tables, from tables
//! with stored ids and from views whose base was dropped before they were
//! read. After every verb it checks schemas, row ids, cells and whole
//! columns of both against each other and against a model that keeps one
//! `(id, values)` record a row, float cells bit for bit. Sort-first chains
//! over 6-row tables of NaNs, ±0.0 and `i64::MIN`/`MAX` cover every
//! ordering tier, among them sorts that hand back their sort columns
//! decoded off their sorted words.

use ringo::concurrent::{radix_sort_rows, SortColumn, SortedRows};
use ringo::{AggOp, Cmp, ColumnType, Predicate, Ringo, Schema, Table, Value};
use ringo_rng::Rng64;
use std::collections::{HashMap, HashSet};

const CASES: u64 = 40;
const STEPS: usize = 12;

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
        Self {
            schema,
            rows: (0..).zip(rows).collect(),
            next,
        }
    }

    /// The table's own rows, after checking it holds the model's values.
    fn adopt(t: &Table, want: &[Vec<Value>], ctx: &str) -> Self {
        let got: Vec<Vec<Value>> = (0..t.n_rows()).map(|r| cells(t, r)).collect();
        assert_eq!(multiset(&got), multiset(want), "{ctx}: rows as a multiset");
        let next = got.len() as u64;
        let rows = t.row_ids().iter().copied().zip(got).collect();
        Self {
            schema: t.schema().clone(),
            rows,
            next,
        }
    }

    fn col(&self, name: &str) -> usize {
        self.schema.index_of(name).unwrap()
    }

    fn values(&self) -> Vec<Vec<Value>> {
        self.rows.iter().map(|(_, v)| v.clone()).collect()
    }

    fn push(&mut self, values: Vec<Value>) {
        self.rows.push((self.next, values));
        self.next += 1;
    }

    /// Rows whose `cols` values were not met before (nor in `seen`).
    fn first_occurrences(&mut self, cols: &[usize], seen: &mut HashSet<String>) {
        self.rows.retain(|(_, v)| seen.insert(key(v, cols)));
    }

    /// Keeps the columns `cols`, in that order.
    fn project(&mut self, cols: &[&str]) {
        let idx: Vec<usize> = cols.iter().map(|n| self.col(n)).collect();
        let schema = &self.schema;
        let kept = idx
            .iter()
            .map(|&i| (schema.name(i).to_string(), schema.column_type(i)));
        self.schema = Schema::new(kept);
        for (_, r) in self.rows.iter_mut() {
            *r = idx.iter().map(|&i| r[i].clone()).collect();
        }
    }

    /// The stable sort `order_by` promises.
    fn sort(&mut self, cols: &[usize], ascending: bool) {
        self.rows.sort_by(|(_, a), (_, b)| {
            let ord = cmp_rows(a, b, cols);
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
    }
}

fn multiset(rows: &[Vec<Value>]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

/// A hashable rendering of `values[cols]`; strings compare by text.
fn key(values: &[Value], cols: &[usize]) -> String {
    format!("{:?}", cols.iter().map(|&c| &values[c]).collect::<Vec<_>>())
}

fn cmp_rows(a: &[Value], b: &[Value], cols: &[usize]) -> std::cmp::Ordering {
    let cmp = |c: &usize| match (&a[*c], &b[*c]) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => panic!("mixed column types"),
    };
    cols.iter()
        .map(cmp)
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn cells(t: &Table, row: usize) -> Vec<Value> {
    let names: Vec<String> = t.schema().iter().map(|(n, _)| n.to_string()).collect();
    names.iter().map(|n| t.get(row, n).unwrap()).collect()
}

/// `t` with its rows gathered into columns of its own: `append_rows`
/// edits, so it materializes a view first, and appending no rows leaves
/// rows and ids as they were.
fn materialized(t: &Table) -> Table {
    let mut c = t.clone();
    c.append_rows(&t.head(0).unwrap()).unwrap();
    c
}

/// A cell as its bits, so NaN payloads and zero signs compare.
#[derive(Debug, PartialEq, Eq)]
enum Bits {
    Int(i64),
    Float(u64),
    Str(String),
}

fn bits(v: &Value) -> Bits {
    match v {
        Value::Int(x) => Bits::Int(*x),
        Value::Float(x) => Bits::Float(x.to_bits()),
        Value::Str(s) => Bits::Str(s.clone()),
    }
}

fn all_bits(values: &[Value]) -> Vec<Bits> {
    values.iter().map(bits).collect()
}

/// Schema, ids, cells and whole columns of the view form `v` and the
/// materialized form `c` agree with each other and with the model, float
/// cells bit for bit.
fn check(v: &Table, c: &Table, m: &Model, ctx: &str) {
    let ids: Vec<u64> = m.rows.iter().map(|(id, _)| *id).collect();
    for (t, form) in [(v, "view"), (c, "copy")] {
        let ctx = format!("{ctx} [{form}]");
        assert_eq!(t.schema(), &m.schema, "{ctx}: schema");
        assert_eq!(*t.row_ids(), ids[..], "{ctx}: row ids");
        for (row, (id, values)) in m.rows.iter().enumerate() {
            assert_eq!(t.row_id(row), *id, "{ctx}: row_id({row})");
            let got = all_bits(&cells(t, row));
            assert_eq!(got, all_bits(values), "{ctx}: cells of row {row}");
        }
        for (c, (name, ty)) in m.schema.iter().enumerate() {
            let want: Vec<Bits> = m.rows.iter().map(|(_, v)| bits(&v[c])).collect();
            let got: Vec<Value> = match ty {
                ColumnType::Int => t.int_col(name).unwrap().iter().map(|&x| x.into()).collect(),
                ColumnType::Float => t
                    .float_col(name)
                    .unwrap()
                    .iter()
                    .map(|&x| x.into())
                    .collect(),
                ColumnType::Str => {
                    let syms = t.str_sym_col(name).unwrap();
                    syms.iter().map(|&s| t.str_value(s).into()).collect()
                }
            };
            assert_eq!(all_bits(&got), want, "{ctx}: column {name}");
        }
        assert!(t.get(t.n_rows(), "k").is_err(), "{ctx}: get past the end");
    }
}

fn random_value(rng: &mut Rng64, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Int => Value::Int(rng.range_i64(0..6)),
        ColumnType::Float => Value::Float(rng.below(4) as f64 * 0.5),
        ColumnType::Str => Value::from(["a", "b", "c", "d"][rng.below(4)]),
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

/// A view of a table of `schema` (its own pool), the rows it holds, and
/// the view materialized.
fn partner(rng: &mut Rng64, schema: &Schema, extra: &[Vec<Value>], threads: usize) -> Partner {
    let mut rows: Vec<Vec<Value>> = (0..rng.below(9)).map(|_| random_row(rng, schema)).collect();
    rows.extend(extra.iter().cloned());
    rng.shuffle(&mut rows);
    let (pred, cmp, x) = k_predicate(rng);
    let k = schema.index_of("k").unwrap();
    let view = build(schema, &rows, threads).select(&pred).unwrap();
    rows.retain(|r| holds(cmp, &r[k], x));
    let copy = materialized(&view);
    Partner { view, copy, rows }
}

struct Partner {
    view: Table,
    copy: Table,
    rows: Vec<Vec<Value>>,
}

fn dim_schema() -> Schema {
    Schema::new([("k", ColumnType::Int), ("w", ColumnType::Str)])
}

/// `left ⋈ right` on column `lk` = `rk`: each left row with each match.
fn join_rows(left: &[Vec<Value>], right: &[Vec<Value>], lk: usize, rk: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left {
        for r in right.iter().filter(|r| r[rk] == l[lk]) {
            out.push(l.iter().chain(r).cloned().collect());
        }
    }
    out
}

/// `schema` and a column `name`, suffixed `-1`, `-2`, ... on a clash.
fn push_unique(schema: &mut Schema, name: &str, ty: ColumnType) {
    let name = (0..)
        .map(|i| match i {
            0 => name.to_string(),
            i => format!("{name}-{i}"),
        })
        .find(|n| !schema.contains(n))
        .unwrap();
    let cols = schema.iter().map(|(n, t)| (n.to_string(), t));
    *schema = Schema::new(cols.chain([(name, ty)]));
}

/// The names a join or `next_k` gives `right`'s columns after `left`'s.
fn joined_schema(left: &Schema, right: &Schema) -> Schema {
    let mut out = left.clone();
    for (name, ty) in right.iter() {
        push_unique(&mut out, name, ty);
    }
    out
}

fn names(m: &Model) -> Vec<String> {
    m.schema.iter().map(|(n, _)| n.to_string()).collect()
}

/// A random subset of the model's columns, possibly empty, in random order.
fn random_columns(rng: &mut Rng64, m: &Model) -> Vec<String> {
    let mut cols: Vec<String> = names(m).into_iter().filter(|_| rng.bool()).collect();
    rng.shuffle(&mut cols);
    cols
}

/// Applies `f` to the view form and to the copy, rematerializing the copy.
fn both(v: &mut Table, c: &mut Table, f: impl Fn(&Table) -> Table) {
    *v = f(v);
    *c = materialized(&f(c));
}

/// Applies one random verb to both forms and the model; returns its name.
fn step(
    rng: &mut Rng64,
    ringo: &Ringo,
    v: &mut Table,
    c: &mut Table,
    m: &mut Model,
    threads: usize,
) -> String {
    let narrow = m.schema.len() <= 4 && m.rows.len() <= 60 && m.schema.contains("k");
    let has = |name: &str, ty: ColumnType| {
        m.schema
            .index_of(name)
            .is_ok_and(|i| m.schema.column_type(i) == ty)
    };
    match rng.below(20) {
        _ if !has("k", ColumnType::Int) => {
            // A projection dropped `k`: put it back.
            let k: Vec<i64> = (0..m.rows.len()).map(|_| rng.range_i64(0..6)).collect();
            for t in [&mut *v, &mut *c] {
                t.add_int_column("k", k.clone()).unwrap();
            }
            push_unique(&mut m.schema, "k", ColumnType::Int);
            for ((_, row), x) in m.rows.iter_mut().zip(&k) {
                row.push(Value::Int(*x));
            }
            "add_int_column(k)".into()
        }
        0 | 1 => {
            let (pred, cmp, x) = k_predicate(rng);
            let k = m.col("k");
            m.rows.retain(|(_, r)| holds(cmp, &r[k], x));
            if rng.bool() {
                both(v, c, |t| t.select(&pred).unwrap());
                format!("select(k {cmp:?} {x})")
            } else {
                v.select_in_place(&pred).unwrap();
                c.select_in_place(&pred).unwrap();
                *c = materialized(c);
                format!("select_in_place(k {cmp:?} {x})")
            }
        }
        2 if has("s", ColumnType::Str) => {
            let want = ["a", "b", "z"][rng.below(3)];
            let s = m.col("s");
            m.rows.retain(|(_, r)| r[s] == Value::from(want));
            both(v, c, |t| t.select(&Predicate::str_eq("s", want)).unwrap());
            format!("select(s = {want})")
        }
        3 | 4 => {
            let mut cols = names(m);
            rng.shuffle(&mut cols);
            cols.truncate(1 + rng.below(2));
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let ascending = rng.bool();
            let idx: Vec<usize> = cols.iter().map(|n| m.col(n)).collect();
            m.sort(&idx, ascending);
            if rng.bool() {
                v.order_by(&cols, ascending).unwrap();
                c.order_by(&cols, ascending).unwrap();
                format!("order_by({cols:?}, {ascending})")
            } else {
                both(v, c, |t| t.ordered_by(&cols, ascending).unwrap());
                format!("ordered_by({cols:?}, {ascending})")
            }
        }
        5 if narrow => {
            let d = partner(rng, &dim_schema(), &[], threads);
            let (jv, jc) = (v.join(&d.view, "k", "k"), c.join(&d.copy, "k", "k"));
            let want = join_rows(&m.values(), &d.rows, m.col("k"), 0);
            let schema = joined_schema(&m.schema, &dim_schema());
            (*v, *c) = (jv.unwrap(), materialized(&jc.unwrap()));
            *m = Model::adopt(v, &want, "join");
            assert_eq!(m.schema, schema);
            "join(view of another table)".into()
        }
        6 if narrow => {
            // Two views of one table: the same columns and pool.
            let (pred, cmp, x) = k_predicate(rng);
            let k = m.col("k");
            let right: Vec<Vec<Value>> = m
                .values()
                .into_iter()
                .filter(|r| holds(cmp, &r[k], x))
                .collect();
            let want = join_rows(&m.values(), &right, k, k);
            let schema = joined_schema(&m.schema, &m.schema);
            both(v, c, |t| {
                t.join(&t.select(&pred).unwrap(), "k", "k").unwrap()
            });
            *m = Model::adopt(v, &want, "self join");
            assert_eq!(m.schema, schema);
            format!("join(self, select(k {cmp:?} {x}))")
        }
        7 => {
            let agg = names(m)
                .into_iter()
                .find(|n| n != "k" && has(n, ColumnType::Int));
            let op = if agg.is_some() {
                AggOp::Sum
            } else {
                AggOp::Count
            };
            let k = m.col("k");
            let a = agg.as_ref().map(|n| m.col(n));
            let mut groups: Vec<(Value, i64)> = Vec::new();
            for (_, r) in &m.rows {
                let add = a.map_or(1, |a| match r[a] {
                    Value::Int(x) => x,
                    _ => unreachable!("an int column"),
                });
                match groups.iter_mut().find(|(g, _)| *g == r[k]) {
                    Some((_, acc)) => *acc += add,
                    None => groups.push((r[k].clone(), add)),
                }
            }
            both(v, c, |t| {
                t.group_by(&["k"], agg.as_deref(), op, "agg").unwrap()
            });
            let schema = Schema::new([("k", ColumnType::Int), ("agg", ColumnType::Int)]);
            let rows = groups.into_iter().map(|(g, n)| vec![g, Value::Int(n)]);
            *m = Model::fresh(schema, rows.collect());
            "group_by(k)".into()
        }
        8 => {
            let row = random_row(rng, &m.schema);
            assert_eq!(v.push_row(&row).unwrap(), m.next, "push_row's id");
            assert_eq!(c.push_row(&row).unwrap(), m.next, "push_row's id");
            m.push(row);
            "push_row".into()
        }
        9 => {
            let name = format!("x{}", m.schema.len());
            let k = m.col("k");
            let plus = rng.range_i64(0..9);
            if rng.bool() {
                v.map_int("k", &name, |x| x + plus).unwrap();
                c.map_int("k", &name, |x| x + plus).unwrap();
            } else {
                let col: Vec<i64> = (0..m.rows.len() as i64).map(|i| i * plus).collect();
                v.add_int_column(&name, col.clone()).unwrap();
                c.add_int_column(&name, col).unwrap();
                for (i, (_, r)) in m.rows.iter_mut().enumerate() {
                    r.push(Value::Int(i as i64 * plus));
                }
                push_unique(&mut m.schema, &name, ColumnType::Int);
                return format!("add_int_column({name})");
            }
            for (_, r) in m.rows.iter_mut() {
                let Value::Int(x) = r[k] else { unreachable!() };
                r.push(Value::Int(x + plus));
            }
            push_unique(&mut m.schema, &name, ColumnType::Int);
            format!("map_int(k + {plus} as {name})")
        }
        10 => {
            let extra: Vec<Vec<Value>> = m.values().into_iter().take(3).collect();
            let p = partner(rng, &m.schema, &extra, threads);
            v.append_rows(&p.view).unwrap();
            c.append_rows(&p.copy).unwrap();
            p.rows.into_iter().for_each(|r| m.push(r));
            "append_rows(view)".into()
        }
        11 | 12 => {
            let extra: Vec<Vec<Value>> = m.values().into_iter().rev().take(3).collect();
            let p = partner(rng, &m.schema, &extra, threads);
            let all: Vec<usize> = (0..m.schema.len()).collect();
            let theirs: HashSet<String> = p.rows.iter().map(|r| key(r, &all)).collect();
            match rng.below(3) {
                0 => {
                    *v = v.union(&p.view).unwrap();
                    *c = materialized(&c.union(&p.copy).unwrap());
                    let mut seen = HashSet::new();
                    m.first_occurrences(&all, &mut seen);
                    for r in p.rows {
                        if seen.insert(key(&r, &all)) {
                            m.push(r);
                        }
                    }
                    "union".into()
                }
                1 => {
                    *v = v.intersect(&p.view).unwrap();
                    *c = materialized(&c.intersect(&p.copy).unwrap());
                    m.first_occurrences(&all, &mut HashSet::new());
                    m.rows.retain(|(_, r)| theirs.contains(&key(r, &all)));
                    "intersect".into()
                }
                _ => {
                    *v = v.minus(&p.view).unwrap();
                    *c = materialized(&c.minus(&p.copy).unwrap());
                    m.first_occurrences(&all, &mut theirs.clone());
                    "minus".into()
                }
            }
        }
        13 => {
            let d = partner(rng, &dim_schema(), &[], threads);
            let keys: HashSet<String> = d.rows.iter().map(|r| key(r, &[0])).collect();
            let (k, semi) = (m.col("k"), rng.bool());
            m.rows.retain(|(_, r)| keys.contains(&key(r, &[k])) == semi);
            if semi {
                *v = v.semi_join(&d.view, "k", "k").unwrap();
                *c = materialized(&c.semi_join(&d.copy, "k", "k").unwrap());
                "semi_join".into()
            } else {
                *v = v.anti_join(&d.view, "k", "k").unwrap();
                *c = materialized(&c.anti_join(&d.copy, "k", "k").unwrap());
                "anti_join".into()
            }
        }
        14 => {
            let n = rng.below(m.rows.len() + 3);
            match rng.below(4) {
                0 => {
                    both(v, c, |t| t.head(n).unwrap());
                    m.rows.truncate(n);
                    format!("head({n})")
                }
                1 => {
                    let seed = rng.u64();
                    both(v, c, |t| t.sample_rows(n, seed).unwrap());
                    let ids: HashSet<u64> = v.row_ids().iter().copied().collect();
                    assert_eq!(ids.len(), n.min(m.rows.len()), "sample_rows({n})");
                    m.rows.retain(|(id, _)| ids.contains(id));
                    format!("sample_rows({n})")
                }
                2 => {
                    let k = m.col("k");
                    both(v, c, |t| t.unique(&["k"]).unwrap());
                    m.first_occurrences(&[k], &mut HashSet::new());
                    "unique(k)".into()
                }
                _ => {
                    let ascending = rng.bool();
                    both(v, c, |t| t.top_k(&["k"], n, ascending).unwrap());
                    let k = m.col("k");
                    let mut sorted = m.clone();
                    sorted.sort(&[k], ascending);
                    sorted.rows.truncate(n);
                    // Ties at the cut may keep either row: the `k` values
                    // are the model's, the rows the view's own.
                    let by_id: HashMap<u64, Vec<Value>> = m.rows.iter().cloned().collect();
                    let ids = v.row_ids();
                    let rows: Vec<(u64, Vec<Value>)> =
                        ids.iter().map(|id| (*id, by_id[id].clone())).collect();
                    let ks = |rows: &[(u64, Vec<Value>)]| -> Vec<Value> {
                        rows.iter().map(|(_, r)| r[k].clone()).collect()
                    };
                    assert_eq!(ks(&rows), ks(&sorted.rows), "top_k: k values");
                    m.rows = rows;
                    format!("top_k(k, {n}, {ascending})")
                }
            }
        }
        15 => {
            let cols = random_columns(rng, m);
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            both(v, c, |t| t.project(&cols).unwrap());
            m.project(&cols);
            format!("project({cols:?})")
        }
        16 if narrow => {
            let kk = 1 + rng.below(2);
            let k = m.col("k");
            let mut sorted = m.clone();
            sorted.sort(&[k], true);
            let rows = sorted.values();
            let mut want = Vec::new();
            for i in 0..rows.len() {
                for r in &rows[i + 1..rows.len().min(i + 1 + kk)] {
                    want.push(rows[i].iter().chain(r).cloned().collect());
                }
            }
            let schema = joined_schema(&m.schema, &m.schema);
            both(v, c, |t| t.next_k(None, "k", kk).unwrap());
            *m = Model::fresh(schema, want);
            format!("next_k(k, {kk})")
        }
        17 => {
            let (pred, cmp, x) = k_predicate(rng);
            let k = m.col("k");
            let want = m.rows.iter().filter(|(_, r)| holds(cmp, &r[k], x)).count();
            assert_eq!(v.count_where(&pred).unwrap(), want, "count_where");
            assert_eq!(c.count_where(&pred).unwrap(), want, "count_where");
            let rows: Vec<usize> = (0..m.rows.len())
                .filter(|&i| holds(cmp, &m.rows[i].1[k], x))
                .collect();
            assert_eq!(v.select_rows(&pred).unwrap(), rows, "select_rows");
            format!("count_where(k {cmp:?} {x})")
        }
        18 => {
            let k = m.col("k");
            let mut counts: Vec<(i64, i64)> = Vec::new();
            for (_, r) in &m.rows {
                let Value::Int(x) = r[k] else { unreachable!() };
                match counts.iter_mut().find(|(g, _)| *g == x) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((x, 1)),
                }
            }
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            both(v, c, |t| t.value_counts("k").unwrap());
            let schema = Schema::new([("k", ColumnType::Int), ("count", ColumnType::Int)]);
            let rows = counts
                .into_iter()
                .map(|(x, n)| vec![Value::Int(x), Value::Int(n)]);
            *m = Model::fresh(schema, rows.collect());
            "value_counts(k)".into()
        }
        _ => {
            // A lazy chain, every step applied to the model too. A join's
            // row order is the kernel's, so after a join the model takes
            // the result's order (as the eager join arms do) and only
            // steps that keep row order follow it. `joined` is the id the
            // next row added to the join's output takes.
            let d = partner(rng, &dim_schema(), &[], threads);
            let mut q = (ringo.query(v), ringo.query(c));
            let mut joined = None;
            let mut desc = String::from("collect:");
            for _ in 0..rng.below(4) {
                if !m.schema.contains("k") {
                    break;
                }
                let narrow = m.schema.len() <= 4 && m.rows.len() <= 60;
                match rng.below(4) {
                    1 if joined.is_none() => {
                        let ascending = rng.bool();
                        m.sort(&[m.col("k")], ascending);
                        q = (
                            q.0.order_by(&["k"], ascending),
                            q.1.order_by(&["k"], ascending),
                        );
                        desc.push_str(" order_by");
                    }
                    2 => {
                        let cols = random_columns(rng, m);
                        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                        m.project(&cols);
                        q = (q.0.project(&cols), q.1.project(&cols));
                        desc.push_str(&format!(" project({cols:?})"));
                    }
                    3 if narrow && joined.is_none() => {
                        let want = join_rows(&m.values(), &d.rows, m.col("k"), 0);
                        let schema = joined_schema(&m.schema, &dim_schema());
                        joined = Some(want.len() as u64);
                        *m = Model::fresh(schema, want);
                        q = (q.0.join(&d.view, "k", "k"), q.1.join(&d.copy, "k", "k"));
                        desc.push_str(" join");
                    }
                    _ => {
                        let (pred, cmp, x) = k_predicate(rng);
                        let k = m.col("k");
                        m.rows.retain(|(_, r)| holds(cmp, &r[k], x));
                        q = (q.0.select(&pred), q.1.select(&pred));
                        desc.push_str(" select");
                    }
                }
            }
            let (qv, qc) = (q.0.collect().unwrap(), q.1.collect().unwrap());
            (*v, *c) = (qv, materialized(&qc));
            if let Some(next) = joined {
                *m = Model::adopt(v, &m.values(), &desc);
                m.next = next;
            }
            desc
        }
    }
}

/// A base table of `n` rows, built from whole columns or row by row, as
/// the model sees it.
fn base(rng: &mut Rng64, n: usize, threads: usize) -> (Table, Model) {
    let schema = Schema::new([
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
        ("s", ColumnType::Str),
        ("f", ColumnType::Float),
    ]);
    let rows: Vec<Vec<Value>> = (0..n).map(|_| random_row(rng, &schema)).collect();
    let t = if rng.bool() {
        build(&schema, &rows, threads)
    } else {
        let col = |c: usize| rows.iter().map(move |r| r[c].clone());
        let ints = |c| {
            col(c).map(|v| match v {
                Value::Int(x) => x,
                _ => unreachable!(),
            })
        };
        let strs: Vec<String> = col(2)
            .map(|v| match v {
                Value::Str(s) => s,
                _ => unreachable!(),
            })
            .collect();
        let floats = col(3).map(|v| match v {
            Value::Float(x) => x,
            _ => unreachable!(),
        });
        let mut t = Table::from_int_column("k", ints(0).collect());
        t.add_int_column("v", ints(1).collect()).unwrap();
        t.add_str_column("s", &strs).unwrap();
        t.add_float_column("f", floats.collect()).unwrap();
        t.set_threads(threads);
        t
    };
    (t, Model::fresh(schema, rows))
}

/// The three starts: a fresh table, a table with stored ids (sorted, so
/// ids leave positions), and a view whose base is dropped before the
/// view is first read.
fn start(rng: &mut Rng64, n: usize, threads: usize, ctx: &mut String) -> (Table, Model) {
    let (mut t, mut m) = base(rng, n, threads);
    match rng.below(3) {
        0 => ctx.push_str(" fresh"),
        1 => {
            t.order_by(&["s", "v"], false).unwrap();
            m.sort(&[2, 1], false);
            ctx.push_str(" stored ids");
        }
        _ => {
            let (pred, cmp, x) = k_predicate(rng);
            t = t.select(&pred).unwrap();
            m.rows.retain(|(_, r)| holds(cmp, &r[0], x));
            ctx.push_str(&format!(" view of a dropped base (k {cmp:?} {x})"));
        }
    }
    (t, m)
}

fn run_pipelines(name: &str, large: bool) {
    for case in 0..CASES {
        let seed = name
            .bytes()
            .fold(case.wrapping_mul(0x9E37_79B9_7F4A_7C15), |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
            });
        let rng = &mut Rng64::new(seed);
        let threads = [1usize, 2, 4][rng.below(3)];
        let ringo = Ringo::with_threads(threads);
        let n = if large {
            5000 + rng.below(3000)
        } else {
            rng.below(40)
        };
        let mut ctx = format!("case {case}, threads {threads}, {n} rows:");
        let (mut v, mut m) = start(rng, n, threads, &mut ctx);
        let mut c = materialized(&v);
        check(&v, &c, &m, &ctx);
        for _ in 0..STEPS {
            let verb = step(rng, &ringo, &mut v, &mut c, &mut m, threads);
            v.set_threads(threads);
            c.set_threads(threads);
            ctx.push(' ');
            ctx.push_str(&verb);
            check(&v, &c, &m, &ctx);
        }
    }
}

#[test]
fn every_verb_on_views_matches_copies_and_the_model() {
    run_pipelines("small", false);
}

/// Tables past a morsel and the parallel sort and build thresholds.
#[test]
fn every_verb_on_large_views_matches_copies_and_the_model() {
    run_pipelines("large", true);
}

/// `tests/plan.rs`' pipeline shapes — 2 to 5 steps of select, project,
/// order, one join and a count by `k` — run eagerly against the model.
/// Eager `order_by` is the lazy order step, so lazy ≡ eager there no
/// longer checks an order; this does, on each step's result and its
/// materialized copy.
#[test]
fn plan_shaped_pipelines_order_like_the_model() {
    for case in 0..48u64 {
        let rng = &mut Rng64::new(0x706c_616e ^ case);
        let threads = [1usize, 2, 4][rng.below(3)];
        let n = rng.below(200);
        let mut ctx = format!("case {case}, threads {threads}, {n} rows:");
        let (mut t, mut m) = base(rng, n, threads);
        let mut joined = false;
        for _ in 0..2 + rng.below(4) {
            let has_k = m.schema.contains("k");
            match rng.below(5) {
                0 if has_k => {
                    let (pred, cmp, x) = k_predicate(rng);
                    let k = m.col("k");
                    m.rows.retain(|(_, r)| holds(cmp, &r[k], x));
                    t = t.select(&pred).unwrap();
                    ctx.push_str(&format!(" select(k {cmp:?} {x})"));
                }
                1 => {
                    let mut cols = names(&m);
                    rng.shuffle(&mut cols);
                    cols.truncate(1 + rng.below(cols.len()));
                    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                    m.project(&cols);
                    t = t.project(&cols).unwrap();
                    ctx.push_str(&format!(" project({cols:?})"));
                }
                2 => {
                    let col = names(&m)[rng.below(m.schema.len())].clone();
                    let ascending = rng.bool();
                    m.sort(&[m.col(&col)], ascending);
                    t.order_by(&[&col], ascending).unwrap();
                    ctx.push_str(&format!(" order_by({col}, {ascending})"));
                }
                3 if has_k && !joined => {
                    joined = true;
                    let d = partner(rng, &dim_schema(), &[], threads);
                    let want = join_rows(&m.values(), &d.rows, m.col("k"), 0);
                    t = t.join(&d.view, "k", "k").unwrap();
                    m = Model::adopt(&t, &want, &ctx);
                    ctx.push_str(" join");
                }
                4 if has_k => {
                    let k = m.col("k");
                    let mut groups: Vec<(Value, i64)> = Vec::new();
                    for (_, r) in &m.rows {
                        match groups.iter_mut().find(|(g, _)| *g == r[k]) {
                            Some((_, n)) => *n += 1,
                            None => groups.push((r[k].clone(), 1)),
                        }
                    }
                    t = t.group_by(&["k"], None, AggOp::Count, "n").unwrap();
                    let schema = Schema::new([("k", ColumnType::Int), ("n", ColumnType::Int)]);
                    let rows = groups.into_iter().map(|(g, n)| vec![g, Value::Int(n)]);
                    m = Model::fresh(schema, rows.collect());
                    ctx.push_str(" group_by(k)");
                }
                _ => continue,
            }
            check(&t, &materialized(&t), &m, &ctx);
        }
    }
}

/// A select of a view composes the selections: still a view of the base,
/// and after the base is dropped it answers from the columns it pins.
#[test]
fn a_select_of_a_view_reads_the_base_it_pins() {
    let view = {
        let mut base = Table::from_int_column("k", (0..100).collect());
        base.add_str_column("s", &(0..100).map(|i| format!("s{i}")).collect::<Vec<_>>())
            .unwrap();
        let odd = base.select(&Predicate::int("k", Cmp::Ge, 50)).unwrap();
        odd.select(&Predicate::int("k", Cmp::Lt, 53)).unwrap()
    };
    assert_eq!(*view.row_ids(), [50, 51, 52]);
    assert_eq!(view.int_col("k").unwrap(), &[50, 51, 52]);
    assert_eq!(view.get(2, "s").unwrap(), Value::from("s52"));
}

/// `left_join`, `next_k` and `sim_join` of a join's output — a view whose
/// columns read two inputs through two position lists, the right one
/// with a pool of its own — against the same verbs on its materialized
/// copy and the row model, ids included, at threads 1, 2 and 4.
#[test]
fn left_join_next_k_and_sim_join_of_a_join_view_match_the_model() {
    for case in 0..24u64 {
        let rng = &mut Rng64::new(0x6c6e_736a ^ case);
        let threads = [1usize, 2, 4][case as usize % 3];
        let n = if case % 6 == 0 {
            3000 + rng.below(2000)
        } else {
            rng.below(40)
        };
        let mut ctx = format!("case {case}, threads {threads}, {n} rows:");
        let (t, m) = start(rng, n, threads, &mut ctx);
        let d = partner(rng, &dim_schema(), &[], threads);
        let want = join_rows(&m.values(), &d.rows, m.col("k"), 0);
        let j = t.join(&d.view, "k", "k").unwrap();
        let jm = Model::adopt(&j, &want, &ctx);
        let ids = fresh_ids(want.len());
        assert_eq!(*j.row_ids(), ids[..], "{ctx}: a join's ids are fresh");
        let jc = materialized(&j);
        check(&j, &jc, &jm, &format!("{ctx} join"));

        // `left_join`: every pair, then each row without one, padded.
        let e = partner(rng, &dim_schema(), &[], threads);
        let mut want = join_rows(&jm.values(), &e.rows, jm.col("k"), 0);
        for row in jm.values() {
            if !e.rows.iter().any(|r| r[0] == row[jm.col("k")]) {
                want.push(row.into_iter().chain([Value::Int(0), "".into()]).collect());
            }
        }
        let (lv, lc) = (
            j.left_join(&e.view, "k", "k").unwrap(),
            jc.left_join(&e.copy, "k", "k").unwrap(),
        );
        let lm = Model::adopt(&lv, &want, &format!("{ctx} left_join"));
        let ids = fresh_ids(want.len());
        assert_eq!(*lv.row_ids(), ids[..], "{ctx}: left_join's ids");
        check(&lv, &materialized(&lc), &lm, &format!("{ctx} left_join"));

        // `next_k` within each `k`, by `v`: the model's stable sort.
        let (k, v) = (jm.col("k"), jm.col("v"));
        let mut sorted = jm.clone();
        sorted.sort(&[k, v], true);
        let rows = sorted.values();
        let mut want = Vec::new();
        for i in 0..rows.len() {
            for r in rows[i + 1..rows.len().min(i + 3)].iter() {
                if r[k] == rows[i][k] {
                    want.push(rows[i].iter().chain(r).cloned().collect());
                }
            }
        }
        let nm = Model::fresh(joined_schema(&jm.schema, &jm.schema), want);
        let (nv, nc) = (
            j.next_k(Some("k"), "v", 2).unwrap(),
            jc.next_k(Some("k"), "v", 2).unwrap(),
        );
        check(&nv, &materialized(&nc), &nm, &format!("{ctx} next_k"));

        // `sim_join` on `k` within 0.5: the equi-join, in its own order.
        let want = join_rows(&jm.values(), &e.rows, k, 0);
        let (sv, sc) = (
            j.sim_join(&e.view, &["k"], &["k"], 0.5).unwrap(),
            jc.sim_join(&e.copy, &["k"], &["k"], 0.5).unwrap(),
        );
        let sm = Model::adopt(&sv, &want, &format!("{ctx} sim_join"));
        assert_eq!(
            *sv.row_ids(),
            fresh_ids(want.len())[..],
            "{ctx}: sim_join's ids"
        );
        check(&sv, &materialized(&sc), &sm, &format!("{ctx} sim_join"));
    }
}

/// The ids of `n` rows a verb numbers from 0: a join's output.
fn fresh_ids(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// A 6-row table of the values a sort key gets wrong first: `k` spans
/// `i64::MIN` to `i64::MAX`, `f` holds NaNs of both signs and payloads,
/// ±0.0 and −inf, `v` is narrow, `s` a string, and `z`, `n` and `m` are
/// constant −0.0, a NaN payload and `i64::MIN`.
fn specials(threads: usize) -> (Table, Model) {
    let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
    let schema = Schema::new([
        ("k", ColumnType::Int),
        ("f", ColumnType::Float),
        ("v", ColumnType::Int),
        ("s", ColumnType::Str),
        ("z", ColumnType::Float),
        ("n", ColumnType::Float),
        ("m", ColumnType::Int),
    ]);
    let rows: Vec<Vec<Value>> = [
        (i64::MAX, nan(0), 2, "b"),
        (3, -0.0, 0, "a"),
        (i64::MIN, 0.0, 1, "b"),
        (3, -nan(0xBEEF), 2, "c"),
        (0, 1.5, 0, "a"),
        (-1, f64::NEG_INFINITY, 1, "b"),
    ]
    .into_iter()
    .map(|(k, f, v, s)| {
        let (z, n) = (Value::Float(-0.0), Value::Float(nan(0x5EED)));
        vec![
            k.into(),
            f.into(),
            v.into(),
            s.into(),
            z,
            n,
            i64::MIN.into(),
        ]
    })
    .collect();
    (build(&schema, &rows, threads), Model::fresh(schema, rows))
}

/// What follows `order_by` in a sort-first chain.
#[derive(Clone, Copy, Debug)]
enum Then {
    Nothing,
    /// A select on the first sort column.
    Select,
    /// A join on `v` with a 3-row table, which the sorted table probes.
    Join,
    /// `next_k(None, "v", 1)`.
    NextK,
    /// `group_by(v)`, counting.
    Group,
}

/// `order_by(cols)` on `input` (rows `m`) then `then`, eagerly and as a
/// lazy plan, against the model.
fn sort_first(input: &Table, m: &Model, cols: &[&str], ascending: bool, then: Then, ctx: &str) {
    let ringo = Ringo::with_threads(input.threads());
    let idx: Vec<usize> = cols.iter().map(|c| m.col(c)).collect();
    let mut want = m.clone();
    want.sort(&idx, ascending);
    let mut eager = input.clone();
    eager.order_by(cols, ascending).unwrap();
    check(
        &eager,
        &materialized(&eager),
        &want,
        &format!("{ctx}: order_by"),
    );
    let query = ringo.query(input).order_by(cols, ascending);
    let dim_rows = [(2, "x"), (0, "y"), (2, "z")].map(|(k, w)| vec![Value::Int(k), w.into()]);
    let dim = build(&dim_schema(), &dim_rows, input.threads());
    let (eager, query) = match then {
        Then::Nothing => (eager, query),
        Then::Select => {
            let c = want.col(cols[0]);
            let (pred, keep): (Predicate, fn(&Value) -> bool) = match want.schema.column_type(c) {
                ColumnType::Int => (
                    Predicate::int(cols[0], Cmp::Ge, 1),
                    |v| matches!(v, Value::Int(x) if *x >= 1),
                ),
                ColumnType::Float => (
                    Predicate::float(cols[0], Cmp::Ge, 0.0),
                    |v| matches!(v, Value::Float(x) if *x >= 0.0),
                ),
                ColumnType::Str => (Predicate::str_eq(cols[0], "b"), |v| *v == Value::from("b")),
            };
            want.rows.retain(|(_, r)| keep(&r[c]));
            (eager.select(&pred).unwrap(), query.select(&pred))
        }
        Then::Join => {
            let rows = join_rows(&want.values(), &dim_rows, want.col("v"), 0);
            let schema = joined_schema(&want.schema, &dim_schema());
            want = Model::fresh(schema, rows);
            (
                eager.join(&dim, "v", "k").unwrap(),
                query.join(&dim, "v", "k"),
            )
        }
        Then::NextK => {
            let mut by_v = want.clone();
            by_v.sort(&[want.col("v")], true);
            let rows = by_v.values();
            let pairs = rows
                .windows(2)
                .map(|w| w[0].iter().chain(&w[1]).cloned().collect());
            want = Model::fresh(joined_schema(&want.schema, &want.schema), pairs.collect());
            (
                eager.next_k(None, "v", 1).unwrap(),
                query.next_k(None, "v", 1),
            )
        }
        Then::Group => {
            let v = want.col("v");
            let mut groups: Vec<(Value, i64)> = Vec::new();
            for (_, r) in &want.rows {
                match groups.iter_mut().find(|(g, _)| *g == r[v]) {
                    Some((_, n)) => *n += 1,
                    None => groups.push((r[v].clone(), 1)),
                }
            }
            let schema = Schema::new([("v", ColumnType::Int), ("n", ColumnType::Int)]);
            let rows = groups.into_iter().map(|(g, n)| vec![g, Value::Int(n)]);
            want = Model::fresh(schema, rows.collect());
            let group = |t: &Table| t.group_by(&["v"], None, AggOp::Count, "n").unwrap();
            (
                group(&eager),
                query.group_by(&["v"], None, AggOp::Count, "n"),
            )
        }
    };
    let lazy = query.collect().unwrap();
    check(
        &eager,
        &materialized(&eager),
        &want,
        &format!("{ctx} {then:?}: eager"),
    );
    check(
        &lazy,
        &materialized(&lazy),
        &want,
        &format!("{ctx} {then:?}: lazy"),
    );
}

/// The tier `order_by(cols)` sorts `t`'s rows in: the word the packed
/// sort uses, or the comparison sort for a `Str` key.
fn word(t: &Table, cols: &[&str]) -> &'static str {
    let mut names: Vec<&str> = Vec::new();
    for c in cols {
        if !names.contains(c) {
            names.push(c);
        }
    }
    let sort_column = |name: &&str| match t.schema().column_type(t.schema().index_of(name).unwrap())
    {
        ColumnType::Int => Some(SortColumn::Int(t.int_col(name).unwrap())),
        ColumnType::Float => Some(SortColumn::Float(t.float_col(name).unwrap())),
        ColumnType::Str => None,
    };
    let Some(sort_cols) = names.iter().map(sort_column).collect::<Option<Vec<_>>>() else {
        return "compare";
    };
    match radix_sort_rows(&sort_cols, true, None, 1) {
        SortedRows::U64(..) => "u64",
        SortedRows::U128(..) => "u128",
        SortedRows::Chained(_) => "chained",
    }
}

/// Sort-first chains of 6-row tables against the row model: `order_by`
/// then a select on a sort column, a join, `next_k`, a group-by or
/// nothing, every column borrowed whole after each, eager and lazy alike,
/// at threads 1 and 2. The sort keys cover every tier: narrow `Int`
/// columns and constant `Float` / `Int` columns in `u64` words (decoded
/// whole off them), `i64::MIN`/`MAX` and NaN / ±0.0 keys in `u128`
/// words, two full-range keys in chained passes and a `Str` key in the
/// comparison sort; a column named twice; the table or a view of it.
#[test]
fn sort_first_chains_match_the_model() {
    let keys: [(&[&str], &str); 8] = [
        (&["v"], "u64"),
        (&["v", "z"], "u64"),
        (&["n", "v", "m"], "u64"),
        (&["v", "v"], "u64"),
        (&["k"], "u128"),
        (&["f"], "u128"),
        (&["k", "f"], "chained"),
        (&["s", "v"], "compare"),
    ];
    for threads in [1usize, 2] {
        let (base, m) = specials(threads);
        let mut view_model = m.clone();
        view_model.rows.retain(|(_, r)| r[0] != Value::Int(0));
        let view = base.select(&Predicate::int("k", Cmp::Ne, 0)).unwrap();
        for (input, m, form) in [(&base, &m, "table"), (&view, &view_model, "view")] {
            for (cols, tier) in keys {
                assert_eq!(word(input, cols), tier, "{form} {cols:?}");
                for ascending in [true, false] {
                    for then in [
                        Then::Nothing,
                        Then::Select,
                        Then::Join,
                        Then::NextK,
                        Then::Group,
                    ] {
                        let ctx = format!("threads {threads}, {form}, {cols:?} asc={ascending}");
                        sort_first(input, m, cols, ascending, then, &ctx);
                    }
                }
            }
        }
    }
}
