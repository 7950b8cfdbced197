//! Lazy query building over the facade: [`crate::Ringo::query`].
//!
//! A [`QueryBuilder`] records a chain of the eager verbs
//! ([`crate::Ringo::select`], [`crate::Ringo::join`], ...) as
//! [`Step`]s and nothing runs until [`QueryBuilder::collect`], which folds
//! the chain over table views and gathers column data exactly once. The
//! op-log records one `"query"` entry: its [`OpRecord::plan`] holds what
//! every step did, in step order, and its params line is the chain's
//! shape with per-step output cardinalities — morsel-driven steps add
//! their dispatch stats inside the brackets — e.g.
//! `scan[1000000] select[37 m16 w4] project[37] collect[37] gathers=1`
//! (16 morsels executed by 4 distinct pool workers).
//! [`QueryBuilder::explain_analyze`] renders the same record, one line a
//! step.

use crate::catalog::Snapshot;
use crate::{OpRecord, Result, Ringo};
use ringo_table::plan::{self, Step};
use ringo_table::{exec, AggOp, Predicate, Schema, Table, TableError};

/// A lazy query under construction. Created by [`Ringo::query`]; verbs
/// chain by value and nothing executes until [`QueryBuilder::collect`].
#[derive(Clone, Debug)]
pub struct QueryBuilder<'a> {
    ringo: &'a Ringo,
    tables: Vec<&'a Table>,
    steps: Vec<Step>,
}

impl Ringo {
    /// Starts a lazy query over `table`. Chain relational verbs on the
    /// returned builder, then [`QueryBuilder::collect`] to run the chain
    /// with a single materialization pass:
    ///
    /// ```
    /// use ringo_core::{Predicate, Ringo, Table};
    ///
    /// let ringo = Ringo::with_threads(2);
    /// let mut t = Table::from_int_column("x", (0..100).collect());
    /// t.add_int_column("y", (0..100).map(|v| v * 2).collect()).unwrap();
    /// let out = ringo
    ///     .query(&t)
    ///     .select(&Predicate::int("x", ringo_core::Cmp::Lt, 50))
    ///     .select(&Predicate::int("x", ringo_core::Cmp::Ge, 10))
    ///     .project(&["y"])
    ///     .collect()
    ///     .unwrap();
    /// assert_eq!(out.n_rows(), 40);
    /// assert_eq!(out.n_cols(), 1);
    /// ```
    pub fn query<'a>(&'a self, table: &'a Table) -> QueryBuilder<'a> {
        QueryBuilder {
            ringo: self,
            tables: vec![table],
            steps: Vec::new(),
        }
    }

    /// Starts a lazy query over the table bound to `name` in `snapshot`.
    ///
    /// Because the snapshot holds one root, every query resolved through
    /// it — including tables pulled in later by
    /// [`QueryBuilder::join_named`] — reads the same version of the
    /// catalog, no matter how many publishes land in between collects.
    ///
    /// ```
    /// use ringo_core::{Ringo, Table};
    ///
    /// let ringo = Ringo::with_threads(2);
    /// ringo.publish_table("t", Table::from_int_column("x", vec![1, 2, 3]));
    /// let snap = ringo.snapshot();
    /// ringo.publish_table("t", Table::from_int_column("x", vec![9]));
    /// let out = ringo.query_at(&snap, "t").unwrap().collect().unwrap();
    /// assert_eq!(out.n_rows(), 3, "reads the pinned version");
    /// ```
    pub fn query_at<'a>(&'a self, snapshot: &'a Snapshot, name: &str) -> Result<QueryBuilder<'a>> {
        Ok(self.query(resolve_table(snapshot, name)?))
    }
}

/// Resolves `name` to a table borrow in `snapshot`, mapping a missing or
/// non-table binding to [`TableError::InvalidArgument`].
fn resolve_table<'a>(snapshot: &'a Snapshot, name: &str) -> Result<&'a Table> {
    snapshot
        .table(name)
        .map(|t| &**t)
        .ok_or_else(|| TableError::InvalidArgument(format!("no table {name:?} in snapshot")))
}

impl<'a> QueryBuilder<'a> {
    fn push(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Filters rows by `predicate` (lazy [`Table::select`]).
    pub fn select(self, predicate: &Predicate) -> Self {
        self.push(Step::Select(predicate.clone()))
    }

    /// Keeps only `cols`, in order (lazy [`Table::project`]).
    pub fn project(self, cols: &[&str]) -> Self {
        self.push(Step::Project(strings(cols)))
    }

    /// Hash-joins the query so far with `other` on
    /// `left_col == right_col` (lazy [`Table::join`]; same clash-suffix
    /// output layout).
    pub fn join(mut self, other: &'a Table, left_col: &str, right_col: &str) -> Self {
        self.tables.push(other);
        let table = self.tables.len() - 1;
        self.push(Step::Join {
            table,
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
        })
    }

    /// Like [`QueryBuilder::join`], but the right side is resolved by
    /// name from a pinned [`Snapshot`] — the same consistent version of
    /// the catalog the rest of the query reads.
    pub fn join_named(
        self,
        snapshot: &'a Snapshot,
        name: &str,
        left_col: &str,
        right_col: &str,
    ) -> Result<Self> {
        Ok(self.join(resolve_table(snapshot, name)?, left_col, right_col))
    }

    /// Groups and aggregates (lazy [`Table::group_by`]).
    pub fn group_by(
        self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Self {
        self.push(Step::GroupBy {
            group_cols: strings(group_cols),
            agg_col: agg_col.map(str::to_string),
            op,
            out_name: out_name.to_string(),
        })
    }

    /// Sorts by `cols` (lazy [`Table::order_by`]; the sort becomes a
    /// permutation of the selection vector, not a data shuffle).
    pub fn order_by(self, cols: &[&str], ascending: bool) -> Self {
        let cols = strings(cols);
        self.push(Step::OrderBy { cols, ascending })
    }

    /// Predecessor–successor join (lazy [`Table::next_k`]).
    pub fn next_k(self, group_col: Option<&str>, order_col: &str, k: usize) -> Self {
        self.push(Step::NextK {
            group_col: group_col.map(str::to_string),
            order_col: order_col.to_string(),
            k,
        })
    }

    /// The output schema this query will produce. Runs the chain on
    /// zero-row views of its tables, so it reads no rows and its errors
    /// are the eager verbs' own.
    pub fn schema(&self) -> Result<Schema> {
        Ok(exec::validate(&self.steps, &self.tables)?.schema().clone())
    }

    /// Validates the query like [`QueryBuilder::schema`] and prints the
    /// chain [`QueryBuilder::collect`] would run, one line a step in step
    /// order. Reads no rows.
    pub fn explain(&self) -> Result<String> {
        exec::validate(&self.steps, &self.tables)?;
        Ok(plan::display(&self.steps, &self.tables))
    }

    /// Like [`QueryBuilder::explain`], but executes the chain and renders
    /// the `"query"` record [`QueryBuilder::collect`] would log: every
    /// step's rows, wall time and share, and for morsel-driven ones
    /// morsels, pool workers and their busy split. Observe-only: the
    /// output table is discarded and the record is not logged.
    pub fn explain_analyze(&self) -> Result<String> {
        let (_, rec) = self.execute()?;
        Ok(plan::display_executed(
            &self.steps,
            &self.tables,
            &rec.plan,
            rec.gathers,
            rec.wall.as_nanos() as u64,
        ))
    }

    /// Executes the chain with one gather pass, logs a `"query"` op-log
    /// record with what each step did (see [`crate::OpRecord::plan`]),
    /// and returns the materialized table.
    pub fn collect(self) -> Result<Table> {
        let (table, record) = self.execute()?;
        self.ringo.ops.push(record);
        Ok(table)
    }

    /// The one execution path: runs the chain under the op-log's
    /// measuring helper and returns the output table and the (unlogged)
    /// `"query"` record.
    fn execute(&self) -> Result<(Table, OpRecord)> {
        use std::fmt::Write;
        let rows_in = self.tables.iter().map(|t| t.n_rows()).sum();
        let (executed, record) = OpRecord::measure("query", rows_in, || {
            exec::execute(&self.steps, &self.tables)
        })?;
        let mut params = String::new();
        for s in &executed.stats {
            // Morsel-driven steps record their dispatch inside the
            // brackets: `select[5155 m16 w4]` = 5155 rows out, 16 morsels
            // executed by 4 distinct pool workers.
            let _ = match s.morsels {
                0 => write!(params, "{}[{}] ", s.op, s.rows_out),
                m => write!(params, "{}[{} m{m} w{}] ", s.op, s.rows_out, s.workers),
            };
        }
        let _ = write!(params, "gathers={}", executed.gathers);
        let mut table = executed.table;
        table.set_threads(self.ringo.threads);
        let record = OpRecord {
            params,
            rows_out: table.n_rows() as u64,
            plan: executed.stats,
            gathers: executed.gathers,
            ..record
        };
        Ok((table, record))
    }
}

fn strings(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, Predicate, Ringo};
    use ringo_table::{AggOp, ColumnType, Table};

    fn sample() -> Table {
        let mut t = Table::from_int_column("id", (0..200).collect());
        t.add_int_column("val", (0..200).map(|v| v % 7).collect())
            .unwrap();
        t.add_float_column("score", (0..200).map(|v| v as f64 * 0.5).collect())
            .unwrap();
        t
    }

    #[test]
    fn lazy_chain_matches_eager_chain() {
        let ringo = Ringo::with_threads(2);
        let t = sample();
        let p1 = Predicate::int("id", Cmp::Lt, 150);
        let p2 = Predicate::int("val", Cmp::Eq, 3);
        let lazy = ringo
            .query(&t)
            .select(&p1)
            .select(&p2)
            .project(&["id", "score"])
            .collect()
            .unwrap();
        let eager = t
            .select(&p1)
            .unwrap()
            .select(&p2)
            .unwrap()
            .project(&["id", "score"])
            .unwrap();
        assert_eq!(lazy.n_rows(), eager.n_rows());
        assert_eq!(lazy.int_col("id").unwrap(), eager.int_col("id").unwrap());
        assert_eq!(lazy.row_ids(), eager.row_ids());
        assert_eq!(lazy.threads(), 2, "output adopts context threads");
    }

    #[test]
    fn join_on_an_i64_min_key_matches_like_any_key() {
        let ringo = Ringo::with_threads(2);
        let mut t = sample();
        let keys = Table::from_int_column("k", vec![3, i64::MIN]);
        let lazy = ringo.query(&t).join(&keys, "id", "k").collect().unwrap();
        let eager = ringo.join(&t, &keys, "id", "k").unwrap();
        assert_eq!(lazy.int_col("k").unwrap(), eager.int_col("k").unwrap());
        // `sample` holds no `i64::MIN` id; once it does, the key matches.
        let matched = lazy.n_rows();
        t.push_row(&[i64::MIN.into(), 0i64.into(), 0.0f64.into()])
            .unwrap();
        let probe = Table::from_int_column("k", vec![i64::MIN; 300]);
        let out = ringo.query(&t).join(&probe, "id", "k").collect().unwrap();
        assert_eq!(out.n_rows(), 300);
        let out = ringo.query(&t).join(&keys, "id", "k").collect().unwrap();
        assert_eq!(out.n_rows(), matched + 1);
    }

    #[test]
    fn query_logs_plan_shape_with_single_gather() {
        let ringo = Ringo::with_threads(2);
        let t = sample();
        ringo
            .query(&t)
            .select(&Predicate::int("val", Cmp::Lt, 3))
            .select(&Predicate::int("id", Cmp::Ge, 10))
            .project(&["id"])
            .collect()
            .unwrap();
        let log = ringo.op_log();
        let rec = log
            .iter()
            .rev()
            .find(|r| r.name == "query")
            .expect("query recorded");
        assert!(rec.params.contains("scan[200]"), "params: {}", rec.params);
        assert!(rec.params.contains("gathers=1"), "params: {}", rec.params);
        assert_eq!(rec.rows_in, 200);
        // The chain runs as written: both selects execute.
        assert_eq!(rec.params.matches("select[").count(), 2);
    }

    #[test]
    fn join_and_group_through_builder() {
        let ringo = Ringo::with_threads(2);
        let left = sample();
        let right = Table::from_int_column("val", vec![0, 1, 2]);
        let lazy = ringo
            .query(&left)
            .join(&right, "val", "val")
            .group_by(&["val"], None, AggOp::Count, "n")
            .collect()
            .unwrap();
        let eager = left
            .join(&right, "val", "val")
            .unwrap()
            .group_by(&["val"], None, AggOp::Count, "n")
            .unwrap();
        assert_eq!(lazy.n_rows(), eager.n_rows());
        assert_eq!(lazy.int_col("n").unwrap(), eager.int_col("n").unwrap());
    }

    #[test]
    fn profile_reports_per_operator_times_and_workers() {
        let ringo = Ringo::with_threads(2);
        let t = sample();
        let q = ringo
            .query(&t)
            .select(&Predicate::int("val", Cmp::Lt, 3))
            .project(&["id"]);
        let tree = q.explain_analyze().unwrap();
        // Observe-only: explaining logs no record.
        assert!(ringo.op_log().iter().all(|r| r.name != "query"));
        let out = q.collect().unwrap();
        let log = ringo.op_log();
        let rec = log.iter().find(|r| r.name == "query").unwrap();
        let ops: Vec<&str> = rec.plan.iter().map(|s| s.op).collect();
        assert_eq!(ops, ["scan", "select", "project", "collect"]);
        let select = rec.plan.iter().find(|s| s.op == "select").unwrap();
        assert!(select.morsels >= 1, "select is morsel-driven");
        assert!(select.workers >= 1);
        assert_eq!(select.busy_ns.len(), select.workers as usize);
        assert!(rec.gathers <= 1);
        assert_eq!(rec.rows_out, out.n_rows() as u64);
        let node_wall: u64 = rec.plan.iter().map(|s| s.wall_ns).sum();
        assert!(
            node_wall as u128 <= rec.wall.as_nanos(),
            "nodes inside the query"
        );

        // The rendered select line: wall share, dispatch, and a busy split
        // whose shares sum to 100% (up to rounding each to a whole percent).
        let line = tree.lines().find(|l| l.trim_start().starts_with("Select"));
        let line = line.unwrap();
        assert!(line.contains("%) morsels="), "{tree}");
        let busy = line.split("busy=").nth(1).expect("busy split");
        let shares: Vec<f64> = busy
            .split('/')
            .map(|s| s.trim_end_matches('%').parse().unwrap())
            .collect();
        let workers = line.split("workers=").nth(1).unwrap().split(' ').next();
        let workers: usize = workers.unwrap().parse().unwrap();
        assert_eq!(shares.len(), workers, "{line}");
        let sum: f64 = shares.iter().sum();
        assert!((sum - 100.0).abs() <= 0.5 * shares.len() as f64, "{line}");
        assert!(tree.contains("Collect rows="), "{tree}");
        assert!(tree.contains(" total="), "{tree}");
    }

    #[test]
    fn snapshot_resolved_query_reads_one_version() {
        let ringo = Ringo::with_threads(2);
        ringo.publish_table("posts", sample());
        ringo.publish_table("vals", Table::from_int_column("val", vec![0, 1, 2]));
        let snap = ringo.snapshot();
        // Publishes landing mid-session must not leak into the pinned
        // snapshot — not even for tables joined in by name later.
        ringo.publish_table("posts", Table::from_int_column("id", vec![1]));
        ringo.publish_table("vals", Table::from_int_column("val", vec![7]));
        let out = ringo
            .query_at(&snap, "posts")
            .unwrap()
            .select(&Predicate::int("id", Cmp::Lt, 50))
            .join_named(&snap, "vals", "val", "val")
            .unwrap()
            .group_by(&["val"], None, AggOp::Count, "n")
            .collect()
            .unwrap();
        assert_eq!(out.n_rows(), 3, "joined the pinned 3-row vals table");
        let n: i64 = out.int_col("n").unwrap().iter().sum();
        // ids 0..50 with id%7 == 0 (8 of them), 1 (7), or 2 (7).
        assert_eq!(n, 22);
        // Unknown names and non-tables error cleanly.
        assert!(ringo.query_at(&snap, "nope").is_err());
    }

    #[test]
    fn schema_validates_without_executing() {
        let ringo = Ringo::with_threads(2);
        let t = sample();
        let q = ringo.query(&t).project(&["id"]);
        let s = q.clone().schema().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.column_type(0), ColumnType::Int);
        // A column projected away errors at plan time, like the eager path.
        assert!(q
            .select(&Predicate::int("val", Cmp::Eq, 1))
            .collect()
            .is_err());
        assert!(ringo.op_log().iter().all(|r| r.name != "query"));
    }
}
