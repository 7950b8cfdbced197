//! Lazy query building over the facade: [`crate::Ringo::query`].
//!
//! Where the eager facade verbs ([`crate::Ringo::select`],
//! [`crate::Ringo::join`], ...) each materialize a full intermediate
//! table, a [`QueryBuilder`] accumulates the verbs into a logical
//! [`Plan`], optimizes it (select fusion, select pushdown, column
//! pruning) and executes it with late materialization: column data is
//! gathered exactly once, at [`QueryBuilder::collect`]. The op-log
//! records one `"query"` entry whose params line is the optimized plan
//! shape with per-operator output cardinalities — morsel-driven nodes
//! add their dispatch stats inside the brackets — e.g.
//! `scan[1000000] select[37 m16 w4] project[37] collect[37] gathers=1`
//! (16 morsels executed by 4 distinct pool workers).

use crate::catalog::Snapshot;
use crate::{Result, Ringo};
use ringo_table::exec;
use ringo_table::plan::Plan;
use ringo_table::{AggOp, Predicate, Schema, Table, TableError};

/// A lazy query under construction. Created by [`Ringo::query`]; verbs
/// chain by value and nothing executes until [`QueryBuilder::collect`]
/// (or [`QueryBuilder::explain`], which only plans).
#[derive(Clone, Debug)]
pub struct QueryBuilder<'a> {
    ringo: &'a Ringo,
    tables: Vec<&'a Table>,
    plan: Plan,
}

impl Ringo {
    /// Starts a lazy query over `table`. Chain relational verbs on the
    /// returned builder, then [`QueryBuilder::collect`] to run the
    /// optimized plan with a single materialization pass:
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
            plan: Plan::scan(0),
        }
    }

    /// Starts a lazy query over the table bound to `name` in `snapshot`.
    ///
    /// Because the snapshot pins one epoch, every query resolved through
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
    /// Filters rows by `predicate` (lazy [`Table::select`]).
    pub fn select(mut self, predicate: &Predicate) -> Self {
        self.plan = Plan::select(self.plan, predicate.clone());
        self
    }

    /// Keeps only `cols`, in order (lazy [`Table::project`]).
    pub fn project(mut self, cols: &[&str]) -> Self {
        self.plan = Plan::project(self.plan, cols.iter().map(|c| (*c).to_string()).collect());
        self
    }

    /// Hash-joins the query so far with `other` on
    /// `left_col == right_col` (lazy [`Table::join`]; same clash-suffix
    /// output layout).
    pub fn join(mut self, other: &'a Table, left_col: &str, right_col: &str) -> Self {
        let idx = self.tables.len();
        self.tables.push(other);
        self.plan = Plan::join(self.plan, Plan::scan(idx), left_col, right_col);
        self
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
        mut self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Self {
        self.plan = Plan::group_by(
            self.plan,
            group_cols.iter().map(|c| (*c).to_string()).collect(),
            agg_col.map(str::to_string),
            op,
            out_name,
        );
        self
    }

    /// Sorts by `cols` (lazy [`Table::order_by`]; the sort becomes a
    /// permutation of the selection vector, not a data shuffle).
    pub fn order_by(mut self, cols: &[&str], ascending: bool) -> Self {
        self.plan = Plan::order_by(
            self.plan,
            cols.iter().map(|c| (*c).to_string()).collect(),
            ascending,
        );
        self
    }

    /// Predecessor–successor join (lazy [`Table::next_k`]).
    pub fn next_k(mut self, group_col: Option<&str>, order_col: &str, k: usize) -> Self {
        self.plan = Plan::next_k(self.plan, group_col.map(str::to_string), order_col, k);
        self
    }

    /// The output schema this query will produce, validating every
    /// column reference without executing anything.
    pub fn schema(&self) -> Result<Schema> {
        self.plan.schema(&self.tables)
    }

    /// The logical plan as built so far (before optimization).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Validates the query, optimizes it, and pretty-prints the
    /// *optimized* plan — what [`QueryBuilder::collect`] would actually
    /// run — annotated with `(fused n)` / `(pushed)` / `(pruned)`
    /// markers. Nothing is executed.
    pub fn explain(&self) -> Result<String> {
        self.plan.schema(&self.tables)?;
        let optimized = self.plan.clone().optimize(&self.tables)?;
        Ok(optimized.display(&self.tables))
    }

    /// Like [`QueryBuilder::explain`], but actually executes the
    /// optimized plan and annotates every node with its observed output
    /// cardinality plus, for morsel-driven operators, how many morsels
    /// were dispatched and how many pool workers ran them. The
    /// materialized output table is discarded; no `"query"` op-log
    /// record is written.
    pub fn explain_analyze(&self) -> Result<String> {
        self.plan.schema(&self.tables)?;
        let optimized = self.plan.clone().optimize(&self.tables)?;
        let executed = exec::execute(&optimized, &self.tables)?;
        Ok(optimized.display_executed(&self.tables, &executed.stats, executed.gathers))
    }

    /// Executes the optimized plan and returns a structured per-operator
    /// profile: wall time, output cardinality, morsel dispatch, and the
    /// per-worker busy split of every node, plus query totals. The
    /// materialized output table is discarded and no `"query"` op-log
    /// record is written — like [`QueryBuilder::explain_analyze`], but
    /// returning data instead of a rendered tree (call
    /// [`QueryProfile::render`] for the human-readable table).
    pub fn profile(&self) -> Result<QueryProfile> {
        self.plan.schema(&self.tables)?;
        let optimized = self.plan.clone().optimize(&self.tables)?;
        let start = std::time::Instant::now();
        let executed = exec::execute(&optimized, &self.tables)?;
        let total_wall_ns = start.elapsed().as_nanos() as u64;
        let rows_out = executed.table.n_rows() as u64;
        let ops = executed
            .stats
            .into_iter()
            .map(|s| OpProfile {
                op: s.op,
                rows_out: s.rows_out,
                morsels: s.morsels,
                workers: s.workers,
                wall_ns: s.wall_ns,
                busy_ns: s.busy_ns,
            })
            .collect();
        Ok(QueryProfile {
            ops,
            rows_out,
            gathers: executed.gathers,
            total_wall_ns,
        })
    }

    /// Validates and optimizes the plan, executes it with one gather
    /// pass, logs a `"query"` op-log record with the executed plan
    /// shape, and returns the materialized table.
    pub fn collect(self) -> Result<Table> {
        use std::fmt::Write;
        // Validate the *raw* plan so optimization can never legalize an
        // invalid query.
        self.plan.schema(&self.tables)?;
        let optimized = self.plan.optimize(&self.tables)?;

        let rows_in: usize = self.tables.iter().map(|t| t.n_rows()).sum();
        let mem_start = ringo_trace::mem::current_bytes();
        let peak_start = ringo_trace::mem::peak_bytes();
        let start = std::time::Instant::now();
        let executed = exec::execute(&optimized, &self.tables)?;
        let wall = start.elapsed();

        let mut params = String::new();
        for stat in &executed.stats {
            // Morsel-driven nodes record their dispatch inside the
            // brackets: `select[5155 m16 w4]` = 5155 rows out, 16 morsels
            // executed by 4 distinct pool workers.
            if stat.morsels > 0 {
                let _ = write!(
                    params,
                    "{}[{} m{} w{}] ",
                    stat.op, stat.rows_out, stat.morsels, stat.workers
                );
            } else {
                let _ = write!(params, "{}[{}] ", stat.op, stat.rows_out);
            }
        }
        let _ = write!(params, "gathers={}", executed.gathers);
        let mut table = executed.table;
        table.set_threads(self.ringo.threads);
        self.ringo.ops.push(crate::OpRecord {
            seq: 0,
            name: "query",
            params,
            rows_in: rows_in as u64,
            rows_out: table.n_rows() as u64,
            wall,
            mem_delta: ringo_trace::mem::current_bytes() as i64 - mem_start as i64,
            mem_peak_delta: ringo_trace::mem::peak_bytes().saturating_sub(peak_start) as u64,
        });
        Ok(table)
    }
}

/// One executed plan node in a [`QueryProfile`], post-order (ending with
/// the final `collect`).
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// Short operator name (`scan`, `select`, `join`, ..., `collect`).
    pub op: &'static str,
    /// Rows flowing out of the node.
    pub rows_out: u64,
    /// Morsels dispatched (0 for non-morsel-driven nodes).
    pub morsels: u32,
    /// Distinct pool workers that executed at least one morsel.
    pub workers: u32,
    /// Wall time of the node in nanoseconds (always recorded).
    pub wall_ns: u64,
    /// Busy nanoseconds per executing worker, sorted descending; the
    /// spread exposes skew (empty for non-morsel-driven nodes).
    pub busy_ns: Vec<u64>,
}

impl OpProfile {
    /// Each worker's share of the node's total busy time, in percent,
    /// matching `busy_ns` order (descending). Empty when the node was not
    /// morsel-driven or recorded no busy time.
    pub fn busy_share(&self) -> Vec<f64> {
        let total: u64 = self.busy_ns.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        self.busy_ns
            .iter()
            .map(|&ns| ns as f64 * 100.0 / total as f64)
            .collect()
    }
}

/// Structured result of [`QueryBuilder::profile`]: per-operator timings
/// and parallelism plus query totals.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Per-node profile entries, post-order, ending with `collect`.
    pub ops: Vec<OpProfile>,
    /// Rows in the (discarded) output table.
    pub rows_out: u64,
    /// Gather passes executed (0 or 1 per collect).
    pub gathers: u32,
    /// End-to-end wall time of the optimized plan, nanoseconds.
    pub total_wall_ns: u64,
}

impl QueryProfile {
    /// Renders the profile as an aligned table: one row per operator with
    /// wall time, its share of the total, output rows, morsel dispatch,
    /// and the per-worker busy split.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query profile  total={}  rows={}  gathers={}",
            ringo_trace::fmt_ns(self.total_wall_ns),
            self.rows_out,
            self.gathers
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>10} {:>10} {:>5} {:>8} {:>8}  busy share",
            "op", "rows", "time", "%", "morsels", "workers"
        );
        for op in &self.ops {
            let pct = if self.total_wall_ns > 0 {
                op.wall_ns as f64 * 100.0 / self.total_wall_ns as f64
            } else {
                0.0
            };
            let _ = write!(
                out,
                "  {:<8} {:>10} {:>10} {:>4.0}%",
                op.op,
                op.rows_out,
                ringo_trace::fmt_ns(op.wall_ns),
                pct
            );
            if op.morsels > 0 {
                let _ = write!(out, " {:>8} {:>8}  ", op.morsels, op.workers);
                let shares = op.busy_share();
                for (i, s) in shares.iter().enumerate() {
                    if i > 0 {
                        out.push('/');
                    }
                    let _ = write!(out, "{s:.0}%");
                }
            }
            out.push('\n');
        }
        out
    }
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
        // Fused: exactly one select node executed.
        assert_eq!(rec.params.matches("select[").count(), 1);
    }

    #[test]
    fn explain_shows_optimizer_markers() {
        let ringo = Ringo::with_threads(2);
        let t = sample();
        let q = ringo
            .query(&t)
            .project(&["id", "val"])
            .select(&Predicate::int("val", Cmp::Lt, 3))
            .select(&Predicate::int("id", Cmp::Ge, 10));
        let plan = q.explain().unwrap();
        assert!(plan.contains("(fused 2)"), "plan:\n{plan}");
        assert!(plan.contains("(pushed)"), "plan:\n{plan}");
        assert!(plan.contains("Scan #0"), "plan:\n{plan}");
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
        let p = q.profile().unwrap();
        let ops: Vec<&str> = p.ops.iter().map(|o| o.op).collect();
        // The optimizer may insert a pruning projection before the select, so
        // assert on the load-bearing shape rather than the exact node list.
        assert_eq!(ops.first(), Some(&"scan"));
        assert_eq!(ops.last(), Some(&"collect"));
        assert!(
            ops.contains(&"select") && ops.contains(&"project"),
            "{ops:?}"
        );
        let select = p.ops.iter().find(|o| o.op == "select").unwrap();
        assert!(select.morsels >= 1, "select is morsel-driven");
        assert!(select.workers >= 1);
        assert_eq!(select.busy_ns.len(), select.workers as usize);
        let shares = select.busy_share();
        if !shares.is_empty() {
            assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        }
        assert!(p.gathers <= 1);
        let rendered = p.render();
        assert!(rendered.contains("query profile"), "{rendered}");
        assert!(rendered.contains("select"), "{rendered}");
        assert!(rendered.contains("busy share"), "{rendered}");
        // No op-log record: profile is observe-only, like explain_analyze.
        assert!(ringo.op_log().iter().all(|r| r.name != "query"));
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
