//! Plan executor with late materialization.
//!
//! Executes a [`Plan`] by threading a table *view* — shared columns plus
//! a selection vector of surviving row positions — between operators
//! instead of materializing an intermediate table per verb. Select narrows
//! the selection, Project drops columns, OrderBy permutes the selection;
//! only Join, GroupBy and NextK (whose outputs are genuinely new tables)
//! materialize mid-plan, and the final view is gathered into the output
//! table exactly once, at collect time. This is the
//! late-materialization discipline that makes a column store competitive
//! on chained relational verbs: an N-step select/project chain touches
//! full column data once, not N times.
//!
//! Each executed node records a `plan.<op>` trace span; the single
//! gather records the `table.gather` span, so one `table.gather` per
//! `collect()` is observable in trace output. Morsel-driven operators
//! (select, join, group) dispatch through the `_traced` morsel helpers,
//! so every individual morsel records a `plan.morsel.<op>` span in the
//! executing thread's flight-recorder buffer (nested under the operator
//! span on the dispatching thread, top-level on pool workers). Each
//! [`NodeStat`] also carries always-on wall time and the per-worker busy
//! split; the facade moves them into the query's op-log record.

use crate::ops::join::{self, JoinOutCol, JoinSide};
use crate::plan::{Plan, Side};
use crate::{Result, Table, TableError};
use ringo_concurrent::MorselStats;

/// Cardinality record for one executed plan node, in post-order.
#[derive(Clone, Debug)]
pub struct NodeStat {
    /// Short operator name (`scan`, `select`, `join`, ... and the final
    /// `collect`).
    pub op: &'static str,
    /// Rows flowing out of the node.
    pub rows_out: u64,
    /// Morsels dispatched by the node's kernel (0 for nodes that are not
    /// morsel-driven: scan, project, order, nextk, collect).
    pub morsels: u32,
    /// Distinct pool workers that executed at least one morsel (0 when
    /// `morsels` is 0).
    pub workers: u32,
    /// Wall time of the node, nanoseconds (always recorded, even with
    /// tracing disabled — the plan executor times every node inline).
    pub wall_ns: u64,
    /// Busy nanoseconds per executing worker, sorted descending (empty
    /// for nodes that are not morsel-driven). The spread exposes skew.
    pub busy_ns: Vec<u64>,
}

impl NodeStat {
    fn new(op: &'static str, rows_out: u64) -> Self {
        NodeStat {
            op,
            rows_out,
            morsels: 0,
            workers: 0,
            wall_ns: 0,
            busy_ns: Vec::new(),
        }
    }

    fn with_morsels(op: &'static str, rows_out: u64, m: MorselStats) -> Self {
        NodeStat {
            op,
            rows_out,
            morsels: m.morsels,
            workers: m.workers,
            wall_ns: 0,
            busy_ns: m.busy_ns,
        }
    }

    /// Stamps the node's wall time from its start instant.
    fn timed(mut self, started: std::time::Instant) -> Self {
        self.wall_ns = started.elapsed().as_nanos() as u64;
        self
    }
}

/// The result of executing a plan: the output table plus the per-node
/// cardinalities and the number of gather passes (always 0 or 1 per
/// collect; 1 unless the plan's result was already materialized).
#[derive(Debug)]
pub struct Executed {
    /// The materialized output table.
    pub table: Table,
    /// Per-node cardinalities, post-order, ending with `collect`.
    pub stats: Vec<NodeStat>,
    /// How many gather passes ran (0 when the final table was not a
    /// view).
    pub gathers: u32,
}

/// Executes `plan` against `tables`, validating it first. Returns the
/// output table along with per-node cardinalities and the gather count.
///
/// Run [`Plan::optimize`] beforehand to get fusion/pushdown/pruning; this
/// function executes whatever tree it is given.
pub fn execute(plan: &Plan, tables: &[&Table]) -> Result<Executed> {
    plan.schema(tables)?;
    let mut stats = Vec::new();
    let mut table = run(plan, tables, &mut stats)?;
    let started = std::time::Instant::now();
    // The single gather of the whole plan: a view's rows, once.
    let gathers = u32::from(table.sel().is_some());
    if gathers > 0 {
        let mut sp = ringo_trace::span!("table.gather");
        sp.rows_in(table.n_rows());
        table.materialize();
        sp.rows_out(table.n_rows());
    }
    stats.push(NodeStat::new("collect", table.n_rows() as u64).timed(started));
    Ok(Executed {
        table,
        stats,
        gathers,
    })
}

/// Runs one node; its result is a view whenever it only narrows,
/// reorders or projects its input.
fn run(plan: &Plan, tables: &[&Table], stats: &mut Vec<NodeStat>) -> Result<Table> {
    match plan {
        Plan::Scan { table } => {
            let started = std::time::Instant::now();
            let t = tables.get(*table).ok_or_else(|| {
                TableError::InvalidArgument(format!(
                    "plan references table #{table}, only {} bound",
                    tables.len()
                ))
            })?;
            stats.push(NodeStat::new("scan", t.n_rows() as u64).timed(started));
            Ok((*t).clone())
        }
        Plan::Select {
            input, predicate, ..
        } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.select");
            sp.rows_in(frame.n_rows());
            let (sel, mstats) = frame.select_sel_stats(predicate)?;
            sp.rows_out(sel.len());
            stats.push(NodeStat::with_morsels("select", sel.len() as u64, mstats).timed(started));
            Ok(frame.with_sel(sel))
        }
        Plan::Project { input, cols, .. } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.project");
            sp.rows_in(frame.n_rows());
            sp.rows_out(frame.n_rows());
            let out = frame.project(&cols.iter().map(String::as_str).collect::<Vec<_>>())?;
            stats.push(NodeStat::new("project", out.n_rows() as u64).timed(started));
            Ok(out)
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
            keep,
        } => {
            let lf = run(left, tables, stats)?;
            let rf = run(right, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.join");
            sp.rows_in(lf.n_rows() + rf.n_rows());
            let li = lf.schema().index_of(left_col)?;
            let ri = rf.schema().index_of(right_col)?;
            let (lrows, rrows, mstats) = join::join_pairs_sel_stats(&lf, &rf, li, ri)?;
            let out_cols: Vec<JoinOutCol> = match keep {
                Some(kept) => kept
                    .iter()
                    .map(|kc| {
                        let (frame, side) = match kc.side {
                            Side::Left => (&lf, JoinSide::Left),
                            Side::Right => (&rf, JoinSide::Right),
                        };
                        Ok(JoinOutCol {
                            side,
                            col: frame.schema().index_of(&kc.src)?,
                            name: kc.name.clone(),
                        })
                    })
                    .collect::<Result<_>>()?,
                None => join::join_out_cols(&lf, &rf),
            };
            let out = join::materialize_join_cols(&lf, &rf, &lrows, &rrows, &out_cols)?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::with_morsels("join", out.n_rows() as u64, mstats).timed(started));
            Ok(out)
        }
        Plan::GroupBy {
            input,
            group_cols,
            agg_col,
            op,
            out_name,
        } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.group");
            sp.rows_in(frame.n_rows());
            let gcols: Vec<&str> = group_cols.iter().map(String::as_str).collect();
            let (out, mstats) = frame.group_by_sel(&gcols, agg_col.as_deref(), *op, out_name)?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::with_morsels("group", out.n_rows() as u64, mstats).timed(started));
            Ok(out)
        }
        Plan::OrderBy {
            input,
            cols,
            ascending,
        } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.order");
            sp.rows_in(frame.n_rows());
            sp.rows_out(frame.n_rows());
            let scols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let sel = frame.order_perm_sel(&scols, *ascending)?;
            stats.push(NodeStat::new("order", sel.len() as u64).timed(started));
            Ok(frame.with_sel(sel))
        }
        Plan::NextK {
            input,
            group_col,
            order_col,
            k,
        } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.nextk");
            sp.rows_in(frame.n_rows());
            let (lrows, rrows) = frame.next_k_pairs_sel(group_col.as_deref(), order_col, *k)?;
            let out = join::materialize_join(&frame, &frame, &lrows, &rrows)?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::new("nextk", out.n_rows() as u64).timed(started));
            Ok(out)
        }
    }
}
