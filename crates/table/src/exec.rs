//! Chain executor with late materialization.
//!
//! Folds a lazy query's [`Step`]s over a table *view* — shared columns,
//! each read through a selection of surviving row positions — calling
//! the view kernels the eager verbs call. Select narrows the selections,
//! Project drops columns, OrderBy permutes them (its sort columns come
//! back whole when it decodes them off its sorted words), Join and NextK
//! read their inputs through their position lists; only GroupBy (whose
//! output is a genuinely new table) materializes mid-chain, and the final
//! view is gathered into the output table exactly once, at collect time:
//! an N-step chain touches full column data once, not N times.
//!
//! Each step records a `plan.<op>` trace span; the single gather records
//! the `table.gather` span, so one `table.gather` per `collect()` is
//! observable in trace output. Morsel-driven steps (select, join, group)
//! dispatch through the `_traced` morsel helpers, so every individual
//! morsel records a `plan.morsel.<op>` span in the executing thread's
//! flight-recorder buffer (nested under the step's span on the
//! dispatching thread, top-level on pool workers). Each [`NodeStat`] also
//! carries always-on wall time and the per-worker busy split; the facade
//! moves them into the query's op-log record.

use crate::ops::join;
use crate::plan::Step;
use crate::{Result, Table, TableError};
use ringo_concurrent::MorselStats;

/// What one executed step (or the scan, or the collect) did.
#[derive(Clone, Debug)]
pub struct NodeStat {
    /// Short operator name (`scan`, `select`, `join`, ... and the final
    /// `collect`).
    pub op: &'static str,
    /// Rows flowing out of the step.
    pub rows_out: u64,
    /// Morsels dispatched by the step's kernel (0 for steps that are not
    /// morsel-driven: scan, project, order, nextk, collect).
    pub morsels: u32,
    /// Distinct pool workers that executed at least one morsel (0 when
    /// `morsels` is 0).
    pub workers: u32,
    /// Wall time of the step, nanoseconds (always recorded, even with
    /// tracing disabled — the executor times every step inline).
    pub wall_ns: u64,
    /// Busy nanoseconds per executing worker, sorted descending (empty
    /// for steps that are not morsel-driven). The spread exposes skew.
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

    /// Stamps the step's wall time from its start instant.
    fn timed(mut self, started: std::time::Instant) -> Self {
        self.wall_ns = started.elapsed().as_nanos() as u64;
        self
    }
}

/// The result of executing a chain: the output table plus what each step
/// did and the number of gather passes (always 0 or 1 per collect; 1
/// unless the chain's result was already materialized).
#[derive(Debug)]
pub struct Executed {
    /// The materialized output table.
    pub table: Table,
    /// The scan, one stat a step in step order, then `collect`.
    pub stats: Vec<NodeStat>,
    /// How many gather passes ran (0 when the final table was not a
    /// view).
    pub gathers: u32,
}

/// Runs `steps` on `tables[0]` (a join's right side is `tables[i]`) and
/// gathers the result once. Returns the output table along with each
/// step's stats and the gather count. A step that fails returns the
/// error its eager verb would.
pub fn execute(steps: &[Step], tables: &[&Table]) -> Result<Executed> {
    let mut stats = Vec::with_capacity(steps.len() + 2);
    let mut table = fold(steps, tables, &mut stats)?;
    let started = std::time::Instant::now();
    // The single gather of the whole chain: a view's rows, once.
    let gathers = u32::from(table.is_view());
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

/// Checks `steps` against `tables` without reading their rows: folds the
/// chain over zero-row views of the tables, so its errors are the ones
/// the eager verb chain would report. Returns the (empty) result, whose
/// schema is the query's. The steps record their spans, with zero rows.
pub fn validate(steps: &[Step], tables: &[&Table]) -> Result<Table> {
    let empty: Vec<Table> = tables.iter().map(|t| t.view_rows(Vec::new())).collect();
    fold(steps, &empty.iter().collect::<Vec<_>>(), &mut Vec::new())
}

/// Scans `tables[0]`, then applies each step to the result of the last.
fn fold(steps: &[Step], tables: &[&Table], stats: &mut Vec<NodeStat>) -> Result<Table> {
    let started = std::time::Instant::now();
    let mut frame = bound(tables, 0)?.clone();
    stats.push(NodeStat::new("scan", frame.n_rows() as u64).timed(started));
    for step in steps {
        frame = run(step, frame, tables, stats)?;
    }
    Ok(frame)
}

/// Bound table `i`, or the error for a chain that names an unbound one.
fn bound<'t>(tables: &[&'t Table], i: usize) -> Result<&'t Table> {
    tables.get(i).copied().ok_or_else(|| {
        TableError::InvalidArgument(format!(
            "query references table #{i}, only {} bound",
            tables.len()
        ))
    })
}

/// Runs one step; its result is a view whenever it only narrows,
/// reorders or projects its input.
fn run(step: &Step, frame: Table, tables: &[&Table], stats: &mut Vec<NodeStat>) -> Result<Table> {
    let started = std::time::Instant::now();
    let (out, stat) = match step {
        Step::Select(predicate) => {
            let mut sp = ringo_trace::span!("plan.select");
            sp.rows_in(frame.n_rows());
            let (sel, mstats) = frame.select_sel_stats(predicate)?;
            sp.rows_out(sel.len());
            let stat = NodeStat::with_morsels("select", sel.len() as u64, mstats);
            (frame.view_rows(sel), stat)
        }
        Step::Project(cols) => {
            let mut sp = ringo_trace::span!("plan.project");
            sp.rows_in(frame.n_rows());
            sp.rows_out(frame.n_rows());
            let out = frame.project(&cols.iter().map(String::as_str).collect::<Vec<_>>())?;
            let stat = NodeStat::new("project", out.n_rows() as u64);
            (out, stat)
        }
        Step::Join {
            table,
            left_col,
            right_col,
        } => {
            let right = bound(tables, *table)?;
            let mut sp = ringo_trace::span!("plan.join");
            sp.rows_in(frame.n_rows() + right.n_rows());
            let li = frame.schema().index_of(left_col)?;
            let ri = right.schema().index_of(right_col)?;
            let (out, mstats) = join::equi_join(&frame, right, li, ri)?;
            sp.rows_out(out.n_rows());
            let stat = NodeStat::with_morsels("join", out.n_rows() as u64, mstats);
            (out, stat)
        }
        Step::GroupBy {
            group_cols,
            agg_col,
            op,
            out_name,
        } => {
            let mut sp = ringo_trace::span!("plan.group");
            sp.rows_in(frame.n_rows());
            let gcols: Vec<&str> = group_cols.iter().map(String::as_str).collect();
            let (out, mstats) = frame.group_by_sel(&gcols, agg_col.as_deref(), *op, out_name)?;
            sp.rows_out(out.n_rows());
            let stat = NodeStat::with_morsels("group", out.n_rows() as u64, mstats);
            (out, stat)
        }
        Step::OrderBy { cols, ascending } => {
            let mut sp = ringo_trace::span!("plan.order");
            sp.rows_in(frame.n_rows());
            sp.rows_out(frame.n_rows());
            let scols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let out = frame.sorted_view(&scols, *ascending)?;
            let stat = NodeStat::new("order", out.n_rows() as u64);
            (out, stat)
        }
        Step::NextK {
            group_col,
            order_col,
            k,
        } => {
            let mut sp = ringo_trace::span!("plan.nextk");
            sp.rows_in(frame.n_rows());
            let out = frame.next_k_join(group_col.as_deref(), order_col, *k)?;
            sp.rows_out(out.n_rows());
            let stat = NodeStat::new("nextk", out.n_rows() as u64);
            (out, stat)
        }
    };
    stats.push(stat.timed(started));
    Ok(out)
}
