//! Plan executor with late materialization.
//!
//! Executes a [`Plan`] by threading a *selection vector* — the surviving
//! row positions of an underlying table — between operators instead of
//! materializing an intermediate table per verb. Select narrows the
//! vector, Project narrows the visible columns, OrderBy permutes the
//! vector; only Join, GroupBy and NextK (whose outputs are genuinely new
//! tables) materialize mid-plan, and the final [`Frame`] is gathered into
//! the output table exactly once, at collect time. This is the
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
use crate::{Predicate, Result, Schema, Table, TableError};
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
    /// How many gather passes ran (0 when the final frame was already an
    /// owned table with no pending selection or projection).
    pub gathers: u32,
}

/// A table the executor flows between nodes: borrowed from the input list
/// or owned mid-plan (join/group/nextk outputs).
enum Rows<'a> {
    Borrowed(&'a Table),
    Owned(Table),
}

impl Rows<'_> {
    fn table(&self) -> &Table {
        match self {
            Rows::Borrowed(t) => t,
            Rows::Owned(t) => t,
        }
    }
}

/// The executor's in-flight state: an underlying table plus a pending
/// selection (surviving row positions, in order; `None` = all rows) and a
/// pending projection (visible column indices; `None` = all columns).
/// Neither pending part touches column data until collect.
struct Frame<'a> {
    rows: Rows<'a>,
    sel: Option<Vec<u32>>,
    proj: Option<Vec<usize>>,
}

impl Frame<'_> {
    fn n_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows.table().n_rows(),
        }
    }

    /// Resolves a *logical* column name (respecting the pending
    /// projection) to an underlying column index. A column projected away
    /// is not found, exactly as on a materialized projection.
    fn col_index(&self, name: &str) -> Result<usize> {
        let t = self.rows.table();
        match &self.proj {
            None => t.schema().index_of(name),
            Some(p) => p
                .iter()
                .copied()
                .find(|&i| t.schema().name(i) == name)
                .ok_or_else(|| TableError::ColumnNotFound(name.to_string())),
        }
    }

    /// The visible column indices, in logical order.
    fn logical_cols(&self) -> Vec<usize> {
        match &self.proj {
            Some(p) => p.clone(),
            None => (0..self.rows.table().n_cols()).collect(),
        }
    }
}

/// Executes `plan` against `tables`, validating it first. Returns the
/// output table along with per-node cardinalities and the gather count.
///
/// Run [`Plan::optimize`] beforehand to get fusion/pushdown/pruning; this
/// function executes whatever tree it is given.
pub fn execute(plan: &Plan, tables: &[&Table]) -> Result<Executed> {
    plan.schema(tables)?;
    let mut stats = Vec::new();
    let frame = run(plan, tables, &mut stats)?;
    let mut gathers = 0u32;
    let started = std::time::Instant::now();
    let table = collect_frame(frame, &mut gathers)?;
    stats.push(NodeStat::new("collect", table.n_rows() as u64).timed(started));
    Ok(Executed {
        table,
        stats,
        gathers,
    })
}

/// Validates that every column the predicate reads is visible in the
/// frame (a projected-away column must error even though it still exists
/// on the underlying table).
fn validate_pred_cols(frame: &Frame<'_>, pred: &Predicate) -> Result<()> {
    for c in pred.columns() {
        frame.col_index(&c)?;
    }
    Ok(())
}

fn run<'a>(plan: &Plan, tables: &[&'a Table], stats: &mut Vec<NodeStat>) -> Result<Frame<'a>> {
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
            Ok(Frame {
                rows: Rows::Borrowed(t),
                sel: None,
                proj: None,
            })
        }
        Plan::Select {
            input, predicate, ..
        } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.select");
            sp.rows_in(frame.n_rows());
            validate_pred_cols(&frame, predicate)?;
            let (sel, mstats) = frame
                .rows
                .table()
                .select_sel_stats(predicate, frame.sel.as_deref())?;
            sp.rows_out(sel.len());
            stats.push(NodeStat::with_morsels("select", sel.len() as u64, mstats).timed(started));
            Ok(Frame {
                rows: frame.rows,
                sel: Some(sel),
                proj: frame.proj,
            })
        }
        Plan::Project { input, cols, .. } => {
            let frame = run(input, tables, stats)?;
            let started = std::time::Instant::now();
            let mut sp = ringo_trace::span!("plan.project");
            sp.rows_in(frame.n_rows());
            sp.rows_out(frame.n_rows());
            let proj = cols
                .iter()
                .map(|c| frame.col_index(c))
                .collect::<Result<Vec<usize>>>()?;
            stats.push(NodeStat::new("project", frame.n_rows() as u64).timed(started));
            Ok(Frame {
                rows: frame.rows,
                sel: frame.sel,
                proj: Some(proj),
            })
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
            let lt = lf.rows.table();
            let rt = rf.rows.table();
            let li = lf.col_index(left_col)?;
            let ri = rf.col_index(right_col)?;
            let (lrows, rrows, mstats) =
                join::join_pairs_sel_stats(lt, rt, li, ri, lf.sel.as_deref(), rf.sel.as_deref())?;
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
                            col: frame.col_index(&kc.src)?,
                            name: kc.name.clone(),
                        })
                    })
                    .collect::<Result<_>>()?,
                None => {
                    // Full logical width: simulate the clash suffixing
                    // over both frames' visible columns.
                    let mut sim = Schema::default();
                    let mut out = Vec::new();
                    for &i in &lf.logical_cols() {
                        let name = sim.push_unique(lt.schema().name(i), lt.schema().column_type(i));
                        out.push(JoinOutCol {
                            side: JoinSide::Left,
                            col: i,
                            name,
                        });
                    }
                    for &i in &rf.logical_cols() {
                        let name = sim.push_unique(rt.schema().name(i), rt.schema().column_type(i));
                        out.push(JoinOutCol {
                            side: JoinSide::Right,
                            col: i,
                            name,
                        });
                    }
                    out
                }
            };
            let out = join::materialize_join_cols(lt, rt, &lrows, &rrows, &out_cols)?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::with_morsels("join", out.n_rows() as u64, mstats).timed(started));
            Ok(Frame {
                rows: Rows::Owned(out),
                sel: None,
                proj: None,
            })
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
            for c in group_cols {
                frame.col_index(c)?;
            }
            if let Some(a) = agg_col {
                frame.col_index(a)?;
            }
            let gcols: Vec<&str> = group_cols.iter().map(String::as_str).collect();
            let (out, mstats) = frame.rows.table().group_by_sel(
                &gcols,
                agg_col.as_deref(),
                *op,
                out_name,
                frame.sel.as_deref(),
            )?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::with_morsels("group", out.n_rows() as u64, mstats).timed(started));
            Ok(Frame {
                rows: Rows::Owned(out),
                sel: None,
                proj: None,
            })
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
            for c in cols {
                frame.col_index(c)?;
            }
            let scols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let sel =
                frame
                    .rows
                    .table()
                    .order_perm_sel(&scols, *ascending, frame.sel.as_deref())?;
            stats.push(NodeStat::new("order", sel.len() as u64).timed(started));
            Ok(Frame {
                rows: frame.rows,
                sel: Some(sel),
                proj: frame.proj,
            })
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
            if let Some(g) = group_col {
                frame.col_index(g)?;
            }
            frame.col_index(order_col)?;
            let t = frame.rows.table();
            let (lrows, rrows) =
                t.next_k_pairs_sel(group_col.as_deref(), order_col, *k, frame.sel.as_deref())?;
            // Self-join layout over the frame's visible columns.
            let mut sim = Schema::default();
            let mut out_cols = Vec::new();
            for side in [JoinSide::Left, JoinSide::Right] {
                for &i in &frame.logical_cols() {
                    let name = sim.push_unique(t.schema().name(i), t.schema().column_type(i));
                    out_cols.push(JoinOutCol { side, col: i, name });
                }
            }
            let out = join::materialize_join_cols(t, t, &lrows, &rrows, &out_cols)?;
            sp.rows_out(out.n_rows());
            stats.push(NodeStat::new("nextk", out.n_rows() as u64).timed(started));
            Ok(Frame {
                rows: Rows::Owned(out),
                sel: None,
                proj: None,
            })
        }
    }
}

/// Materializes the final frame: the single gather pass of the whole
/// plan. A frame with no pending selection or projection passes through
/// (owned tables move, borrowed tables clone — both without a per-row
/// gather).
fn collect_frame(frame: Frame<'_>, gathers: &mut u32) -> Result<Table> {
    let Frame { rows, sel, proj } = frame;
    if sel.is_none() && proj.is_none() {
        return Ok(match rows {
            Rows::Owned(t) => t,
            Rows::Borrowed(t) => t.clone(),
        });
    }
    let t = rows.table();
    let mut sp = ringo_trace::span!("table.gather");
    sp.rows_in(t.n_rows());
    *gathers += 1;
    let cols_idx = match &proj {
        Some(p) => p.clone(),
        None => (0..t.n_cols()).collect(),
    };
    let schema = Schema::new(
        cols_idx
            .iter()
            .map(|&i| (t.schema().name(i).to_string(), t.schema().column_type(i))),
    );
    let column = |i: usize| match &sel {
        Some(s) => t.column(i).gather_sel(s),
        None => t.column(i).clone(),
    };
    let out = Table {
        schema,
        cols: cols_idx.iter().map(|&i| column(i)).collect(),
        row_ids: sel
            .as_ref()
            .map_or_else(|| t.row_ids.clone(), |s| t.row_ids.gather(s)),
        next_row_id: t.next_row_id,
        pool: t.pool().clone(),
        threads: t.threads(),
    };
    sp.rows_out(out.n_rows());
    Ok(out)
}
