//! Lazy queries over [`Table`]s: a recorded chain of relational verbs.
//!
//! The demo workflow of the paper (§4.1) is a *chain* of relational verbs
//! — Select → Select → Join → GroupBy → ToGraph. A lazy query records
//! that chain as a list of [`Step`]s applied to bound table #0; a join's
//! right side is another bound table, so the chain is the whole query.
//! [`crate::exec::execute`] folds it over the view kernels the eager
//! verbs call and gathers the result once, at collect time. Nothing is
//! rewritten: since a select returns a view and a project copies
//! pointers, the chain runs as written.
//!
//! Validation ([`crate::exec::validate`]) folds the same chain over
//! zero-row views of the bound tables, so a query's errors are the eager
//! verbs' own.

use crate::exec::NodeStat;
use crate::{AggOp, Predicate, Table};

/// One verb of a lazy query, applied to the result of the steps before
/// it (or to bound table #0 for the first step).
#[derive(Clone, Debug)]
pub enum Step {
    /// Keeps the rows matching a predicate ([`Table::select`]).
    Select(Predicate),
    /// Keeps the named columns, in order ([`Table::project`]).
    Project(Vec<String>),
    /// Equi hash join with a bound table ([`Table::join`]).
    Join {
        /// Index of the right side in the executor's table list.
        table: usize,
        /// Key column on the chain so far.
        left_col: String,
        /// Key column on the right side.
        right_col: String,
    },
    /// Group & aggregate ([`Table::group_by`]).
    GroupBy {
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregate source column (`None` only for [`AggOp::Count`]).
        agg_col: Option<String>,
        /// Aggregate function.
        op: AggOp,
        /// Name of the aggregate output column.
        out_name: String,
    },
    /// Multi-column sort, as a permutation of the rows' positions.
    OrderBy {
        /// Sort columns (ties broken by the next column).
        cols: Vec<String>,
        /// Ascending (`true`) or descending.
        ascending: bool,
    },
    /// Predecessor–successor join ([`Table::next_k`]).
    NextK {
        /// Optional grouping column.
        group_col: Option<String>,
        /// Ordering column.
        order_col: String,
        /// Number of successors per row.
        k: usize,
    },
}

/// Renders the chain one line a step, in step order: the scan of table
/// #0 first, then each step.
pub fn display(steps: &[Step], tables: &[&Table]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "Scan {}", table_display(tables, 0));
    for step in steps {
        let _ = match step {
            Step::Select(p) => writeln!(out, "Select {}", predicate_display(p)),
            Step::Project(cols) => writeln!(out, "Project [{}]", cols.join(", ")),
            Step::Join {
                table,
                left_col,
                right_col,
            } => {
                let right = table_display(tables, *table);
                writeln!(out, "Join {left_col} == {right_col} with {right}")
            }
            Step::GroupBy {
                group_cols,
                agg_col,
                op,
                out_name,
            } => {
                let agg = agg_col.as_ref().map(|a| format!("({a})"));
                let agg = agg.unwrap_or_default();
                let keys = group_cols.join(", ");
                writeln!(out, "GroupBy [{keys}] {op:?}{agg} as {out_name}")
            }
            Step::OrderBy { cols, ascending } => {
                let dir = if *ascending { "asc" } else { "desc" };
                writeln!(out, "OrderBy [{}] {dir}", cols.join(", "))
            }
            Step::NextK {
                group_col,
                order_col,
                k,
            } => {
                let group = group_col.as_ref().map(|g| format!(" group={g}"));
                let group = group.unwrap_or_default();
                writeln!(out, "NextK order={order_col} k={k}{group}")
            }
        };
    }
    out
}

/// Like [`display`], but annotates every line with what the executor
/// did — `-> rows=N time=T (P% of total_ns)`, plus
/// `morsels=M workers=W busy=B1%/B2%/…` (each worker's share of the
/// step's busy time) for morsel-driven steps (select, join, group) —
/// and appends the `Collect` line with the gather count and total time.
/// `stats` is the [`NodeStat`] vector of [`crate::exec::Executed`]: the
/// scan, one a step in step order, then `collect`.
pub fn display_executed(
    steps: &[Step],
    tables: &[&Table],
    stats: &[NodeStat],
    gathers: u32,
    total_ns: u64,
) -> String {
    use std::fmt::Write;
    fn pct(part: u64, whole: u64) -> f64 {
        part as f64 * 100.0 / whole.max(1) as f64
    }
    let fmt_ns = ringo_trace::fmt_ns;
    let time = |ns: u64| format!("time={} ({:.0}%)", fmt_ns(ns), pct(ns, total_ns));
    let mut out = String::new();
    for (line, s) in display(steps, tables).lines().zip(stats) {
        out.push_str(line);
        let _ = write!(out, "  -> rows={} {}", s.rows_out, time(s.wall_ns));
        if s.morsels > 0 {
            let _ = write!(out, " morsels={} workers={}", s.morsels, s.workers);
        }
        let busy: u64 = s.busy_ns.iter().sum();
        for (i, &ns) in s.busy_ns.iter().enumerate().filter(|_| busy > 0) {
            out.push_str(if i == 0 { " busy=" } else { "/" });
            let _ = write!(out, "{:.0}%", pct(ns, busy));
        }
        out.push('\n');
    }
    if let Some(c) = stats.get(steps.len() + 1) {
        let (rows, time, total) = (c.rows_out, time(c.wall_ns), fmt_ns(total_ns));
        let _ = writeln!(
            out,
            "Collect rows={rows} gathers={gathers} {time} total={total}"
        );
    }
    out
}

/// `#i [R rows x C cols]`, or `#i [unbound]`.
fn table_display(tables: &[&Table], i: usize) -> String {
    match tables.get(i) {
        Some(t) => format!("#{i} [{} rows x {} cols]", t.n_rows(), t.n_cols()),
        None => format!("#{i} [unbound]"),
    }
}

fn cmp_display(cmp: crate::Cmp) -> &'static str {
    match cmp {
        crate::Cmp::Lt => "<",
        crate::Cmp::Le => "<=",
        crate::Cmp::Eq => "==",
        crate::Cmp::Ne => "!=",
        crate::Cmp::Ge => ">=",
        crate::Cmp::Gt => ">",
    }
}

/// Compact one-line rendering of a predicate for `explain` output.
fn predicate_display(p: &Predicate) -> String {
    match p {
        Predicate::Int { column, cmp, value } => {
            format!("{column} {} {value}", cmp_display(*cmp))
        }
        Predicate::Float { column, cmp, value } => {
            format!("{column} {} {value}", cmp_display(*cmp))
        }
        Predicate::Str { column, cmp, value } => {
            format!("{column} {} {value:?}", cmp_display(*cmp))
        }
        Predicate::IntIn { column, values } => {
            if values.len() <= 8 {
                let vals: Vec<String> = values.iter().map(i64::to_string).collect();
                format!("{column} IN [{}]", vals.join(", "))
            } else {
                format!("{column} IN [{} values]", values.len())
            }
        }
        Predicate::And(a, b) => {
            format!("({} AND {})", predicate_display(a), predicate_display(b))
        }
        Predicate::Or(a, b) => {
            format!("({} OR {})", predicate_display(a), predicate_display(b))
        }
        Predicate::Not(inner) => format!("NOT {}", predicate_display(inner)),
        Predicate::True => "TRUE".to_string(),
    }
}
