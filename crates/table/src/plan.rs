//! Logical query plans over [`Table`]s.
//!
//! The demo workflow of the paper (§4.1) is a *chain* of relational verbs
//! — Select → Select → Join → GroupBy → ToGraph — and executing each verb
//! eagerly pays one full materialization per step. A [`Plan`] describes
//! the chain as a node tree instead; [`Plan::optimize`] applies a small
//! set of rewrite rules (Select fusion, Select pushdown below Project,
//! column pruning), and [`crate::exec::execute`] runs the optimized tree
//! threading a selection vector between operators so a row gather fires
//! exactly once, at collect time.
//!
//! Schema inference ([`Plan::schema`]) validates a plan against the input
//! tables *before* optimization, so a rewrite can never turn an invalid
//! query into a valid one, and errors match what the eager verb chain
//! would report.

use crate::{AggOp, ColumnType, Predicate, Result, Schema, Table, TableError};

/// Which join input a kept output column is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left input of the join.
    Left,
    /// The right input of the join.
    Right,
}

/// One surviving output column of a pruned join: where it comes from and
/// the (already clash-suffixed) name it keeps in the output.
///
/// The optimizer computes these from the *full* child schemas, so pruning
/// the children afterwards cannot change output names: `UserId-1` stays
/// `UserId-1` even when the left side's `UserId` was pruned away.
#[derive(Clone, Debug)]
pub struct JoinKeepCol {
    /// Which input the column is read from.
    pub side: Side,
    /// Column name on that input.
    pub src: String,
    /// Output name (unique across the join's kept columns).
    pub name: String,
}

/// A logical query plan node. Build one with the constructors
/// ([`Plan::scan`], [`Plan::select`], ...) or through the facade's
/// `QueryBuilder`, then [`Plan::optimize`] and hand it to
/// [`crate::exec::execute`].
#[derive(Clone, Debug)]
pub enum Plan {
    /// Reads input table `table` (an index into the executor's table list).
    Scan {
        /// Index into the table list passed alongside the plan.
        table: usize,
    },
    /// Filters rows by a predicate.
    Select {
        /// Input node.
        input: Box<Plan>,
        /// Row predicate.
        predicate: Predicate,
        /// How many source `Select`s were fused into this one (≥ 1).
        fused: u32,
        /// True when the optimizer pushed this select below a `Project`.
        pushed: bool,
    },
    /// Keeps the named columns, in order.
    Project {
        /// Input node.
        input: Box<Plan>,
        /// Output column names.
        cols: Vec<String>,
        /// True when the optimizer inserted this node to prune columns.
        pruned: bool,
    },
    /// Equi hash join of two inputs.
    Join {
        /// Left input node.
        left: Box<Plan>,
        /// Right input node.
        right: Box<Plan>,
        /// Key column on the left input.
        left_col: String,
        /// Key column on the right input.
        right_col: String,
        /// `None` = emit the full clash-suffixed width; `Some` = only
        /// these columns survive (set by the column-pruning rule).
        keep: Option<Vec<JoinKeepCol>>,
    },
    /// Group & aggregate.
    GroupBy {
        /// Input node.
        input: Box<Plan>,
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregate source column (`None` only for [`AggOp::Count`]).
        agg_col: Option<String>,
        /// Aggregate function.
        op: AggOp,
        /// Name of the aggregate output column.
        out_name: String,
    },
    /// Multi-column sort.
    OrderBy {
        /// Input node.
        input: Box<Plan>,
        /// Sort columns (ties broken by the next column).
        cols: Vec<String>,
        /// Ascending (`true`) or descending.
        ascending: bool,
    },
    /// Predecessor–successor join ([`Table::next_k`]).
    NextK {
        /// Input node.
        input: Box<Plan>,
        /// Optional grouping column.
        group_col: Option<String>,
        /// Ordering column.
        order_col: String,
        /// Number of successors per row.
        k: usize,
    },
}

impl Plan {
    /// A scan of input table `table`.
    pub fn scan(table: usize) -> Self {
        Self::Scan { table }
    }

    /// Filters `input` by `predicate`.
    pub fn select(input: Plan, predicate: Predicate) -> Self {
        Self::Select {
            input: Box::new(input),
            predicate,
            fused: 1,
            pushed: false,
        }
    }

    /// Projects `input` onto `cols`.
    pub fn project(input: Plan, cols: Vec<String>) -> Self {
        Self::Project {
            input: Box::new(input),
            cols,
            pruned: false,
        }
    }

    /// Joins `left` and `right` on `left_col == right_col`.
    pub fn join(left: Plan, right: Plan, left_col: &str, right_col: &str) -> Self {
        Self::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
            keep: None,
        }
    }

    /// Groups `input` by `group_cols`, aggregating `agg_col` with `op`.
    pub fn group_by(
        input: Plan,
        group_cols: Vec<String>,
        agg_col: Option<String>,
        op: AggOp,
        out_name: &str,
    ) -> Self {
        Self::GroupBy {
            input: Box::new(input),
            group_cols,
            agg_col,
            op,
            out_name: out_name.to_string(),
        }
    }

    /// Sorts `input` by `cols`.
    pub fn order_by(input: Plan, cols: Vec<String>, ascending: bool) -> Self {
        Self::OrderBy {
            input: Box::new(input),
            cols,
            ascending,
        }
    }

    /// Joins each row of `input` to its next `k` successors.
    pub fn next_k(input: Plan, group_col: Option<String>, order_col: &str, k: usize) -> Self {
        Self::NextK {
            input: Box::new(input),
            group_col,
            order_col: order_col.to_string(),
            k,
        }
    }

    /// Infers the output schema of this plan against `tables`, validating
    /// every column reference and type along the way. The rules replicate
    /// the eager verbs exactly (including join/group clash suffixing), so
    /// a plan validates if and only if the equivalent verb chain runs.
    pub fn schema(&self, tables: &[&Table]) -> Result<Schema> {
        match self {
            Self::Scan { table } => match tables.get(*table) {
                Some(t) => Ok(t.schema().clone()),
                None => Err(TableError::InvalidArgument(format!(
                    "plan references table #{table}, only {} bound",
                    tables.len()
                ))),
            },
            Self::Select {
                input, predicate, ..
            } => {
                let s = input.schema(tables)?;
                validate_predicate(&s, predicate)?;
                Ok(s)
            }
            Self::Project { input, cols, .. } => Ok(input.schema(tables)?.project(cols)?.0),
            Self::Join {
                left,
                right,
                left_col,
                right_col,
                keep,
            } => {
                let ls = left.schema(tables)?;
                let rs = right.schema(tables)?;
                let li = ls.index_of(left_col)?;
                let ri = rs.index_of(right_col)?;
                let (lt, rt) = (ls.column_type(li), rs.column_type(ri));
                if lt != rt {
                    return Err(TableError::TypeMismatch {
                        column: right_col.clone(),
                        expected: lt.name(),
                        actual: rt.name(),
                    });
                }
                if lt == ColumnType::Float {
                    return Err(TableError::InvalidArgument(
                        "join keys must be int or str columns (use sim_join for floats)".into(),
                    ));
                }
                match keep {
                    None => {
                        let mut out = Schema::default();
                        for (name, ty) in ls.iter().chain(rs.iter()) {
                            out.push_unique(name, ty);
                        }
                        Ok(out)
                    }
                    Some(cols) => {
                        let mut out = Schema::default();
                        for kc in cols {
                            let side = match kc.side {
                                Side::Left => &ls,
                                Side::Right => &rs,
                            };
                            let i = side.index_of(&kc.src)?;
                            out.push_unique(&kc.name, side.column_type(i));
                        }
                        Ok(out)
                    }
                }
            }
            Self::GroupBy {
                input,
                group_cols,
                agg_col,
                op,
                out_name,
            } => {
                let s = input.schema(tables)?;
                let mut out = Schema::default();
                for c in group_cols {
                    let i = s.index_of(c)?;
                    out.push_unique(c, s.column_type(i));
                }
                let agg_ty = match (agg_col, op) {
                    (None, AggOp::Count) => None,
                    (None, _) => {
                        return Err(TableError::InvalidArgument(
                            "aggregate column required for non-count aggregates".into(),
                        ))
                    }
                    (Some(name), _) => {
                        let i = s.index_of(name)?;
                        match s.column_type(i) {
                            ColumnType::Str => {
                                return Err(TableError::TypeMismatch {
                                    column: name.clone(),
                                    expected: "int or float",
                                    actual: "str",
                                })
                            }
                            ty => Some(ty),
                        }
                    }
                };
                let float_result = !matches!(op, AggOp::Count)
                    && (matches!(op, AggOp::Mean | AggOp::Var | AggOp::Std)
                        || agg_ty == Some(ColumnType::Float));
                out.push_unique(
                    out_name,
                    if float_result {
                        ColumnType::Float
                    } else {
                        ColumnType::Int
                    },
                );
                Ok(out)
            }
            Self::OrderBy { input, cols, .. } => {
                let s = input.schema(tables)?;
                for c in cols {
                    s.index_of(c)?;
                }
                Ok(s)
            }
            Self::NextK {
                input,
                group_col,
                order_col,
                k,
            } => {
                if *k == 0 {
                    return Err(TableError::InvalidArgument("next_k requires k >= 1".into()));
                }
                let s = input.schema(tables)?;
                if let Some(g) = group_col {
                    s.index_of(g)?;
                }
                s.index_of(order_col)?;
                // Self-join layout: all columns, then suffixed copies.
                let mut out = Schema::default();
                for (name, ty) in s.iter().chain(s.iter()) {
                    out.push_unique(name, ty);
                }
                Ok(out)
            }
        }
    }

    /// Rewrites the plan with the rule-based optimizer, to fixpoint:
    ///
    /// 1. **Select fusion** — `Select(Select(x, p1), p2)` becomes
    ///    `Select(x, p1 AND p2)`: one evaluation pass instead of two.
    /// 2. **Select pushdown** — `Select(Project(x, cols), p)` becomes
    ///    `Project(Select(x, p), cols)`: filter before narrowing (valid
    ///    because `p` only reads columns the project keeps).
    /// 3. **Column pruning** — columns not needed by downstream
    ///    predicates, join/group/sort keys, or the final projection are
    ///    dropped at the lowest point possible: joins record a
    ///    [`JoinKeepCol`] subset and scans get a synthetic
    ///    `Project (pruned)` on top.
    ///
    /// The plan must already validate against `tables` (call
    /// [`Plan::schema`] first); rules preserve both the output schema and
    /// row-level semantics, including row ids.
    pub fn optimize(self, tables: &[&Table]) -> Result<Plan> {
        let mut p = self;
        // Fusion/pushdown shrink the tree or move selects strictly
        // downward, so the fixpoint terminates; bound it anyway.
        for _ in 0..64 {
            let (next, changed) = rewrite(p);
            p = next;
            if !changed {
                break;
            }
        }
        prune(p, None, tables)
    }

    /// Pretty-prints the plan as an indented tree, annotating what the
    /// optimizer did: `(fused n)` on merged selects, `(pushed)` on selects
    /// moved below projects, `(pruned)` on synthetic projections, and
    /// `keep=[...]` on column-pruned joins.
    pub fn display(&self, tables: &[&Table]) -> String {
        let mut out = String::new();
        self.fmt_into(tables, 0, &mut out);
        out
    }

    /// Like [`Plan::display`], but annotates every node with what the
    /// executor actually did — `-> rows=N time=T (P% of total_ns)`, plus
    /// `morsels=M workers=W busy=B1%/B2%/…` (each worker's share of the
    /// node's busy time) for morsel-driven nodes (select, join, group) —
    /// and appends the `Collect` line with the gather count and total
    /// time. `stats` is the post-order [`NodeStat`] vector from
    /// [`crate::exec::Executed`] (with or without its trailing `collect`).
    pub fn display_executed(
        &self,
        tables: &[&Table],
        stats: &[crate::exec::NodeStat],
        gathers: u32,
        total_ns: u64,
    ) -> String {
        use std::fmt::Write;
        fn pct(part: u64, whole: u64) -> f64 {
            part as f64 * 100.0 / whole.max(1) as f64
        }
        // Map each printed line (pre-order) to its post-order stat index.
        fn collect_post(p: &Plan, base: usize, pre: &mut Vec<usize>) -> usize {
            let slot = pre.len();
            pre.push(0);
            let mut sz = 0;
            match p {
                Plan::Scan { .. } => {}
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::GroupBy { input, .. }
                | Plan::OrderBy { input, .. }
                | Plan::NextK { input, .. } => {
                    sz += collect_post(input, base, pre);
                }
                Plan::Join { left, right, .. } => {
                    sz += collect_post(left, base, pre);
                    sz += collect_post(right, base + sz, pre);
                }
            }
            pre[slot] = base + sz;
            sz + 1
        }
        let mut pre = Vec::new();
        let n_nodes = collect_post(self, 0, &mut pre);
        let fmt_ns = ringo_trace::fmt_ns;
        let time = |ns: u64| format!("time={} ({:.0}%)", fmt_ns(ns), pct(ns, total_ns));
        let plain = self.display(tables);
        let mut out = String::new();
        for (line, &idx) in plain.lines().zip(&pre) {
            out.push_str(line);
            if let Some(s) = stats.get(idx) {
                let _ = write!(out, "  -> rows={} {}", s.rows_out, time(s.wall_ns));
                if s.morsels > 0 {
                    let _ = write!(out, " morsels={} workers={}", s.morsels, s.workers);
                }
                let busy: u64 = s.busy_ns.iter().sum();
                for (i, &ns) in s.busy_ns.iter().enumerate().filter(|_| busy > 0) {
                    out.push_str(if i == 0 { " busy=" } else { "/" });
                    let _ = write!(out, "{:.0}%", pct(ns, busy));
                }
            }
            out.push('\n');
        }
        if let Some(c) = stats.get(n_nodes) {
            let (rows, time, total) = (c.rows_out, time(c.wall_ns), fmt_ns(total_ns));
            let _ = writeln!(
                out,
                "Collect rows={rows} gathers={gathers} {time} total={total}"
            );
        }
        out
    }

    fn fmt_into(&self, tables: &[&Table], depth: usize, out: &mut String) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Self::Scan { table } => {
                match tables.get(*table) {
                    Some(t) => {
                        let _ = write!(
                            out,
                            "Scan #{table} [{} rows x {} cols]",
                            t.n_rows(),
                            t.n_cols()
                        );
                    }
                    None => {
                        let _ = write!(out, "Scan #{table} [unbound]");
                    }
                }
                out.push('\n');
            }
            Self::Select {
                input,
                predicate,
                fused,
                pushed,
            } => {
                let _ = write!(out, "Select {}", predicate_display(predicate));
                if *fused > 1 {
                    let _ = write!(out, " (fused {fused})");
                }
                if *pushed {
                    out.push_str(" (pushed)");
                }
                out.push('\n');
                input.fmt_into(tables, depth + 1, out);
            }
            Self::Project {
                input,
                cols,
                pruned,
            } => {
                let _ = write!(out, "Project [{}]", cols.join(", "));
                if *pruned {
                    out.push_str(" (pruned)");
                }
                out.push('\n');
                input.fmt_into(tables, depth + 1, out);
            }
            Self::Join {
                left,
                right,
                left_col,
                right_col,
                keep,
            } => {
                let _ = write!(out, "Join {left_col} == {right_col}");
                if let Some(cols) = keep {
                    let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
                    let _ = write!(out, " keep=[{}] (pruned)", names.join(", "));
                }
                out.push('\n');
                left.fmt_into(tables, depth + 1, out);
                right.fmt_into(tables, depth + 1, out);
            }
            Self::GroupBy {
                input,
                group_cols,
                agg_col,
                op,
                out_name,
            } => {
                let _ = write!(out, "GroupBy [{}] {op:?}", group_cols.join(", "));
                if let Some(a) = agg_col {
                    let _ = write!(out, "({a})");
                }
                let _ = write!(out, " as {out_name}");
                out.push('\n');
                input.fmt_into(tables, depth + 1, out);
            }
            Self::OrderBy {
                input,
                cols,
                ascending,
            } => {
                let dir = if *ascending { "asc" } else { "desc" };
                let _ = write!(out, "OrderBy [{}] {dir}", cols.join(", "));
                out.push('\n');
                input.fmt_into(tables, depth + 1, out);
            }
            Self::NextK {
                input,
                group_col,
                order_col,
                k,
            } => {
                let _ = write!(out, "NextK order={order_col} k={k}");
                if let Some(g) = group_col {
                    let _ = write!(out, " group={g}");
                }
                out.push('\n');
                input.fmt_into(tables, depth + 1, out);
            }
        }
    }
}

/// Checks every column reference in `p` against `schema`, with the same
/// name/type errors the eager predicate compiler produces.
fn validate_predicate(schema: &Schema, p: &Predicate) -> Result<()> {
    let check = |column: &str, expected: &'static str, want: ColumnType| -> Result<()> {
        let i = schema.index_of(column)?;
        if schema.column_type(i) != want {
            return Err(TableError::TypeMismatch {
                column: column.to_string(),
                expected,
                actual: schema.column_type(i).name(),
            });
        }
        Ok(())
    };
    match p {
        Predicate::Int { column, .. } | Predicate::IntIn { column, .. } => {
            check(column, "int", ColumnType::Int)
        }
        Predicate::Float { column, .. } => check(column, "float", ColumnType::Float),
        Predicate::Str { column, .. } => check(column, "str", ColumnType::Str),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            validate_predicate(schema, a)?;
            validate_predicate(schema, b)
        }
        Predicate::Not(inner) => validate_predicate(schema, inner),
        Predicate::True => Ok(()),
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
pub fn predicate_display(p: &Predicate) -> String {
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

/// One bottom-up pass of the fusion and pushdown rules. Returns the
/// rewritten node and whether anything changed.
fn rewrite(p: Plan) -> (Plan, bool) {
    match p {
        Plan::Select {
            input,
            predicate,
            fused,
            pushed,
        } => {
            let (input, changed) = rewrite(*input);
            match input {
                // Rule 1: fuse adjacent selects into one conjunction. The
                // inner (earlier) predicate stays on the left of the AND,
                // preserving evaluation order.
                Plan::Select {
                    input: inner,
                    predicate: inner_pred,
                    fused: inner_fused,
                    pushed: inner_pushed,
                } => (
                    Plan::Select {
                        input: inner,
                        predicate: inner_pred.and(predicate),
                        fused: inner_fused + fused,
                        pushed: pushed || inner_pushed,
                    },
                    true,
                ),
                // Rule 2: push the select below the project — the
                // predicate only reads columns the project kept, so it is
                // evaluable on the wider input.
                Plan::Project {
                    input: proj_input,
                    cols,
                    pruned,
                } => (
                    Plan::Project {
                        input: Box::new(Plan::Select {
                            input: proj_input,
                            predicate,
                            fused,
                            pushed: true,
                        }),
                        cols,
                        pruned,
                    },
                    true,
                ),
                other => (
                    Plan::Select {
                        input: Box::new(other),
                        predicate,
                        fused,
                        pushed,
                    },
                    changed,
                ),
            }
        }
        Plan::Project {
            input,
            cols,
            pruned,
        } => {
            let (input, changed) = rewrite(*input);
            (
                Plan::Project {
                    input: Box::new(input),
                    cols,
                    pruned,
                },
                changed,
            )
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
            keep,
        } => {
            let (left, cl) = rewrite(*left);
            let (right, cr) = rewrite(*right);
            (
                Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_col,
                    right_col,
                    keep,
                },
                cl || cr,
            )
        }
        Plan::GroupBy {
            input,
            group_cols,
            agg_col,
            op,
            out_name,
        } => {
            let (input, changed) = rewrite(*input);
            (
                Plan::GroupBy {
                    input: Box::new(input),
                    group_cols,
                    agg_col,
                    op,
                    out_name,
                },
                changed,
            )
        }
        Plan::OrderBy {
            input,
            cols,
            ascending,
        } => {
            let (input, changed) = rewrite(*input);
            (
                Plan::OrderBy {
                    input: Box::new(input),
                    cols,
                    ascending,
                },
                changed,
            )
        }
        Plan::NextK {
            input,
            group_col,
            order_col,
            k,
        } => {
            let (input, changed) = rewrite(*input);
            (
                Plan::NextK {
                    input: Box::new(input),
                    group_col,
                    order_col,
                    k,
                },
                changed,
            )
        }
        leaf @ Plan::Scan { .. } => (leaf, false),
    }
}

/// Top-down column pruning. `required` is the set of columns the parent
/// needs from this node's output; `None` means "all of them".
fn prune(
    p: Plan,
    required: Option<std::collections::HashSet<String>>,
    tables: &[&Table],
) -> Result<Plan> {
    use std::collections::HashSet;
    match p {
        Plan::Scan { table } => {
            let scan = Plan::Scan { table };
            let Some(req) = required else {
                return Ok(scan);
            };
            let schema = scan.schema(tables)?;
            let cols: Vec<String> = schema
                .iter()
                .filter(|(n, _)| req.contains(*n))
                .map(|(n, _)| n.to_string())
                .collect();
            if cols.len() == schema.len() || cols.is_empty() {
                // Nothing to drop (or nothing left: keep the scan intact
                // rather than emit a zero-column table).
                return Ok(scan);
            }
            Ok(Plan::Project {
                input: Box::new(scan),
                cols,
                pruned: true,
            })
        }
        Plan::Select {
            input,
            predicate,
            fused,
            pushed,
        } => {
            let required = required.map(|mut r| {
                r.extend(predicate.columns());
                r
            });
            Ok(Plan::Select {
                input: Box::new(prune(*input, required, tables)?),
                predicate,
                fused,
                pushed,
            })
        }
        Plan::Project {
            input,
            cols,
            pruned,
        } => {
            // The child must produce exactly the projected columns;
            // incoming requirements are a subset of `cols` by validity.
            let child_req: HashSet<String> = cols.iter().cloned().collect();
            Ok(Plan::Project {
                input: Box::new(prune(*input, Some(child_req), tables)?),
                cols,
                pruned,
            })
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
            keep,
        } => {
            // Map required output names back to (side, source column)
            // through the clash-suffix simulation over the FULL child
            // schemas, so output names are stable under child pruning.
            let ls = left.schema(tables)?;
            let rs = right.schema(tables)?;
            let mut sim = Schema::default();
            let mut mapping: Vec<JoinKeepCol> = Vec::with_capacity(ls.len() + rs.len());
            for (name, ty) in ls.iter() {
                let out = sim.push_unique(name, ty);
                mapping.push(JoinKeepCol {
                    side: Side::Left,
                    src: name.to_string(),
                    name: out,
                });
            }
            for (name, ty) in rs.iter() {
                let out = sim.push_unique(name, ty);
                mapping.push(JoinKeepCol {
                    side: Side::Right,
                    src: name.to_string(),
                    name: out,
                });
            }
            let Some(req) = required else {
                // Full width needed: keep as-is, but children may still
                // not be pruned (every column is required).
                return Ok(Plan::Join {
                    left: Box::new(prune(*left, None, tables)?),
                    right: Box::new(prune(*right, None, tables)?),
                    left_col,
                    right_col,
                    keep,
                });
            };
            let mut kept: Vec<JoinKeepCol> = mapping
                .iter()
                .filter(|m| req.contains(&m.name))
                .cloned()
                .collect();
            if kept.is_empty() {
                // Nothing downstream reads join output columns (e.g. an
                // empty projection): keep the left key so the output still
                // carries the correct row count.
                if let Some(key) = mapping
                    .iter()
                    .find(|m| m.side == Side::Left && m.src == left_col)
                {
                    kept.push(key.clone());
                }
            }
            let mut lreq: HashSet<String> = HashSet::new();
            let mut rreq: HashSet<String> = HashSet::new();
            lreq.insert(left_col.clone());
            rreq.insert(right_col.clone());
            for m in &kept {
                match m.side {
                    Side::Left => lreq.insert(m.src.clone()),
                    Side::Right => rreq.insert(m.src.clone()),
                };
            }
            let pruned_any = kept.len() < ls.len() + rs.len();
            Ok(Plan::Join {
                left: Box::new(prune(*left, Some(lreq), tables)?),
                right: Box::new(prune(*right, Some(rreq), tables)?),
                left_col,
                right_col,
                keep: if pruned_any { Some(kept) } else { keep },
            })
        }
        Plan::GroupBy {
            input,
            group_cols,
            agg_col,
            op,
            out_name,
        } => {
            // Grouping replaces the schema wholesale: the child only needs
            // the keys and the aggregate source, whatever the parent asked.
            let mut req: HashSet<String> = group_cols.iter().cloned().collect();
            if let Some(a) = &agg_col {
                req.insert(a.clone());
            }
            Ok(Plan::GroupBy {
                input: Box::new(prune(*input, Some(req), tables)?),
                group_cols,
                agg_col,
                op,
                out_name,
            })
        }
        Plan::OrderBy {
            input,
            cols,
            ascending,
        } => {
            let required = required.map(|mut r| {
                r.extend(cols.iter().cloned());
                r
            });
            Ok(Plan::OrderBy {
                input: Box::new(prune(*input, required, tables)?),
                cols,
                ascending,
            })
        }
        Plan::NextK {
            input,
            group_col,
            order_col,
            k,
        } => {
            // NextK's output carries every input column (twice), so the
            // child keeps its full width.
            Ok(Plan::NextK {
                input: Box::new(prune(*input, None, tables)?),
                group_col,
                order_col,
                k,
            })
        }
    }
}
