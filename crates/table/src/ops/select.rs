//! Selection: filter rows by a predicate, in place or into a view.
//!
//! The paper's Table 4 benchmarks exactly this operator: "rows are chosen
//! based on a comparison with a constant value", with the in-place variant
//! modifying the current table. Predicate evaluation is embarrassingly
//! parallel; we evaluate per-chunk match lists with the fork-join runtime
//! and concatenate (threads share nothing, mirroring Ringo's
//! contention-free OpenMP loops).

use crate::{ColumnRef, ColumnType, Result, Table};
use ringo_concurrent::{
    morsel_bounds, parallel_for_morsels_traced, parallel_map, parallel_map_morsels_traced,
    DisjointSlice, MorselStats,
};

/// Comparison operator for predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl Cmp {
    #[inline]
    fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Self::Lt => a < b,
            Self::Le => a <= b,
            Self::Eq => a == b,
            Self::Ne => a != b,
            Self::Ge => a >= b,
            Self::Gt => a > b,
        }
    }
}

/// A boolean predicate over one row, built from column-vs-constant
/// comparisons composed with and/or/not.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// Compare an integer column against a constant.
    Int {
        /// Column name.
        column: String,
        /// Comparison operator.
        cmp: Cmp,
        /// Constant operand.
        value: i64,
    },
    /// Compare a float column against a constant.
    Float {
        /// Column name.
        column: String,
        /// Comparison operator.
        cmp: Cmp,
        /// Constant operand.
        value: f64,
    },
    /// Compare a string column against a constant (only `Eq`/`Ne` are
    /// meaningful orders for interned strings; other operators compare the
    /// resolved string lexicographically).
    Str {
        /// Column name.
        column: String,
        /// Comparison operator.
        cmp: Cmp,
        /// Constant operand.
        value: String,
    },
    /// Membership of an integer column in a value set (semi-join-style
    /// filtering without materializing a join).
    IntIn {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<i64>,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Matches every row.
    True,
}

impl Predicate {
    /// `column <cmp> value` over an integer column.
    pub fn int(column: &str, cmp: Cmp, value: i64) -> Self {
        Self::Int {
            column: column.into(),
            cmp,
            value,
        }
    }

    /// `column <cmp> value` over a float column.
    pub fn float(column: &str, cmp: Cmp, value: f64) -> Self {
        Self::Float {
            column: column.into(),
            cmp,
            value,
        }
    }

    /// `low <= column <= high` over an integer column.
    pub fn int_between(column: &str, low: i64, high: i64) -> Self {
        Self::int(column, Cmp::Ge, low).and(Self::int(column, Cmp::Le, high))
    }

    /// `column IN values` over an integer column.
    pub fn int_in(column: &str, values: Vec<i64>) -> Self {
        Self::IntIn {
            column: column.into(),
            values,
        }
    }

    /// `column == value` over a string column.
    pub fn str_eq(column: &str, value: &str) -> Self {
        Self::Str {
            column: column.into(),
            cmp: Cmp::Eq,
            value: value.into(),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Self::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Self::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Self::Not(Box::new(self))
    }
}

/// Predicate with each column resolved to its values and the selection
/// its rows are read through, and string constants mapped to pool
/// symbols, cheap to evaluate per row.
enum Compiled<'a> {
    Int(ColumnRef<'a>, Cmp, i64),
    Float(ColumnRef<'a>, Cmp, f64),
    IntIn(ColumnRef<'a>, std::collections::HashSet<i64>),
    /// Fast path: string equality against an interned symbol
    /// (`None` = the constant is not in the pool, so `Eq` never matches).
    StrEqSym(ColumnRef<'a>, Option<u32>, bool),
    /// Slow path: lexicographic comparison of the resolved string.
    StrOrd(ColumnRef<'a>, Cmp, String),
    And(Box<Compiled<'a>>, Box<Compiled<'a>>),
    Or(Box<Compiled<'a>>, Box<Compiled<'a>>),
    Not(Box<Compiled<'a>>),
    True,
}

impl Compiled<'_> {
    #[inline]
    /// The predicate on the row at position `row` of `t`.
    fn eval(&self, t: &Table, row: usize) -> bool {
        match self {
            Self::Int(c, cmp, v) => cmp.eval(c.data.as_int()[c.at(row)], *v),
            Self::Float(c, cmp, v) => cmp.eval(c.data.as_float()[c.at(row)], *v),
            Self::IntIn(c, set) => set.contains(&c.data.as_int()[c.at(row)]),
            Self::StrEqSym(c, sym, negate) => {
                (Some(c.data.as_str_syms()[c.at(row)]) == *sym) != *negate
            }
            Self::StrOrd(c, cmp, v) => {
                let s = t.pool.get(c.data.as_str_syms()[c.at(row)]);
                cmp.eval(s, v.as_str())
            }
            Self::And(a, b) => a.eval(t, row) && b.eval(t, row),
            Self::Or(a, b) => a.eval(t, row) || b.eval(t, row),
            Self::Not(p) => !p.eval(t, row),
            Self::True => true,
        }
    }
}

fn compile<'a>(pred: &Predicate, t: &'a Table) -> Result<Compiled<'a>> {
    Ok(match pred {
        Predicate::Int { column, cmp, value } => {
            Compiled::Int(t.column_ref(column, ColumnType::Int)?, *cmp, *value)
        }
        Predicate::Float { column, cmp, value } => {
            Compiled::Float(t.column_ref(column, ColumnType::Float)?, *cmp, *value)
        }
        Predicate::Str { column, cmp, value } => {
            let c = t.column_ref(column, ColumnType::Str)?;
            match cmp {
                Cmp::Eq => Compiled::StrEqSym(c, t.pool.lookup(value), false),
                Cmp::Ne => Compiled::StrEqSym(c, t.pool.lookup(value), true),
                other => Compiled::StrOrd(c, *other, value.clone()),
            }
        }
        Predicate::IntIn { column, values } => {
            let c = t.column_ref(column, ColumnType::Int)?;
            Compiled::IntIn(c, values.iter().copied().collect())
        }
        Predicate::And(a, b) => Compiled::And(Box::new(compile(a, t)?), Box::new(compile(b, t)?)),
        Predicate::Or(a, b) => Compiled::Or(Box::new(compile(a, t)?), Box::new(compile(b, t)?)),
        Predicate::Not(p) => Compiled::Not(Box::new(compile(p, t)?)),
        Predicate::True => Compiled::True,
    })
}

impl Table {
    /// Selection-vector kernel shared by the eager verbs and the lazy
    /// executor: the positions of the rows matching `pred`, in row order
    /// — composed with each selection, a view's next selections.
    ///
    /// See [`Table::select_sel_stats`] for the kernel; this wrapper drops
    /// the morsel dispatch stats.
    pub(crate) fn select_sel(&self, pred: &Predicate) -> Result<Vec<u32>> {
        self.select_sel_stats(pred).map(|(keep, _)| keep)
    }

    /// Morsel-driven selection kernel. The index space is cut into
    /// fixed-size row-range morsels ([`morsel_bounds`] — a function of the
    /// row count only, never the thread count) claimed dynamically by pool
    /// workers; each morsel fills a private window of the output.
    ///
    /// Runs two passes — count, then fill into one exactly-sized vector
    /// through per-morsel disjoint windows — so the kernel performs a
    /// bounded number of allocations regardless of the match count, and
    /// the concatenation-by-offset keeps hits in `sel` order: the output
    /// is byte-identical to a sequential scan at any thread count.
    // LINT: hot — the select_alloc pin depends on the bounded-alloc design.
    pub(crate) fn select_sel_stats(&self, pred: &Predicate) -> Result<(Vec<u32>, MorselStats)> {
        let compiled = compile(pred, self)?;
        let compiled = &compiled;
        let n = self.n_rows();
        let (counts, _) =
            parallel_map_morsels_traced("plan.morsel.select", n, self.threads, |_, range| {
                let mut c = 0usize;
                for i in range {
                    if compiled.eval(self, i) {
                        c += 1;
                    }
                }
                c
            });
        let total: usize = counts.iter().sum();
        let mut keep = vec![0u32; total];
        // Both passes partition `0..n` with the same morsel bounds, so
        // morsel `m` of the fill pass writes exactly `counts[m]` hits
        // starting at the prefix sum of the earlier morsels.
        let bounds = morsel_bounds(n);
        let mut offsets = Vec::with_capacity(counts.len());
        let mut acc = 0usize;
        for c in &counts {
            offsets.push(acc);
            acc += c;
        }
        let out = DisjointSlice::new(&mut keep);
        let stats =
            parallel_for_morsels_traced("plan.morsel.select", n, self.threads, |morsel, range| {
                debug_assert_eq!(range.start, bounds[morsel]);
                let mut cursor = offsets[morsel];
                for i in range {
                    if compiled.eval(self, i) {
                        // SAFETY: morsel `morsel` writes only
                        // `offsets[morsel]..offsets[morsel] + counts[morsel]`,
                        // and those windows are disjoint by construction of the
                        // prefix sums over identical morsel bounds.
                        unsafe { out.write(cursor, i as u32) };
                        cursor += 1;
                    }
                }
            });
        Ok((keep, stats))
    }

    /// Positions of all rows matching `pred`, computed in parallel.
    pub fn select_rows(&self, pred: &Predicate) -> Result<Vec<usize>> {
        let hits = self.select_sel(pred)?;
        Ok(hits.into_iter().map(|r| r as usize).collect())
    }

    /// Returns the rows matching `pred`, row ids preserved, as a view: the
    /// columns are shared with `self`, each read through its selection
    /// composed with the positions of the rows kept.
    pub fn select(&self, pred: &Predicate) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.select");
        sp.rows_in(self.n_rows());
        let out = self.view_rows(self.select_sel(pred)?);
        sp.rows_out(out.n_rows());
        Ok(out)
    }

    /// Filters this table in place (the paper's "Select, in place"),
    /// keeping rows matching `pred` — [`Table::select`] assigned back.
    /// Returns the number of surviving rows.
    pub fn select_in_place(&mut self, pred: &Predicate) -> Result<usize> {
        let mut sp = ringo_trace::span!("table.select_in_place");
        sp.rows_in(self.n_rows());
        *self = self.view_rows(self.select_sel(pred)?);
        sp.rows_out(self.n_rows());
        Ok(self.n_rows())
    }

    /// Counts matching rows without materializing them.
    pub fn count_where(&self, pred: &Predicate) -> Result<usize> {
        let compiled = compile(pred, self)?;
        let compiled = &compiled;
        let counts = parallel_map(self.n_rows(), self.threads, |range| {
            range.filter(|&i| compiled.eval(self, i)).count()
        });
        Ok(counts.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Schema, Value};

    fn posts() -> Table {
        let schema = Schema::new([
            ("Tag", ColumnType::Str),
            ("Type", ColumnType::Str),
            ("Score", ColumnType::Int),
            ("Weight", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        let rows: [(&str, &str, i64, f64); 5] = [
            ("java", "question", 10, 0.5),
            ("java", "answer", 3, 1.5),
            ("rust", "question", 7, 2.5),
            ("java", "answer", -2, 3.5),
            ("rust", "answer", 10, 4.5),
        ];
        for (tag, ty, score, w) in rows {
            t.push_row(&[tag.into(), ty.into(), Value::Int(score), Value::Float(w)])
                .unwrap();
        }
        t
    }

    #[test]
    fn int_comparisons() {
        let t = posts();
        assert_eq!(
            t.count_where(&Predicate::int("Score", Cmp::Gt, 5)).unwrap(),
            3
        );
        assert_eq!(
            t.count_where(&Predicate::int("Score", Cmp::Eq, 10))
                .unwrap(),
            2
        );
        assert_eq!(
            t.count_where(&Predicate::int("Score", Cmp::Lt, 0)).unwrap(),
            1
        );
        assert_eq!(
            t.count_where(&Predicate::int("Score", Cmp::Ne, 10))
                .unwrap(),
            3
        );
    }

    #[test]
    fn string_equality_uses_pool_fast_path() {
        let t = posts();
        let java = t.select(&Predicate::str_eq("Tag", "java")).unwrap();
        assert_eq!(java.n_rows(), 3);
        // Constant not in pool: matches nothing, Ne matches everything.
        assert_eq!(t.count_where(&Predicate::str_eq("Tag", "go")).unwrap(), 0);
        let ne = Predicate::Str {
            column: "Tag".into(),
            cmp: Cmp::Ne,
            value: "go".into(),
        };
        assert_eq!(t.count_where(&ne).unwrap(), 5);
    }

    #[test]
    fn string_ordering_comparisons() {
        let t = posts();
        let p = Predicate::Str {
            column: "Tag".into(),
            cmp: Cmp::Gt,
            value: "java".into(),
        };
        assert_eq!(t.count_where(&p).unwrap(), 2, "rust > java");
    }

    #[test]
    fn boolean_combinators() {
        let t = posts();
        let p = Predicate::str_eq("Tag", "java").and(Predicate::str_eq("Type", "answer"));
        assert_eq!(t.count_where(&p).unwrap(), 2);
        let p = Predicate::str_eq("Tag", "rust").or(Predicate::int("Score", Cmp::Lt, 0));
        assert_eq!(t.count_where(&p).unwrap(), 3);
        let p = Predicate::str_eq("Tag", "rust").not();
        assert_eq!(t.count_where(&p).unwrap(), 3);
        assert_eq!(t.count_where(&Predicate::True).unwrap(), 5);
    }

    #[test]
    fn float_predicate() {
        let t = posts();
        assert_eq!(
            t.count_where(&Predicate::float("Weight", Cmp::Ge, 2.5))
                .unwrap(),
            3
        );
    }

    #[test]
    fn int_in_and_between_helpers() {
        let t = posts();
        assert_eq!(
            t.count_where(&Predicate::int_in("Score", vec![10, -2]))
                .unwrap(),
            3
        );
        assert_eq!(
            t.count_where(&Predicate::int_in("Score", vec![])).unwrap(),
            0
        );
        assert_eq!(
            t.count_where(&Predicate::int_between("Score", 3, 10))
                .unwrap(),
            4
        );
        assert!(t.count_where(&Predicate::int_in("Tag", vec![1])).is_err());
    }

    #[test]
    fn select_preserves_row_ids_and_in_place_matches_copy() {
        let t = posts();
        let pred = Predicate::int("Score", Cmp::Ge, 7);
        let copied = t.select(&pred).unwrap();
        assert_eq!(*copied.row_ids(), [0, 2, 4]);

        let mut inplace = t.clone();
        let kept = inplace.select_in_place(&pred).unwrap();
        assert_eq!(kept, 3);
        assert_eq!(inplace.row_ids(), copied.row_ids());
        assert_eq!(
            inplace.int_col("Score").unwrap(),
            copied.int_col("Score").unwrap()
        );
    }

    #[test]
    fn type_and_name_errors() {
        let t = posts();
        assert!(t.select(&Predicate::int("Tag", Cmp::Eq, 1)).is_err());
        assert!(t.select(&Predicate::int("Nope", Cmp::Eq, 1)).is_err());
        assert!(t.select(&Predicate::float("Score", Cmp::Eq, 1.0)).is_err());
    }

    #[test]
    fn select_on_empty_table() {
        let t = Table::new(Schema::new([("x", ColumnType::Int)]));
        assert_eq!(t.count_where(&Predicate::True).unwrap(), 0);
    }
}
