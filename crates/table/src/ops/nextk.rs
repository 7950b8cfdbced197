//! NextK: Ringo's predecessor–successor join (paper §2.3).
//!
//! "NextK ... joins predecessor-successor records": within each group (for
//! example, all events of one user or one discussion thread), records are
//! ordered by a timestamp-like column and each record is joined to its next
//! `k` successors — the canonical way to turn an event log into edges that
//! follow temporal order.

use crate::ops::join::join_view;
use crate::{ColumnData, Result, Table, TableError};

impl Table {
    /// Joins each row to its next `k` successors in `order_col` order,
    /// optionally restricted to rows sharing the same `group_col` value.
    ///
    /// Output layout matches [`Table::join`] with `self` on both sides:
    /// predecessor columns first, successor columns suffixed. Ties in the
    /// order column are broken by original row position (the sort is
    /// stable), so results are deterministic.
    pub fn next_k(&self, group_col: Option<&str>, order_col: &str, k: usize) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.nextk");
        sp.rows_in(self.n_rows());
        let out = self.next_k_join(group_col, order_col, k)?;
        sp.rows_out(out.n_rows());
        Ok(out)
    }

    /// [`Table::next_k`] for the eager verb and the lazy executor: the
    /// `(predecessor, successor)` pairs of the table's rows, each column
    /// read through its selection, joined. A pair never leaves its group,
    /// so the group column's two copies are one column.
    pub(crate) fn next_k_join(
        &self,
        group_col: Option<&str>,
        order_col: &str,
        k: usize,
    ) -> Result<Table> {
        if k == 0 {
            return Err(TableError::InvalidArgument("next_k requires k >= 1".into()));
        }
        // Sort positions by (group, order) without copying the table.
        let sort_cols: Vec<&str> = match group_col {
            Some(g) => vec![g, order_col],
            None => vec![order_col],
        };
        let perm = self.order_perm_sel(&sort_cols, true)?;

        // Group keys for boundary detection (only when grouping).
        let gidx = match group_col {
            Some(g) => Some(self.schema.index_of(g)?),
            None => None,
        };
        let group = gidx.map(|c| self.col(c));
        let same_group = |a: usize, b: usize| {
            group.is_none_or(|c| match c.data {
                ColumnData::Int(v) => v[c.at(a)] == v[c.at(b)],
                ColumnData::Float(v) => v[c.at(a)].to_bits() == v[c.at(b)].to_bits(),
                ColumnData::Str(v) => v[c.at(a)] == v[c.at(b)],
            })
        };

        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        for i in 0..perm.len() {
            for j in (i + 1)..perm.len().min(i + 1 + k) {
                if !same_group(perm[i] as usize, perm[j] as usize) {
                    break;
                }
                left_rows.push(perm[i]);
                right_rows.push(perm[j]);
            }
        }
        drop(perm);
        Ok(join_view(
            self,
            self,
            left_rows,
            right_rows,
            gidx.map(|g| (g, g)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnType, Schema, Table, Value};

    fn events() -> Table {
        let schema = Schema::new([
            ("user", ColumnType::Int),
            ("ts", ColumnType::Int),
            ("page", ColumnType::Str),
        ]);
        let mut t = Table::new(schema);
        for (u, ts, p) in [
            (1i64, 30i64, "c"),
            (1, 10, "a"),
            (2, 5, "x"),
            (1, 20, "b"),
            (2, 6, "y"),
        ] {
            t.push_row(&[u.into(), ts.into(), p.into()]).unwrap();
        }
        t
    }

    #[test]
    fn next_1_within_groups() {
        let t = events();
        let j = t.next_k(Some("user"), "ts", 1).unwrap();
        // user 1: a->b, b->c; user 2: x->y.
        assert_eq!(j.n_rows(), 3);
        let pred: Vec<i64> = j.int_col("ts").unwrap().to_vec();
        let succ: Vec<i64> = j.int_col("ts-1").unwrap().to_vec();
        let mut pairs: Vec<(i64, i64)> = pred.into_iter().zip(succ).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(5, 6), (10, 20), (20, 30)]);
    }

    #[test]
    fn next_2_reaches_further() {
        let t = events();
        let j = t.next_k(Some("user"), "ts", 2).unwrap();
        // user 1 adds a->c; user 2 has no third event.
        assert_eq!(j.n_rows(), 4);
    }

    #[test]
    fn ungrouped_chains_across_everything() {
        let t = events();
        let j = t.next_k(None, "ts", 1).unwrap();
        assert_eq!(j.n_rows(), 4, "n-1 consecutive pairs");
        let pred = j.int_col("ts").unwrap();
        let succ = j.int_col("ts-1").unwrap();
        for (p, s) in pred.iter().zip(succ) {
            assert!(p <= s);
        }
    }

    #[test]
    fn k_larger_than_group() {
        let t = events();
        let j = t.next_k(Some("user"), "ts", 100).unwrap();
        // user 1: 3 events -> 3 pairs; user 2: 2 events -> 1 pair.
        assert_eq!(j.n_rows(), 4);
    }

    #[test]
    fn output_columns_are_suffixed_copies() {
        let t = events();
        let j = t.next_k(Some("user"), "ts", 1).unwrap();
        for name in ["user", "ts", "page", "user-1", "ts-1", "page-1"] {
            assert!(j.schema().contains(name), "missing {name}");
        }
        // Group column equal on both sides.
        let a = j.int_col("user").unwrap();
        let b = j.int_col("user-1").unwrap();
        assert_eq!(a, b);
    }

    /// A pair never leaves its group, so the group column's two copies
    /// are one vector — for `Int`, `Str` and (bitwise) `Float` groups —
    /// and the pairs are the ones the verb made before it shared them.
    #[test]
    fn group_column_pair_is_one_vector() {
        let mut t = events();
        t.map_float("user", "fuser", |u| u * 0.5).unwrap();
        t.add_str_column("tag", &["p", "q", "p", "p", "q"]).unwrap();
        let j = t.next_k(Some("user"), "ts", 2).unwrap();
        assert!(j.cols[0].same(&j.cols[5]));
        assert_eq!(j.int_col("user").unwrap(), &[1, 1, 1, 2]);
        assert_eq!(j.int_col("ts").unwrap(), &[10, 10, 20, 5]);
        assert_eq!(j.int_col("ts-1").unwrap(), &[20, 30, 30, 6]);
        let page = |c: &str| -> Vec<Value> { (0..4).map(|r| j.get(r, c).unwrap()).collect() };
        assert_eq!(page("page"), ["a", "a", "b", "x"].map(Value::from));
        assert_eq!(page("page-1"), ["b", "c", "c", "y"].map(Value::from));

        for (group, pairs) in [("tag", 3), ("fuser", 3)] {
            let j = t.next_k(Some(group), "ts", 1).unwrap();
            let g = t.schema().index_of(group).unwrap();
            assert_eq!(j.n_rows(), pairs, "{group}");
            assert!(j.cols[g].same(&j.cols[t.n_cols() + g]), "{group}");
        }
        let ungrouped = t.next_k(None, "ts", 1).unwrap();
        assert!(!ungrouped.cols[0].same(&ungrouped.cols[5]));
    }

    #[test]
    fn invalid_arguments() {
        let t = events();
        assert!(t.next_k(Some("user"), "ts", 0).is_err());
        assert!(t.next_k(Some("nope"), "ts", 1).is_err());
        assert!(t.next_k(None, "nope", 1).is_err());
    }

    #[test]
    fn empty_table_gives_empty_result() {
        let t = Table::new(Schema::new([("ts", ColumnType::Int)]));
        let j = t.next_k(None, "ts", 1).unwrap();
        assert_eq!(j.n_rows(), 0);
        let _ = Value::Int(0);
    }
}
