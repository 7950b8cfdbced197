//! Multi-column ordering (sort).

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table};
use ringo_concurrent::{radix_sort_rows, SortColumn, SortedRows};
use std::cmp::Ordering;

impl Table {
    /// Indices of the sort columns `cols`, each once: a column named
    /// again can only tie where it already tied.
    fn sort_indices(&self, cols: &[&str]) -> Result<Vec<usize>> {
        let mut idx = Vec::with_capacity(cols.len());
        for c in self.col_indices(cols)? {
            if !idx.contains(&c) {
                idx.push(c);
            }
        }
        Ok(idx)
    }

    /// The table's rows sorted by columns `idx` in packed words
    /// ([`radix_sort_rows`]), read through a view's selection; `None`
    /// when a column is `Str`.
    fn sort_numeric(&self, idx: &[usize], ascending: bool) -> Option<SortedRows> {
        let cols: Option<Vec<SortColumn<'_>>> = idx
            .iter()
            .map(|&c| match &*self.cols[c] {
                ColumnData::Int(v) => Some(SortColumn::Int(v)),
                ColumnData::Float(v) => Some(SortColumn::Float(v)),
                ColumnData::Str(_) => None,
            })
            .collect();
        Some(radix_sort_rows(&cols?, ascending, self.sel(), self.threads))
    }

    /// Permutation kernel of `order_by` (the eager verb and the lazy
    /// step), `next_k` and `value_counts`: the positions in the columns
    /// of the table's rows, sorted by `cols`, ties broken by the next
    /// column, then by row order (stable). No rows are materialized.
    ///
    /// Numeric sort columns (`Int` or `Float`) are sorted as packed words
    /// ([`Table::sort_numeric`]) and the positions read back off the
    /// sorted words; floats map through the IEEE-754 total-order key, so
    /// NaNs land exactly where `total_cmp` puts them. Any `Str` column
    /// takes a stable comparison sort.
    pub(crate) fn order_perm_sel(&self, cols: &[&str], ascending: bool) -> Result<Vec<u32>> {
        let idx = self.sort_indices(cols)?;
        row_count_u32(self.row_ids.len())?;
        if idx.is_empty() {
            return Ok(self.unsorted_perm());
        }
        let row = |at: usize| self.base_row(at) as u32;
        Ok(match self.sort_numeric(&idx, ascending) {
            Some(SortedRows::U64(keys, codec)) => {
                keys.iter().map(|&k| row(codec.position(k))).collect()
            }
            Some(SortedRows::U128(keys, codec)) => {
                keys.iter().map(|&k| row(codec.position(k))).collect()
            }
            Some(SortedRows::Chained(rows)) => rows,
            None => self.order_perm_cmp(&idx, ascending),
        })
    }

    /// The positions in the columns of the table's rows, in row order.
    pub(crate) fn unsorted_perm(&self) -> Vec<u32> {
        match self.sel() {
            Some(s) => s.to_vec(),
            None => (0..self.n_rows() as u32).collect(),
        }
    }

    /// [`Table::order_perm_sel`] by stable comparison, for sort columns
    /// that include a `Str` one.
    fn order_perm_cmp(&self, idx: &[usize], ascending: bool) -> Vec<u32> {
        let mut perm = self.unsorted_perm();
        perm.sort_by(|&a, &b| self.cmp_rows(idx, ascending, a, b));
        perm
    }

    /// The rows at positions `a` and `b` of the columns compared by the
    /// columns `idx` in turn, or `b` and `a` when descending.
    pub(crate) fn cmp_rows(&self, idx: &[usize], ascending: bool, a: u32, b: u32) -> Ordering {
        let (a, b) = if ascending { (a, b) } else { (b, a) };
        let (a, b) = (a as usize, b as usize);
        let by = |&c: &usize| match &*self.cols[c] {
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Float(v) => v[a].total_cmp(&v[b]),
            ColumnData::Str(v) => self.pool.get(v[a]).cmp(self.pool.get(v[b])),
        };
        idx.iter()
            .map(by)
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Sorts the table in place by the given columns (ties broken by the
    /// next column). Floats use IEEE total order, so NaNs sort after all
    /// numbers. Row ids travel with their rows. The sort is stable.
    ///
    /// The sorted table is a view: the columns it had, shared, and the
    /// permutation (`Table::order_perm_sel`, 4 B a row) — the lazy
    /// `OrderBy` step's result. A column borrowed whole is gathered then,
    /// once; a `&mut` verb that edits columns materializes the view.
    pub fn order_by(&mut self, cols: &[&str], ascending: bool) -> Result<()> {
        let mut sp = ringo_trace::span!("table.order");
        sp.rows_in(self.n_rows());
        sp.rows_out(self.n_rows());
        *self = self.with_sel(self.order_perm_sel(cols, ascending)?);
        Ok(())
    }

    /// Returns a sorted copy; see [`Table::order_by`].
    pub fn ordered_by(&self, cols: &[&str], ascending: bool) -> Result<Table> {
        let mut out = self.clone();
        out.order_by(cols, ascending)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnType, Schema, Table, Value};

    fn t() -> Table {
        let schema = Schema::new([
            ("g", ColumnType::Str),
            ("x", ColumnType::Int),
            ("f", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        for (g, x, f) in [
            ("b", 2i64, 0.5),
            ("a", 3, f64::NAN),
            ("b", 1, 2.5),
            ("a", 3, 1.5),
        ] {
            t.push_row(&[g.into(), Value::Int(x), Value::Float(f)])
                .unwrap();
        }
        t
    }

    #[test]
    fn single_int_column_ascending_and_descending() {
        let mut a = t();
        a.order_by(&["x"], true).unwrap();
        assert_eq!(a.int_col("x").unwrap(), &[1, 2, 3, 3]);
        let mut d = t();
        d.order_by(&["x"], false).unwrap();
        assert_eq!(d.int_col("x").unwrap(), &[3, 3, 2, 1]);
    }

    #[test]
    fn multi_column_with_string_primary() {
        let mut s = t();
        s.order_by(&["g", "x"], true).unwrap();
        let g: Vec<String> = (0..4)
            .map(|r| match s.get(r, "g").unwrap() {
                Value::Str(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(g, vec!["a", "a", "b", "b"]);
        assert_eq!(s.int_col("x").unwrap(), &[3, 3, 1, 2]);
    }

    #[test]
    fn nan_sorts_last_ascending() {
        let mut s = t();
        s.order_by(&["f"], true).unwrap();
        let f = s.float_col("f").unwrap();
        assert!(f[3].is_nan());
        assert_eq!(&f[..3], &[0.5, 1.5, 2.5]);
    }

    #[test]
    fn row_ids_travel_with_rows() {
        let mut s = t();
        s.order_by(&["x"], true).unwrap();
        assert_eq!(*s.row_ids(), [2, 0, 1, 3]);
    }

    #[test]
    fn stable_for_equal_keys() {
        let mut s = t();
        s.order_by(&["g"], true).unwrap();
        // Rows 1 and 3 are both "a" — original order preserved.
        assert_eq!(*s.row_ids(), [1, 3, 0, 2]);
    }

    #[test]
    fn int_radix_path_matches_stable_comparison_sort() {
        // Enough rows that the parallel radix path (not the sequential
        // fallback) runs; skewed shifts give duplicates and negatives.
        let n = 10_000usize;
        let mut vals = Vec::with_capacity(n);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push((x as i64) >> 48);
        }
        for ascending in [true, false] {
            let mut t = Table::from_int_column("x", vals.clone());
            t.set_threads(4);
            t.order_by(&["x"], ascending).unwrap();
            let mut expect: Vec<usize> = (0..n).collect();
            if ascending {
                expect.sort_by_key(|&r| vals[r]);
            } else {
                expect.sort_by_key(|&r| std::cmp::Reverse(vals[r]));
            }
            let got: Vec<usize> = t.row_ids().iter().map(|&r| r as usize).collect();
            assert_eq!(got, expect, "ascending={ascending}");
        }
    }

    #[test]
    fn multi_int_columns_tie_break_through_radix() {
        let mut t = Table::from_int_column("a", vec![2, 1, 2, 1, 2]);
        t.add_int_column("b", vec![5, 9, -3, 9, 5]).unwrap();
        t.order_by(&["a", "b"], true).unwrap();
        assert_eq!(t.int_col("a").unwrap(), &[1, 1, 2, 2, 2]);
        assert_eq!(t.int_col("b").unwrap(), &[9, 9, -3, 5, 5]);
        // Ties (1,9)x2 and (2,5)x2 keep original order: stability.
        assert_eq!(*t.row_ids(), [1, 3, 2, 0, 4]);
    }

    #[test]
    fn missing_column_errors() {
        let mut s = t();
        assert!(s.order_by(&["nope"], true).is_err());
    }
}
