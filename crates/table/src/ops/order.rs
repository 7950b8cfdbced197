//! Multi-column ordering (sort).

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table};
use ringo_concurrent::{decode_rows, radix_sort_rows, SortColumn, SortedColumn, SortedRows};
use std::cmp::Ordering;
use std::sync::Arc;

/// What an ordering returns: the positions of the sorted rows, and the
/// sort columns it decoded, each `(column, its rows in sorted order)`.
type Ordered = (Vec<u32>, Vec<(usize, Arc<ColumnData>)>);

impl Table {
    /// Indices of the sort columns `cols`, each once: a column named
    /// again — or a column that reads another's vector through the same
    /// selection, a join's key pair — can only tie where it already tied.
    fn sort_indices(&self, cols: &[&str]) -> Result<Vec<usize>> {
        let mut idx = Vec::with_capacity(cols.len());
        for c in self.col_indices(cols)? {
            let c = self.first_of(c);
            if !idx.contains(&c) {
                idx.push(c);
            }
        }
        Ok(idx)
    }

    /// The ordering kernel of `order_by` (the eager verbs and the lazy
    /// step), `next_k` and `value_counts`: the positions of the table's
    /// rows sorted by `cols`, ties broken by the next column, then by row
    /// order (stable), and — when `decode` and the sort ran in `u64`
    /// words — each sort column whole, in sorted order, decoded off the
    /// sorted words in the pass that reads the positions
    /// ([`decode_rows`]).
    ///
    /// Numeric sort columns (`Int` or `Float`, each read through its
    /// selection) are sorted as packed words ([`radix_sort_rows`]); floats
    /// map through the IEEE-754 total-order key, so NaNs land exactly
    /// where `total_cmp` puts them. The other tiers give positions only:
    /// `u128` words have no buffer of a column's size to decode into,
    /// chained passes return rows, not words, and any `Str` column takes a
    /// stable comparison sort, which makes no words. Each ordering counts
    /// its tier (`table.order.u64` / `.u128` / `.chained` / `.compare`)
    /// and the columns it decoded (`table.order.decoded`).
    fn ordering(&self, cols: &[&str], ascending: bool, decode: bool) -> Result<Ordered> {
        let idx = self.sort_indices(cols)?;
        row_count_u32(self.n_rows())?;
        if idx.is_empty() {
            return Ok((self.unsorted_perm(), Vec::new()));
        }
        let keys: Option<Vec<SortColumn<'_>>> = idx
            .iter()
            .map(|&c| match (self.col(c).data, self.col(c).sel) {
                (ColumnData::Int(v), None) => Some(SortColumn::Int(v)),
                (ColumnData::Int(v), Some(s)) => Some(SortColumn::IntAt(v, s)),
                (ColumnData::Float(v), None) => Some(SortColumn::Float(v)),
                (ColumnData::Float(v), Some(s)) => Some(SortColumn::FloatAt(v, s)),
                (ColumnData::Str(_), _) => None,
            })
            .collect();
        let Some(keys) = keys else {
            ringo_trace::counter("table.order.compare").add(1);
            return Ok((self.order_perm_cmp(&idx, ascending), Vec::new()));
        };
        let ordered = match radix_sort_rows(&keys, ascending, None, self.threads) {
            SortedRows::U64(words, codec) => {
                ringo_trace::counter("table.order.u64").add(1);
                let decoding = if decode { &keys[..] } else { &[] };
                let (perm, decoded) = decode_rows(words, &codec, decoding, self.threads);
                ringo_trace::counter("table.order.decoded").add(decoded.len() as u64);
                let whole = decoded.into_iter().map(|c| {
                    Arc::new(match c {
                        SortedColumn::Int(v) => ColumnData::Int(v),
                        SortedColumn::Float(v) => ColumnData::Float(v),
                    })
                });
                (perm, idx.into_iter().zip(whole).collect())
            }
            SortedRows::U128(words, codec) => {
                ringo_trace::counter("table.order.u128").add(1);
                let perm = words.iter().map(|&k| codec.position(k) as u32);
                (perm.collect(), Vec::new())
            }
            SortedRows::Chained(rows) => {
                ringo_trace::counter("table.order.chained").add(1);
                (rows, Vec::new())
            }
        };
        Ok(ordered)
    }

    /// The positions of the table's rows sorted by `cols` (see
    /// [`Table::ordering`]): what `next_k` and `value_counts` read.
    pub(crate) fn order_perm_sel(&self, cols: &[&str], ascending: bool) -> Result<Vec<u32>> {
        Ok(self.ordering(cols, ascending, false)?.0)
    }

    /// The table's rows sorted by `cols`: the eager verbs' and the lazy
    /// `OrderBy` step's result. The sort columns come back whole when the
    /// ordering decoded them ([`Table::ordering`]); every other column
    /// and the row ids are read through the permutation.
    pub(crate) fn sorted_view(&self, cols: &[&str], ascending: bool) -> Result<Table> {
        let (perm, whole) = self.ordering(cols, ascending, true)?;
        Ok(self.view_rows_with(perm, whole))
    }

    /// The positions of the table's rows, in row order.
    pub(crate) fn unsorted_perm(&self) -> Vec<u32> {
        (0..self.n_rows() as u32).collect()
    }

    /// [`Table::order_perm_sel`] by stable comparison, for sort columns
    /// that include a `Str` one.
    fn order_perm_cmp(&self, idx: &[usize], ascending: bool) -> Vec<u32> {
        let mut perm = self.unsorted_perm();
        perm.sort_by(|&a, &b| self.cmp_rows(idx, ascending, a, b));
        perm
    }

    /// The rows at positions `a` and `b` compared by the columns `idx` in
    /// turn, or `b` and `a` when descending.
    pub(crate) fn cmp_rows(&self, idx: &[usize], ascending: bool, a: u32, b: u32) -> Ordering {
        let (a, b) = if ascending { (a, b) } else { (b, a) };
        let by = |&c: &usize| {
            let col = self.col(c);
            let (a, b) = (col.at(a as usize), col.at(b as usize));
            match col.data {
                ColumnData::Int(v) => v[a].cmp(&v[b]),
                ColumnData::Float(v) => v[a].total_cmp(&v[b]),
                ColumnData::Str(v) => self.pool.get(v[a]).cmp(self.pool.get(v[b])),
            }
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
    /// The sorted table keeps its numeric sort columns in sort order, as
    /// a column store's sorted projection does: when the sort packs a row
    /// into a `u64` word, each sort column comes back whole, decoded off
    /// the sorted words — the first in the words' own buffer — and
    /// borrowing it copies nothing. Every other column, and a sort column
    /// whose rows needed a wider word, chained passes or a `Str` key, is
    /// the column it had, shared, read through its selection composed
    /// with the permutation (4 B a row a selection) and gathered the
    /// first time it is borrowed whole. The lazy `OrderBy` step returns
    /// the same table; a `&mut` verb that edits columns materializes it.
    pub fn order_by(&mut self, cols: &[&str], ascending: bool) -> Result<()> {
        *self = self.ordered_by(cols, ascending)?;
        Ok(())
    }

    /// Returns a sorted copy; see [`Table::order_by`].
    pub fn ordered_by(&self, cols: &[&str], ascending: bool) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.order");
        sp.rows_in(self.n_rows());
        sp.rows_out(self.n_rows());
        self.sorted_view(cols, ascending)
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
