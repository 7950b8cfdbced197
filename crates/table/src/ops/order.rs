//! Multi-column ordering (sort).

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table};
use ringo_concurrent::{f64_key, i64_key, radix_sort_by_u64_key};
use std::cmp::Ordering;

impl Table {
    /// Permutation kernel shared by the eager verb and the lazy executor:
    /// reorders the positions of `sel` (every row when `None`) so the rows
    /// they name are sorted by `cols`, ties broken by the next column, then
    /// by prior `sel` order (stable). No rows are materialized.
    ///
    /// When every sort column is numeric (`Int` or `Float`) the permutation
    /// is computed with chained stable radix passes (least-significant
    /// column first) instead of a comparison sort; floats map through the
    /// IEEE-754 total-order key [`f64_key`], so NaNs land exactly where
    /// `total_cmp` puts them, and descending order complements the biased
    /// key, which preserves stability exactly like the comparison path.
    pub(crate) fn order_perm_sel(
        &self,
        cols: &[&str],
        ascending: bool,
        sel: Option<&[u32]>,
    ) -> Result<Vec<u32>> {
        let idx = self.col_indices(cols)?;
        let mut perm: Vec<u32> = match sel {
            Some(s) => s.to_vec(),
            None => (0..row_count_u32(self.n_rows())?).collect(),
        };
        let radixable = idx
            .iter()
            .all(|&c| !matches!(self.cols[c], ColumnData::Str(_)));
        if radixable {
            let threads = self.threads();
            for &c in idx.iter().rev() {
                match &self.cols[c] {
                    ColumnData::Int(v) if ascending => {
                        radix_sort_by_u64_key(&mut perm, threads, |&r| i64_key(v[r as usize]));
                    }
                    ColumnData::Int(v) => {
                        radix_sort_by_u64_key(&mut perm, threads, |&r| !i64_key(v[r as usize]));
                    }
                    ColumnData::Float(v) if ascending => {
                        radix_sort_by_u64_key(&mut perm, threads, |&r| f64_key(v[r as usize]));
                    }
                    ColumnData::Float(v) => {
                        radix_sort_by_u64_key(&mut perm, threads, |&r| !f64_key(v[r as usize]));
                    }
                    ColumnData::Str(_) => unreachable!("radixable checked above"),
                }
            }
            return Ok(perm);
        }
        let cmp = |a: usize, b: usize| -> Ordering {
            for &c in &idx {
                let ord = match &self.cols[c] {
                    ColumnData::Int(v) => v[a].cmp(&v[b]),
                    ColumnData::Float(v) => v[a].total_cmp(&v[b]),
                    ColumnData::Str(v) => self.pool.get(v[a]).cmp(self.pool.get(v[b])),
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        if ascending {
            perm.sort_by(|&a, &b| cmp(a as usize, b as usize));
        } else {
            perm.sort_by(|&a, &b| cmp(b as usize, a as usize));
        }
        Ok(perm)
    }

    /// Sorts the table in place by the given columns (ties broken by the
    /// next column). Floats use IEEE total order, so NaNs sort after all
    /// numbers. Row ids travel with their rows. The sort is stable.
    ///
    /// Numeric sort columns (`Int` and `Float` alike) take the radix path
    /// of [`Table::order_perm_sel`]; any `Str` column falls back to a
    /// stable comparison sort.
    pub fn order_by(&mut self, cols: &[&str], ascending: bool) -> Result<()> {
        let mut sp = ringo_trace::span!("table.order");
        sp.rows_in(self.n_rows());
        sp.rows_out(self.n_rows());
        let perm = self.order_perm_sel(cols, ascending, None)?;
        self.retain_rows_sel(&perm);
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
        assert_eq!(s.row_ids(), &[2, 0, 1, 3]);
    }

    #[test]
    fn stable_for_equal_keys() {
        let mut s = t();
        s.order_by(&["g"], true).unwrap();
        // Rows 1 and 3 are both "a" — original order preserved.
        assert_eq!(s.row_ids(), &[1, 3, 0, 2]);
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
        assert_eq!(t.row_ids(), &[1, 3, 2, 0, 4]);
    }

    #[test]
    fn missing_column_errors() {
        let mut s = t();
        assert!(s.order_by(&["nope"], true).is_err());
    }
}
