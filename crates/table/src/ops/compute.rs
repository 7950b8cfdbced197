//! Derived columns and top-k selection.

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table, TableError};

impl Table {
    /// Appends an integer column computed from an existing integer column
    /// (`f` applied element-wise).
    pub fn map_int(&mut self, src: &str, out: &str, f: impl Fn(i64) -> i64) -> Result<()> {
        let data: Vec<i64> = self.int_col(src)?.iter().map(|&v| f(v)).collect();
        self.add_int_column(out, data)
    }

    /// Appends a float column computed from an existing numeric column
    /// (ints are widened to `f64` first).
    pub fn map_float(&mut self, src: &str, out: &str, f: impl Fn(f64) -> f64) -> Result<()> {
        let i = self.schema.index_of(src)?;
        let data: Vec<f64> = match self.column(i) {
            ColumnData::Int(v) => v.iter().map(|&x| f(x as f64)).collect(),
            ColumnData::Float(v) => v.iter().map(|&x| f(x)).collect(),
            ColumnData::Str(_) => {
                return Err(TableError::TypeMismatch {
                    column: src.to_string(),
                    expected: "int or float",
                    actual: "str",
                })
            }
        };
        self.add_float_column(out, data)
    }

    /// Appends an integer column computed from two integer columns.
    pub fn zip_ints(
        &mut self,
        a: &str,
        b: &str,
        out: &str,
        f: impl Fn(i64, i64) -> i64,
    ) -> Result<()> {
        let data: Vec<i64> = self
            .int_col(a)?
            .iter()
            .zip(self.int_col(b)?)
            .map(|(&x, &y)| f(x, y))
            .collect();
        self.add_int_column(out, data)
    }

    /// The `k` rows with the greatest (`ascending = false`) or smallest
    /// (`ascending = true`) values under the multi-column order — a
    /// partial sort that avoids ordering the whole table. Row ids are
    /// preserved; the result is ordered.
    pub fn top_k(&self, cols: &[&str], k: usize, ascending: bool) -> Result<Table> {
        let idx = self.col_indices(cols)?;
        let cmp = |&a: &u32, &b: &u32| self.cmp_rows(&idx, ascending, a, b);
        row_count_u32(self.n_rows())?;
        let mut perm = self.unsorted_perm();
        let k = k.min(perm.len());
        if k > 0 {
            perm.select_nth_unstable_by(k - 1, cmp);
        }
        perm.truncate(k);
        perm.sort_by(cmp);
        Ok(self.view_rows(perm))
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnType, Schema, Table, Value};

    fn scores() -> Table {
        let schema = Schema::new([("id", ColumnType::Int), ("score", ColumnType::Float)]);
        let mut t = Table::new(schema);
        for (i, s) in [(1i64, 0.5), (2, 0.9), (3, 0.1), (4, 0.7), (5, 0.3)] {
            t.push_row(&[Value::Int(i), Value::Float(s)]).unwrap();
        }
        t
    }

    #[test]
    fn map_int_and_zip() {
        let mut t = Table::from_int_column("x", vec![1, 2, 3]);
        t.map_int("x", "sq", |v| v * v).unwrap();
        assert_eq!(t.int_col("sq").unwrap(), &[1, 4, 9]);
        t.zip_ints("x", "sq", "sum", |a, b| a + b).unwrap();
        assert_eq!(t.int_col("sum").unwrap(), &[2, 6, 12]);
        assert!(t.map_int("missing", "y", |v| v).is_err());
    }

    #[test]
    fn map_float_widens_ints() {
        let mut t = scores();
        t.map_float("id", "half", |v| v / 2.0).unwrap();
        assert_eq!(t.float_col("half").unwrap()[1], 1.0);
        t.map_float("score", "pct", |v| v * 100.0).unwrap();
        assert_eq!(t.float_col("pct").unwrap()[0], 50.0);
    }

    #[test]
    fn top_k_descending() {
        let t = scores();
        let top = t.top_k(&["score"], 2, false).unwrap();
        assert_eq!(top.int_col("id").unwrap(), &[2, 4]);
        assert_eq!(*top.row_ids(), [1, 3]);
    }

    #[test]
    fn top_k_ascending_and_bounds() {
        let t = scores();
        let bottom = t.top_k(&["score"], 2, true).unwrap();
        assert_eq!(bottom.int_col("id").unwrap(), &[3, 5]);
        assert_eq!(t.top_k(&["score"], 0, true).unwrap().n_rows(), 0);
        assert_eq!(t.top_k(&["score"], 100, true).unwrap().n_rows(), 5);
        assert!(t.top_k(&["nope"], 1, true).is_err());
    }

    #[test]
    fn top_k_matches_full_sort() {
        let mut big = Table::from_int_column(
            "v",
            (0..5_000)
                .map(|i| (i * 2_654_435_761u64 as i64) % 100_000)
                .collect(),
        );
        let top = big.top_k(&["v"], 50, false).unwrap();
        big.order_by(&["v"], false).unwrap();
        assert_eq!(top.int_col("v").unwrap(), &big.int_col("v").unwrap()[..50]);
    }
}
