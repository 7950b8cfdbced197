//! SimJoin: Ringo's similarity join (paper §2.3).
//!
//! "Ringo implements SimJoin, which joins two records if their distance is
//! smaller than a given threshold." We implement a sort-merge band join on
//! the first coordinate — a necessary condition for any Lp distance — and,
//! when more coordinates are given, filter the banded candidates by full
//! Euclidean distance.

use crate::ops::join::join_view;
use crate::{Result, Table, TableError};

impl Table {
    /// Joins rows of `self` and `other` whose points — formed from the
    /// parallel lists of numeric columns — lie within Euclidean distance
    /// `threshold`. With a single column pair this is the classic 1-D band
    /// join `|a - b| <= threshold`.
    ///
    /// Output layout matches [`Table::join`]: all left columns, then all
    /// right columns with clash suffixes.
    pub fn sim_join(
        &self,
        other: &Table,
        left_cols: &[&str],
        right_cols: &[&str],
        threshold: f64,
    ) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.simjoin");
        sp.rows_in(self.n_rows() + other.n_rows());
        if left_cols.is_empty() || left_cols.len() != right_cols.len() {
            return Err(TableError::InvalidArgument(
                "sim_join requires equally many (>=1) columns on both sides".into(),
            ));
        }
        if threshold.is_nan() || threshold < 0.0 {
            return Err(TableError::InvalidArgument(
                "sim_join threshold must be non-negative".into(),
            ));
        }
        let lget: Vec<_> = left_cols
            .iter()
            .map(|c| self.numeric_col(c))
            .collect::<Result<_>>()?;
        let rget: Vec<_> = right_cols
            .iter()
            .map(|c| other.numeric_col(c))
            .collect::<Result<_>>()?;

        // Sort both sides by the first coordinate.
        let mut lsorted: Vec<(f64, u32)> =
            (0..self.n_rows()).map(|r| (lget[0](r), r as u32)).collect();
        let mut rsorted: Vec<(f64, u32)> = (0..other.n_rows())
            .map(|r| (rget[0](r), r as u32))
            .collect();
        lsorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        rsorted.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Sliding window: for each left value, right candidates in
        // [v - threshold, v + threshold].
        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        let mut lo = 0usize;
        for &(lv, lrow) in &lsorted {
            while lo < rsorted.len() && rsorted[lo].0 < lv - threshold {
                lo += 1;
            }
            let mut j = lo;
            while j < rsorted.len() && rsorted[j].0 <= lv + threshold {
                let rrow = rsorted[j].1;
                let within = if lget.len() == 1 {
                    true
                } else {
                    let mut d2 = 0.0;
                    for dim in 0..lget.len() {
                        let diff = lget[dim](lrow as usize) - rget[dim](rrow as usize);
                        d2 += diff * diff;
                    }
                    d2 <= threshold * threshold
                };
                if within {
                    left_rows.push(lrow);
                    right_rows.push(rrow);
                }
                j += 1;
            }
        }
        let out = join_view(self, other, left_rows, right_rows, None);
        sp.rows_out(out.n_rows());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnType, Schema, Table, Value};

    fn points(vals: &[(i64, f64)]) -> Table {
        let schema = Schema::new([("x", ColumnType::Int), ("y", ColumnType::Float)]);
        let mut t = Table::new(schema);
        for (x, y) in vals {
            t.push_row(&[Value::Int(*x), Value::Float(*y)]).unwrap();
        }
        t
    }

    #[test]
    fn one_dimensional_band_join() {
        let l = points(&[(0, 0.0), (10, 0.0), (20, 0.0)]);
        let r = points(&[(2, 0.0), (9, 0.0), (50, 0.0)]);
        let j = l.sim_join(&r, &["x"], &["x"], 2.0).unwrap();
        // (0,2), (10,9) match; 20 and 50 have no partner.
        assert_eq!(j.n_rows(), 2);
        let mut pairs: Vec<(i64, i64)> = j
            .int_col("x")
            .unwrap()
            .iter()
            .zip(j.int_col("x-1").unwrap())
            .map(|(a, b)| (*a, *b))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (10, 9)]);
    }

    #[test]
    fn threshold_zero_is_exact_match() {
        let l = points(&[(1, 0.0), (2, 0.0)]);
        let r = points(&[(2, 0.0), (3, 0.0)]);
        let j = l.sim_join(&r, &["x"], &["x"], 0.0).unwrap();
        assert_eq!(j.n_rows(), 1);
    }

    #[test]
    fn euclidean_two_dimensional() {
        let l = points(&[(0, 0.0)]);
        let r = points(&[(1, 1.0), (1, 0.0), (3, 0.0)]);
        // Distances from (0,0): sqrt(2)≈1.41, 1.0, 3.0.
        let j = l.sim_join(&r, &["x", "y"], &["x", "y"], 1.2).unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "x-1").unwrap(), Value::Int(1));
        let j = l.sim_join(&r, &["x", "y"], &["x", "y"], 1.5).unwrap();
        assert_eq!(j.n_rows(), 2);
    }

    #[test]
    fn self_sim_join_pairs_near_rows() {
        let t = points(&[(0, 0.0), (1, 0.0), (5, 0.0)]);
        let j = t.sim_join(&t, &["x"], &["x"], 1.0).unwrap();
        // (0,0)(0,1)(1,0)(1,1)(5,5) = 5 pairs including self-pairs.
        assert_eq!(j.n_rows(), 5);
    }

    #[test]
    fn argument_validation() {
        let t = points(&[(0, 0.0)]);
        assert!(t.sim_join(&t, &[], &[], 1.0).is_err());
        assert!(t.sim_join(&t, &["x"], &["x", "y"], 1.0).is_err());
        assert!(t.sim_join(&t, &["x"], &["x"], -1.0).is_err());
        assert!(t.sim_join(&t, &["x"], &["x"], f64::NAN).is_err());
    }

    #[test]
    fn mixed_int_float_columns() {
        let l = points(&[(0, 1.0)]);
        let r = points(&[(0, 1.4)]);
        let j = l.sim_join(&r, &["y"], &["y"], 0.5).unwrap();
        assert_eq!(j.n_rows(), 1);
        let j = l.sim_join(&r, &["y"], &["y"], 0.3).unwrap();
        assert_eq!(j.n_rows(), 0);
    }
}
