//! Join variants beyond the inner hash join: left outer, semi, and anti
//! joins. Semi/anti joins filter rows of the left table by key existence
//! on the right — the idioms graph workflows use to restrict an edge
//! table to "known users" (semi) or "everyone except bots" (anti).

use super::join::{join_pairs_sel_stats, join_view, rows_with_match};
use crate::{ColumnData, Result, Table};
use ringo_concurrent::{parallel_for, ConcurrentBitset};
use std::sync::Arc;

impl Table {
    /// Left outer join: like [`Table::join`], but left rows without a
    /// match survive with right-side columns filled with `0` / `0.0` /
    /// `""` (Ringo tables have no NULL; the paper's schema has none
    /// either).
    pub fn left_join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        let li = self.schema.index_of(left_col)?;
        let ri = other.schema.index_of(right_col)?;
        let (left_rows, right_rows, _) = join_pairs_sel_stats(self, other, li, ri)?;
        // The left rows some pair holds.
        let matched = ConcurrentBitset::new(self.n_rows());
        parallel_for(left_rows.len(), self.threads, |_, range| {
            for &row in &left_rows[range] {
                matched.set(row as usize);
            }
        });
        let mut out = join_view(self, other, left_rows, right_rows, Some((li, ri)));
        out.materialize();
        // Append the others, in row order, with default right cells.
        let left_width = self.n_cols();
        for row in (0..self.n_rows()).filter(|&row| !matched.get(row)) {
            for (i, col) in out.cols.iter_mut().enumerate() {
                let col = Arc::make_mut(&mut col.data);
                if i < left_width {
                    let src = self.col(i);
                    col.push_from(src.data, src.at(row));
                } else {
                    match col {
                        ColumnData::Int(v) => v.push(0),
                        ColumnData::Float(v) => v.push(0.0),
                        ColumnData::Str(v) => v.push(0), // symbol 0 = ""
                    }
                }
            }
            out.push_row_id();
        }
        Ok(out)
    }

    /// Semi join: rows of `self` whose key appears in `other` (row ids
    /// preserved; output has only `self`'s columns, each row at most once).
    pub fn semi_join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        Ok(self.view_rows(rows_with_match(self, other, left_col, right_col, true)?))
    }

    /// Anti join: rows of `self` whose key does **not** appear in `other`.
    pub fn anti_join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        Ok(self.view_rows(rows_with_match(self, other, left_col, right_col, false)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Schema, Value};

    fn users() -> Table {
        let schema = Schema::new([("uid", ColumnType::Int), ("name", ColumnType::Str)]);
        let mut t = Table::new(schema);
        for (u, n) in [(1i64, "ada"), (2, "bob"), (3, "cyd")] {
            t.push_row(&[u.into(), n.into()]).unwrap();
        }
        t
    }

    fn events() -> Table {
        Table::from_int_column("uid", vec![1, 1, 3, 9])
    }

    #[test]
    fn semi_join_keeps_matching_rows_once() {
        let u = users();
        let e = events();
        let s = u.semi_join(&e, "uid", "uid").unwrap();
        assert_eq!(s.int_col("uid").unwrap(), &[1, 3]);
        assert_eq!(*s.row_ids(), [0, 2], "ids preserved");
        assert_eq!(s.n_cols(), 2, "left columns only");
    }

    #[test]
    fn anti_join_is_the_complement() {
        let u = users();
        let e = events();
        let a = u.anti_join(&e, "uid", "uid").unwrap();
        assert_eq!(a.int_col("uid").unwrap(), &[2]);
        let s = u.semi_join(&e, "uid", "uid").unwrap();
        assert_eq!(a.n_rows() + s.n_rows(), u.n_rows());
    }

    #[test]
    fn left_join_pads_unmatched_rows() {
        let u = users();
        let e = events();
        let j = u.left_join(&e, "uid", "uid").unwrap();
        // uid 1 matches twice, uid 3 once, uid 2 unmatched -> 4 rows.
        assert_eq!(j.n_rows(), 4);
        let uids = j.int_col("uid").unwrap();
        let right = j.int_col("uid-1").unwrap();
        let bob_row = uids.iter().position(|&x| x == 2).unwrap();
        assert_eq!(right[bob_row], 0, "default fill for unmatched");
        assert_eq!(j.get(bob_row, "name").unwrap(), Value::Str("bob".into()));
    }

    #[test]
    fn string_keys_across_pools() {
        let schema = Schema::new([("tag", ColumnType::Str)]);
        let mut l = Table::new(schema.clone());
        for s in ["java", "rust", "go"] {
            l.push_row(&[s.into()]).unwrap();
        }
        let mut r = Table::new(schema);
        for s in ["zzz", "rust"] {
            r.push_row(&[s.into()]).unwrap();
        }
        let s = l.semi_join(&r, "tag", "tag").unwrap();
        assert_eq!(s.n_rows(), 1);
        assert_eq!(s.get(0, "tag").unwrap(), Value::Str("rust".into()));
        let a = l.anti_join(&r, "tag", "tag").unwrap();
        assert_eq!(a.n_rows(), 2);
    }

    #[test]
    fn type_mismatch_and_float_keys_rejected() {
        let u = users();
        let schema = Schema::new([("uid", ColumnType::Float)]);
        let mut f = Table::new(schema);
        f.push_row(&[Value::Float(1.0)]).unwrap();
        assert!(u.semi_join(&f, "uid", "uid").is_err());
        assert!(u.anti_join(&f, "uid", "uid").is_err());
        assert!(u.semi_join(&f, "name", "uid").is_err());
    }

    /// Views on both sides, `Str` keys of one pool and of two: the index is
    /// built over the right side's selection and probed through the
    /// left's.
    #[test]
    fn views_with_str_keys_in_one_pool_and_two() {
        use crate::{Cmp, Predicate};
        let tagged = |tags: &[&str]| {
            let mut t = Table::from_int_column("a", (0..tags.len() as i64).collect());
            t.add_str_column("tag", tags).unwrap();
            t.set_threads(2);
            t
        };
        let a = |t: &Table| t.int_col("a").unwrap().to_vec();
        let base = tagged(&["x", "y", "z", "x", "w", "y", "v", "x"]);
        let left = base.select(&Predicate::int("a", Cmp::Lt, 5)).unwrap();
        let same_pool = base.select(&Predicate::int("a", Cmp::Ge, 5)).unwrap();
        // Its own pool, interned in another order; the view drops "z".
        let other = tagged(&["z", "q", "y", "x"]);
        let other_pool = other.select(&Predicate::int("a", Cmp::Ge, 1)).unwrap();
        // Right tags {y, v, x} and {q, y, x}: left rows x y z x w.
        for right in [&same_pool, &other_pool] {
            assert_eq!(a(&left.semi_join(right, "tag", "tag").unwrap()), [0, 1, 3]);
            let anti = left.anti_join(right, "tag", "tag").unwrap();
            assert_eq!(a(&anti), [2, 4]);
            assert_eq!(*anti.row_ids(), [2, 4], "ids preserved");
            let l = left.left_join(right, "tag", "tag").unwrap();
            // Three matches, then the unmatched z and w, padded.
            assert_eq!(a(&l), [0, 1, 3, 2, 4]);
            assert_eq!(l.get(3, "tag-1").unwrap(), Value::Str(String::new()));
        }
    }

    #[test]
    fn empty_right_side() {
        let u = users();
        let empty = Table::from_int_column("uid", vec![]);
        assert_eq!(u.semi_join(&empty, "uid", "uid").unwrap().n_rows(), 0);
        assert_eq!(u.anti_join(&empty, "uid", "uid").unwrap().n_rows(), 3);
        let l = u.left_join(&empty, "uid", "uid").unwrap();
        assert_eq!(l.n_rows(), 3, "all rows padded");
    }
}
