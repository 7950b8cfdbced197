//! Join variants beyond the inner hash join: left outer, semi, and anti
//! joins. Semi/anti joins filter rows of the left table by key existence
//! on the right — the idioms graph workflows use to restrict an edge
//! table to "known users" (semi) or "everyone except bots" (anti).

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table, TableError};
use std::collections::HashSet;
use std::sync::Arc;

/// Key existence set over a join column (int or string), resolving
/// strings through the owning pool so tables with different pools
/// compare by text.
enum KeySet<'a> {
    Int(HashSet<i64>),
    Str(HashSet<&'a str>),
}

impl<'a> KeySet<'a> {
    fn build(t: &'a Table, col: &str) -> Result<Self> {
        let i = t.schema.index_of(col)?;
        Ok(match t.column(i) {
            ColumnData::Int(v) => Self::Int(v.iter().copied().collect()),
            ColumnData::Str(v) => Self::Str(v.iter().map(|&sym| t.pool.get(sym)).collect()),
            ColumnData::Float(_) => {
                return Err(TableError::InvalidArgument(
                    "join keys must be int or str columns".into(),
                ))
            }
        })
    }

    fn contains(&self, t: &Table, col_idx: usize, row: usize) -> bool {
        match (self, t.column(col_idx)) {
            (Self::Int(set), ColumnData::Int(v)) => set.contains(&v[row]),
            (Self::Str(set), ColumnData::Str(v)) => set.contains(t.pool.get(v[row])),
            _ => false,
        }
    }
}

impl Table {
    /// Left outer join: like [`Table::join`], but left rows without a
    /// match survive with right-side columns filled with `0` / `0.0` /
    /// `""` (Ringo tables have no NULL; the paper's schema has none
    /// either).
    pub fn left_join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        let inner = self.join(other, left_col, right_col)?;
        // Find unmatched left rows and append them with default right cells.
        let keys = KeySet::build(other, right_col)?;
        let li = self.schema.index_of(left_col)?;
        let unmatched: Vec<usize> = (0..self.n_rows())
            .filter(|&row| !keys.contains(self, li, row))
            .collect();
        if unmatched.is_empty() {
            return Ok(inner);
        }
        let mut out = inner;
        let left_width = self.n_cols();
        for &row in &unmatched {
            for (i, col) in out.cols.iter_mut().enumerate() {
                let col = Arc::make_mut(col);
                if i < left_width {
                    col.push_from(self.column(i), row);
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
        let keys = KeySet::build(other, right_col)?;
        let li = self.schema.index_of(left_col)?;
        self.check_key_compat(li, other, right_col)?;
        let keep: Vec<u32> = (0..row_count_u32(self.n_rows())?)
            .filter(|&row| keys.contains(self, li, row as usize))
            .collect();
        Ok(self.view_rows(keep))
    }

    /// Anti join: rows of `self` whose key does **not** appear in `other`.
    pub fn anti_join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        let keys = KeySet::build(other, right_col)?;
        let li = self.schema.index_of(left_col)?;
        self.check_key_compat(li, other, right_col)?;
        let keep: Vec<u32> = (0..row_count_u32(self.n_rows())?)
            .filter(|&row| !keys.contains(self, li, row as usize))
            .collect();
        Ok(self.view_rows(keep))
    }

    fn check_key_compat(&self, left_idx: usize, other: &Table, right_col: &str) -> Result<()> {
        let ri = other.schema.index_of(right_col)?;
        let lt = self.schema.column_type(left_idx);
        let rt = other.schema.column_type(ri);
        if lt != rt {
            return Err(TableError::TypeMismatch {
                column: right_col.to_string(),
                expected: lt.name(),
                actual: rt.name(),
            });
        }
        Ok(())
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
