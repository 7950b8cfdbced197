//! Set operations over whole-row values: union, intersection, minus.
//!
//! Two rows are equal when all their cells compare equal (strings by text,
//! so pools may differ between operands; floats by bit pattern). All
//! operations require identical schemas and return new tables.

use crate::ops::rowkey::KeyEncoder;
use crate::{Result, Table, TableError};
use ringo_concurrent::KeyInterner;

impl Table {
    fn check_same_schema(&self, other: &Table, op: &str) -> Result<()> {
        if self.schema != other.schema {
            return Err(TableError::SchemaMismatch(format!(
                "{op} requires identical schemas"
            )));
        }
        Ok(())
    }

    /// Checks the schemas, then returns encoders for the whole rows of
    /// both tables whose keys compare across them.
    fn whole_rows<'a>(&'a self, other: &'a Table, op: &str) -> Result<[KeyEncoder<'a>; 2]> {
        self.check_same_schema(other, op)?;
        let all: Vec<usize> = (0..self.n_cols()).collect();
        KeyEncoder::pair(self, other, &all)
    }

    /// Set union: all distinct rows occurring in either table. Rows from
    /// `self` keep their ids; rows contributed by `other` get fresh ids.
    pub fn union(&self, other: &Table) -> Result<Table> {
        let [mine, theirs] = self.whole_rows(other, "union")?;
        let mut seen = KeyInterner::with_capacity(mine.width(), self.n_rows());
        let mut out = self.view_rows(mine.first_occurrences(self.n_rows(), &mut seen));
        let keep_other = theirs.first_occurrences(other.n_rows(), &mut seen);
        out.append_rows(&other.view_rows(keep_other))?;
        Ok(out)
    }

    /// Bag union: simple concatenation preserving duplicates.
    pub fn union_all(&self, other: &Table) -> Result<Table> {
        self.check_same_schema(other, "union_all")?;
        let mut out = self.clone();
        out.append_rows(other)?;
        Ok(out)
    }

    /// Set intersection: distinct rows of `self` that also occur in
    /// `other` (ids from `self`).
    pub fn intersect(&self, other: &Table) -> Result<Table> {
        let [mine, theirs] = self.whole_rows(other, "intersect")?;
        let mut in_other = KeyInterner::with_capacity(mine.width(), other.n_rows());
        theirs.for_each_key(other.n_rows(), |_, key| {
            in_other.intern(key);
        });
        let mut emitted = vec![false; in_other.len()];
        let mut keep = Vec::new();
        mine.for_each_key(self.n_rows(), |row, key| {
            if let Some(id) = in_other.find(key) {
                if !std::mem::replace(&mut emitted[id as usize], true) {
                    keep.push(row as u32);
                }
            }
        });
        Ok(self.view_rows(keep))
    }

    /// Set difference: distinct rows of `self` that do not occur in
    /// `other` (ids from `self`).
    pub fn minus(&self, other: &Table) -> Result<Table> {
        let [mine, theirs] = self.whole_rows(other, "minus")?;
        let mut seen = KeyInterner::with_capacity(mine.width(), other.n_rows());
        theirs.for_each_key(other.n_rows(), |_, key| {
            seen.intern(key);
        });
        // A key still new after all of `other` is absent from it.
        Ok(self.view_rows(mine.first_occurrences(self.n_rows(), &mut seen)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, ColumnType, Predicate, Schema, Table, Value};

    fn make(rows: &[(i64, &str)]) -> Table {
        let schema = Schema::new([("x", ColumnType::Int), ("s", ColumnType::Str)]);
        let mut t = Table::new(schema);
        for (x, s) in rows {
            t.push_row(&[Value::Int(*x), (*s).into()]).unwrap();
        }
        t
    }

    #[test]
    fn union_dedups_across_and_within() {
        let a = make(&[(1, "a"), (2, "b"), (1, "a")]);
        let b = make(&[(2, "b"), (3, "c")]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.n_rows(), 3);
        let mut xs = u.int_col("x").unwrap().to_vec();
        xs.sort_unstable();
        assert_eq!(xs, vec![1, 2, 3]);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let a = make(&[(1, "a")]);
        let b = make(&[(1, "a"), (2, "b")]);
        let u = a.union_all(&b).unwrap();
        assert_eq!(u.n_rows(), 3);
    }

    #[test]
    fn intersect_requires_text_equality_across_pools() {
        let a = make(&[(1, "a"), (2, "b"), (3, "c")]);
        // Build b with different interning order.
        let b = make(&[(9, "zzz"), (3, "c"), (1, "a")]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.n_rows(), 2);
        assert_eq!(*i.row_ids(), [0, 2], "self ids preserved");
    }

    #[test]
    fn operand_keeps_symbols_its_rows_no_longer_use() {
        // A selection leaves the pool unpruned: only "b" is still met.
        let a = make(&[(1, "a"), (2, "b")]);
        let wide = make(&[(7, "x"), (8, "y"), (2, "b")]);
        let b = wide.select(&Predicate::int("x", Cmp::Eq, 2)).unwrap();
        assert_eq!(*a.intersect(&b).unwrap().row_ids(), [1]);
        assert_eq!(*a.minus(&b).unwrap().row_ids(), [0]);
        assert_eq!(b.union(&a).unwrap().n_rows(), 2);
    }

    #[test]
    fn minus_removes_matches_and_dedups() {
        let a = make(&[(1, "a"), (2, "b"), (2, "b"), (3, "c")]);
        let b = make(&[(2, "b")]);
        let m = a.minus(&b).unwrap();
        let mut xs = m.int_col("x").unwrap().to_vec();
        xs.sort_unstable();
        assert_eq!(xs, vec![1, 3]);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = make(&[(1, "a")]);
        let b = Table::from_int_column("x", vec![1]);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.minus(&b).is_err());
        assert!(a.union_all(&b).is_err());
    }

    #[test]
    fn empty_operands() {
        let a = make(&[(1, "a")]);
        let e = make(&[]);
        assert_eq!(a.union(&e).unwrap().n_rows(), 1);
        assert_eq!(e.union(&a).unwrap().n_rows(), 1);
        assert_eq!(a.intersect(&e).unwrap().n_rows(), 0);
        assert_eq!(a.minus(&e).unwrap().n_rows(), 1);
    }
}
