//! Projection and column/row addition.

use crate::table::Col;
use crate::{ColumnData, Result, Table, TableError};
use std::sync::Arc;

impl Table {
    /// Returns a new table with only the named columns, in the given
    /// order, each named once. Row ids are preserved; the columns are
    /// shared with `self`.
    pub fn project(&self, cols: &[&str]) -> Result<Table> {
        let (schema, idx) = self.schema.project(cols)?;
        Ok(self.with_columns(schema, &idx))
    }

    /// Appends an integer column (must match the current row count).
    pub fn add_int_column(&mut self, name: &str, data: Vec<i64>) -> Result<()> {
        self.add_column(name, ColumnData::Int(data))
    }

    /// Appends a float column (must match the current row count).
    pub fn add_float_column(&mut self, name: &str, data: Vec<f64>) -> Result<()> {
        self.add_column(name, ColumnData::Float(data))
    }

    /// Appends a string column (must match the current row count).
    pub fn add_str_column<S: AsRef<str>>(&mut self, name: &str, data: &[S]) -> Result<()> {
        self.check_new_column(name, data.len())?;
        let pool = Arc::make_mut(&mut self.pool);
        let syms = data.iter().map(|s| pool.intern(s.as_ref())).collect();
        self.add_column(name, ColumnData::Str(syms))
    }

    /// Appends all rows of `other`, which must have an identical schema.
    /// Appended rows get fresh row ids in this table's id space.
    pub fn append_rows(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(TableError::SchemaMismatch(
                "append_rows requires identical schemas".into(),
            ));
        }
        self.materialize();
        // `other`'s strings enter this pool once each, unless it is shared.
        let remap = (!Arc::ptr_eq(&self.pool, &other.pool)).then(|| {
            let strs: Vec<&[u32]> = (0..other.n_cols())
                .filter_map(|i| match other.column(i) {
                    ColumnData::Str(syms) => Some(syms.as_slice()),
                    _ => None,
                })
                .collect();
            other.pool.per_symbol(&strs, |text, _| {
                u64::from(Arc::make_mut(&mut self.pool).intern(text))
            })
        });
        for (i, dst) in self.cols.iter_mut().enumerate() {
            match (Arc::make_mut(&mut dst.data), other.column(i), &remap) {
                (ColumnData::Int(d), ColumnData::Int(s), _) => d.extend_from_slice(s),
                (ColumnData::Float(d), ColumnData::Float(s), _) => d.extend_from_slice(s),
                (ColumnData::Str(d), ColumnData::Str(s), None) => d.extend_from_slice(s),
                (ColumnData::Str(d), ColumnData::Str(s), Some(remap)) => {
                    d.extend(s.iter().map(|&sym| remap[sym as usize] as u32));
                }
                _ => unreachable!("schemas validated equal"),
            }
        }
        for _ in 0..other.n_rows() {
            self.push_row_id();
        }
        Ok(())
    }

    /// Appends `data` as column `name`, materializing a view first.
    fn add_column(&mut self, name: &str, data: ColumnData) -> Result<()> {
        self.check_new_column(name, data.len())?;
        self.materialize();
        self.schema.push_unique(name, data.column_type());
        self.cols.push(Col::new(Arc::new(data), None));
        Ok(())
    }

    fn check_new_column(&self, name: &str, len: usize) -> Result<()> {
        if len != self.n_rows() {
            return Err(TableError::SchemaMismatch(format!(
                "column {name:?} has {len} values, table has {} rows",
                self.n_rows()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Schema, Value};

    fn base() -> Table {
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(&[Value::Int(1), "x".into()]).unwrap();
        t.push_row(&[Value::Int(2), "y".into()]).unwrap();
        t
    }

    #[test]
    fn project_reorders_and_preserves_ids() {
        let t = base();
        let p = t.project(&["b", "a"]).unwrap();
        assert_eq!(p.schema().name(0), "b");
        assert_eq!(p.row_ids(), t.row_ids());
        assert_eq!(p.get(1, "a").unwrap(), Value::Int(2));
        assert!(t.project(&["zzz"]).is_err());
    }

    #[test]
    fn a_column_named_twice_is_an_error_eager_and_lazy() {
        let t = base();
        let step = crate::plan::Step::Project(vec!["a".into(); 2]);
        let errors = [
            t.project(&["a", "a"]).unwrap_err(),
            crate::exec::execute(&[step], &[&t]).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(&err, TableError::InvalidArgument(m) if m == "duplicate column \"a\" in projection"),
                "{err}"
            );
        }
    }

    #[test]
    fn add_columns_validate_length() {
        let mut t = base();
        assert!(t.add_int_column("c", vec![1]).is_err());
        t.add_int_column("c", vec![10, 20]).unwrap();
        t.add_float_column("d", vec![0.1, 0.2]).unwrap();
        t.add_str_column("e", &["p", "q"]).unwrap();
        assert_eq!(t.n_cols(), 5);
        assert_eq!(t.get(1, "e").unwrap(), Value::Str("q".into()));
    }

    #[test]
    fn append_rows_re_interns_strings() {
        let mut a = base();
        let mut b = base();
        // Extra interning in b to shift symbols.
        b.intern("zzz");
        b.push_row(&[Value::Int(3), "z".into()]).unwrap();
        a.append_rows(&b).unwrap();
        assert_eq!(a.n_rows(), 5);
        assert_eq!(a.get(4, "b").unwrap(), Value::Str("z".into()));
        // Fresh ids continue a's sequence.
        assert_eq!(*a.row_ids(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn append_rows_schema_mismatch() {
        let mut a = base();
        let b = Table::from_int_column("a", vec![1]);
        assert!(a.append_rows(&b).is_err());
    }
}
