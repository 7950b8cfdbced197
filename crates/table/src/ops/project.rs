//! Projection and column/row addition.

use crate::{ColumnData, ColumnType, Result, Schema, Table, TableError};

impl Table {
    /// Returns a new table with only the named columns, in the given
    /// order. Row ids are preserved.
    pub fn project(&self, cols: &[&str]) -> Result<Table> {
        let idx = self.col_indices(cols)?;
        let schema = Schema::new(
            idx.iter()
                .map(|&i| (self.schema.name(i).to_string(), self.schema.column_type(i))),
        );
        Ok(Table {
            schema,
            cols: idx.iter().map(|&i| self.cols[i].clone()).collect(),
            row_ids: self.row_ids.clone(),
            next_row_id: self.next_row_id,
            pool: self.pool.clone(),
            threads: self.threads,
        })
    }

    /// Appends an integer column (must match the current row count).
    pub fn add_int_column(&mut self, name: &str, data: Vec<i64>) -> Result<()> {
        self.check_new_column(name, data.len())?;
        self.schema.push_unique(name, ColumnType::Int);
        self.cols.push(ColumnData::Int(data));
        Ok(())
    }

    /// Appends a float column (must match the current row count).
    pub fn add_float_column(&mut self, name: &str, data: Vec<f64>) -> Result<()> {
        self.check_new_column(name, data.len())?;
        self.schema.push_unique(name, ColumnType::Float);
        self.cols.push(ColumnData::Float(data));
        Ok(())
    }

    /// Appends a string column (must match the current row count).
    pub fn add_str_column<S: AsRef<str>>(&mut self, name: &str, data: &[S]) -> Result<()> {
        self.check_new_column(name, data.len())?;
        let syms = data.iter().map(|s| self.pool.intern(s.as_ref())).collect();
        self.schema.push_unique(name, ColumnType::Str);
        self.cols.push(ColumnData::Str(syms));
        Ok(())
    }

    /// Appends all rows of `other`, which must have an identical schema.
    /// Appended rows get fresh row ids in this table's id space.
    pub fn append_rows(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(TableError::SchemaMismatch(
                "append_rows requires identical schemas".into(),
            ));
        }
        let n = other.n_rows();
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            match (dst, src) {
                (ColumnData::Int(d), ColumnData::Int(s)) => d.extend_from_slice(s),
                (ColumnData::Float(d), ColumnData::Float(s)) => d.extend_from_slice(s),
                (ColumnData::Str(d), ColumnData::Str(s)) => {
                    d.extend(s.iter().map(|&sym| self.pool.intern(other.pool.get(sym))));
                }
                _ => unreachable!("schemas validated equal"),
            }
        }
        for _ in 0..n {
            self.push_row_id();
        }
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
    use crate::Value;

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
