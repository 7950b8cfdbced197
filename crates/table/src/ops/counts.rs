//! Single-column value counting — the degree-distribution / activity-
//! histogram primitive of the workflow: a count-only group-by (the shared
//! morsel-parallel keyed kernel) re-sorted by frequency.

use crate::{AggOp, ColumnType, Result, Table, TableError};
use std::sync::Arc;

impl Table {
    /// Counts occurrences of each distinct value in an int or str column,
    /// returning a table `(value, count)` sorted by descending count
    /// (ties by ascending value).
    pub fn value_counts(&self, col: &str) -> Result<Table> {
        let ty = self.schema.column_type(self.schema.index_of(col)?);
        if ty == ColumnType::Float {
            return Err(TableError::TypeMismatch {
                column: col.to_string(),
                expected: "int or str",
                actual: "float",
            });
        }
        let (groups, _) = self.group_by_sel(&[col], None, AggOp::Count, "count")?;
        // Two stable passes: values ascending (strings by text), then
        // counts descending, which keeps the value order among ties.
        let by_value = groups.view_rows(groups.order_perm_sel(&[col], true)?);
        let order = by_value.order_perm_sel(&[groups.schema.name(1)], false)?;
        let cols =
            (0..by_value.n_cols()).map(|c| Arc::new(by_value.col(c).gather(&order, self.threads)));
        let schema = groups.schema.clone();
        Table::from_shared(schema, cols.collect(), groups.pool.clone(), self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Value};

    #[test]
    fn int_counts_sorted_by_frequency() {
        let mut t = Table::from_int_column("x", vec![5, 3, 5, 5, 3, 9]);
        t.set_threads(3);
        let c = t.value_counts("x").unwrap();
        assert_eq!(c.int_col("x").unwrap(), &[5, 3, 9]);
        assert_eq!(c.int_col("count").unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn str_counts_resolve_text() {
        let schema = Schema::new([("tag", ColumnType::Str)]);
        let mut t = Table::new(schema);
        for s in ["java", "rust", "java", "go", "java", "rust"] {
            t.push_row(&[s.into()]).unwrap();
        }
        let c = t.value_counts("tag").unwrap();
        assert_eq!(c.get(0, "tag").unwrap(), Value::Str("java".into()));
        assert_eq!(c.int_col("count").unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn matches_group_by_count() {
        let vals: Vec<i64> = (0..5_000).map(|i| (i * 37) % 100).collect();
        let mut t = Table::from_int_column("x", vals);
        t.set_threads(4);
        let fast = t.value_counts("x").unwrap();
        let slow = t.group_by(&["x"], None, AggOp::Count, "count").unwrap();
        assert_eq!(fast.n_rows(), slow.n_rows());
        let total_fast: i64 = fast.int_col("count").unwrap().iter().sum();
        let total_slow: i64 = slow.int_col("count").unwrap().iter().sum();
        assert_eq!(total_fast, total_slow);
        assert_eq!(total_fast, 5_000);
    }

    #[test]
    fn float_column_rejected_and_empty_ok() {
        let schema = Schema::new([("f", ColumnType::Float)]);
        let t = Table::new(schema);
        assert!(t.value_counts("f").is_err());
        let t = Table::from_int_column("x", vec![]);
        assert_eq!(t.value_counts("x").unwrap().n_rows(), 0);
    }

    #[test]
    fn ties_break_by_ascending_value() {
        let t = Table::from_int_column("x", vec![7, 2, 7, 2, 1]);
        let c = t.value_counts("x").unwrap();
        assert_eq!(c.int_col("x").unwrap(), &[2, 7, 1]);
    }
}
