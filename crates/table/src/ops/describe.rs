//! Exploratory helpers: per-column summaries, sampling, head.

use crate::table::row_count_u32;
use crate::{ColumnData, ColumnType, Result, Schema, StringPool, Table};
use std::collections::HashSet;

impl Table {
    /// One-row-per-column summary table with schema
    /// `column:str, type:str, count:int, distinct:int, min:float,
    /// max:float, mean:float`. For string columns the numeric cells are
    /// 0 and `distinct` counts distinct symbols.
    pub fn describe(&self) -> Table {
        let mut names: Vec<&str> = Vec::new();
        let mut types: Vec<&str> = Vec::new();
        let mut counts: Vec<i64> = Vec::new();
        let mut distincts: Vec<i64> = Vec::new();
        let (mut mins, mut maxs, mut means): (Vec<f64>, Vec<f64>, Vec<f64>) =
            (Vec::new(), Vec::new(), Vec::new());
        for (i, (name, ty)) in self.schema.iter().enumerate() {
            names.push(name);
            types.push(ty.name());
            counts.push(self.n_rows() as i64);
            match self.column(i) {
                ColumnData::Int(v) => {
                    let set: HashSet<i64> = v.iter().copied().collect();
                    distincts.push(set.len() as i64);
                    mins.push(v.iter().copied().min().unwrap_or(0) as f64);
                    maxs.push(v.iter().copied().max().unwrap_or(0) as f64);
                    means.push(if v.is_empty() {
                        0.0
                    } else {
                        v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
                    });
                }
                ColumnData::Float(v) => {
                    let set: HashSet<u64> = v.iter().map(|x| x.to_bits()).collect();
                    distincts.push(set.len() as i64);
                    mins.push(v.iter().copied().fold(f64::INFINITY, f64::min));
                    maxs.push(v.iter().copied().fold(f64::NEG_INFINITY, f64::max));
                    means.push(if v.is_empty() {
                        0.0
                    } else {
                        v.iter().sum::<f64>() / v.len() as f64
                    });
                    if v.is_empty() {
                        *mins.last_mut().unwrap() = 0.0;
                        *maxs.last_mut().unwrap() = 0.0;
                    }
                }
                ColumnData::Str(v) => {
                    let set: HashSet<u32> = v.iter().copied().collect();
                    distincts.push(set.len() as i64);
                    mins.push(0.0);
                    maxs.push(0.0);
                    means.push(0.0);
                }
            }
        }
        let mut pool = StringPool::new();
        let name_syms: Vec<u32> = names.iter().map(|n| pool.intern(n)).collect();
        let type_syms: Vec<u32> = types.iter().map(|t| pool.intern(t)).collect();
        let schema = Schema::new([
            ("column", ColumnType::Str),
            ("type", ColumnType::Str),
            ("count", ColumnType::Int),
            ("distinct", ColumnType::Int),
            ("min", ColumnType::Float),
            ("max", ColumnType::Float),
            ("mean", ColumnType::Float),
        ]);
        Table::from_parts(
            schema,
            vec![
                ColumnData::Str(name_syms),
                ColumnData::Str(type_syms),
                ColumnData::Int(counts),
                ColumnData::Int(distincts),
                ColumnData::Float(mins),
                ColumnData::Float(maxs),
                ColumnData::Float(means),
            ],
            pool,
        )
        .expect("summary columns are consistent")
    }

    /// A uniform sample (without replacement) of `n` rows, deterministic
    /// for a fixed `seed`; row ids preserved. Returns the whole table when
    /// `n >= n_rows()`. Output keeps the original row order.
    pub fn sample_rows(&self, n: usize, seed: u64) -> Result<Table> {
        let total = self.n_rows();
        if n >= total {
            return Ok(self.clone());
        }
        row_count_u32(total)?;
        // Floyd's algorithm for a uniform n-subset.
        let mut state = seed | 1;
        let mut rand_below = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut chosen: HashSet<usize> = HashSet::with_capacity(n);
        for j in (total - n)..total {
            let t = rand_below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let mut keep: Vec<u32> = chosen.into_iter().map(|r| r as u32).collect();
        keep.sort_unstable();
        Ok(self.view_rows(keep))
    }

    /// The first `n` rows (row ids preserved).
    pub fn head(&self, n: usize) -> Result<Table> {
        let keep: Vec<u32> = (0..row_count_u32(n.min(self.n_rows()))?).collect();
        Ok(self.view_rows(keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn t() -> Table {
        let schema = Schema::new([
            ("x", ColumnType::Int),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
        ]);
        let mut t = Table::new(schema);
        for (x, f, s) in [
            (1i64, 0.5, "a"),
            (2, 1.5, "b"),
            (2, 2.5, "a"),
            (3, 0.5, "a"),
        ] {
            t.push_row(&[Value::Int(x), Value::Float(f), s.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn describe_summarizes_each_column() {
        let d = t().describe();
        assert_eq!(d.n_rows(), 3);
        // Row 0: column x.
        assert_eq!(d.get(0, "column").unwrap(), Value::Str("x".into()));
        assert_eq!(d.get(0, "distinct").unwrap(), Value::Int(3));
        assert_eq!(d.get(0, "min").unwrap(), Value::Float(1.0));
        assert_eq!(d.get(0, "max").unwrap(), Value::Float(3.0));
        assert_eq!(d.get(0, "mean").unwrap(), Value::Float(2.0));
        // Row 1: float column.
        assert_eq!(d.get(1, "distinct").unwrap(), Value::Int(3));
        // Row 2: string column.
        assert_eq!(d.get(2, "type").unwrap(), Value::Str("str".into()));
        assert_eq!(d.get(2, "distinct").unwrap(), Value::Int(2));
    }

    #[test]
    fn describe_empty_table() {
        let d = Table::new(Schema::new([("x", ColumnType::Int)])).describe();
        assert_eq!(d.n_rows(), 1);
        assert_eq!(d.get(0, "count").unwrap(), Value::Int(0));
        assert_eq!(d.get(0, "mean").unwrap(), Value::Float(0.0));
    }

    #[test]
    fn sample_is_deterministic_subset() {
        let big = Table::from_int_column("v", (0..1000).collect());
        let s1 = big.sample_rows(100, 7).unwrap();
        let s2 = big.sample_rows(100, 7).unwrap();
        assert_eq!(s1.int_col("v").unwrap(), s2.int_col("v").unwrap());
        assert_eq!(s1.n_rows(), 100);
        // Sampled values are distinct and from the source.
        let mut vals = s1.int_col("v").unwrap().to_vec();
        vals.dedup();
        assert_eq!(vals.len(), 100);
        assert!(vals.iter().all(|v| (0..1000).contains(v)));
        // Different seed, (almost surely) different sample.
        let s3 = big.sample_rows(100, 8).unwrap();
        assert_ne!(s1.int_col("v").unwrap(), s3.int_col("v").unwrap());
    }

    #[test]
    fn sample_larger_than_table_is_identity() {
        let t = t();
        assert_eq!(t.sample_rows(10, 1).unwrap().n_rows(), 4);
    }

    #[test]
    fn head_takes_prefix() {
        let t = t();
        let h = t.head(2).unwrap();
        assert_eq!(h.n_rows(), 2);
        assert_eq!(*h.row_ids(), [0, 1]);
        assert_eq!(t.head(0).unwrap().n_rows(), 0);
    }
}
