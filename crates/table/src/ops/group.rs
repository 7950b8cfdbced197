//! Group & aggregate, and distinct rows.
//!
//! Grouping interns fixed-width row keys (see [`crate::ops::rowkey`]) over
//! the grouping columns; Ringo's persistent row ids make "in-place
//! grouping" (paper §2.3) possible by tagging each row with its group id
//! instead of materializing per-group tables.

use crate::{ColumnData, ColumnRef, Result, Schema, Table, TableError};
use ringo_concurrent::hash_table::hash_words;
use ringo_concurrent::{
    morsel_rows, parallel_map, parallel_map_morsels_traced, KeyInterner, MorselStats,
};
use std::sync::Arc;

/// Aggregation functions for [`Table::group_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Number of rows in the group (no aggregate column required).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
    /// Arithmetic mean of a numeric column (always a float result).
    Mean,
    /// Population variance of a numeric column (float result).
    Var,
    /// Population standard deviation of a numeric column (float result).
    Std,
}

impl Table {
    /// Assigns each row a dense group id (`0..n_groups`) over the given
    /// grouping columns, in first-appearance order. This is the "in-place
    /// grouping" primitive: callers may attach the ids as a column via
    /// [`Table::add_int_column`] without copying the table.
    pub fn group_ids(&self, cols: &[&str]) -> Result<(Vec<i64>, usize)> {
        let enc = self.key_encoder(&self.col_indices(cols)?)?;
        let mut groups = KeyInterner::with_capacity(enc.width(), 0);
        let mut ids = Vec::with_capacity(self.n_rows());
        enc.for_each_key(self.n_rows(), |_, key| {
            ids.push(i64::from(groups.intern(key).0));
        });
        Ok((ids, groups.len()))
    }

    /// Groups by `group_cols` and aggregates `agg_col` with `op`, producing
    /// one row per group: the grouping columns followed by a result column
    /// named `out_name`. For [`AggOp::Count`], `agg_col` may be `None`.
    pub fn group_by(
        &self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.group");
        sp.rows_in(self.n_rows());
        let (out, _) = self.group_by_sel(group_cols, agg_col, op, out_name)?;
        sp.rows_out(out.n_rows());
        Ok(out)
    }

    /// Group-and-aggregate kernel shared by the eager verb and the lazy
    /// executor: [`Table::group_by`] with the morsel dispatch stats, over
    /// the table's rows, each column read through its selection (groups
    /// keep first-appearance order, as if a view had been materialized
    /// first).
    ///
    /// Two parallel passes (DESIGN.md, "Group-by"): each morsel encodes
    /// its keys and radix-partitions them, with `sel` position and value,
    /// by the top hash bits; each partition then interns its keys and
    /// folds its rows in ascending position — the order of a sequential
    /// scan, so there is nothing to merge and the output is bit-identical
    /// at every thread count. Int aggregates stay in `i64` (sums saturate);
    /// `Var`/`Std` use Welford's online algorithm.
    pub(crate) fn group_by_sel(
        &self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Result<(Table, MorselStats)> {
        let gidx = self.col_indices(group_cols)?;
        let n = self.n_rows();
        let src: Option<ColumnRef<'_>> = match (agg_col, op) {
            (None, AggOp::Count) => None,
            (None, _) => {
                return Err(TableError::InvalidArgument(
                    "aggregate column required for non-count aggregates".into(),
                ))
            }
            (Some(name), _) => match self.col(self.schema.index_of(name)?) {
                col if matches!(col.data, ColumnData::Str(_)) => {
                    return Err(TableError::TypeMismatch {
                        column: name.to_string(),
                        expected: "int or float",
                        actual: "str",
                    })
                }
                col => Some(col),
            },
        };
        let int_src = matches!(src.map(|c| c.data), Some(ColumnData::Int(_)));

        /// Per-group accumulator: `i` for Int sum/min/max/mean, `f` for
        /// Float ones, `mean`/`m2` for Welford Var/Std.
        #[derive(Clone, Copy, Default)]
        struct Acc {
            i: i64,
            f: f64,
            mean: f64,
            m2: f64,
        }

        // Values travel with their keys as raw bits; Var/Std fold floats
        // whatever the column holds.
        let float_fold = matches!(op, AggOp::Var | AggOp::Std);
        let bits_of = |row: usize| -> u64 {
            let Some(col) = src else { return 0 };
            let at = col.at(row);
            match col.data {
                ColumnData::Int(v) if float_fold => (v[at] as f64).to_bits(),
                ColumnData::Int(v) => v[at] as u64,
                ColumnData::Float(v) => v[at].to_bits(),
                ColumnData::Str(_) => 0,
            }
        };
        // Folds a value into a group's (initially default) accumulator;
        // `count` includes this row, so 1 marks the group's first value.
        let fold = |a: &mut Acc, count: i64, bits: u64| {
            let (xi, xf, first) = (bits as i64, f64::from_bits(bits), count == 1);
            match (op, int_src) {
                (AggOp::Count, _) => {}
                // Welford; from the zero accumulator the first step leaves
                // exactly `mean = x, m2 = 0`.
                (AggOp::Var | AggOp::Std, _) => {
                    let delta = xf - a.mean;
                    a.mean += delta / count as f64;
                    a.m2 += delta * (xf - a.mean);
                }
                (AggOp::Sum | AggOp::Mean, true) => a.i = a.i.saturating_add(xi),
                (AggOp::Min, true) => a.i = if first { xi } else { a.i.min(xi) },
                (AggOp::Max, true) => a.i = if first { xi } else { a.i.max(xi) },
                // From the first value, not 0.0: a lone -0.0 sums to -0.0.
                (AggOp::Sum | AggOp::Mean, false) => a.f = if first { xf } else { a.f + xf },
                // Keep-first NaN semantics: only replace on a strict
                // comparison win, like the sequential kernel always did.
                (AggOp::Min, false) => {
                    if first || xf < a.f {
                        a.f = xf;
                    }
                }
                (AggOp::Max, false) => {
                    if first || xf > a.f {
                        a.f = xf;
                    }
                }
            }
        };

        let aggregates = src.is_some();
        let enc = self.key_encoder(&gidx)?;
        let width = enc.width();
        if ringo_trace::enabled() {
            let which = match width {
                1 => "table.group.keys_packed",
                _ => "table.group.keys_wide",
            };
            ringo_trace::counter(which).add(1);
        }
        // About a morsel of rows per partition keeps its interner
        // cache-resident; top hash bits pick it, low bits the slot.
        let parts = (n / morsel_rows()).next_power_of_two().min(256);
        let shift = (64 - parts.trailing_zeros()) % 64;

        /// One morsel's rows, stably regrouped by partition: partition `p`
        /// owns `offsets[p]..offsets[p + 1]` of `pos` (ascending row
        /// positions), `vals` (empty for a bare count) and, × `width`,
        /// `keys`.
        struct Scattered {
            keys: Vec<u64>,
            vals: Vec<u64>,
            pos: Vec<u32>,
            offsets: Vec<u32>,
        }
        let (scattered, stats) =
            parallel_map_morsels_traced("plan.morsel.group", n, self.threads, |_, range| {
                let mut words = Vec::new();
                enc.encode(range.len(), |j| range.start + j, &mut words);
                let part: Vec<u8> = words
                    .chunks_exact(width)
                    .map(|key| ((hash_words(key) >> shift) as usize & (parts - 1)) as u8)
                    .collect();
                let mut offsets = vec![0u32; parts + 1];
                for &p in &part {
                    offsets[p as usize + 1] += 1;
                }
                for p in 0..parts {
                    offsets[p + 1] += offsets[p];
                }
                let mut cursor = offsets.clone();
                let mut keys = vec![0u64; words.len()];
                let mut vals = vec![0u64; if aggregates { range.len() } else { 0 }];
                let mut pos = vec![0u32; range.len()];
                for (j, key) in words.chunks_exact(width).enumerate() {
                    let at = cursor[part[j] as usize] as usize;
                    cursor[part[j] as usize] += 1;
                    // `key_encoder` checked that positions fit `u32`.
                    pos[at] = (range.start + j) as u32;
                    keys[at * width..(at + 1) * width].copy_from_slice(key);
                    if aggregates {
                        vals[at] = bits_of(range.start + j);
                    }
                }
                Scattered {
                    keys,
                    vals,
                    pos,
                    offsets,
                }
            });

        /// Groups in first-appearance order: first row's position, row
        /// count, accumulator (columnar: a count touches 8 B).
        #[derive(Default)]
        struct Groups {
            first_pos: Vec<u32>,
            count: Vec<i64>,
            acc: Vec<Acc>,
        }
        let per_part: Vec<Groups> = parallel_map(parts, self.threads, |range| {
            range
                .map(|p| {
                    let mut ids = KeyInterner::with_capacity(width, 0);
                    let mut g = Groups::default();
                    for s in &scattered {
                        for at in s.offsets[p] as usize..s.offsets[p + 1] as usize {
                            let bits = if aggregates { s.vals[at] } else { 0 };
                            let (id, new) = ids.intern(&s.keys[at * width..(at + 1) * width]);
                            if new {
                                g.first_pos.push(s.pos[at]);
                                g.count.push(0);
                                g.acc.push(Acc::default());
                            }
                            let id = id as usize;
                            g.count[id] += 1;
                            fold(&mut g.acc[id], g.count[id], bits);
                        }
                    }
                    g
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        drop(scattered);
        let mut all = Groups::default();
        for g in per_part {
            all.first_pos.extend(g.first_pos);
            all.count.extend(g.count);
            all.acc.extend(g.acc);
        }

        // Ordering groups by first position is the order in which a
        // sequential scan over the rows would have met each key. First
        // positions are distinct and below `n`, so a group's place is the
        // rank of its first position among them: a bitmap of the
        // positions, popcounts summed per word, one word lookup a group.
        let mut seen = vec![0u64; n.div_ceil(64)];
        for &p in &all.first_pos {
            seen[p as usize / 64] |= 1 << (p % 64);
        }
        let (mut before, mut rank) = (Vec::with_capacity(seen.len()), 0u32);
        for w in &seen {
            before.push(rank);
            rank += w.count_ones();
        }
        let mut order = vec![0u32; all.count.len()];
        for (g, &p) in all.first_pos.iter().enumerate() {
            let w = p as usize / 64;
            let below = seen[w] & ((1u64 << (p % 64)) - 1);
            order[(before[w] + below.count_ones()) as usize] = g as u32;
        }
        let ordered = || order.iter().map(|&g| g as usize);
        let rep: Vec<u32> = ordered().map(|g| all.first_pos[g]).collect();

        let mut schema = Schema::default();
        let mut cols = Vec::new();
        for &i in &gidx {
            schema.push_unique(self.schema.name(i), self.schema.column_type(i));
            cols.push(Arc::new(self.col(i).gather(&rep, self.threads)));
        }
        let float_result =
            op != AggOp::Count && (matches!(op, AggOp::Mean | AggOp::Var | AggOp::Std) || !int_src);
        let data = if !float_result {
            let value = |g: usize| match op {
                AggOp::Count => all.count[g],
                _ => all.acc[g].i,
            };
            ColumnData::Int(ordered().map(value).collect())
        } else {
            let value = |g: usize| {
                let (nf, acc) = (all.count[g] as f64, all.acc[g]);
                match op {
                    // Exact i64 sum, one rounding at the divide.
                    AggOp::Mean if int_src => acc.i as f64 / nf,
                    AggOp::Mean => acc.f / nf,
                    // m2 is a sum of products of same-signed terms; the
                    // clamp only defends against float round-off.
                    AggOp::Var => (acc.m2 / nf).max(0.0),
                    AggOp::Std => (acc.m2 / nf).max(0.0).sqrt(),
                    _ => acc.f,
                }
            };
            ColumnData::Float(ordered().map(value).collect())
        };
        schema.push_unique(out_name, data.column_type());
        cols.push(Arc::new(data));
        let out = Table::from_shared(schema, cols, self.pool.clone(), self.threads)?;
        Ok((out, stats))
    }

    /// Returns a table keeping the first row of each distinct combination
    /// of the given columns (row ids preserved).
    pub fn unique(&self, cols: &[&str]) -> Result<Table> {
        let enc = self.key_encoder(&self.col_indices(cols)?)?;
        let mut seen = KeyInterner::with_capacity(enc.width(), 0);
        Ok(self.view_rows(enc.first_occurrences(self.n_rows(), &mut seen)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Value};

    fn sales() -> Table {
        let schema = Schema::new([
            ("region", ColumnType::Str),
            ("amount", ColumnType::Int),
            ("rate", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        for (r, a, f) in [
            ("east", 10i64, 1.0),
            ("west", 20, 2.0),
            ("east", 30, 3.0),
            ("west", 5, 0.5),
            ("east", 2, 4.0),
        ] {
            t.push_row(&[r.into(), Value::Int(a), Value::Float(f)])
                .unwrap();
        }
        t
    }

    #[test]
    fn group_ids_dense_first_appearance() {
        let t = sales();
        let (ids, n) = t.group_ids(&["region"]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(ids, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn count_per_group() {
        let t = sales();
        let g = t.group_by(&["region"], None, AggOp::Count, "n").unwrap();
        assert_eq!(g.n_rows(), 2);
        assert_eq!(g.get(0, "region").unwrap(), Value::Str("east".into()));
        assert_eq!(g.int_col("n").unwrap(), &[3, 2]);
    }

    #[test]
    fn sum_min_max_int_stay_int() {
        let t = sales();
        let s = t
            .group_by(&["region"], Some("amount"), AggOp::Sum, "s")
            .unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[42, 25]);
        let m = t
            .group_by(&["region"], Some("amount"), AggOp::Min, "m")
            .unwrap();
        assert_eq!(m.int_col("m").unwrap(), &[2, 5]);
        let x = t
            .group_by(&["region"], Some("amount"), AggOp::Max, "x")
            .unwrap();
        assert_eq!(x.int_col("x").unwrap(), &[30, 20]);
    }

    #[test]
    fn mean_is_float() {
        let t = sales();
        let g = t
            .group_by(&["region"], Some("amount"), AggOp::Mean, "avg")
            .unwrap();
        assert_eq!(g.float_col("avg").unwrap(), &[14.0, 12.5]);
    }

    #[test]
    fn float_aggregates() {
        let t = sales();
        let g = t
            .group_by(&["region"], Some("rate"), AggOp::Max, "mx")
            .unwrap();
        assert_eq!(g.float_col("mx").unwrap(), &[4.0, 2.0]);
    }

    #[test]
    fn variance_and_std() {
        let t = sales();
        // east amounts: 10, 30, 2 — mean 14, var ((16+256+144)/3)... compute:
        // deviations -4, 16, -12 → squares 16, 256, 144 → var 416/3.
        let v = t
            .group_by(&["region"], Some("amount"), AggOp::Var, "v")
            .unwrap();
        let vals = v.float_col("v").unwrap();
        assert!((vals[0] - 416.0 / 3.0).abs() < 1e-9);
        // west amounts: 20, 5 — mean 12.5, var 56.25.
        assert!((vals[1] - 56.25).abs() < 1e-9);
        let s = t
            .group_by(&["region"], Some("amount"), AggOp::Std, "s")
            .unwrap();
        assert!((s.float_col("s").unwrap()[1] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn variance_exact_for_large_mean_small_spread() {
        // mean ≈ 1e9, spread ≈ 1: the retired naive `E[x²] − E[x]²`
        // formula cancels catastrophically here (f64 ulp at 1e18 is 128,
        // five orders of magnitude above the true variance) — Welford
        // keeps every significant bit.
        let mut t = Table::from_int_column("g", vec![0, 0, 0]);
        t.add_float_column("x", vec![1e9, 1e9 + 1.0, 1e9 + 2.0])
            .unwrap();
        let v = t.group_by(&["g"], Some("x"), AggOp::Var, "v").unwrap();
        let got = v.float_col("v").unwrap()[0];
        assert!((got - 2.0 / 3.0).abs() < 1e-12, "var = {got}");
        let s = t.group_by(&["g"], Some("x"), AggOp::Std, "s").unwrap();
        let got = s.float_col("s").unwrap()[0];
        assert!((got - (2.0f64 / 3.0).sqrt()).abs() < 1e-12, "std = {got}");
    }

    #[test]
    fn int_aggregates_exact_beyond_2_pow_53() {
        // 2^53 + 1 is not representable in f64; the retired f64
        // accumulator rounded it to 2^53 on the way in, so sum, min and
        // max all came back wrong.
        let big = (1i64 << 53) + 1;
        let mut t = Table::from_int_column("g", vec![0, 0]);
        t.add_int_column("x", vec![big, big]).unwrap();
        let s = t.group_by(&["g"], Some("x"), AggOp::Sum, "s").unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[2 * big]);
        let m = t.group_by(&["g"], Some("x"), AggOp::Min, "m").unwrap();
        assert_eq!(m.int_col("m").unwrap(), &[big]);
        let x = t.group_by(&["g"], Some("x"), AggOp::Max, "x2").unwrap();
        assert_eq!(x.int_col("x2").unwrap(), &[big]);
    }

    #[test]
    fn int_sum_saturates_on_overflow() {
        // Documented overflow policy: integer sums saturate rather than
        // wrap or panic.
        let mut t = Table::from_int_column("g", vec![0, 0, 0]);
        t.add_int_column("x", vec![i64::MAX, i64::MAX, 1]).unwrap();
        let s = t.group_by(&["g"], Some("x"), AggOp::Sum, "s").unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[i64::MAX]);
    }

    #[test]
    fn empty_table_groups_to_zero_rows_with_schema() {
        let t = Table::from_int_column("g", Vec::new());
        let g = t.group_by(&["g"], None, AggOp::Count, "n").unwrap();
        assert_eq!(g.n_rows(), 0);
        assert_eq!(g.n_cols(), 2, "key column and aggregate column");
        assert_eq!(g.schema().name(0), "g");
        assert_eq!(g.schema().name(1), "n");
        let (ids, n) = t.group_ids(&["g"]).unwrap();
        assert!(ids.is_empty());
        assert_eq!(n, 0, "no phantom group on empty input");
    }

    #[test]
    fn multi_column_grouping() {
        let t = sales();
        let (_, n) = t.group_ids(&["region", "amount"]).unwrap();
        assert_eq!(n, 5, "all rows distinct over both columns");
    }

    #[test]
    fn errors_on_bad_arguments() {
        let t = sales();
        assert!(t.group_by(&["region"], None, AggOp::Sum, "s").is_err());
        assert!(t
            .group_by(&["region"], Some("region"), AggOp::Sum, "s")
            .is_err());
        assert!(t.group_by(&["nope"], None, AggOp::Count, "n").is_err());
    }

    #[test]
    fn unique_keeps_first_occurrence() {
        let t = sales();
        let u = t.unique(&["region"]).unwrap();
        assert_eq!(u.n_rows(), 2);
        assert_eq!(*u.row_ids(), [0, 1]);
        let all = t.unique(&["region", "amount", "rate"]).unwrap();
        assert_eq!(all.n_rows(), 5);
    }
}
