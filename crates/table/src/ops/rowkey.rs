//! Fixed-width row keys for grouping, distinct and set operations
//! (DESIGN.md, "Group-by").
//!
//! Every key column contributes one `u64` word per row: an `Int` its
//! bits, a `Float` its `to_bits()`, a `Str` its pool symbol (another
//! table's symbols are translated once per distinct symbol). Several
//! columns pack into one word when their varying bits fit 64 together,
//! else the key is `k` words side by side. Keys are written a block of
//! rows at a time into a flat buffer — no per-row allocation anywhere.

use crate::table::row_count_u32;
use crate::{ColumnData, ColumnRef, Result, Table};
use ringo_concurrent::{morsel_rows, parallel_map, KeyInterner};
use std::sync::Arc;

/// The key word of row `row` of `col`, read through its selection; a
/// non-empty `foreign` maps symbols.
#[inline]
fn word(col: &ColumnRef<'_>, foreign: &[u64], row: usize) -> u64 {
    let at = col.at(row);
    match col.data {
        ColumnData::Int(v) => v[at] as u64,
        ColumnData::Float(v) => v[at].to_bits(),
        ColumnData::Str(v) if foreign.is_empty() => u64::from(v[at]),
        ColumnData::Str(v) => foreign[v[at] as usize],
    }
}

/// OR and AND of one column's words: only bits that differ between the
/// two vary across the rows probed.
type Span = (u64, u64);

/// Writes the keys of rows into a flat word buffer.
pub(crate) struct KeyEncoder<'a> {
    cols: Vec<ColumnRef<'a>>,
    /// Symbol → word table when the keys are compared with another
    /// table's ([`Table::symbol_words`]); empty for the table's own.
    foreign: Vec<u64>,
    /// `(mask, shift)` per column when the key packs into one word; empty
    /// when every column keeps a word of its own.
    pack: Vec<(u64, u32)>,
}

impl<'a> KeyEncoder<'a> {
    /// An encoder over columns `idx` of `table`'s rows, one word per
    /// column. Fails when row positions would not fit the `u32` ids
    /// handed out.
    fn unpacked(table: &'a Table, idx: &[usize], foreign: Vec<u64>) -> Result<Self> {
        row_count_u32(table.n_rows())?;
        Ok(Self {
            cols: idx.iter().map(|&c| table.col(c)).collect(),
            foreign,
            pack: Vec::new(),
        })
    }

    /// Per-column spans over the `n` rows of the table. Single-column
    /// keys are never packed, so they skip the scan.
    fn spans(&self, n: usize, threads: usize) -> Vec<Span> {
        if self.cols.len() < 2 {
            return Vec::new();
        }
        let parts = parallel_map(n, threads, |range| {
            let span_of = |col: &ColumnRef<'_>| {
                range
                    .clone()
                    .map(|i| word(col, &self.foreign, i))
                    .fold((0, !0), |(or, and), w| (or | w, and & w))
            };
            self.cols.iter().map(span_of).collect::<Vec<Span>>()
        });
        let merge = |a: Vec<Span>, b: Vec<Span>| merge_spans(&a, &b);
        parts.into_iter().reduce(merge).unwrap_or_default()
    }

    /// Packs the key into one word if `spans` says the varying bits fit.
    fn pack(mut self, spans: &[Span]) -> Self {
        let bits = |s: &Span| 64 - (s.0 ^ s.1).leading_zeros();
        if self.cols.len() > 1 && spans.iter().map(bits).sum::<u32>() <= 64 {
            let mut shift = 0;
            for b in spans.iter().map(bits) {
                let mask = u64::MAX.checked_shr(64 - b).unwrap_or(0);
                self.pack.push((mask, shift));
                shift += b;
            }
        }
        self
    }

    /// Encoders for columns `idx` of `a` and of `b` whose keys compare
    /// across the two tables: one packing from the spans of both, `b`'s
    /// symbols translated into `a`'s.
    pub(crate) fn pair(a: &'a Table, b: &'a Table, idx: &[usize]) -> Result<[Self; 2]> {
        let mine = Self::unpacked(a, idx, Vec::new())?;
        let theirs = Self::unpacked(b, idx, a.symbol_words(b, idx))?;
        let spans = merge_spans(
            &mine.spans(a.n_rows(), a.threads),
            &theirs.spans(b.n_rows(), b.threads),
        );
        Ok([mine.pack(&spans), theirs.pack(&spans)])
    }

    /// Words per key: one when there is a single column or the columns
    /// pack, else one per column.
    pub(crate) fn width(&self) -> usize {
        if self.pack.is_empty() {
            self.cols.len().max(1)
        } else {
            1
        }
    }

    /// Fills `out` with the keys of the rows at positions `row_of(0..n)`,
    /// `width()` words per key, column by column so each pass is one
    /// loop.
    pub(crate) fn encode(&self, n: usize, row_of: impl Fn(usize) -> usize, out: &mut Vec<u64>) {
        let width = self.width();
        out.clear();
        out.resize(n * width, 0);
        for (c, col) in self.cols.iter().enumerate() {
            match self.pack.get(c) {
                Some(&(mask, shift)) => {
                    for (j, o) in out.iter_mut().enumerate() {
                        let w = word(col, &self.foreign, row_of(j)) & mask;
                        *o |= w.checked_shl(shift).unwrap_or(0);
                    }
                }
                None => {
                    for (j, o) in out.iter_mut().skip(c).step_by(width).enumerate() {
                        *o = word(col, &self.foreign, row_of(j));
                    }
                }
            }
        }
    }

    /// Calls `f(row, key)` for the table's rows `0..n` in order, encoding
    /// a morsel-sized block at a time so the key buffer stays
    /// cache-resident.
    pub(crate) fn for_each_key(&self, n: usize, mut f: impl FnMut(usize, &[u64])) {
        let (width, block) = (self.width(), morsel_rows());
        let mut words = Vec::new();
        for start in (0..n).step_by(block) {
            let range = start..(start + block).min(n);
            self.encode(range.len(), |j| start + j, &mut words);
            for (row, key) in range.zip(words.chunks_exact(width)) {
                f(row, key);
            }
        }
    }

    /// Rows of `0..n`, in order, whose key `seen` had not met — interning
    /// every key on the way.
    pub(crate) fn first_occurrences(&self, n: usize, seen: &mut KeyInterner) -> Vec<u32> {
        let mut rows = Vec::new();
        self.for_each_key(n, |row, key| {
            if seen.intern(key).1 {
                rows.push(row as u32);
            }
        });
        rows
    }
}

/// Spans of the union of two probed row sets.
fn merge_spans(a: &[Span], b: &[Span]) -> Vec<Span> {
    let merged = a.iter().zip(b).map(|(x, y)| (x.0 | y.0, x.1 & y.1));
    merged.collect()
}

impl Table {
    /// Resolves column names to indices.
    pub(crate) fn col_indices(&self, names: &[&str]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.schema.index_of(n)).collect()
    }

    /// Encoder for the keys of columns `idx` over the table's rows.
    pub(crate) fn key_encoder(&self, idx: &[usize]) -> Result<KeyEncoder<'_>> {
        let enc = KeyEncoder::unpacked(self, idx, Vec::new())?;
        let spans = enc.spans(self.n_rows(), self.threads);
        Ok(enc.pack(&spans))
    }

    /// For each symbol of `other`'s pool met in its columns `idx`, the
    /// word for its text among `self`'s keys: `self`'s symbol, or a word
    /// past `self`'s pool for text `self` never interned. Empty when no
    /// column is a string column or the two share a pool.
    fn symbol_words(&self, other: &Table, idx: &[usize]) -> Vec<u64> {
        if Arc::ptr_eq(&self.pool, &other.pool) {
            return Vec::new();
        }
        let strs: Vec<&[u32]> = idx
            .iter()
            .filter_map(|&c| match other.col(c).data {
                ColumnData::Str(syms) => Some(syms.as_slice()),
                _ => None,
            })
            .collect();
        let absent = self.pool.len() as u64;
        other
            .pool
            .per_symbol(&strs, |text, sym| match self.pool.lookup(text) {
                Some(own) => u64::from(own),
                None => absent + u64::from(sym),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Schema, Value};

    fn keys(enc: &KeyEncoder<'_>, n: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        enc.for_each_key(n, |_, k| out.push(k.to_vec()));
        out
    }

    #[test]
    fn keys_equal_across_pools() {
        let schema = Schema::new([("s", ColumnType::Str), ("x", ColumnType::Int)]);
        let mut a = Table::new(schema.clone());
        let mut b = Table::new(schema);
        // Interleave inserts so symbols differ between pools.
        b.push_row(&["zzz".into(), Value::Int(0)]).unwrap();
        a.push_row(&["k".into(), Value::Int(1)]).unwrap();
        b.push_row(&["k".into(), Value::Int(1)]).unwrap();
        assert_ne!(
            a.str_sym_col("s").unwrap()[0],
            b.str_sym_col("s").unwrap()[1]
        );
        let [ea, eb] = KeyEncoder::pair(&a, &b, &[0, 1]).unwrap();
        let (ka, kb) = (keys(&ea, 1), keys(&eb, 2));
        assert_eq!(ka[0], kb[1], "same text, same key");
        assert_ne!(ka[0], kb[0], "text absent from `a` gets a word of its own");
    }

    #[test]
    fn float_bits_distinguish_zero_signs() {
        let schema = Schema::new([("f", ColumnType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(&[Value::Float(0.0)]).unwrap();
        t.push_row(&[Value::Float(-0.0)]).unwrap();
        let k = keys(&t.key_encoder(&[0]).unwrap(), 2);
        assert_ne!(k[0], k[1]);
    }

    #[test]
    fn narrow_columns_pack_and_extremes_go_wide() {
        let mut t = Table::from_int_column("a", vec![3, 900, 3, 17]);
        t.add_int_column("b", vec![-1, -2, -1, -2]).unwrap();
        let enc = t.key_encoder(&[0, 1]).unwrap();
        assert_eq!(enc.width(), 1, "10 + 2 varying bits pack");
        let k = keys(&enc, 4);
        assert_eq!(k[0], k[2]);
        assert_eq!(k.iter().collect::<std::collections::HashSet<_>>().len(), 3);
        // A view narrows the probe: rows 0 and 2 are constant.
        assert_eq!(
            t.view_rows(vec![0, 2]).key_encoder(&[0, 1]).unwrap().pack,
            vec![(0, 0); 2]
        );

        let mut w = Table::from_int_column("a", vec![i64::MIN, i64::MAX, 0]);
        w.add_int_column("b", vec![i64::MAX, i64::MIN, 0]).unwrap();
        let enc = w.key_encoder(&[0, 1]).unwrap();
        assert_eq!(enc.width(), 2, "128 varying bits do not pack");
        assert_eq!(keys(&enc, 3)[0], vec![i64::MIN as u64, i64::MAX as u64]);
    }

    #[test]
    fn zero_columns_make_one_constant_key() {
        let t = Table::from_int_column("a", vec![5, 6]);
        let enc = t.key_encoder(&[]).unwrap();
        assert_eq!(keys(&enc, 2), vec![vec![0], vec![0]]);
    }
}
