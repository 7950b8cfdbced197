//! Physical column storage: one contiguous vector per column.

use crate::ColumnType;
use ringo_concurrent::parallel::parallel_for_each_chunk_mut;

/// The physical data of one column. String columns hold symbols into the
/// owning table's [`crate::StringPool`].
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Interned string symbols.
    Str(Vec<u32>),
}

impl ColumnData {
    /// Creates an empty column of the given type.
    pub fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Self::Int(Vec::new()),
            ColumnType::Float => Self::Float(Vec::new()),
            ColumnType::Str => Self::Str(Vec::new()),
        }
    }

    /// Creates an empty column with pre-reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Self {
        match ty {
            ColumnType::Int => Self::Int(Vec::with_capacity(cap)),
            ColumnType::Float => Self::Float(Vec::with_capacity(cap)),
            ColumnType::Str => Self::Str(Vec::with_capacity(cap)),
        }
    }

    /// The column's logical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Self::Int(_) => ColumnType::Int,
            Self::Float(_) => ColumnType::Float,
            Self::Str(_) => ColumnType::Str,
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            Self::Int(v) => v.len(),
            Self::Float(v) => v.len(),
            Self::Str(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes.
    pub fn mem_size(&self) -> usize {
        match self {
            Self::Int(v) => v.capacity() * 8,
            Self::Float(v) => v.capacity() * 8,
            Self::Str(v) => v.capacity() * 4,
        }
    }

    /// Borrows the integer data.
    ///
    /// # Panics
    /// Panics if the column is not an integer column; type checks happen at
    /// operator entry, so this indicates an internal bug.
    pub fn as_int(&self) -> &[i64] {
        match self {
            Self::Int(v) => v,
            _ => panic!("column is not Int"),
        }
    }

    /// Borrows the float data (panics on type mismatch, see
    /// [`ColumnData::as_int`]).
    pub fn as_float(&self) -> &[f64] {
        match self {
            Self::Float(v) => v,
            _ => panic!("column is not Float"),
        }
    }

    /// Borrows the string-symbol data (panics on type mismatch, see
    /// [`ColumnData::as_int`]).
    pub fn as_str_syms(&self) -> &[u32] {
        match self {
            Self::Str(v) => v,
            _ => panic!("column is not Str"),
        }
    }

    /// Appends row `i` of `src` to this column. Both columns must share a
    /// type; string symbols are copied verbatim (caller aligns pools).
    pub fn push_from(&mut self, src: &ColumnData, i: usize) {
        match (self, src) {
            (Self::Int(dst), Self::Int(s)) => dst.push(s[i]),
            (Self::Float(dst), Self::Float(s)) => dst.push(s[i]),
            (Self::Str(dst), Self::Str(s)) => dst.push(s[i]),
            _ => panic!("push_from across column types"),
        }
    }
}

/// One column as a table's rows read it: the source vector, whole, and
/// the selection that picks the rows from it ([`crate::Table::column_ref`]).
/// Every kernel reads a column through this, so reading a view gathers
/// nothing.
#[derive(Clone, Copy, Debug)]
pub struct ColumnRef<'a> {
    /// The source vector, whole.
    pub data: &'a ColumnData,
    /// Row `i` is `data`'s row `sel[i]`; `None` when it is row `i`.
    pub sel: Option<&'a [u32]>,
}

impl ColumnRef<'_> {
    /// The position in `data` of row `row`.
    #[inline]
    pub fn at(&self, row: usize) -> usize {
        match self.sel {
            None => row,
            Some(s) => s[row] as usize,
        }
    }

    /// The rows at positions `rows`, in that order, filled on `threads`
    /// workers of the pool.
    pub(crate) fn gather(&self, rows: &[u32], threads: usize) -> ColumnData {
        let at = |i: usize| self.at(i);
        match self.data {
            ColumnData::Int(v) => ColumnData::Int(gather(rows, |i| v[at(i)], threads)),
            ColumnData::Float(v) => ColumnData::Float(gather(rows, |i| v[at(i)], threads)),
            ColumnData::Str(v) => ColumnData::Str(gather(rows, |i| v[at(i)], threads)),
        }
    }
}

/// `value(i)` for each position `i` in `keep`, in order, filled on the
/// pool — every gather of a table's rows: a view's columns, a group's
/// keys, stored row ids.
pub(crate) fn gather<T: Copy + Default + Send>(
    keep: &[u32],
    value: impl Fn(usize) -> T + Sync,
    threads: usize,
) -> Vec<T> {
    let mut out = vec![T::default(); keep.len()];
    parallel_for_each_chunk_mut(&mut out, threads, |_, start, chunk| {
        for (o, &i) in chunk.iter_mut().zip(&keep[start..]) {
            *o = value(i as usize);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_type() {
        for ty in [ColumnType::Int, ColumnType::Float, ColumnType::Str] {
            let c = ColumnData::new(ty);
            assert_eq!(c.column_type(), ty);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn gather_preserves_order() {
        let data = ColumnData::Int(vec![10, 20, 30, 40]);
        let c = ColumnRef {
            data: &data,
            sel: None,
        };
        let g = c.gather(&[3, 0, 2], 1);
        assert_eq!(g.as_int(), &[40, 10, 30]);
        // Four chunks on the pool, filled in order.
        let keep: Vec<u32> = (0..10_000).map(|i| 3 - i % 4).collect();
        let g = c.gather(&keep, 4);
        let want = keep.iter().map(|&i| 10 * (i as i64 + 1));
        assert!(g.as_int().iter().copied().eq(want));
        // Through a selection: row `i` is the vector's row `sel[i]`.
        let picked = ColumnRef {
            data: &data,
            sel: Some(&[2, 2, 0]),
        };
        assert_eq!(picked.gather(&[1, 2], 1).as_int(), &[30, 10]);
    }

    #[test]
    fn push_from_copies_value() {
        let src = ColumnData::Float(vec![1.5, 2.5]);
        let mut dst = ColumnData::new(ColumnType::Float);
        dst.push_from(&src, 1);
        assert_eq!(dst.as_float(), &[2.5]);
    }

    #[test]
    #[should_panic(expected = "column is not Int")]
    fn typed_borrow_panics_on_mismatch() {
        ColumnData::Float(vec![]).as_int();
    }
}
