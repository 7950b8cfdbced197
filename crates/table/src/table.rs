//! The core [`Table`] object.

use crate::column::{gather, ColumnRef};
use crate::{ColumnData, ColumnType, Result, Schema, StringPool, TableError};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Row positions travel as `u32` — selection vectors, join pairs, sort
/// permutations, group representatives — so a table past `u32::MAX` rows
/// cannot be addressed by those kernels. They all enter through this one
/// check and report an error where a bare `as u32` would silently wrap.
pub(crate) fn row_count_u32(n_rows: usize) -> Result<u32> {
    u32::try_from(n_rows).map_err(|_| {
        TableError::InvalidArgument(format!(
            "{n_rows} rows exceed the u32 row positions this operator works in"
        ))
    })
}

/// A table's row ids: `Fresh(n)` is ids `0..n`, each row's id its
/// position, with nothing stored — a table built from whole columns — and
/// `Kept` one stored id a row, made by a verb that materializes a view or
/// that appends a row whose id leaves its position.
#[derive(Clone, Debug)]
pub(crate) enum RowIds {
    Fresh(usize),
    Kept(Vec<u64>),
}

impl RowIds {
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Fresh(n) => *n,
            Self::Kept(ids) => ids.len(),
        }
    }

    /// The id of the row at position `row`; panics past the last row.
    pub(crate) fn get(&self, row: usize) -> u64 {
        match self {
            Self::Fresh(n) => fresh_id(row, *n),
            Self::Kept(ids) => ids[row],
        }
    }

    /// Appends `id`; a fresh table stays fresh while ids equal positions.
    pub(crate) fn push(&mut self, id: u64) {
        match self {
            Self::Fresh(n) if id == *n as u64 => *n += 1,
            Self::Fresh(n) => *self = Self::Kept((0..*n as u64).chain([id]).collect()),
            Self::Kept(ids) => ids.push(id),
        }
    }

    /// The ids of the rows at positions `keep`, in that order, filled on
    /// the pool.
    pub(crate) fn gather(&self, keep: &[u32], threads: usize) -> Self {
        Self::Kept(gather(keep, |i| self.get(i), threads))
    }

    pub(crate) fn mem_size(&self) -> usize {
        match self {
            Self::Fresh(_) => 0,
            Self::Kept(ids) => ids.capacity() * 8,
        }
    }
}

/// The id of row `row` of a fresh table of `n` rows: its position, and
/// none past the last row.
fn fresh_id(row: usize, n: usize) -> u64 {
    assert!(row < n, "row {row} past the last of {n} rows");
    row as u64
}

/// A single cell value, used at the row-at-a-time API boundary. Bulk
/// operators work directly on columns and never materialize `Value`s.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell.
    Str(String),
}

impl Value {
    /// The value's column type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Self::Int(_) => ColumnType::Int,
            Self::Float(_) => ColumnType::Float,
            Self::Str(_) => ColumnType::Str,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

/// A column-store relational table with persistent row identifiers.
///
/// See the crate docs for the design rationale. Rows are addressed by
/// *position* (`0..n_rows()`); every row additionally carries a stable
/// *row id* that survives selection, ordering and grouping, so results can
/// be traced back to original records after "a complex set of operations"
/// (paper §2.3). Until a verb filters or reorders rows, a row's id is its
/// position and none is stored.
///
/// Columns and the string pool are shared: a clone, a projection or a
/// selection copies pointers, and an edit copies only what is shared. A
/// selected, sorted or joined table is a *view*: each column is a shared
/// source vector read through a selection — the positions of the rows it
/// keeps; a join's left columns through its left positions, its right
/// ones through its right positions — so it pins the whole of its source
/// vectors until it is dropped or edited. Borrowing a whole column of a
/// view gathers that column once and keeps it.
///
/// ```
/// use ringo_table::{Cmp, ColumnType, Predicate, Schema, Table, Value};
///
/// let schema = Schema::new([("user", ColumnType::Int), ("lang", ColumnType::Str)]);
/// let mut t = Table::new(schema);
/// t.push_row(&[Value::Int(1), "java".into()]).unwrap();
/// t.push_row(&[Value::Int(2), "rust".into()]).unwrap();
/// t.push_row(&[Value::Int(3), "java".into()]).unwrap();
///
/// let java = t.select(&Predicate::str_eq("lang", "java")).unwrap();
/// assert_eq!(java.n_rows(), 2);
/// assert_eq!(*java.row_ids(), [0, 2]); // ids trace back to the source
///
/// let heavy = t.select(&Predicate::int("user", Cmp::Ge, 2)).unwrap();
/// let both = java.intersect(&heavy).unwrap();
/// assert_eq!(both.int_col("user").unwrap(), &[3]);
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    pub(crate) schema: Schema,
    /// The columns, each a source vector read through its selection.
    pub(crate) cols: Vec<Col>,
    /// The rows' ids, read through `ids_sel`, shared like the columns.
    pub(crate) row_ids: Arc<RowIds>,
    /// Row `i`'s id is `row_ids[ids_sel[i]]`; `None` when it is
    /// `row_ids[i]`.
    ids_sel: Option<Sel>,
    pub(crate) next_row_id: u64,
    pub(crate) pool: Arc<StringPool>,
    pub(crate) threads: usize,
}

/// Positions into a source vector, one a row, shared by every column (and
/// the row ids) read through them.
pub(crate) type Sel = Arc<Vec<u32>>;

/// One column of a table: a source vector, whole, the selection its rows
/// are read through (`None`: row `i` is the vector's row `i`), and the
/// rows gathered through it the first time the column is borrowed whole.
#[derive(Clone, Debug)]
pub(crate) struct Col {
    pub(crate) data: Arc<ColumnData>,
    pub(crate) sel: Option<Sel>,
    gathered: OnceLock<Arc<ColumnData>>,
}

impl Col {
    pub(crate) fn new(data: Arc<ColumnData>, sel: Option<Sel>) -> Self {
        Self {
            data,
            sel,
            gathered: OnceLock::new(),
        }
    }

    /// The column as its rows read it.
    pub(crate) fn get(&self) -> ColumnRef<'_> {
        ColumnRef {
            data: &self.data,
            sel: self.sel.as_deref().map(Vec::as_slice),
        }
    }

    /// The rows in a vector of their own: the source vector of a whole
    /// column, else the rows gathered through the selection, once.
    fn whole(&self, threads: usize) -> &Arc<ColumnData> {
        match &self.sel {
            None => &self.data,
            Some(sel) => self.gathered.get_or_init(|| {
                let whole = ColumnRef {
                    data: &self.data,
                    sel: None,
                };
                Arc::new(whole.gather(sel, threads))
            }),
        }
    }

    /// Whether `other` reads the same vector through the same selection:
    /// a join's key pair.
    pub(crate) fn same(&self, other: &Col) -> bool {
        let sel = |c: &Col| c.sel.as_ref().map(Arc::as_ptr);
        Arc::ptr_eq(&self.data, &other.data) && sel(self) == sel(other)
    }
}

/// Selections composed with `rows`, positions of a table's rows: a reader
/// without a selection reads `rows` itself, and each distinct selection
/// `s` becomes `s[rows[i]]`, composed once. When every reader shares one
/// selection, `rows` is composed in place.
pub(crate) struct Compose {
    rows: Sel,
    done: Vec<(*const Vec<u32>, Sel)>,
    threads: usize,
}

impl Compose {
    /// Composes for the readers whose selections are `sels`.
    pub(crate) fn new<'a>(
        mut rows: Vec<u32>,
        mut sels: impl Iterator<Item = Option<&'a Sel>>,
        threads: usize,
    ) -> Self {
        let first = sels.next().flatten();
        let one = first.filter(|f| sels.all(|s| s.is_some_and(|s| Arc::ptr_eq(s, f))));
        if let Some(s) = one {
            rows.iter_mut().for_each(|r| *r = s[*r as usize]);
        }
        let rows = Arc::new(rows);
        let done = one.map(|s| (Arc::as_ptr(s), rows.clone())).into_iter();
        Self {
            done: done.collect(),
            rows,
            threads,
        }
    }

    /// The selection a reader of `sel` reads the composed rows through.
    pub(crate) fn through(&mut self, sel: Option<&Sel>) -> Sel {
        let Some(s) = sel else {
            return self.rows.clone();
        };
        if let Some((_, done)) = self.done.iter().find(|(p, _)| *p == Arc::as_ptr(s)) {
            return done.clone();
        }
        let composed = Arc::new(gather(&self.rows, |r| s[r], self.threads));
        self.done.push((Arc::as_ptr(s), composed.clone()));
        composed
    }
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let cols = schema.iter().map(|(_, ty)| ColumnData::new(ty)).collect();
        Self::from_parts(schema, cols, StringPool::new()).expect("empty columns fit any schema")
    }

    /// Builds a table directly from raw column data (fresh row ids are
    /// assigned). String columns must hold symbols valid in `pool`.
    pub fn from_parts(schema: Schema, cols: Vec<ColumnData>, pool: StringPool) -> Result<Self> {
        let cols = cols.into_iter().map(Arc::new).collect();
        let threads = ringo_concurrent::num_threads();
        Self::from_shared(schema, cols, Arc::new(pool), threads)
    }

    /// [`Table::from_parts`] over columns and a pool that may be shared.
    pub(crate) fn from_shared(
        schema: Schema,
        cols: Vec<Arc<ColumnData>>,
        pool: Arc<StringPool>,
        threads: usize,
    ) -> Result<Self> {
        if schema.len() != cols.len() {
            return Err(TableError::SchemaMismatch(format!(
                "{} columns declared, {} provided",
                schema.len(),
                cols.len()
            )));
        }
        let n_rows = cols.first().map_or(0, |c| c.len());
        for (i, col) in cols.iter().enumerate() {
            if col.column_type() != schema.column_type(i) {
                return Err(TableError::TypeMismatch {
                    column: schema.name(i).to_string(),
                    expected: schema.column_type(i).name(),
                    actual: col.column_type().name(),
                });
            }
            if col.len() != n_rows {
                return Err(TableError::SchemaMismatch(format!(
                    "column {:?} has {} rows, expected {}",
                    schema.name(i),
                    col.len(),
                    n_rows
                )));
            }
        }
        let cols = cols.into_iter().map(|c| Col::new(c, None)).collect();
        Ok(Self::from_cols(schema, cols, n_rows, pool, threads))
    }

    /// A table of `n_rows` rows, each column read through its own
    /// selection, with fresh row ids: a join's output.
    pub(crate) fn from_cols(
        schema: Schema,
        cols: Vec<Col>,
        n_rows: usize,
        pool: Arc<StringPool>,
        threads: usize,
    ) -> Self {
        Self {
            schema,
            cols,
            row_ids: Arc::new(RowIds::Fresh(n_rows)),
            ids_sel: None,
            next_row_id: n_rows as u64,
            pool,
            threads,
        }
    }

    /// Convenience constructor: a single-column integer table, as used by
    /// the paper's join benchmark ("the input table is joined with a
    /// second, single column table").
    pub fn from_int_column(name: &str, data: Vec<i64>) -> Self {
        let schema = Schema::new([(name, ColumnType::Int)]);
        Self::from_parts(schema, vec![ColumnData::Int(data)], StringPool::new())
            .expect("single int column is always consistent")
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.ids_sel
            .as_ref()
            .map_or(self.row_ids.len(), |s| s.len())
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Worker threads used by parallel operators on this table.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker-thread count used by parallel operators (tables
    /// produced by operators inherit it).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Column `c` as the table's rows read it. Kernels read through it.
    pub(crate) fn col(&self, c: usize) -> ColumnRef<'_> {
        self.cols[c].get()
    }

    /// Whether a column or the row ids are read through a selection.
    pub(crate) fn is_view(&self) -> bool {
        self.ids_sel.is_some() || self.cols.iter().any(|c| c.sel.is_some())
    }

    /// A view of this table's rows at positions `rows`, in that order:
    /// each selection composed with `rows`, so never a view of a view.
    pub(crate) fn view_rows(&self, rows: Vec<u32>) -> Table {
        self.view_rows_with(rows, Vec::new())
    }

    /// [`Table::view_rows`], except that each `(c, data)` of `whole` is
    /// column `c`'s rows at `rows`, already in a vector of their own:
    /// column `c`, and any column that reads its vector through its
    /// selection, is that vector, whole, and composes nothing.
    pub(crate) fn view_rows_with(
        &self,
        rows: Vec<u32>,
        whole: Vec<(usize, Arc<ColumnData>)>,
    ) -> Table {
        let whole: Vec<Option<&Arc<ColumnData>>> = (0..self.cols.len())
            .map(|c| {
                let e = self.first_of(c);
                whole.iter().find(|(w, _)| *w == e).map(|(_, data)| data)
            })
            .collect();
        let through = self.cols.iter().zip(&whole).filter(|(_, w)| w.is_none());
        let sels = through.map(|(c, _)| c.sel.as_ref());
        let mut compose = Compose::new(rows, sels.chain([self.ids_sel.as_ref()]), self.threads);
        let cols = self.cols.iter().zip(whole).map(|(c, w)| match w {
            Some(data) => Col::new(data.clone(), None),
            None => Col::new(c.data.clone(), Some(compose.through(c.sel.as_ref()))),
        });
        Table {
            cols: cols.collect(),
            ids_sel: Some(compose.through(self.ids_sel.as_ref())),
            schema: self.schema.clone(),
            row_ids: self.row_ids.clone(),
            pool: self.pool.clone(),
            ..*self
        }
    }

    /// The columns, each read through its selection as `compose`
    /// composes it.
    pub(crate) fn cols_through(&self, compose: &mut Compose) -> Vec<Col> {
        let through = |c: &Col| Col::new(c.data.clone(), Some(compose.through(c.sel.as_ref())));
        self.cols.iter().map(through).collect()
    }

    /// Gathers a view's rows into columns of their own, one column at a
    /// time; ids read through a selection become stored ids. Columns that
    /// share one vector (a join's key pair) share one gathered vector. A
    /// `&mut` verb that edits columns or appends rows calls this first.
    pub(crate) fn materialize(&mut self) {
        let first: Vec<usize> = (0..self.cols.len()).map(|c| self.first_of(c)).collect();
        for (c, e) in first.into_iter().enumerate() {
            if e < c {
                self.cols[c] = self.cols[e].clone();
            } else if self.cols[c].sel.is_some() {
                let data = self.cols[c].whole(self.threads).clone();
                self.cols[c] = Col::new(data, None);
            }
        }
        if let Some(sel) = self.ids_sel.take() {
            self.row_ids = Arc::new(self.row_ids.gather(&sel, self.threads));
        }
    }

    /// The first column that reads column `c`'s vector through its
    /// selection: `c` itself unless an earlier column does (a join's key
    /// pair).
    pub(crate) fn first_of(&self, c: usize) -> usize {
        let col = &self.cols[c];
        (0..c).find(|&e| self.cols[e].same(col)).unwrap_or(c)
    }

    /// Persistent id of the row at position `row`; panics past the end.
    pub fn row_id(&self, row: usize) -> u64 {
        let at = self.ids_sel.as_ref().map_or(row, |s| s[row] as usize);
        self.row_ids.get(at)
    }

    /// All row ids in positional order (allocated if none are stored).
    pub fn row_ids(&self) -> Cow<'_, [u64]> {
        match (&*self.row_ids, &self.ids_sel) {
            (RowIds::Kept(ids), None) => Cow::Borrowed(ids),
            (ids, Some(sel)) => Cow::Owned(sel.iter().map(|&r| ids.get(r as usize)).collect()),
            (RowIds::Fresh(n), None) => Cow::Owned((0..*n as u64).collect()),
        }
    }

    /// Appends a row of values matching the schema; returns its row id.
    pub fn push_row(&mut self, values: &[Value]) -> Result<u64> {
        if values.len() != self.schema.len() {
            return Err(TableError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        for (i, v) in values.iter().enumerate() {
            if v.column_type() != self.schema.column_type(i) {
                return Err(TableError::TypeMismatch {
                    column: self.schema.name(i).to_string(),
                    expected: self.schema.column_type(i).name(),
                    actual: v.column_type().name(),
                });
            }
        }
        self.materialize();
        for (col, v) in self.cols.iter_mut().zip(values) {
            match (Arc::make_mut(&mut col.data), v) {
                (ColumnData::Int(c), Value::Int(x)) => c.push(*x),
                (ColumnData::Float(c), Value::Float(x)) => c.push(*x),
                (ColumnData::Str(c), Value::Str(s)) => {
                    c.push(Arc::make_mut(&mut self.pool).intern(s))
                }
                _ => unreachable!("types validated above"),
            }
        }
        Ok(self.push_row_id())
    }

    /// Gives the next row a fresh id in this table's id space.
    pub(crate) fn push_row_id(&mut self) -> u64 {
        let id = self.next_row_id;
        Arc::make_mut(&mut self.row_ids).push(id);
        self.next_row_id += 1;
        id
    }

    /// Reads the cell at (`row`, column `name`).
    pub fn get(&self, row: usize, name: &str) -> Result<Value> {
        let col = self.col(self.schema.index_of(name)?);
        if row >= self.n_rows() {
            return Err(TableError::InvalidArgument(format!("no row {row}")));
        }
        let row = col.at(row);
        Ok(match col.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(self.pool.get(v[row]).to_string()),
        })
    }

    /// The index of column `name`, if it has type `expected`.
    fn typed_index(&self, name: &str, expected: ColumnType) -> Result<usize> {
        let i = self.schema.index_of(name)?;
        match self.schema.column_type(i) {
            ty if ty == expected => Ok(i),
            other => Err(TableError::TypeMismatch {
                column: name.to_string(),
                expected: expected.name(),
                actual: other.name(),
            }),
        }
    }

    /// Column `name` as the table's rows read it, if it has type
    /// `expected`: its source vector and the selection that picks the
    /// rows. Reading a view through it gathers nothing.
    pub fn column_ref(&self, name: &str, expected: ColumnType) -> Result<ColumnRef<'_>> {
        Ok(self.col(self.typed_index(name, expected)?))
    }

    /// Borrows an integer column by name.
    pub fn int_col(&self, name: &str) -> Result<&[i64]> {
        Ok(self
            .column(self.typed_index(name, ColumnType::Int)?)
            .as_int())
    }

    /// Borrows a float column by name.
    pub fn float_col(&self, name: &str) -> Result<&[f64]> {
        Ok(self
            .column(self.typed_index(name, ColumnType::Float)?)
            .as_float())
    }

    /// A numeric column by name as a row → `f64` reader: an int column's
    /// values widened, a float column's as they are, read through the
    /// column's selection.
    pub fn numeric_col(&self, name: &str) -> Result<Box<dyn Fn(usize) -> f64 + Sync + '_>> {
        let col = self.col(self.schema.index_of(name)?);
        match col.data {
            ColumnData::Int(v) => Ok(Box::new(move |row| v[col.at(row)] as f64)),
            ColumnData::Float(v) => Ok(Box::new(move |row| v[col.at(row)])),
            ColumnData::Str(_) => Err(TableError::TypeMismatch {
                column: name.to_string(),
                expected: "int or float",
                actual: "str",
            }),
        }
    }

    /// Borrows a string column as pool symbols (resolve with
    /// [`Table::str_value`]).
    pub fn str_sym_col(&self, name: &str) -> Result<&[u32]> {
        Ok(self
            .column(self.typed_index(name, ColumnType::Str)?)
            .as_str_syms())
    }

    /// Resolves a string symbol from this table's pool.
    pub fn str_value(&self, sym: u32) -> &str {
        self.pool.get(sym)
    }

    /// The table's string pool.
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    /// Interns `s` into this table's pool (for building columns in bulk).
    pub fn intern(&mut self, s: &str) -> u32 {
        Arc::make_mut(&mut self.pool).intern(s)
    }

    /// Physical column data by index (bulk access for converters). On a
    /// view the first borrow gathers the column's rows on the pool, once,
    /// and once for two columns that share a vector.
    pub fn column(&self, i: usize) -> &ColumnData {
        self.cols[self.first_of(i)].whole(self.threads)
    }

    /// Renames a column.
    pub fn rename_column(&mut self, old: &str, new: &str) -> Result<()> {
        self.schema.rename(old, new)
    }

    /// Approximate heap footprint in bytes: every byte the table keeps
    /// alive, shared with other tables or not — its columns (a view's
    /// source vectors, whole), stored row ids and the string pool, and a
    /// view's selections and the columns it gathered. A vector or a
    /// selection that several columns share counts once. This is the
    /// paper's Table 2 "In-memory Table Size".
    pub fn mem_size(&self) -> usize {
        let (mut seen, mut bytes) = (Vec::new(), 0);
        let mut count = |ptr: *const (), size: usize| {
            if !seen.contains(&ptr) {
                seen.push(ptr);
                bytes += size;
            }
        };
        for col in &self.cols {
            let gathered = col.gathered.get().into_iter();
            for data in gathered.chain([&col.data]) {
                count(Arc::as_ptr(data).cast(), data.mem_size());
            }
        }
        let sels = self.cols.iter().map(|c| &c.sel).chain([&self.ids_sel]);
        for sel in sels.flatten() {
            count(Arc::as_ptr(sel).cast(), sel.capacity() * 4);
        }
        bytes + self.row_ids.mem_size() + self.pool.mem_size()
    }

    /// The columns `idx`, in that order, under `schema`: pointer copies,
    /// a view's gathered columns included.
    pub(crate) fn with_columns(&self, schema: Schema, idx: &[usize]) -> Table {
        let col = |i: usize| Col {
            gathered: self.cols[self.first_of(i)].gathered.clone(),
            ..self.cols[i].clone()
        };
        Table {
            schema,
            cols: idx.iter().map(|&i| col(i)).collect(),
            row_ids: self.row_ids.clone(),
            ids_sel: self.ids_sel.clone(),
            pool: self.pool.clone(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("age", ColumnType::Int),
            ("score", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        t.push_row(&["ada".into(), 36i64.into(), 9.5.into()])
            .unwrap();
        t.push_row(&["bob".into(), 25i64.into(), 7.25.into()])
            .unwrap();
        t.push_row(&["cyd".into(), 31i64.into(), 8.0.into()])
            .unwrap();
        t
    }

    #[test]
    fn push_and_get_roundtrip() {
        let t = people();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.get(0, "name").unwrap(), Value::Str("ada".into()));
        assert_eq!(t.get(1, "age").unwrap(), Value::Int(25));
        assert_eq!(t.get(2, "score").unwrap(), Value::Float(8.0));
    }

    #[test]
    fn row_ids_are_stable_and_sequential() {
        let t = people();
        assert_eq!(*t.row_ids(), [0, 1, 2]);
        let filtered = t.view_rows(vec![2, 0]);
        assert_eq!(*filtered.row_ids(), [2, 0], "ids survive reordering");
    }

    #[test]
    fn get_past_the_last_row_is_an_error() {
        let fresh = people();
        let kept = fresh.view_rows(vec![2, 0]);
        for t in [&fresh, &kept] {
            let last = t.n_rows() - 1;
            assert!(t.get(last, "age").is_ok());
            for row in [last + 1, usize::MAX] {
                let err = t.get(row, "age").unwrap_err();
                assert!(matches!(err, TableError::InvalidArgument(_)), "{err}");
            }
        }
        assert_eq!(kept.get(1, "name").unwrap(), Value::Str("ada".into()));
    }

    #[test]
    fn fresh_ids_turn_explicit_only_when_they_leave_positions() {
        let mut ids = RowIds::Fresh(2);
        ids.push(2);
        assert!(matches!(ids, RowIds::Fresh(3)));
        ids.push(7);
        assert!(matches!(&ids, RowIds::Kept(v) if v == &[0, 1, 2, 7]));
        let sorted = RowIds::Fresh(3).gather(&[2, 1, 0], 2);
        assert!(matches!(&sorted, RowIds::Kept(v) if v == &[2, 1, 0]));
        assert_eq!(RowIds::Fresh(4).mem_size(), 0);
    }

    #[test]
    #[should_panic(expected = "past the last")]
    fn fresh_row_id_past_the_end_panics() {
        people().row_id(3);
    }

    #[test]
    fn push_row_validates_arity_and_types() {
        let mut t = people();
        assert!(t.push_row(&[Value::Int(1)]).is_err());
        assert!(t
            .push_row(&[Value::Int(1), Value::Int(2), Value::Float(3.0)])
            .is_err());
    }

    #[test]
    fn typed_column_accessors() {
        let t = people();
        assert_eq!(t.int_col("age").unwrap(), &[36, 25, 31]);
        assert_eq!(t.float_col("score").unwrap(), &[9.5, 7.25, 8.0]);
        assert!(t.int_col("score").is_err());
        assert!(t.int_col("missing").is_err());
        let syms = t.str_sym_col("name").unwrap();
        assert_eq!(t.str_value(syms[1]), "bob");
    }

    #[test]
    fn from_parts_validates() {
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Float)]);
        let ok = Table::from_parts(
            schema.clone(),
            vec![
                ColumnData::Int(vec![1, 2]),
                ColumnData::Float(vec![0.5, 1.5]),
            ],
            StringPool::new(),
        );
        assert_eq!(ok.unwrap().n_rows(), 2);

        let wrong_len = Table::from_parts(
            schema.clone(),
            vec![ColumnData::Int(vec![1]), ColumnData::Float(vec![0.5, 1.5])],
            StringPool::new(),
        );
        assert!(wrong_len.is_err());

        let wrong_type = Table::from_parts(
            schema,
            vec![ColumnData::Int(vec![1]), ColumnData::Int(vec![2])],
            StringPool::new(),
        );
        assert!(wrong_type.is_err());
    }

    #[test]
    fn row_count_guard_rejects_what_u32_positions_cannot_address() {
        assert_eq!(row_count_u32(0).unwrap(), 0);
        assert_eq!(row_count_u32(u32::MAX as usize).unwrap(), u32::MAX);
        let err = row_count_u32(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, TableError::InvalidArgument(_)), "{err}");
        assert!(row_count_u32(usize::MAX).is_err());
    }

    #[test]
    fn from_int_column_shortcut() {
        let t = Table::from_int_column("k", vec![5, 6, 7]);
        assert_eq!(t.int_col("k").unwrap(), &[5, 6, 7]);
        assert_eq!(t.n_rows(), 3);
    }

    /// A join stores its key once: the pair is one column, read through
    /// the left positions, counted once, gathered once by a view's borrows
    /// and shared by a materialized view.
    #[test]
    fn a_shared_key_pair_counts_once_and_stays_shared() {
        let left = Table::from_int_column("k", (0..100).map(|i| i % 10).collect());
        let right = Table::from_int_column("k", (0..10).rev().collect());
        let j = left.join(&right, "k", "k").unwrap();
        assert!(j.cols[0].same(&j.cols[1]));
        let pool = j.pool.mem_size();
        // The left vector and the left positions: no column reads the
        // right positions, so none are kept.
        assert_eq!(j.mem_size(), 100 * 8 + 100 * 4 + pool, "one 100-row vector");

        let half: Vec<u32> = (0..50).rev().collect();
        let view = j.view_rows(half.clone());
        // The pair's positions composed once, and the ids' selection.
        assert_eq!(view.mem_size(), 100 * 8 + 2 * 50 * 4 + pool);
        assert!(std::ptr::eq(view.column(1), view.column(0)), "one gather");
        assert_eq!(view.mem_size(), 100 * 8 + 2 * 50 * 4 + 50 * 8 + pool);
        let flipped = view.project(&["k-1", "k"]).unwrap();
        assert!(std::ptr::eq(flipped.column(0), view.column(0)));

        let want: Vec<i64> = half
            .iter()
            .map(|&r| j.int_col("k").unwrap()[r as usize])
            .collect();
        for mut t in [view, j.view_rows(half)] {
            t.materialize();
            assert!(t.cols[0].same(&t.cols[1]));
            assert_eq!(t.int_col("k-1").unwrap(), want);
            assert_eq!(t.mem_size(), 50 * 8 + 50 * 8 + pool, "the pair and the ids");
        }
    }

    #[test]
    fn mem_size_positive_and_grows() {
        let t = people();
        let base = t.mem_size();
        let mut bigger = t.clone();
        for _ in 0..100 {
            bigger
                .push_row(&["x".into(), 1i64.into(), 0.0.into()])
                .unwrap();
        }
        assert!(bigger.mem_size() > base);
    }
}
