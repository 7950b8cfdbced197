//! TSV input/output — the paper's `LoadTableTSV` front door.
//!
//! Loading is chunked, two-pass and byte-level (DESIGN.md, "Ingest"): the
//! worker pool claims [`CHUNK_BYTES`] pieces of the file; pass 1 counts each
//! chunk's rows, a running sum sizes the columns exactly, pass 2 parses each
//! chunk straight into its row window. The table — cells, symbol ids, pool
//! order — and the reported error do not depend on thread count or chunk size.

use crate::strings::Dict;
use crate::{ColumnData, ColumnType, Result, Schema, StringPool, Table, TableError};
use ringo_concurrent::{num_threads, parallel_for_dynamic, DisjointSlice};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bytes of the file one work item covers: large enough that claiming a
/// chunk is noise next to parsing it, small enough that a worker's buffer
/// stays cache-resident and two cores still get dozens of items to balance.
const CHUNK_BYTES: usize = 1 << 20;

/// First read past a chunk's end for the rest of its last line; doubles
/// until the newline turns up.
const SPILL_BYTES: usize = 4096;

/// Loads a tab-separated file into a table under the given schema.
///
/// Each line must have exactly one field per schema column. Every line
/// starting with `#` is a comment and skipped (the SNAP convention, and the
/// header [`save_tsv`] writes); empty lines are skipped. A line ends at
/// `\n`; `\r`s before it are dropped, so CRLF files load.
pub fn load_tsv(path: &Path, schema: &Schema) -> Result<Table> {
    load_dsv(path, schema, '\t')
}

/// Loads a delimiter-separated file (e.g. `,` for CSV) into a table under
/// the given schema. Same conventions as [`load_tsv`]; no quoting — fields
/// may not contain the delimiter, which must be ASCII.
pub fn load_dsv(path: &Path, schema: &Schema, delimiter: char) -> Result<Table> {
    load_dsv_threads(path, schema, delimiter, num_threads())
}

/// [`load_dsv`] on `threads` workers, which the table keeps as its worker
/// count. The table itself is the same at every `threads`.
pub fn load_dsv_threads(
    path: &Path,
    schema: &Schema,
    delimiter: char,
    threads: usize,
) -> Result<Table> {
    load_chunked(path, schema, delimiter, threads, CHUNK_BYTES)
}

/// A worker's file handle and read buffer, reused from chunk to chunk.
struct Scratch {
    file: File,
    buf: Vec<u8>,
}

/// The file as both passes see it: fixed-size chunks, each *owning* the
/// lines that start in it.
struct Chunks<'a> {
    path: &'a Path,
    len: u64,
    chunk_bytes: usize,
    /// Idle scratches; never more than ran at once.
    idle: Mutex<Vec<Scratch>>,
}

impl Chunks<'_> {
    fn count(&self) -> usize {
        self.len.div_ceil(self.chunk_bytes as u64) as usize
    }

    /// Runs `f(c, text)` for every chunk `c` on the pool, `text` being the
    /// whole lines `c` owns. Returns the results in chunk order, or the
    /// error of the lowest-numbered chunk that failed — chunks are in line
    /// order, so that is the error with the lowest line number.
    fn each<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(usize, &[u8]) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        let mut results: Vec<Option<Result<R>>> = (0..self.count()).map(|_| None).collect();
        let slots = DisjointSlice::new(&mut results);
        let first_bad = AtomicUsize::new(usize::MAX);
        parallel_for_dynamic(self.count(), threads, |c| {
            // ORDERING: Relaxed — a hint that only saves work: a chunk past a
            // failed one is skipped, and one that missed the hint is parsed
            // for a result nobody reads.
            if first_bad.load(Ordering::Relaxed) < c {
                return;
            }
            let run = || {
                let popped = lock(&self.idle).pop();
                let mut s = match popped {
                    Some(s) => s,
                    // Room for any chunk and a first spill, so only a line
                    // longer than `SPILL_BYTES` regrows the buffer.
                    None => Scratch {
                        file: File::open(self.path)?,
                        buf: Vec::with_capacity(
                            (self.chunk_bytes as u64).min(self.len) as usize + 1 + SPILL_BYTES,
                        ),
                    },
                };
                let (start, end) = self.read_owned(&mut s, c)?;
                let result = f(c, &s.buf[start..end]);
                lock(&self.idle).push(s);
                result
            };
            let result = run();
            if result.is_err() {
                // ORDERING: Relaxed — see the load above.
                first_bad.fetch_min(c, Ordering::Relaxed);
            }
            // SAFETY: the pool hands out each `c` once, so slot `c` has one
            // writer, and `c < count()` is in bounds.
            unsafe { slots.slice_mut(c, c + 1)[0] = Some(result) };
        });
        // A skipped chunk lies past a failed one, whose `Err` ends the walk.
        results.into_iter().flatten().collect()
    }

    /// Fills `s.buf` with the byte before chunk `c`, the chunk, and as much
    /// of what follows as its last line needs; returns the buffer range of
    /// the lines the chunk owns (empty if no line starts in it).
    fn read_owned(&self, s: &mut Scratch, c: usize) -> std::io::Result<(usize, usize)> {
        let lo = c as u64 * self.chunk_bytes as u64;
        let hi = (lo + self.chunk_bytes as u64).min(self.len);
        // The byte before the chunk says whether a line starts at `lo`.
        let from = lo.saturating_sub(1);
        s.file.seek(SeekFrom::Start(from))?;
        s.buf.resize((hi - from) as usize, 0);
        s.file.read_exact(&mut s.buf)?;
        let body = s.buf.len();
        // A first `\n` in the last position starts a line at `hi`, the next
        // chunk's: the range below is then empty.
        let start = match c {
            0 => 0,
            _ => match find(&s.buf, b'\n') {
                Some(at) => at + 1,
                None => return Ok((0, 0)),
            },
        };
        if s.buf[body - 1] == b'\n' {
            return Ok((start, body));
        }
        let (mut at, mut step) = (hi, SPILL_BYTES);
        while at < self.len {
            let take = (self.len - at).min(step as u64) as usize;
            let old = s.buf.len();
            s.buf.resize(old + take, 0);
            s.file.read_exact(&mut s.buf[old..])?;
            if let Some(nl) = find(&s.buf[old..], b'\n') {
                return Ok((start, old + nl + 1));
            }
            at += take as u64;
            step *= 2;
        }
        Ok((start, s.buf.len()))
    }
}

/// Position of the first `needle`: eight bytes at a time (the zero-byte
/// test on `word ^ needle×8`), then the tail one by one.
fn find(bytes: &[u8], needle: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    let pattern = LOW * u64::from(needle);
    let mut words = bytes.chunks_exact(8);
    for (i, w) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ pattern;
        let zeros = x.wrapping_sub(LOW) & !x & (LOW << 7);
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == needle)?;
    Some(bytes.len() - tail.len() + at)
}

/// The lines of `text` as `read_line` + `trim_end_matches(['\n', '\r'])`
/// yields them: split at `\n`, trailing `\r`s dropped, no phantom empty
/// line after a final `\n`.
fn lines(mut text: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        if text.is_empty() {
            return None;
        }
        let mut line = match find(text, b'\n') {
            Some(at) => {
                let (line, rest) = text.split_at(at);
                text = &rest[1..];
                line
            }
            None => std::mem::take(&mut text),
        };
        while let [head @ .., b'\r'] = line {
            line = head;
        }
        Some(line)
    })
}

/// Neither blank nor a `#` comment.
fn is_data(line: &[u8]) -> bool {
    line.first().is_some_and(|&b| b != b'#')
}

/// One column's share of a chunk: the rows its lines become.
enum Window<'a> {
    Int(&'a mut [i64]),
    Float(&'a mut [f64]),
    Str(&'a mut [u32]),
}

/// A whole column, written by many chunks at once through their windows.
enum Cells {
    Int(DisjointSlice<i64>),
    Float(DisjointSlice<f64>),
    Str(DisjointSlice<u32>),
}

impl Cells {
    /// # Safety
    /// `lo..hi` must lie inside the column, and no two windows alive at the
    /// same time may overlap.
    unsafe fn window(&self, lo: usize, hi: usize) -> Window<'_> {
        match self {
            Self::Int(c) => Window::Int(c.slice_mut(lo, hi)),
            Self::Float(c) => Window::Float(c.slice_mut(lo, hi)),
            Self::Str(c) => Window::Str(c.slice_mut(lo, hi)),
        }
    }
}

/// The one loader. `chunk_bytes` is [`CHUNK_BYTES`] except in tests, which
/// shrink it so that a small file has lines straddling every boundary.
pub(crate) fn load_chunked(
    path: &Path,
    schema: &Schema,
    delimiter: char,
    threads: usize,
    chunk_bytes: usize,
) -> Result<Table> {
    let delim = u8::try_from(delimiter).ok().filter(u8::is_ascii);
    let delim = delim.ok_or_else(|| {
        TableError::InvalidArgument(format!("delimiter {delimiter:?} is not ASCII"))
    })?;
    let chunks = Chunks {
        path,
        len: std::fs::metadata(path)?.len(),
        chunk_bytes: chunk_bytes.max(1),
        idle: Mutex::new(Vec::new()),
    };
    let mut span = ringo_trace::span!("table.load");
    span.rows_in(chunks.len as usize);
    if ringo_trace::enabled() {
        ringo_trace::counter("table.load.chunks").add(chunks.count() as u64);
    }

    // Pass 1: the (data rows, lines) each chunk owns, summed into
    // `starts[c]` = (first row, lines before) of chunk `c`.
    let counts = chunks.each(threads, |_, text| {
        Ok(lines(text).fold((0, 0), |(rows, all), line| {
            (rows + usize::from(is_data(line)), all + 1)
        }))
    })?;
    let mut starts = vec![(0usize, 0usize)];
    for (c, (rows, all)) in counts.into_iter().enumerate() {
        starts.push((starts[c].0 + rows, starts[c].1 + all));
    }
    let n_rows = starts[starts.len() - 1].0;

    // Pass 2: every chunk parses into its own window of the exact-size
    // columns, numbering strings in a dictionary of its own; whoever hands
    // in the dictionary the pool was waiting for rewrites the windows of
    // the chunks it unblocks from dictionary ids to pool symbols.
    let mut cols: Vec<ColumnData> = schema
        .iter()
        .map(|(_, ty)| match ty {
            ColumnType::Int => ColumnData::Int(vec![0; n_rows]),
            ColumnType::Float => ColumnData::Float(vec![0.0; n_rows]),
            ColumnType::Str => ColumnData::Str(vec![0; n_rows]),
        })
        .collect();
    let cells: Vec<Cells> = cols
        .iter_mut()
        .map(|col| match col {
            ColumnData::Int(v) => Cells::Int(DisjointSlice::new(v)),
            ColumnData::Float(v) => Cells::Float(DisjointSlice::new(v)),
            ColumnData::Str(v) => Cells::Str(DisjointSlice::new(v)),
        })
        .collect();
    let merge = Mutex::new(Merge {
        pool: StringPool::new(),
        next: 0,
        early: BTreeMap::new(),
    });
    chunks.each(threads, |c, text| {
        let (lo, hi) = (starts[c].0, starts[c + 1].0);
        // SAFETY: `starts` is a running sum ending at the columns' length,
        // so the `lo..hi` of different chunks are disjoint and in bounds,
        // and each `c` is handed out once.
        let mut out: Vec<Window> = cells.iter().map(|x| unsafe { x.window(lo, hi) }).collect();
        let mut dict = Dict::default();
        parse_chunk(text, delim, starts[c].1, hi - lo, &mut out, &mut dict)?;
        drop(out);
        let turns = lock(&merge).hand_in(c, dict);
        for (k, symbols) in turns {
            for cell in &cells {
                if let Cells::Str(col) = cell {
                    // SAFETY: disjoint and in bounds as above. Chunk `k`
                    // wrote its window before it handed in its dictionary
                    // under the lock, and `hand_in` returns each `k` once.
                    for sym in unsafe { col.slice_mut(starts[k].0, starts[k + 1].0) } {
                        *sym = symbols[*sym as usize];
                    }
                }
            }
        }
        Ok(())
    })?;
    let pool = merge
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .pool;

    let mut table = Table::from_parts(schema.clone(), cols, pool)?;
    table.set_threads(threads);
    span.rows_out(n_rows);
    Ok(table)
}

/// The table's pool as it takes in the chunks' dictionaries — strictly in
/// chunk order, each chunk's strings in the order it met them, which is
/// row order: the symbol ids of a sequential load. Sequential because every
/// id depends on all the strings before it, but it trails the parse front
/// instead of waiting for it, so dictionaries do not pile up.
struct Merge {
    pool: StringPool,
    /// The chunk whose strings the pool takes next.
    next: usize,
    /// Dictionaries of chunks that finished before their turn.
    early: BTreeMap<usize, Dict>,
}

impl Merge {
    /// Takes chunk `c`'s dictionary; returns, for every chunk whose turn
    /// that brings, the pool symbol of each of its dictionary ids.
    fn hand_in(&mut self, c: usize, dict: Dict) -> Vec<(usize, Vec<u32>)> {
        self.early.insert(c, dict);
        let mut turns = Vec::new();
        while let Some(dict) = self.early.remove(&self.next) {
            let symbols = dict.iter().map(|s| self.pool.intern(s)).collect();
            turns.push((self.next, symbols));
            self.next += 1;
        }
        turns
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// LINT: hot — runs over every byte of the file; errors are built out of line.
fn parse_chunk(
    text: &[u8],
    delim: u8,
    lines_before: usize,
    rows: usize,
    out: &mut [Window<'_>],
    dict: &mut Dict,
) -> Result<()> {
    let n_cols = out.len();
    let mut row = 0;
    for (k, line) in lines(text).enumerate() {
        if !is_data(line) {
            continue;
        }
        if row == rows {
            return Err(changed());
        }
        let lineno = lines_before + k + 1;
        // Start of the next field; past the end once the line is used up.
        let mut pos = 0;
        for (i, window) in out.iter_mut().enumerate() {
            if pos > line.len() {
                let found = format_args!("expected {n_cols} fields, found {i}");
                return Err(parse_error(lineno, found));
            }
            let end = find(&line[pos..], delim).map_or(line.len(), |at| pos + at);
            let field = &line[pos..end];
            pos = end + 1;
            match window {
                Window::Int(v) => {
                    v[row] = match parse_int(field) {
                        Some(x) => x,
                        None => parse_std(field).map_err(|why| bad(lineno, "int", field, why))?,
                    }
                }
                Window::Float(v) => {
                    v[row] = parse_std(field).map_err(|why| bad(lineno, "float", field, why))?
                }
                Window::Str(v) => {
                    v[row] = dict
                        .intern(field)
                        .map_err(|why| bad(lineno, "str", field, why))?
                }
            }
        }
        if pos <= line.len() {
            let found = format_args!("more fields than the {n_cols} schema columns");
            return Err(parse_error(lineno, found));
        }
        row += 1;
    }
    if row == rows {
        Ok(())
    } else {
        Err(changed())
    }
}

/// `str::parse::<i64>` for the fields that cannot overflow — an optional
/// sign and 1 to 18 digits; `None` sends anything else to `str::parse`.
#[inline]
fn parse_int(field: &[u8]) -> Option<i64> {
    let (negative, digits) = match field {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, field),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut value = 0i64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        value = value * 10 + i64::from(d);
    }
    Some(if negative { -value } else { value })
}

/// `str::parse` on a byte field; the error is the reason a `Parse` message
/// ends with.
fn parse_std<T: std::str::FromStr>(field: &[u8]) -> std::result::Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let s = std::str::from_utf8(field).map_err(|e| e.to_string())?;
    s.parse().map_err(|e: T::Err| e.to_string())
}

/// Errors are built out of line so the kernel's happy path never formats.
#[cold]
fn bad(line: usize, what: &str, field: &[u8], why: impl std::fmt::Display) -> TableError {
    let field = String::from_utf8_lossy(field);
    parse_error(line, format_args!("bad {what} {field:?}: {why}"))
}

#[cold]
fn parse_error(line: usize, message: std::fmt::Arguments<'_>) -> TableError {
    let message = message.to_string();
    TableError::Parse { line, message }
}

/// Pass 2 met other rows than pass 1 counted.
#[cold]
fn changed() -> TableError {
    TableError::Io(std::io::Error::other("file changed while it was loaded"))
}

/// Writes the table as tab-separated values under a `#`-prefixed header of
/// column names — a file [`load_tsv`] reads back into an equal table.
///
/// The format has no quoting, so a string the loader would split or skip
/// is refused with `InvalidArgument` naming row and column, before `path`
/// is touched: a cell containing `\t`, `\n` or `\r`, a first-column cell
/// starting with `#`, `""` in a one-column table (a blank line), and a
/// column name containing a line break.
pub fn save_tsv(table: &Table, path: &Path) -> Result<()> {
    let names: Vec<&str> = table.schema().iter().map(|(n, _)| n).collect();
    if let Some(name) = names.iter().find(|n| n.contains(['\n', '\r'])) {
        let why = format!("column name {name:?} contains a line break");
        return Err(TableError::InvalidArgument(why));
    }
    for (i, name) in names.iter().enumerate() {
        let ColumnData::Str(syms) = table.column(i) else {
            continue;
        };
        // Each distinct string is looked at once, where it first occurs.
        let mut seen = vec![false; table.pool().len()];
        for (row, &sym) in syms.iter().enumerate() {
            if std::mem::replace(&mut seen[sym as usize], true) {
                continue;
            }
            let s = table.str_value(sym);
            let why = if s.contains(['\t', '\n', '\r']) {
                "contains a tab or line break, which TSV cannot quote"
            } else if i == 0 && s.starts_with('#') {
                "starts its line with '#', which loads as a comment"
            } else if names.len() == 1 && s.is_empty() {
                "is a blank line in a one-column file, which loads as no row"
            } else {
                continue;
            };
            let why = format!("row {row}, column {name:?}: {s:?} {why}");
            return Err(TableError::InvalidArgument(why));
        }
    }
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# {}", names.join("\t"))?;
    for row in 0..table.n_rows() {
        for i in 0..names.len() {
            if i > 0 {
                w.write_all(b"\t")?;
            }
            match table.column(i) {
                ColumnData::Int(v) => write!(w, "{}", v[row])?,
                ColumnData::Float(v) => write!(w, "{}", v[row])?,
                ColumnData::Str(v) => w.write_all(table.str_value(v[row]).as_bytes())?,
            }
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// The loader this module replaced — one thread, a line at a time,
/// `str::parse` per field, `push` per cell — kept as the reference the
/// chunked loader must match cell for cell and symbol for symbol. Its one
/// change: lines are read as bytes and each field is validated on its own,
/// so invalid UTF-8 is a `Parse` error on its line, not an `Io` error.
#[cfg(test)]
fn load_oracle(path: &Path, schema: &Schema, delimiter: char) -> Result<Table> {
    use std::io::BufRead;
    let parse_err = |line, message| TableError::Parse { line, message };
    let mut reader = std::io::BufReader::new(File::open(path)?);
    let mut cols: Vec<ColumnData> = schema.iter().map(|(_, ty)| ColumnData::new(ty)).collect();
    let mut pool = StringPool::new();
    let types: Vec<ColumnType> = schema.iter().map(|(_, ty)| ty).collect();

    let mut line = Vec::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        let mut fields = line.split(|&b| b == delimiter as u8);
        for (i, ty) in types.iter().enumerate() {
            let field = fields.next().ok_or_else(|| {
                parse_err(
                    lineno,
                    format!("expected {} fields, found {}", types.len(), i),
                )
            })?;
            let shown = String::from_utf8_lossy(field).into_owned();
            let bad =
                |what: &str, why: String| parse_err(lineno, format!("bad {what} {shown:?}: {why}"));
            let text = std::str::from_utf8(field).map_err(|e| bad(ty.name(), e.to_string()))?;
            match (ty, &mut cols[i]) {
                (ColumnType::Int, ColumnData::Int(v)) => v.push(
                    text.parse()
                        .map_err(|e: std::num::ParseIntError| bad("int", e.to_string()))?,
                ),
                (ColumnType::Float, ColumnData::Float(v)) => v.push(
                    text.parse()
                        .map_err(|e: std::num::ParseFloatError| bad("float", e.to_string()))?,
                ),
                (ColumnType::Str, ColumnData::Str(v)) => v.push(pool.intern(text)),
                _ => unreachable!("schema/type alignment"),
            }
        }
        if fields.next().is_some() {
            return Err(parse_err(
                lineno,
                format!("more fields than the {} schema columns", types.len()),
            ));
        }
    }
    Table::from_parts(schema.clone(), cols, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use ringo_rng::Rng64;
    use std::fmt::Write as _;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ringo_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_all_types() {
        let schema = Schema::new([
            ("id", ColumnType::Int),
            ("w", ColumnType::Float),
            ("tag", ColumnType::Str),
        ]);
        let mut t = Table::new(schema.clone());
        t.push_row(&[Value::Int(1), Value::Float(0.5), "java".into()])
            .unwrap();
        t.push_row(&[Value::Int(-2), Value::Float(1.25), "".into()])
            .unwrap();
        let path = tmpfile("roundtrip.tsv");
        save_tsv(&t, &path).unwrap();
        let back = load_tsv(&path, &schema).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.int_col("id").unwrap(), &[1, -2]);
        assert_eq!(back.float_col("w").unwrap(), &[0.5, 1.25]);
        assert_eq!(back.get(0, "tag").unwrap(), Value::Str("java".into()));
        assert_eq!(back.get(1, "tag").unwrap(), Value::Str("".into()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let path = tmpfile("comments.tsv");
        std::fs::write(&path, "# src\tdst\n1\t2\n\n3\t4\n").unwrap();
        let schema = Schema::new([("src", ColumnType::Int), ("dst", ColumnType::Int)]);
        let t = load_tsv(&path, &schema).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.int_col("dst").unwrap(), &[2, 4]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_delimiter_variant() {
        let path = tmpfile("csv.csv");
        std::fs::write(&path, "1,2.5,java\n2,0.5,rust\n").unwrap();
        let schema = Schema::new([
            ("a", ColumnType::Int),
            ("b", ColumnType::Float),
            ("c", ColumnType::Str),
        ]);
        let t = super::load_dsv(&path, &schema, ',').unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.float_col("b").unwrap(), &[2.5, 0.5]);
        assert_eq!(t.get(1, "c").unwrap(), Value::Str("rust".into()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let path = tmpfile("bad.tsv");
        std::fs::write(&path, "1\t2\nx\t4\n").unwrap();
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        match load_tsv(&path, &schema) {
            Err(TableError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn field_count_mismatches_rejected() {
        let path = tmpfile("fields.tsv");
        std::fs::write(&path, "1\n").unwrap();
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        assert!(load_tsv(&path, &schema).is_err());
        std::fs::write(&path, "1\t2\t3\n").unwrap();
        assert!(load_tsv(&path, &schema).is_err());
        std::fs::remove_file(path).ok();
    }

    const THREADS: [usize; 3] = [1, 2, 4];
    const CHUNKS: [usize; 5] = [1, 7, 64, 4096, CHUNK_BYTES];

    fn pool_strings(t: &Table) -> Vec<&str> {
        (0..t.pool().len() as u32)
            .map(|s| t.pool().get(s))
            .collect()
    }

    /// Cells (floats by bit pattern), symbol ids, pool order, row ids.
    fn assert_identical(got: &Table, want: &Table, what: &str) {
        assert_eq!(got.schema(), want.schema(), "{what}: schema");
        assert_eq!(got.row_ids(), want.row_ids(), "{what}: row ids");
        assert_eq!(pool_strings(got), pool_strings(want), "{what}: pool");
        for i in 0..want.n_cols() {
            match (got.column(i), want.column(i)) {
                (ColumnData::Int(a), ColumnData::Int(b)) => assert_eq!(a, b, "{what}: col {i}"),
                (ColumnData::Str(a), ColumnData::Str(b)) => assert_eq!(a, b, "{what}: col {i}"),
                (ColumnData::Float(a), ColumnData::Float(b)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{what}: col {i}");
                }
                _ => panic!("{what}: col {i} changed type"),
            }
        }
    }

    /// Equal tables, or `Parse` errors on the same line with the same text.
    fn assert_agree(got: &Result<Table>, want: &Result<Table>, what: &str) {
        match (got, want) {
            (Ok(g), Ok(w)) => assert_identical(g, w, what),
            (
                Err(TableError::Parse { line, message }),
                Err(TableError::Parse {
                    line: want_line,
                    message: want_message,
                }),
            ) => assert_eq!((line, message), (want_line, want_message), "{what}"),
            _ => panic!(
                "{what}: loader {:?}, oracle {:?}",
                got.as_ref().map(Table::n_rows),
                want.as_ref().map(Table::n_rows)
            ),
        }
    }

    /// Loads `bytes` with the oracle and with the chunked loader at every
    /// thread count and chunk size; returns the result they agree on.
    fn load_everywhere(name: &str, bytes: &[u8], schema: &Schema, delim: char) -> Result<Table> {
        let path = tmpfile(name);
        std::fs::write(&path, bytes).unwrap();
        let want = load_oracle(&path, schema, delim);
        for threads in THREADS {
            for chunk in CHUNKS {
                let got = load_chunked(&path, schema, delim, threads, chunk);
                assert_agree(&got, &want, &format!("{name} t={threads} chunk={chunk}"));
                if let Ok(t) = &got {
                    for i in 0..t.n_cols() {
                        let (len, cap) = match t.column(i) {
                            ColumnData::Int(v) => (v.len(), v.capacity()),
                            ColumnData::Float(v) => (v.len(), v.capacity()),
                            ColumnData::Str(v) => (v.len(), v.capacity()),
                        };
                        assert_eq!(len, cap, "{name}: column {i} is not exact-size");
                    }
                }
            }
        }
        std::fs::remove_file(path).ok();
        want
    }

    fn mixed_schema() -> Schema {
        Schema::new([
            ("id", ColumnType::Int),
            ("w", ColumnType::Float),
            ("uniq", ColumnType::Str),
            ("tag", ColumnType::Str),
            ("n", ColumnType::Int),
        ])
    }

    /// Int / Float / Str rows: `uniq` has one distinct value per row, `tag`
    /// has 8, with comments, blank lines and CRLF endings mixed in.
    fn mixed_file(rng: &mut Rng64, rows: usize) -> Vec<u8> {
        let mut text = String::from("# id\tw\tuniq\ttag\tn\n");
        for r in 0..rows {
            let id = rng.i64() >> rng.below(64);
            let w = f64::from_bits(rng.u64());
            let n = rng.below(2000) as i64 - 1000;
            let eol = ["\n", "\r\n"][rng.below(2)];
            write!(text, "{id}\t{w}\tu{r}é\ttag{}\t{n}{eol}", rng.below(8)).unwrap();
            match rng.below(16) {
                0 => text.push('\n'),
                1 => text.push_str("# note\t1\n"),
                _ => {}
            }
        }
        text.into_bytes()
    }

    #[test]
    fn chunked_loader_equals_oracle_at_every_thread_count_and_chunk_size() {
        let mut rng = Rng64::new(14);
        for rows in [0, 1, 2, 37, 600] {
            let file = mixed_file(&mut rng, rows);
            let t =
                load_everywhere(&format!("mixed{rows}.tsv"), &file, &mixed_schema(), '\t').unwrap();
            assert_eq!(t.n_rows(), rows);
            // "" + one `uniq` per row + the `tag` values met.
            assert_eq!(t.pool().len(), 1 + rows + rows.min(8));
        }
        // Without the final newline, and a CSV of the same shape.
        let mut file = mixed_file(&mut rng, 50);
        file.pop();
        load_everywhere("mixed_open.tsv", &file, &mixed_schema(), '\t').unwrap();
        let csv: Vec<u8> = file
            .iter()
            .map(|&b| if b == b'\t' { b',' } else { b })
            .collect();
        load_everywhere("mixed.csv", &csv, &mixed_schema(), ',').unwrap();
    }

    #[test]
    fn pool_takes_dictionaries_in_chunk_order_as_soon_as_it_can() {
        let dict = |words: &[&str]| {
            let mut d = Dict::default();
            for w in words {
                d.intern(w.as_bytes()).unwrap();
            }
            d
        };
        let mut merge = Merge {
            pool: StringPool::new(),
            next: 0,
            early: BTreeMap::new(),
        };
        // Chunks 2 and 1 finish first and wait; chunk 0 brings all three
        // turns at once, and nothing is left waiting.
        assert!(merge.hand_in(2, dict(&["c", "a"])).is_empty());
        assert!(merge.hand_in(1, dict(&["b", "", "a"])).is_empty());
        assert_eq!(merge.early.len(), 2);
        let turns = merge.hand_in(0, dict(&["a"]));
        assert_eq!(
            turns,
            [(0, vec![1]), (1, vec![2, 0, 1]), (2, vec![3, 1])],
            "symbols in row order: \"\", a, b, c"
        );
        assert!(merge.early.is_empty());
        // Back in step, a dictionary is taken at once.
        assert_eq!(merge.hand_in(3, dict(&["d", "c"])), [(3, vec![4, 3])]);
        assert!(merge.early.is_empty());
    }

    #[test]
    fn int_fast_path_is_str_parse() {
        let check = |field: &[u8]| {
            let want = std::str::from_utf8(field)
                .ok()
                .and_then(|s| s.parse::<i64>().ok());
            match parse_int(field) {
                Some(x) => assert_eq!(Some(x), want, "{field:?}"),
                // Declined: the loader asks `str::parse`, so any answer is right.
                None => assert_eq!(parse_std::<i64>(field).ok(), want, "{field:?}"),
            }
            if want.is_some() && field.len() <= 18 {
                assert!(parse_int(field).is_some(), "{field:?} missed the fast path");
            }
        };
        for s in [
            "",
            "-",
            "+",
            "0",
            "-0",
            "+0",
            "007",
            " 5",
            "5 ",
            "+-5",
            "--5",
            "5-",
            "1e3",
            "1.0",
            "1:",
            "/1",
            "９",
            "999999999999999999",
            "-999999999999999999",
            "1000000000000000000",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "+9223372036854775807",
            "0000000000000000000000007",
            "99999999999999999999999999",
        ] {
            check(s.as_bytes());
        }
        check(b"1\x002");
        check(b"\xff");
        let mut rng = Rng64::new(7);
        let alphabet = b"0123456789+- .e/:\x00\xc3";
        for _ in 0..20_000 {
            let len = rng.below(22);
            let digits_only = rng.below(2) == 0;
            let field: Vec<u8> = (0..len)
                .map(|i| match (digits_only, i) {
                    (true, 0) => b"-+12"[rng.below(4)],
                    (true, _) => b'0' + rng.below(10) as u8,
                    (false, _) => alphabet[rng.below(alphabet.len())],
                })
                .collect();
            check(&field);
        }
        for _ in 0..2_000 {
            let x = rng.i64() >> rng.below(64);
            assert_eq!(parse_int(x.to_string().as_bytes()).or(Some(x)), Some(x));
        }
    }

    fn parse_line(result: Result<Table>) -> usize {
        match result {
            Err(TableError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_input_is_a_parse_error_with_its_line() {
        let one_int = Schema::new([("a", ColumnType::Int)]);
        for bad in [
            "",
            "-",
            "+",
            " 5",
            "5 ",
            "9223372036854775808",
            "1\x002",
            "x",
        ] {
            // Line 2 is blank for `""`: skipped, not an error.
            let file = format!("1\n{bad}\n3\n");
            let got = load_everywhere("int.tsv", file.as_bytes(), &one_int, '\t');
            match bad {
                "" => assert_eq!(got.unwrap().int_col("a").unwrap(), &[1, 3]),
                _ => assert_eq!(parse_line(got), 2, "{bad:?}"),
            }
        }
        let file = format!("{}\n{}\n+7\n007\n-0\n", i64::MIN, i64::MAX);
        let t = load_everywhere("extremes.tsv", file.as_bytes(), &one_int, '\t').unwrap();
        assert_eq!(t.int_col("a").unwrap(), &[i64::MIN, i64::MAX, 7, 7, 0]);

        let int_str = Schema::new([("a", ColumnType::Int), ("s", ColumnType::Str)]);
        let got = load_everywhere(
            "utf8.tsv",
            b"1\tok\n# \xff fine here\n2\tb\xffd\n",
            &int_str,
            '\t',
        );
        assert_eq!(parse_line(got), 3);
        let t = load_everywhere("nul.tsv", b"1\ta\x00b\n", &int_str, '\t').unwrap();
        assert_eq!(t.get(0, "s").unwrap(), Value::Str("a\0b".into()));
        let int_float = Schema::new([("a", ColumnType::Int), ("f", ColumnType::Float)]);
        let got = load_everywhere("float.tsv", b"1\t1e3\n2\tinf\n3\t\xff\n", &int_float, '\t');
        assert_eq!(parse_line(got), 3);

        // Field-count errors wherever the line falls in its chunk, and the
        // lowest line wins when several are wrong.
        let two = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        for (file, line) in [
            ("1\t2\n3\n5\t6\n", 2),
            ("1\t2\n3\t4\t5\n5\t6\n", 2),
            ("1\t2\n3\t4\n5", 3),
            ("1\t2\n3\t4\n5\t6\t7", 3),
            ("1\t2\n3\t\n", 2),
            ("1\t2\nx\t4\t5\n7\n", 2),
            ("# c\n\n1\t2\n3\n4\n", 4),
        ] {
            let got = load_everywhere("fields.tsv", file.as_bytes(), &two, '\t');
            assert_eq!(parse_line(got), line, "{file:?}");
        }

        // Shapes that are fine: no trailing newline, CRLF, `\r\r\n`, a
        // lone `\r` line (blank), nothing at all, comments only.
        for (file, want) in [
            ("1\t2\n3\t4", vec![2, 4]),
            ("1\t2\r\n3\t4\r\n", vec![2, 4]),
            ("1\t2\r\r\n\r\n3\t4\r", vec![2, 4]),
            ("", vec![]),
            ("\n", vec![]),
            ("# a\tb\n#\n", vec![]),
            ("#", vec![]),
        ] {
            let t = load_everywhere("shapes.tsv", file.as_bytes(), &two, '\t').unwrap();
            assert_eq!(t.int_col("b").unwrap(), want, "{file:?}");
        }
        // A line much longer than the small chunks, after one that is not.
        let long = format!("1\ts\n2\t{}\n3\tt\n", "x".repeat(10_000));
        let t = load_everywhere("long.tsv", long.as_bytes(), &int_str, '\t').unwrap();
        assert_eq!(t.int_col("a").unwrap(), &[1, 2, 3]);

        let path = tmpfile("delim.tsv");
        std::fs::write(&path, "1é2\n").unwrap();
        for delim in ['é', '\u{80}', '→'] {
            let got = load_dsv(&path, &two, delim);
            assert!(
                matches!(got, Err(TableError::InvalidArgument(_))),
                "{delim:?}"
            );
        }
        std::fs::remove_file(&path).ok();
        assert!(matches!(load_tsv(&path, &two), Err(TableError::Io(_))));
    }

    #[test]
    fn mutation_fuzz_agrees_with_oracle() {
        let schema = Schema::new([
            ("id", ColumnType::Int),
            ("w", ColumnType::Float),
            ("tag", ColumnType::Str),
        ]);
        let mut base = String::from("# id\tw\ttag\n");
        for r in 0..24 {
            let eol = if r % 5 == 0 { "\r\n" } else { "\n" };
            write!(base, "{}\t{}.5\ttag{}{eol}", r * 37 - 100, r, r % 4).unwrap();
        }
        let base = base.into_bytes();
        let edits = b"\t\n\r#0123456789-+.eE,x/: \x00\xff\xc3\xa9";
        let mut rng = Rng64::new(2015);
        let path = tmpfile("fuzz.tsv");
        let (mut ok, mut err) = (0, 0);
        for round in 0..2_400 {
            let mut file = base.clone();
            let at = rng.below(file.len());
            match rng.below(4) {
                0 => file.truncate(at),
                1 => {
                    file.remove(at);
                }
                2 => file.insert(at, edits[rng.below(edits.len())]),
                _ => file[at] = edits[rng.below(edits.len())],
            }
            std::fs::write(&path, &file).unwrap();
            let want = load_oracle(&path, &schema, '\t');
            let threads = THREADS[rng.below(THREADS.len())];
            let chunk = CHUNKS[rng.below(CHUNKS.len())];
            let got = load_chunked(&path, &schema, '\t', threads, chunk);
            assert_agree(
                &got,
                &want,
                &format!("round {round} t={threads} chunk={chunk}"),
            );
            match want {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        std::fs::remove_file(path).ok();
        assert!(ok > 200 && err > 200, "one-sided fuzz: {ok} ok, {err} err");
    }

    #[test]
    fn save_then_load_is_equal_or_save_refuses() {
        let schema = Schema::new([
            ("s", ColumnType::Str),
            ("x", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Str),
        ]);
        let pieces = ["a", "b", "#", "", " ", "\t", "\n", "\r", "é", "0", "# x"];
        let floats = [0.0, -0.0, 0.1, 1e300, f64::NAN, f64::INFINITY, -2.5];
        let mut rng = Rng64::new(4);
        let path = tmpfile("property.tsv");
        let (mut saved, mut refused) = (0, 0);
        for _ in 0..400 {
            let mut t = Table::new(schema.clone());
            let mut writable = true;
            for _ in 0..rng.below(6) {
                let word = |rng: &mut Rng64| -> String {
                    (0..rng.below(3))
                        .map(|_| pieces[rng.below(pieces.len())])
                        .collect()
                };
                let (s, u) = (word(&mut rng), word(&mut rng));
                let breaks = |w: &str| w.contains(['\t', '\n', '\r']);
                writable &= !breaks(&s) && !breaks(&u) && !s.starts_with('#');
                let x = rng.i64();
                let f = floats[rng.below(floats.len())];
                t.push_row(&[s.as_str().into(), x.into(), f.into(), u.as_str().into()])
                    .unwrap();
            }
            match save_tsv(&t, &path) {
                Ok(()) => {
                    assert!(writable);
                    let back = load_tsv(&path, &schema).unwrap();
                    assert_eq!(back.n_rows(), t.n_rows());
                    for row in 0..t.n_rows() {
                        for (name, _) in schema.iter() {
                            let (a, b) = (t.get(row, name).unwrap(), back.get(row, name).unwrap());
                            match (&a, &b) {
                                (Value::Float(a), Value::Float(b)) => {
                                    assert_eq!(a.to_bits(), b.to_bits())
                                }
                                _ => assert_eq!(a, b),
                            }
                        }
                    }
                    saved += 1;
                }
                Err(TableError::InvalidArgument(msg)) => {
                    assert!(!writable, "{msg}");
                    assert!(msg.contains("row ") && msg.contains("column "), "{msg}");
                    refused += 1;
                }
                Err(other) => panic!("{other}"),
            }
        }
        assert!(
            saved > 50 && refused > 50,
            "{saved} saved, {refused} refused"
        );

        // One-column tables: a blank line is no row, so `""` is refused.
        let one = Schema::new([("s", ColumnType::Str)]);
        let mut t = Table::new(one.clone());
        t.push_row(&["x".into()]).unwrap();
        save_tsv(&t, &path).unwrap();
        assert_eq!(load_tsv(&path, &one).unwrap().n_rows(), 1);
        t.push_row(&["".into()]).unwrap();
        let err = save_tsv(&t, &path).unwrap_err().to_string();
        assert!(err.contains("row 1") && err.contains("\"s\""), "{err}");
        // A refused save has not touched the file that was there.
        assert_eq!(load_tsv(&path, &one).unwrap().n_rows(), 1);
        let broken = Schema::new([("a\nb", ColumnType::Int)]);
        assert!(save_tsv(&Table::new(broken), &path).is_err());
        std::fs::remove_file(path).ok();
    }
}
