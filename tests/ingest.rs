//! `load_table_tsv` through the facade: the chunked parallel loader's
//! public contract.
//!
//! The cell-for-cell / symbol-for-symbol comparison with the sequential
//! oracle at shrunken chunk sizes lives beside the loader
//! (`crates/table/src/io.rs`, unit tests — the chunk size is `pub(crate)`).
//! This suite drives files large enough to span several default-size
//! chunks: (a) the loaded table equals the one that was saved and is
//! identical — symbols and pool order included — at every thread count,
//! (b) the op-log and the `table.load` span report bytes in and rows out,
//! and (c) the memory contract: exact-size columns, and a transient peak
//! that scales with the table, not with table + file — on a table with 8
//! distinct strings and on one where every chunk meets tens of thousands.
//!
//! Kept in its own test binary — and its tests serialized — so nothing
//! else moves the process-global allocation counters mid-measurement.

use ringo::gen::stackoverflow::posts_schema;
use ringo::gen::StackOverflowConfig;
use ringo::table::ColumnData;
use ringo::trace::mem::{current_bytes, peak_bytes, reset_peak, TrackingAllocator};
use ringo::{trace, ColumnType, Ringo, Schema, Table};
use ringo_rng::Rng64;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

mod common;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Row ids and cells agree. With `exact`, down to float bits and symbol
/// ids; without, NaNs match each other (`save_tsv` writes every NaN as
/// `NaN`) and strings match by text.
fn assert_same_cells(a: &Table, b: &Table, exact: bool) {
    assert_eq!(a.row_ids(), b.row_ids());
    for i in 0..b.n_cols() {
        match (a.column(i), b.column(i)) {
            (ColumnData::Int(x), ColumnData::Int(y)) => assert_eq!(x, y),
            (ColumnData::Float(x), ColumnData::Float(y)) => {
                let same = |(x, y): (&f64, &f64)| {
                    x.to_bits() == y.to_bits() || (!exact && x.is_nan() && y.is_nan())
                };
                assert!(
                    x.len() == y.len() && x.iter().zip(y).all(same),
                    "column {i}"
                );
            }
            (ColumnData::Str(x), ColumnData::Str(y)) => {
                let same =
                    |(&x, &y): (&u32, &u32)| a.str_value(x) == b.str_value(y) && (!exact || x == y);
                assert!(
                    x.len() == y.len() && x.iter().zip(y).all(same),
                    "column {i}"
                );
            }
            _ => panic!("column {i} changed type"),
        }
    }
}

/// The loader's chunk size (`CHUNK_BYTES` in `crates/table/src/io.rs`).
const CHUNK: usize = 1 << 20;

fn tmpfile(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ringo_ingest_{}_{name}", std::process::id()))
}

fn pool_strings(t: &Table) -> Vec<&str> {
    (0..t.pool().len() as u32)
        .map(|s| t.pool().get(s))
        .collect()
}

/// Int / Float / Str columns; `uniq` is distinct in every row, `tag` takes
/// 8 values.
fn mixed_table(rows: usize, seed: u64) -> Table {
    let schema = Schema::new([
        ("id", ColumnType::Int),
        ("w", ColumnType::Float),
        ("uniq", ColumnType::Str),
        ("tag", ColumnType::Str),
        ("n", ColumnType::Int),
    ]);
    let mut rng = Rng64::new(seed);
    let mut t = Table::new(schema);
    for r in 0..rows {
        let id = rng.i64() >> rng.below(64);
        let w = f64::from_bits(rng.u64());
        let uniq = format!("u{r}-é");
        let tag = format!("tag{}", rng.below(8));
        let n = rng.range_i64(-1000..1000);
        t.push_row(&[
            id.into(),
            w.into(),
            uniq.as_str().into(),
            tag.as_str().into(),
            n.into(),
        ])
        .unwrap();
    }
    t
}

#[test]
fn loaded_table_is_the_saved_one_at_every_thread_count() {
    let _serial = serial();
    let saved = mixed_table(120_000, 14);
    let path = tmpfile("mixed.tsv");
    Ringo::with_threads(2)
        .save_table_tsv(&saved, &path)
        .unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        file_bytes > 4 * CHUNK as u64,
        "{file_bytes} B spans too few chunks"
    );

    let loads: Vec<Table> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let ringo = Ringo::with_threads(threads);
            let t = ringo.load_table_tsv(saved.schema(), &path).unwrap();
            assert_eq!(t.threads(), threads);
            let log = ringo.op_log();
            let rec = log.last().expect("the load is logged");
            assert_eq!(
                (rec.name, rec.rows_in, rec.rows_out),
                ("load_table_tsv", file_bytes, 120_000)
            );
            t
        })
        .collect();
    std::fs::remove_file(&path).ok();

    // Against what was saved: cell for cell, strings by value.
    let first = &loads[0];
    assert_same_cells(first, &saved, false);
    // Symbols are handed out in row order: "", then u0, tag?, u1, ...
    assert_eq!(&pool_strings(first)[..2], ["", "u0-é"]);
    // Between thread counts: identical down to symbol ids and pool order.
    for other in &loads[1..] {
        assert_eq!(pool_strings(other), pool_strings(first));
        assert_same_cells(other, first, true);
    }
}

#[test]
fn error_names_the_lowest_bad_line_across_chunks() {
    let _serial = serial();
    // Two bad lines several chunks apart; the later one is parsed first
    // more often than not when chunks are claimed concurrently.
    let mut text = String::new();
    for r in 0..400_000 {
        match r {
            150_000 => text.push_str("oops\t1\n"),
            390_000 => text.push_str("1\n"),
            _ => text.push_str(&format!("{r}\t{}\n", r * 3)),
        }
    }
    assert!(text.len() > 4 * CHUNK);
    let path = tmpfile("bad.tsv");
    std::fs::write(&path, text).unwrap();
    let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
    for threads in [1, 2, 4] {
        let err = Ringo::with_threads(threads)
            .load_table_tsv(&schema, &path)
            .unwrap_err();
        assert!(
            matches!(err, ringo::TableError::Parse { line: 150_001, .. }),
            "threads {threads}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_span_reports_bytes_chunks_and_rows() {
    let _serial = serial();
    let saved = mixed_table(60_000, 3);
    let path = tmpfile("span.tsv");
    let ringo = Ringo::with_threads(2);
    ringo.save_table_tsv(&saved, &path).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len();

    trace::set_enabled(true);
    trace::reset();
    ringo.load_table_tsv(saved.schema(), &path).unwrap();
    trace::set_enabled(false);
    std::fs::remove_file(&path).ok();

    let events = common::end_events();
    let load = events
        .iter()
        .find(|e| e.name == "table.load")
        .expect("one table.load span");
    assert_eq!((load.rows_in, load.rows_out), (file_bytes, 60_000));
    let chunks = trace::counters_snapshot()
        .into_iter()
        .find(|c| c.name == "table.load.chunks")
        .map(|c| c.value);
    assert_eq!(chunks, Some(file_bytes.div_ceil(CHUNK as u64)));
}

/// Loads `path` on two workers and holds the load to the memory contract:
/// exact-size columns, nothing resident beyond the table, and a transient
/// peak of at most the table plus `per_executor` bytes for every executor
/// (pool workers + the dispatching thread, which takes part in its own
/// job) plus a fixed slack — however large the file.
fn load_within(path: &Path, schema: &Schema, rows: usize, per_executor: usize) -> Table {
    let ringo = Ringo::with_threads(2);
    let file_bytes = std::fs::metadata(path).unwrap().len() as usize;
    // Warm the pool and the loader's code path outside the measurement.
    drop(ringo.load_table_tsv(schema, path).unwrap());

    let live = current_bytes();
    reset_peak();
    let loaded = ringo.load_table_tsv(schema, path).unwrap();
    let transient = peak_bytes() - live;
    let resident = current_bytes() - live;

    for i in 0..loaded.n_cols() {
        let (len, cap) = match loaded.column(i) {
            ColumnData::Int(v) => (v.len(), v.capacity()),
            ColumnData::Float(v) => (v.len(), v.capacity()),
            ColumnData::Str(v) => (v.len(), v.capacity()),
        };
        assert_eq!((len, cap), (rows, rows), "column {i}");
    }
    let table = loaded.mem_size();
    assert!(
        resident <= table + table / 100,
        "resident {resident} B, mem_size {table} B"
    );
    let executors = ringo::concurrent::Pool::global().workers() + 1;
    let bound = table + executors * per_executor + (1 << 20);
    assert!(
        transient <= bound,
        "transient {transient} B > {bound} B (table {table} B, file {file_bytes} B)"
    );
    assert!(
        file_bytes > 2 * (bound - table),
        "a {file_bytes} B file cannot tell the bound from table + file"
    );
    loaded
}

#[test]
fn memory_scales_with_the_table_not_table_plus_file() {
    let _serial = serial();
    let ringo = Ringo::with_threads(2);
    let generated = ringo.generate_stackoverflow(&StackOverflowConfig {
        questions: 150_000,
        answers: 250_000,
        users: 60_000,
        seed: 14,
        ..StackOverflowConfig::default()
    });
    let path = tmpfile("posts.tsv");
    ringo.save_table_tsv(&generated, &path).unwrap();
    // Eight distinct strings: an executor holds a chunk, the spill of its
    // last line, and a dictionary of a few bytes.
    let loaded = load_within(&path, &posts_schema(), 400_000, CHUNK + (64 << 10));
    std::fs::remove_file(&path).ok();
    let (got, want) = (loaded.mem_size(), generated.mem_size());
    assert!(
        got.abs_diff(want) * 100 <= want,
        "loaded {got} B, generated {want} B"
    );
}

#[test]
fn memory_does_not_grow_with_the_number_of_chunk_dictionaries() {
    let _serial = serial();
    // 50,000 user names, most of them met again in every chunk: each chunk's
    // dictionary holds ≈35,000 strings, and what all 35 chunks' dictionaries
    // hold together is about the size of the file's Str column.
    let (rows, users) = (2_100_000, 50_000u64);
    let user = |r: usize| ((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % users;
    let path = tmpfile("users.tsv");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    for r in 0..rows {
        writeln!(w, "{r}\tuser{}", user(r)).unwrap();
    }
    drop(w);
    let schema = Schema::new([("id", ColumnType::Int), ("user", ColumnType::Str)]);
    // Per executor: the chunk, a dictionary of the chunk's distinct
    // strings — their text, offsets, hash slots and symbol map, here
    // ≈2 MiB — and a finished chunk's dictionary waiting for its turn to
    // merge (dictionaries merge in chunk order). The table stores no row
    // ids, so the load peaks mid-load, while these are alive: 3.8–4.5 MiB
    // an executor above the table on 2 workers, over 4 × CHUNK in some
    // runs. The row count keeps the file over twice the allowance.
    let loaded = load_within(&path, &schema, rows, 5 * CHUNK);
    assert_eq!(loaded.pool().len(), 1 + users as usize);

    let ids = loaded.int_col("id").unwrap();
    assert!(ids.iter().enumerate().all(|(r, &id)| id == r as i64));
    for r in (0..rows).step_by(997) {
        let want = ringo::Value::Str(format!("user{}", user(r)));
        assert_eq!(loaded.get(r, "user").unwrap(), want, "row {r}");
    }
    // Dictionaries are taken in chunk order whichever worker finishes
    // first: one worker gives the same symbols.
    let alone = Ringo::with_threads(1)
        .load_table_tsv(&schema, &path)
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(pool_strings(&alone), pool_strings(&loaded));
    assert_same_cells(&alone, &loaded, true);
}
