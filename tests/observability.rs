//! Integration tests for the observability layer: the global trace
//! registry fed from the worker pool, span nesting in the event ring, and
//! the facade op-log's view of an instrumented join.
//!
//! Trace state is process-global, so every test that mutates it
//! serializes through one lock and opens its own window with
//! `trace::reset()`.

use ringo::trace::{self, json::JsonValue};
use ringo::{ColumnType, Predicate, Ringo, Schema, Table, Value};
use std::sync::{Mutex, MutexGuard};

mod common;
use common::end_events;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter_value(name: &str) -> Option<u64> {
    trace::counters_snapshot()
        .into_iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
}

#[test]
fn pool_fed_counters_lose_no_updates() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();

    // Hammer one counter from every pool worker: 8 chunks x 50k adds. The
    // final value must be exact — an add is one atomic RMW, not racy.
    let per_chunk = 50_000u64;
    let c = trace::counter("test.pool_adds");
    ringo::concurrent::parallel_for(8, 8, |_, range| {
        for _ in range {
            for _ in 0..per_chunk {
                c.add(1);
            }
        }
    });
    assert_eq!(counter_value("test.pool_adds"), Some(8 * per_chunk));

    // The dispatch itself showed up in the pool's own wiring.
    assert!(counter_value("pool.jobs_dispatched").unwrap_or(0) >= 1);
    assert!(counter_value("pool.chunks_executed").unwrap_or(0) >= 2);
    trace::set_enabled(false);
}

#[test]
fn span_nesting_is_recorded_in_events() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();
    {
        let _outer = trace::span!("test.outer");
        {
            let _inner = trace::span!("test.inner");
        }
        let _sibling = trace::span!("test.sibling");
    }
    trace::set_enabled(false);

    let events = end_events();
    let depth_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no event for {name}"))
            .depth
    };
    assert_eq!(depth_of("test.outer"), 0);
    assert_eq!(depth_of("test.inner"), 1);
    assert_eq!(depth_of("test.sibling"), 1);
    // Spans finish inside-out: the inner event landed before the outer.
    let seq_of = |name: &str| events.iter().find(|e| e.name == name).unwrap().seq;
    assert!(seq_of("test.inner") < seq_of("test.outer"));
}

/// The JSON dump's `events` array is the timelines' completed spans: same
/// count, names and span ids, in `seq` order.
#[test]
fn json_events_are_the_timelines_end_events() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();
    {
        let _outer = trace::span!("test.json.outer");
        let _inner = trace::span!("test.json.inner");
    }
    ringo::concurrent::Pool::with_workers(2).run(4, &|_| {
        let _sp = trace::Span::enter("test.json.chunk");
    });
    trace::set_enabled(false);

    let doc = trace::json::parse(&trace::to_json()).expect("dump parses");
    let dumped: Vec<(String, u64, u64)> = doc
        .get("events")
        .and_then(JsonValue::as_arr)
        .expect("events array")
        .iter()
        .map(|e| {
            let num = |k| e.get(k).and_then(JsonValue::as_u64).expect(k);
            let name = e.get("name").and_then(JsonValue::as_str).expect("name");
            (name.to_owned(), num("span_id"), num("seq"))
        })
        .collect();
    let ends: Vec<(String, u64, u64)> = end_events()
        .into_iter()
        .map(|e| (e.name.to_owned(), e.span_id, e.seq))
        .collect();
    let named = |n: &str| dumped.iter().filter(|e| e.0 == n).count();
    assert_eq!(
        [
            named("test.json.outer"),
            named("test.json.inner"),
            named("test.json.chunk")
        ],
        [1, 1, 4]
    );
    assert_eq!(dumped, ends);
    assert!(dumped.windows(2).all(|w| w[0].2 < w[1].2), "seq order");
    // The nesting and the threads survive the dump: the inner span's
    // parent is the outer one, on the same thread, and every thread an
    // event names is listed with its name.
    let events = doc.get("events").and_then(JsonValue::as_arr).unwrap();
    let num = |e: &JsonValue, k| e.get(k).and_then(JsonValue::as_u64).expect(k);
    let event = |n: &str| {
        let named = |e: &&JsonValue| e.get("name").and_then(JsonValue::as_str) == Some(n);
        events.iter().find(named).expect(n)
    };
    let (outer, inner) = (event("test.json.outer"), event("test.json.inner"));
    assert_eq!(num(inner, "parent_id"), num(outer, "span_id"));
    assert_eq!(num(inner, "tid"), num(outer, "tid"));
    let threads = doc
        .get("threads")
        .and_then(JsonValue::as_arr)
        .expect("threads");
    let named_tids: Vec<u64> = threads
        .iter()
        .filter(|t| {
            t.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| !n.is_empty())
        })
        .map(|t| num(t, "tid"))
        .collect();
    for e in events {
        let tid = num(e, "tid");
        assert!(
            named_tids.contains(&tid),
            "tid {tid} has no named thread entry"
        );
    }
}

#[test]
fn instrumented_join_records_cardinalities() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();

    let ringo = Ringo::with_threads(2);
    let mut left = Table::new(Schema::new([
        ("k", ColumnType::Int),
        ("a", ColumnType::Int),
    ]));
    let mut right = Table::new(Schema::new([
        ("k", ColumnType::Int),
        ("b", ColumnType::Int),
    ]));
    for i in 0..100i64 {
        left.push_row(&[Value::Int(i % 10), Value::Int(i)]).unwrap();
    }
    for i in 0..10i64 {
        right.push_row(&[Value::Int(i), Value::Int(-i)]).unwrap();
    }
    let joined = ringo.join(&left, &right, "k", "k").unwrap();
    assert_eq!(joined.n_rows(), 100, "every left row matches one right key");
    trace::set_enabled(false);

    // The facade op-log saw the call with exact cardinalities.
    let records = ringo.op_log();
    let rec = records
        .iter()
        .find(|r| r.name == "join")
        .expect("join in op-log");
    assert_eq!(rec.rows_in, 110);
    assert_eq!(rec.rows_out, 100);
    assert!(rec.params.contains("k = k"));

    // And the engine-level span fed the global histogram and event ring.
    let hist = trace::histograms_snapshot()
        .into_iter()
        .find(|h| h.name == "table.join")
        .expect("table.join histogram");
    assert_eq!(hist.count, 1);
    let ev = end_events()
        .into_iter()
        .find(|e| e.name == "table.join")
        .expect("table.join event");
    assert_eq!(ev.rows_in, 110);
    assert_eq!(ev.rows_out, 100);
}

#[test]
fn k_core_reports_how_much_of_the_graph_it_walked() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();

    // A 4-clique with a two-node tail: both tail nodes start below 3, so
    // the only edge cut from a live node is the one into the clique.
    let mut g = ringo::UndirectedGraph::new();
    for a in 0..4i64 {
        for b in a + 1..4 {
            g.add_edge(a, b);
        }
    }
    g.add_edge(3, 4);
    g.add_edge(4, 5);
    let core = ringo::algo::k_core(&g, 3);
    trace::set_enabled(false);
    assert_eq!(core.node_count(), 4);

    let ev = end_events()
        .into_iter()
        .find(|e| e.name == "algo.kcore")
        .expect("algo.kcore event");
    assert_eq!((ev.rows_in, ev.rows_out), (6, 4));
    assert_eq!(counter_value("algo.kcore.removed"), Some(2));
    assert_eq!(counter_value("algo.kcore.cut"), Some(1));
}

#[test]
fn bfs_counts_the_row_entries_it_scanned() {
    let _l = lock();
    // Always on: the count is kept with tracing off.
    trace::set_enabled(false);
    let edges = ringo::gen::rmat(&ringo::gen::RmatConfig {
        scale: 12,
        edges: 40_000,
        seed: 3,
        ..Default::default()
    });
    let g =
        ringo::convert::table_to_graph(&ringo::gen::edges_to_table(&edges), "src", "dst").unwrap();
    let hub = g
        .node_ids()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .unwrap();
    let scanned = |threads, alpha, beta| {
        let before = trace::counter("algo.bfs.edges_scanned").get();
        let eng = ringo::algo::FrontierEngine::with_params(
            &g,
            ringo::Direction::Out,
            threads,
            alpha,
            beta,
        );
        assert!(eng.run(hub).is_some());
        trace::counter("algo.bfs.edges_scanned").get() - before
    };

    // One thread runs every level top-down and reads each reached row
    // whole: exactly the reached nodes' out-degrees.
    let reached = ringo::algo::bfs_distances(&g, hub, ringo::Direction::Out);
    let rows: u64 = reached
        .ids()
        .iter()
        .map(|&v| g.out_degree(v).unwrap() as u64)
        .sum();
    assert_eq!(scanned(1, 15, 18), rows);

    // Bottom-up levels stop each pull at the first frontier neighbour;
    // the count still repeats exactly at a fixed thread count.
    for (alpha, beta) in [(15, 18), (u64::MAX, u64::MAX)] {
        let first = scanned(2, alpha, beta);
        assert!(first > 0);
        assert_eq!(scanned(2, alpha, beta), first, "a={alpha} b={beta}");
    }
    assert_ne!(
        scanned(2, u64::MAX, u64::MAX),
        rows,
        "a forced bottom-up run reads other entries than the top-down one"
    );
}

#[test]
fn conversion_counts_the_rank_entries_it_compared() {
    let _l = lock();
    trace::set_enabled(true);
    trace::reset();
    // Per conversion: ids compared while ranking neighbours, entries
    // ranked (the out-slab alone: the in-slab is its transpose, and the
    // lookup that finds the sinks adds nothing), nodes.
    let convert = |edges: &[(i64, i64)]| {
        let before = trace::counter("convert.rank.scanned").get();
        let table = ringo::gen::edges_to_table(edges);
        let g = ringo::convert::table_to_graph(&table, "src", "dst").unwrap();
        let scanned = trace::counter("convert.rank.scanned").get() - before;
        (scanned, g.edge_count() as u64, g.node_count())
    };
    let rmat = ringo::gen::rmat(&ringo::gen::RmatConfig {
        scale: 12,
        edges: 40_000,
        seed: 3,
        ..Default::default()
    });
    let (scanned, entries, nodes) = convert(&rmat);
    assert!(
        entries <= scanned && scanned <= 2 * entries,
        "R-MAT: {scanned} compared for {entries} entries"
    );
    // One rank pass, of the out-slab: entries in, nodes out; then one
    // transpose of it into the in-slab: entries in, entries out.
    let fill: Vec<(String, u64, u64)> = end_events()
        .into_iter()
        .filter(|e| e.name == "convert.fill.rank" || e.name == "convert.fill.transpose")
        .map(|e| (e.name.to_string(), e.rows_in, e.rows_out))
        .collect();
    assert_eq!(
        fill,
        [
            ("convert.fill.rank".to_string(), entries, nodes as u64),
            ("convert.fill.transpose".to_string(), entries, entries),
        ]
    );

    // Two clusters 2^50 apart fill two buckets: the searches inside them
    // show up as many more ids compared per entry.
    let mut rng = ringo_rng::Rng64::new(9);
    let mut id = || rng.range_i64(0..2048) + (1 << 50) * rng.range_i64(0..2);
    let clustered: Vec<(i64, i64)> = (0..20_000).map(|_| (id(), id())).collect();
    let (scanned, entries, _) = convert(&clustered);
    trace::set_enabled(false);
    assert!(
        scanned > 4 * entries,
        "two clusters: {scanned} compared for {entries} entries"
    );
}

/// Every I/O verb leaves exactly one op-log record: loads count file
/// bytes in and rows (or edges) out; saves count rows (or edges) on both
/// sides.
#[test]
fn io_verbs_are_logged_once_each() {
    let _l = lock();
    let ringo = Ringo::with_threads(2);
    let dir = std::env::temp_dir();
    let path = |name: &str| dir.join(format!("ringo_obs_{}_{name}", std::process::id()));
    let bytes = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();

    let mut t = Table::new(Schema::new([("x", ColumnType::Int)]));
    for i in 0..30i64 {
        t.push_row(&[Value::Int(i)]).unwrap();
    }
    let tsv = path("t.tsv");
    ringo.save_table_tsv(&t, &tsv).unwrap();
    ringo.load_table_tsv(t.schema(), &tsv).unwrap();
    let tsv_bytes = bytes(&tsv);

    let g = ringo
        .to_graph(&ringo.generate_lj_like(0.001, 5), "src", "dst")
        .unwrap();
    let m = g.edge_count() as u64;
    let (txt, bin) = (path("g.txt"), path("g.bin"));
    ringo.save_graph(&g, &txt).unwrap();
    ringo.load_graph(&txt).unwrap();
    ringo.save_graph_binary(&g, &bin).unwrap();
    ringo.load_graph_binary(&bin).unwrap();
    let (txt_bytes, bin_bytes) = (bytes(&txt), bytes(&bin));
    for p in [&tsv, &txt, &bin] {
        std::fs::remove_file(p).ok();
    }

    let log = ringo.op_log();
    for (verb, rows_in, rows_out) in [
        ("save_table_tsv", 30, 30),
        ("load_table_tsv", tsv_bytes, 30),
        ("save_graph", m, m),
        ("load_graph", txt_bytes, m),
        ("save_graph_binary", m, m),
        ("load_graph_binary", bin_bytes, m),
    ] {
        let recs: Vec<_> = log.iter().filter(|r| r.name == verb).collect();
        assert_eq!(recs.len(), 1, "{verb}: one record");
        assert_eq!(
            (recs[0].rows_in, recs[0].rows_out),
            (rows_in, rows_out),
            "{verb}"
        );
    }
}

#[test]
fn op_log_works_with_tracing_disabled() {
    let _l = lock();
    trace::set_enabled(false);

    // The op-log is always on: verbs are recorded even when the global
    // trace layer is off (and the engine spans then record nothing).
    let ringo = Ringo::with_threads(1);
    let mut t = Table::new(Schema::new([("x", ColumnType::Int)]));
    for i in 0..50i64 {
        t.push_row(&[Value::Int(i)]).unwrap();
    }
    let kept = ringo
        .select(&t, &Predicate::int("x", ringo::Cmp::Lt, 25))
        .unwrap();
    assert_eq!(kept.n_rows(), 25);

    let timings = ringo.op_timings();
    let sel = timings.iter().find(|t| t.name == "select").unwrap();
    assert_eq!(sel.calls, 1);
    let rec = &ringo.op_log()[0];
    assert_eq!((rec.rows_in, rec.rows_out), (50, 25));
}
