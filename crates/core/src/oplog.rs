//! The per-facade op-log: a bounded record of every verb issued through a
//! [`crate::Ringo`] context.
//!
//! This is the reproduction of the paper's §4.1 interactive-demo
//! experience, where every Python verb printed its runtime: each facade
//! call appends one [`OpRecord`] with its parameters, input/output
//! cardinality, latency, and allocator deltas. Unlike `ringo-trace` spans
//! (process-global, off by default), the op-log is always on and scoped to
//! the facade instance — clones of a `Ringo` share one log, so a shell and
//! its helpers see a single operation history. Recording costs one mutex
//! lock and a few string bytes per *facade verb* (not per row), which is
//! noise next to any real operator.
//!
//! The record is the verb's whole profile: a lazy query's record also
//! carries its executed plan ([`OpRecord::plan`]), which is what
//! `explain_analyze` renders.

use ringo_table::exec::NodeStat;
use ringo_trace::mem;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Maximum records retained; older operations are dropped first.
pub const OP_LOG_CAPACITY: usize = 1024;

/// One completed facade operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Position in this facade's history (monotonic, survives trimming).
    pub seq: u64,
    /// Verb name, e.g. `"join"` or `"to_graph"`.
    pub name: &'static str,
    /// Human-readable parameter summary, e.g. `"on AcceptedAnswerId = PostId"`.
    pub params: String,
    /// Input cardinality (rows, or edges for graph inputs).
    pub rows_in: u64,
    /// Output cardinality (rows, edges, or result length).
    pub rows_out: u64,
    /// Wall time of the operation.
    pub wall: Duration,
    /// Net allocator delta (bytes; 0 unless the tracking allocator is
    /// installed as the global allocator).
    pub mem_delta: i64,
    /// How much the operation raised the process-wide peak-heap
    /// high-water mark (bytes).
    pub mem_peak_delta: u64,
    /// What a `"query"`'s scan and each of its steps did, in step order,
    /// ending with `collect` (empty for every other verb).
    pub plan: Vec<NodeStat>,
    /// Gather passes a `"query"` ran (0 or 1; 0 for every other verb).
    pub gathers: u32,
}

impl OpRecord {
    /// Times `f` and, when it succeeds, returns its result with the record
    /// describing the call: wall time and allocator deltas measured here,
    /// `params`/`rows_out`/`plan` left for the caller to fill in from the
    /// result. Not pushed anywhere — see [`OpLog::run`].
    pub(crate) fn measure<T, E>(
        name: &'static str,
        rows_in: usize,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, OpRecord), E> {
        let mem_start = mem::current_bytes();
        let peak_start = mem::peak_bytes();
        let start = std::time::Instant::now();
        let out = f()?;
        let wall = start.elapsed();
        let record = OpRecord {
            seq: 0,
            name,
            params: String::new(),
            rows_in: rows_in as u64,
            rows_out: 0,
            wall,
            mem_delta: mem::current_bytes() as i64 - mem_start as i64,
            mem_peak_delta: mem::peak_bytes().saturating_sub(peak_start) as u64,
            plan: Vec::new(),
            gathers: 0,
        };
        Ok((out, record))
    }
}

/// Shared, bounded operation history. Cheap to clone (an `Arc`).
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    next_seq: u64,
    records: std::collections::VecDeque<OpRecord>,
}

impl OpLog {
    /// Appends a record, trimming to [`OP_LOG_CAPACITY`]. The record's
    /// `seq` is assigned by the log (whatever the caller set is ignored).
    pub fn push(&self, mut record: OpRecord) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        record.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.records.len() == OP_LOG_CAPACITY {
            inner.records.pop_front();
        }
        inner.records.push_back(record);
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<OpRecord> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Drops all retained records (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .clear();
    }

    /// Times `f` ([`OpRecord::measure`]), appends a record with the output
    /// cardinality extracted from the result by `card`, and returns the
    /// result. Used by every facade verb — infallible ones wrap their
    /// result in `Ok`; errors propagate without logging (a failed verb
    /// produced nothing to describe).
    pub(crate) fn run<T, E>(
        &self,
        name: &'static str,
        params: String,
        rows_in: usize,
        card: impl FnOnce(&T) -> usize,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let (out, mut record) = OpRecord::measure(name, rows_in, f)?;
        (record.params, record.rows_out) = (params, card(&out) as u64);
        self.push(record);
        Ok(out)
    }
}

/// Per-verb aggregate over an op-log, as shown by the shell's `timings`.
#[derive(Clone, Debug)]
pub struct OpTiming {
    /// Verb name.
    pub name: &'static str,
    /// Number of calls.
    pub calls: u64,
    /// Total wall time across calls.
    pub total: Duration,
    /// Largest single-call wall time.
    pub max: Duration,
    /// Sum of net allocator deltas (bytes).
    pub mem_delta: i64,
    /// Largest single-call peak-heap raise (bytes).
    pub max_peak_delta: u64,
}

/// Aggregates records per verb, sorted by descending total time.
pub fn aggregate(records: &[OpRecord]) -> Vec<OpTiming> {
    let mut by_name: Vec<OpTiming> = Vec::new();
    for r in records {
        match by_name.iter_mut().find(|t| t.name == r.name) {
            Some(t) => {
                t.calls += 1;
                t.total += r.wall;
                t.max = t.max.max(r.wall);
                t.mem_delta += r.mem_delta;
                t.max_peak_delta = t.max_peak_delta.max(r.mem_peak_delta);
            }
            None => by_name.push(OpTiming {
                name: r.name,
                calls: 1,
                total: r.wall,
                max: r.wall,
                mem_delta: r.mem_delta,
                max_peak_delta: r.mem_peak_delta,
            }),
        }
    }
    by_name.sort_by_key(|t| std::cmp::Reverse(t.total));
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, params: &str, rows_in: u64, rows_out: u64) -> OpRecord {
        OpRecord {
            seq: 0,
            name,
            params: params.to_string(),
            rows_in,
            rows_out,
            wall: Duration::from_nanos(1),
            mem_delta: 0,
            mem_peak_delta: 0,
            plan: Vec::new(),
            gathers: 0,
        }
    }

    #[test]
    fn log_is_bounded_and_ordered() {
        let log = OpLog::default();
        for i in 0..OP_LOG_CAPACITY + 5 {
            log.push(rec("op", &format!("call {i}"), i as u64, 0));
        }
        let records = log.records();
        assert_eq!(records.len(), OP_LOG_CAPACITY);
        assert_eq!(records.first().unwrap().seq, 5, "oldest trimmed");
        assert_eq!(records.last().unwrap().seq, (OP_LOG_CAPACITY + 4) as u64);
        log.clear();
        assert!(log.records().is_empty());
        log.push(rec("op", "", 0, 0));
        assert_eq!(
            log.records()[0].seq,
            (OP_LOG_CAPACITY + 5) as u64,
            "sequence survives clear"
        );
    }

    #[test]
    fn clones_share_one_log() {
        let a = OpLog::default();
        let b = a.clone();
        a.push(rec("x", "", 1, 2));
        assert_eq!(b.records().len(), 1);
    }

    #[test]
    fn aggregate_sums_per_verb() {
        let log = OpLog::default();
        log.push(OpRecord {
            wall: Duration::from_millis(2),
            mem_delta: 100,
            mem_peak_delta: 50,
            ..rec("join", "a", 10, 5)
        });
        log.push(OpRecord {
            wall: Duration::from_millis(3),
            mem_delta: -40,
            mem_peak_delta: 80,
            ..rec("join", "b", 20, 9)
        });
        log.push(OpRecord {
            wall: Duration::from_millis(1),
            ..rec("select", "c", 9, 1)
        });
        let agg = aggregate(&log.records());
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].name, "join", "sorted by total time desc");
        assert_eq!(agg[0].calls, 2);
        assert_eq!(agg[0].total, Duration::from_millis(5));
        assert_eq!(agg[0].mem_delta, 60);
        assert_eq!(agg[0].max_peak_delta, 80);
    }
}
