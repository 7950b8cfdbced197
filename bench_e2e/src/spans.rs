//! Bench-owned spans around every facade call, and their roll-up by layer.
//!
//! The engine's own `ringo_trace` stays off: everything here is observed
//! from outside, one span per verb tagged with the crate that owns the
//! verb. A session span parents its verbs and a compound verb (the
//! 16-probe loop, one churn step) parents its calls, so a span's *self
//! time* — its duration minus the time its children cover — partitions
//! the session exactly: layer self times plus the self time of the
//! session and compound spans (`unattributed`) sum to the session wall.

use crate::json::Json;
use std::time::{Duration, Instant};

/// The layer a verb belongs to: one per engine crate that is separable
/// from outside. `crates/concurrent` and `crates/trace` are not — their
/// time is inside their callers' spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `crates/table/src/io.rs`: `load_table_tsv`.
    Io,
    /// `crates/table` operators, eager or through `crates/core/src/query.rs`.
    Table,
    /// `crates/convert`: table ↔ graph and scores → table.
    Convert,
    /// `crates/algo` kernels.
    Algo,
    /// `crates/graph`: cloning and mutating a `DirectedGraph`.
    Graph,
    /// `crates/core/src/catalog.rs`: publish, get, snapshot, gc.
    Core,
    /// A session or compound span: bench glue, whose self time is what the
    /// layers do not explain.
    Glue,
}

impl Layer {
    /// The engine layers, in report order (`Glue` is not one).
    pub const ENGINE: [Layer; 6] = [
        Layer::Io,
        Layer::Table,
        Layer::Convert,
        Layer::Algo,
        Layer::Graph,
        Layer::Core,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Io => "io",
            Layer::Table => "table",
            Layer::Convert => "convert",
            Layer::Algo => "algo",
            Layer::Graph => "graph",
            Layer::Core => "core",
            Layer::Glue => "glue",
        }
    }
}

/// One timed interval. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for a session span.
    pub parent: Option<u32>,
    pub session: u32,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work taken and produced, in the layer's unit (bytes and rows for
    /// io, rows for table, rows and edges for convert, edges for algo,
    /// mutations for graph, versions for core); 0 on compound spans.
    pub items_in: u64,
    pub items_out: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(f64::from(self.id))),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("session", Json::Num(f64::from(self.session))),
            ("name", Json::str(self.name)),
            ("layer", Json::str(self.layer.name())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("items_in", Json::Num(self.items_in as f64)),
            ("items_out", Json::Num(self.items_out as f64)),
        ])
    }
}

/// What a session reports about one verb's output, for the checks that run
/// after the clock stops.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    pub verb: &'static str,
    pub value: u64,
}

/// Collects spans (when tracing) and observations (always) for the
/// sessions of one workload. With tracing off a verb is a plain call: no
/// clock is read between the session's first call and its last result.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    session: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub observations: Vec<Observation>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            tracing: false,
            epoch: Instant::now(),
            session: 0,
            open: Vec::new(),
            // Room for every span of a traced pass, so recording a span
            // never grows the vector inside a timed window.
            spans: Vec::with_capacity(4096),
            observations: Vec::with_capacity(64),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs one session, traced or not, and returns its wall time. The
    /// observations of the previous session are discarded first.
    pub fn session(&mut self, traced: bool, f: impl FnOnce(&mut Recorder)) -> Duration {
        self.observations.clear();
        self.session += 1;
        self.tracing = traced;
        let wall = if traced {
            let at = self.spans.len();
            self.verb("session", Layer::Glue, 0, |rec| (f(rec), 0));
            Duration::from_nanos(self.spans[at].duration_ns())
        } else {
            let start = Instant::now();
            f(self);
            start.elapsed()
        };
        self.tracing = false;
        wall
    }

    /// Runs one verb. `f` returns what the session keeps and the verb's
    /// output size; a result the session does not keep is dropped inside
    /// `f`, so freeing it is part of the verb's time.
    pub fn verb<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        items_in: u64,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        if !self.tracing {
            return f(self).0;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            session: self.session,
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            items_in,
            items_out: 0,
        });
        self.open.push(id);
        let start_ns = self.now_ns();
        let (kept, items_out) = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        (span.start_ns, span.end_ns, span.items_out) = (start_ns, end_ns, items_out);
        kept
    }

    /// [`Recorder::verb`], then notes the verb's output size as the fact to
    /// check about it.
    pub fn checked<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        items_in: u64,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        let mut items_out = 0;
        let kept = self.verb(name, layer, items_in, |rec| {
            let (kept, n) = f(rec);
            items_out = n;
            (kept, n)
        });
        self.observe(name, items_out);
        kept
    }

    /// Frees a result that later verbs needed, charged to the layer that
    /// produced it.
    pub fn release<T>(&mut self, name: &'static str, layer: Layer, value: T) {
        self.verb(name, layer, 0, |_| (drop(value), 0));
    }

    /// Notes a fact about the verb just run, to be checked after the
    /// session.
    pub fn observe(&mut self, verb: &'static str, value: u64) {
        self.observations.push(Observation { verb, value });
    }
}

/// Self time of every span: its duration minus its children's, indexed by
/// span id.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// One layer's share of one session.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerUse {
    pub calls: u64,
    pub busy_ns: u64,
    pub items_in: u64,
    pub items_out: u64,
}

/// One traced session split by layer.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRollup {
    pub session: u32,
    pub wall_ns: u64,
    /// Indexed like [`Layer::ENGINE`].
    pub layers: [LayerUse; 6],
    /// Self time of the session span and of compound spans.
    pub unattributed_ns: u64,
}

/// Rolls `spans` up into one [`SessionRollup`] per session span.
pub fn rollup(spans: &[Span]) -> Vec<SessionRollup> {
    let own = self_times_ns(spans);
    let mut sessions: Vec<SessionRollup> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| SessionRollup {
            session: s.session,
            wall_ns: s.duration_ns(),
            layers: Default::default(),
            unattributed_ns: 0,
        })
        .collect();
    for span in spans {
        let roll = sessions
            .iter_mut()
            .find(|r| r.session == span.session)
            .expect("every span lies inside a session span");
        match Layer::ENGINE.iter().position(|&l| l == span.layer) {
            Some(i) => {
                let layer = &mut roll.layers[i];
                layer.calls += 1;
                layer.busy_ns += own[span.id as usize];
                layer.items_in += span.items_in;
                layer.items_out += span.items_out;
            }
            None => roll.unattributed_ns += own[span.id as usize],
        }
    }
    sessions
}

/// The trace file's content: every span of a workload's traced sessions.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("time_unit", Json::str("ns since the recorder was made")),
        (
            "spans",
            Json::Arr(spans.iter().map(Span::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: "x",
            layer,
            start_ns,
            end_ns,
            items_in: 10,
            items_out: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, None, Layer::Glue, 0, 100),    // session
            span(1, Some(0), Layer::Table, 5, 25), // sibling a
            span(2, Some(0), Layer::Glue, 30, 90), // compound sibling b
            span(3, Some(2), Layer::Algo, 32, 50), //   child of b
            span(4, Some(2), Layer::Algo, 55, 85), //   child of b
            span(5, Some(4), Layer::Core, 60, 70), //     grandchild
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 12, 18, 20, 10]);
    }

    #[test]
    fn layers_and_unattributed_sum_to_the_session() {
        let spans = [
            span(0, None, Layer::Glue, 0, 100),
            span(1, Some(0), Layer::Table, 5, 25),
            span(2, Some(0), Layer::Glue, 30, 90),
            span(3, Some(2), Layer::Algo, 32, 50),
            span(4, Some(2), Layer::Algo, 55, 85),
            span(5, Some(4), Layer::Core, 60, 70),
        ];
        let rolls = rollup(&spans);
        assert_eq!(rolls.len(), 1);
        let roll = &rolls[0];
        let busy: u64 = roll.layers.iter().map(|l| l.busy_ns).sum();
        assert_eq!(busy + roll.unattributed_ns, roll.wall_ns);
        assert_eq!(roll.unattributed_ns, 20 + 12);
        let algo = &roll.layers[3];
        assert_eq!((algo.calls, algo.busy_ns, algo.items_in), (2, 38, 20));
        assert_eq!(roll.layers[0], LayerUse::default(), "io unused");
    }

    #[test]
    fn recorder_builds_the_span_tree_only_when_tracing() {
        let mut rec = Recorder::new();
        let body = |rec: &mut Recorder| {
            let kept = rec.verb("load", Layer::Io, 7, |_| (vec![1u8, 2, 3], 3));
            rec.verb("probes", Layer::Glue, 0, |rec| {
                for _ in 0..2 {
                    rec.verb("bfs", Layer::Algo, 5, |_| ((), 4));
                }
                ((), 0)
            });
            rec.observe("load", kept.len() as u64);
            rec.release("drop load", Layer::Io, kept);
        };
        rec.session(false, body);
        assert!(rec.spans.is_empty());
        assert_eq!(
            rec.observations,
            [Observation {
                verb: "load",
                value: 3
            }]
        );

        let wall = rec.session(true, body);
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("session", None),
                ("load", Some(0)),
                ("probes", Some(0)),
                ("bfs", Some(2)),
                ("bfs", Some(2)),
                ("drop load", Some(0)),
            ]
        );
        assert!(rec.spans.iter().all(|s| s.session == 2));
        assert_eq!(rec.spans[1].items_out, 3);
        assert_eq!(rec.observations.len(), 1, "cleared per session");
        let rolls = rollup(&rec.spans);
        let busy: u64 = rolls[0].layers.iter().map(|l| l.busy_ns).sum();
        assert_eq!(busy + rolls[0].unattributed_ns, rolls[0].wall_ns);
        assert_eq!(u128::from(rolls[0].wall_ns), wall.as_nanos());
    }

    #[test]
    fn trace_json_parses_back() {
        use ringo_core::trace::json::{parse, JsonValue};
        let spans = [
            span(0, None, Layer::Glue, 0, 9),
            span(1, Some(0), Layer::Io, 1, 8),
        ];
        let text = trace_json("w", 42, &spans).render();
        let doc = parse(&text).expect("trace parses");
        let arr = doc.get("spans").and_then(JsonValue::as_arr).expect("spans");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("parent"), Some(&JsonValue::Null));
        assert_eq!(arr[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(arr[1].get("layer").and_then(JsonValue::as_str), Some("io"));
        assert_eq!(arr[1].get("end_ns").and_then(JsonValue::as_u64), Some(8));
    }
}
