//! Lint configuration: lookback window, per-lint allowlists, the knob
//! inventory, and the synthetic-metric registry.
//!
//! Policy (PR 4 style, enforced mechanically by the lints themselves):
//! allowlists are **shrink-only** — every entry records the reason the
//! audit concluded the site is fine, and an entry that no longer
//! suppresses anything is reported as a stale-allowlist finding, so the
//! lists can only get shorter as code improves.
//!
//! [`Config::project`] is the one place Ringo's own tables live. The
//! literal-scanning lints (`env-knob-registry`, `metric-registry`) skip
//! this file (see [`Config::scan_exempt`]): the inventory necessarily
//! *names* every knob, and letting it satisfy its own freshness check
//! would make the registry unfalsifiable.

/// Everything a lint run can be parameterized on.
#[derive(Clone, Debug)]
pub struct Config {
    /// How many lines above a flagged site an annotation comment may
    /// sit (shared by the SAFETY and ORDERING lints).
    pub lookback: usize,
    /// Files whose `.unwrap()` / `.expect(` uses have been audited:
    /// `(workspace-relative path, audit conclusion)`.
    pub unwrap_allow: Vec<(String, String)>,
    /// Where `thread::spawn` / `thread::Builder` may appear. An entry
    /// ending in `/` matches a directory prefix, otherwise exact file.
    pub thread_spawn_allow: Vec<String>,
    /// Metric names legitimately recorded from more than one call site:
    /// `(name, reason)`.
    pub shared_metric_allow: Vec<(String, String)>,
    /// Metric names that exist only at export time (never registered
    /// through `span!`/`counter`): `(name, reason)`. They satisfy CI
    /// cross-checks; freshness requires the literal to still appear in
    /// library source.
    pub synthetic_metrics: Vec<(String, String)>,
    /// The complete `RINGO_*` knob inventory: `(name, description)`.
    /// `ringo-lint --knobs` prints it; the env-knob lint enforces that
    /// it exactly matches the knobs read by library code and that every
    /// entry appears in README's knob table.
    pub knob_inventory: Vec<(String, String)>,
    /// `Release`-side atomic writes allowed to have no `Acquire`-side
    /// partner in their crate: `("crate-dir::field", reason)` — e.g.
    /// when the acquire side lives in another crate or behind a fence.
    pub release_pair_allow: Vec<(String, String)>,
    /// Files excluded from the literal-scanning lints (the config
    /// itself, which must name every knob and shared metric).
    pub scan_exempt: Vec<String>,
}

impl Config {
    /// An empty configuration: no allowlists, default lookback. The
    /// fixture tests run against this so every trip fixture trips.
    pub fn empty() -> Self {
        Self {
            lookback: 10,
            unwrap_allow: Vec::new(),
            thread_spawn_allow: Vec::new(),
            shared_metric_allow: Vec::new(),
            synthetic_metrics: Vec::new(),
            knob_inventory: Vec::new(),
            release_pair_allow: Vec::new(),
            scan_exempt: Vec::new(),
        }
    }

    /// Ringo's own configuration — the audited allowlists and the knob
    /// inventory for this workspace.
    pub fn project() -> Self {
        let own = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
                .collect()
        };
        Self {
            lookback: 10,
            unwrap_allow: own(UNWRAP_ALLOWLIST),
            thread_spawn_allow: THREAD_SPAWN_ALLOW.iter().map(|s| (*s).to_owned()).collect(),
            shared_metric_allow: own(SHARED_METRIC_ALLOW),
            synthetic_metrics: own(SYNTHETIC_METRICS),
            knob_inventory: own(KNOB_INVENTORY),
            release_pair_allow: own(RELEASE_PAIR_ALLOW),
            scan_exempt: vec!["crates/lint/src/config.rs".to_owned()],
        }
    }
}

/// Files whose `.unwrap()` / `.expect(` uses have been audited, with the
/// audit's conclusion (carried over from the PR 4 gate; the freshness
/// lint keeps it shrink-only).
const UNWRAP_ALLOWLIST: &[(&str, &str)] = &[
    // Traversal/algorithm kernels: every use is an `expect` naming a loop
    // invariant established by the surrounding code (queued slots are
    // live, popped nodes have distances, neighbors exist in the graph).
    (
        "crates/algo/src/bfs.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/components.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/connectivity.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/frontier.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/independent.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/ktruss.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/random_walk.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/sssp.rs",
        "invariant expects in kernel loops",
    ),
    (
        "crates/algo/src/traversal.rs",
        "invariant expects in kernel loops",
    ),
    // Lock-free/parallel kernels: occupied-slot and just-inserted expects
    // in the sequential table, chunk-fill expects in parallel_map, and
    // the pool's lock/spawn failures which are fatal by design.
    (
        "crates/concurrent/src/hash_table.rs",
        "occupied-slot invariants",
    ),
    ("crates/concurrent/src/parallel.rs", "chunk-fill invariant"),
    (
        "crates/concurrent/src/pool.rs",
        "poisoning/spawn failure is fatal",
    ),
    // Conversion layer: prefix-sum offsets (`last()` after a push) and
    // caller-validated equal-length column extraction.
    ("crates/convert/src/lib.rs", "prefix-sum/column invariants"),
    // Generators: fixed catalogs and self-consistent generated columns.
    ("crates/gen/src/catalog.rs", "fixed-catalog membership"),
    ("crates/gen/src/lib.rs", "generated columns are consistent"),
    (
        "crates/gen/src/stackoverflow.rs",
        "generated columns are consistent",
    ),
    // Graph mutation paths: an edit keeps the two orientations' rows (and
    // a weighted graph's weight rows) in sync, so the reverse entry is
    // there to find.
    (
        "crates/graph/src/directed.rs",
        "the two orientations' rows stay in sync and name live slots",
    ),
    (
        "crates/graph/src/transform.rs",
        "ids mapped / slab unshared in the same call",
    ),
    (
        "crates/graph/src/weighted.rs",
        "each weight row stays in sync with its out-row",
    ),
    // Weighted sampling table is non-empty by construction.
    ("crates/rng/src/lib.rs", "cumulative table non-empty"),
    // Table layer: summary columns built together stay consistent.
    (
        "crates/table/src/ops/describe.rs",
        "summary columns consistent",
    ),
    (
        "crates/table/src/strings.rs",
        "u32 symbol-space overflow is fatal",
    ),
    ("crates/table/src/table.rs", "single-column consistency"),
    // `fmt::Write` into `String` is infallible.
    (
        "crates/trace/src/json.rs",
        "write! into String is infallible",
    ),
    (
        "crates/trace/src/lib.rs",
        "write! into String is infallible",
    ),
];

/// Where `thread::spawn` / `thread::Builder` may appear: the worker
/// pool.
const THREAD_SPAWN_ALLOW: &[&str] = &["crates/concurrent/src/pool.rs"];

/// Metric names recorded from more than one call site on purpose.
const SHARED_METRIC_ALLOW: &[(&str, &str)] = &[
    (
        "plan.morsel.select",
        "count and fill passes of one selection kernel",
    ),
    (
        "plan.morsel.join",
        "build, probe, and materialize passes of one join kernel",
    ),
];

/// Names that exist only at export time.
const SYNTHETIC_METRICS: &[(&str, &str)] = &[
    (
        "trace.events.dropped",
        "ring-overwrite tally written by the report and JSON sinks",
    ),
    (
        "trace.events.recorded",
        "completed-span tally written by the report and JSON sinks",
    ),
];

/// The complete `RINGO_*` knob inventory. `ringo-lint --knobs` prints
/// this table; the env-knob lint fails if library code reads a knob not
/// listed here, if an entry is no longer read anywhere, or if README's
/// knob table omits an entry.
const KNOB_INVENTORY: &[(&str, &str)] = &[
    (
        "RINGO_MORSEL_ROWS",
        "parallel executor: rows per morsel (read once per process)",
    ),
    ("RINGO_THREADS", "worker pool: default worker count"),
    (
        "RINGO_TRACE_JSON",
        "trace: record spans and counters, JSON dump path at exit",
    ),
];

/// `Release` writes allowed to go unpaired within their crate.
const RELEASE_PAIR_ALLOW: &[(&str, &str)] = &[];
