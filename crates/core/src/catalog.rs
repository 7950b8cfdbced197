//! Versioned catalog of named tables and graphs: [`Catalog`].
//!
//! The paper's interactive workflow keeps many intermediate tables and
//! graphs alive at once ("secondary data structures are cheap to
//! recompute but expensive to lose"). A long-running session therefore
//! wants *snapshots*: a reader in the middle of a multi-collect analysis
//! must keep seeing the versions it started with, even while another
//! verb publishes replacements or compacts a graph's adjacency slabs.
//!
//! The catalog delivers that with the epoch machinery from
//! `ringo_concurrent::epoch`:
//!
//! * the whole namespace is one copy-on-write **root map**
//!   (`Arc<RootMap>`) held in a [`Versioned`] cell — a publish clones the
//!   map, inserts the new [`CatalogEntry`], and swings the root pointer;
//!   readers never block on it;
//! * [`Catalog::snapshot`] pins the current epoch ([`OwnedEpochGuard`])
//!   and clones the root `Arc` under the pin, so every name a
//!   [`Snapshot`] resolves — across any number of queries and algorithm
//!   runs — comes from one consistent version of the world;
//! * displaced root maps sit on the cell's retired list until
//!   [`Catalog::gc`] proves no pin predates them; because each root map
//!   holds strong `Arc`s to its datasets, a table or graph version stays
//!   alive exactly as long as some live or pinned root still names it;
//! * [`Catalog::compact_graph`] is **compaction-as-publish**: rewriting a
//!   mutated graph's adjacency into a fresh exact slab
//!   (`DirectedGraph::compact`) produces a new immutable version, which
//!   is published like any other — pinned readers keep traversing the
//!   old slabs untouched.
//!
//! Reclamation policy is a [`GcPolicy`]: `Auto` ([`Catalog::new`]) runs
//! a collection after every publish, `Manual` ([`Catalog::with_policy`])
//! defers entirely to explicit [`Catalog::gc`] calls.

use ringo_concurrent::epoch::{EpochDomain, OwnedEpochGuard, Versioned};
use ringo_graph::{CompactStats, DirectedGraph};
use ringo_table::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A named, versioned object in the catalog: a table or a directed
/// graph, shared immutably once published.
#[derive(Clone, Debug)]
pub enum Dataset {
    /// A published table version.
    Table(Arc<Table>),
    /// A published graph version.
    Graph(Arc<DirectedGraph>),
}

impl Dataset {
    /// The dataset's kind tag.
    pub fn kind(&self) -> DatasetKind {
        match self {
            Dataset::Table(_) => DatasetKind::Table,
            Dataset::Graph(_) => DatasetKind::Graph,
        }
    }

    /// Rows for a table, edges for a graph — the `ls` cardinality.
    pub fn cardinality(&self) -> u64 {
        match self {
            Dataset::Table(t) => t.n_rows() as u64,
            Dataset::Graph(g) => g.edge_count() as u64,
        }
    }

    /// The table, if this is one.
    pub fn as_table(&self) -> Option<&Arc<Table>> {
        match self {
            Dataset::Table(t) => Some(t),
            Dataset::Graph(_) => None,
        }
    }

    /// The graph, if this is one.
    pub fn as_graph(&self) -> Option<&Arc<DirectedGraph>> {
        match self {
            Dataset::Graph(g) => Some(g),
            Dataset::Table(_) => None,
        }
    }
}

/// Kind tag for [`Dataset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Relational table.
    Table,
    /// Directed graph.
    Graph,
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetKind::Table => write!(f, "table"),
            DatasetKind::Graph => write!(f, "graph"),
        }
    }
}

/// Metadata of one published version of a name.
#[derive(Clone, Debug)]
pub struct VersionMeta {
    /// Per-name version number, starting at 1.
    pub version: u64,
    /// Domain epoch at which this version became current.
    pub epoch: u64,
    /// Table or graph.
    pub kind: DatasetKind,
    /// Rows (table) or edges (graph).
    pub cardinality: u64,
}

/// One name's current binding inside a root map.
#[derive(Clone, Debug)]
struct CatalogEntry {
    meta: VersionMeta,
    data: Dataset,
}

/// The copy-on-write namespace: every publish installs a fresh map.
type RootMap = HashMap<String, CatalogEntry>;

/// Reclamation policy for displaced root maps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcPolicy {
    /// Collect after every publish (default).
    Auto,
    /// Only collect on explicit [`Catalog::gc`] calls.
    Manual,
}

/// Writer-side state, serialized under one lock so publishes are
/// read-modify-write atomic over the root map.
#[derive(Debug, Default)]
struct WriterState {
    /// Full publish history per name — metadata only (no strong `Arc`s),
    /// so lineage never extends a version's lifetime.
    lineage: HashMap<String, Vec<VersionMeta>>,
}

struct CatalogInner {
    domain: Arc<EpochDomain>,
    root: Versioned<Arc<RootMap>>,
    writer: Mutex<WriterState>,
    policy: GcPolicy,
}

/// A catalog of named versioned datasets with lock-free snapshot
/// readers. Cloning is cheap and clones share the same namespace (like
/// [`crate::Ringo`] clones sharing one op-log).
///
/// ```
/// use ringo_core::catalog::Catalog;
/// use ringo_core::Table;
///
/// let cat = Catalog::new();
/// cat.publish_table("posts", Table::from_int_column("id", vec![1, 2, 3]));
/// let snap = cat.snapshot();
/// // A later publish does not disturb the pinned snapshot.
/// cat.publish_table("posts", Table::from_int_column("id", vec![4]));
/// assert_eq!(snap.table("posts").unwrap().n_rows(), 3);
/// assert_eq!(cat.snapshot().table("posts").unwrap().n_rows(), 1);
/// ```
#[derive(Clone)]
pub struct Catalog {
    inner: Arc<CatalogInner>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog with its own epoch domain, collecting after every
    /// publish ([`GcPolicy::Auto`]).
    pub fn new() -> Self {
        Self::with_policy(GcPolicy::Auto)
    }

    /// An empty catalog with an explicit reclamation policy (tests force
    /// [`GcPolicy::Manual`] to observe retired versions).
    pub fn with_policy(policy: GcPolicy) -> Self {
        let domain = Arc::new(EpochDomain::new());
        Self {
            inner: Arc::new(CatalogInner {
                root: Versioned::new(Arc::clone(&domain), Arc::new(RootMap::new())),
                domain,
                writer: Mutex::new(WriterState::default()),
                policy,
            }),
        }
    }

    /// Publishes `table` as the new current version of `name`, returning
    /// its per-name version number. Readers holding a [`Snapshot`] keep
    /// seeing the version they pinned.
    pub fn publish_table(&self, name: &str, table: impl Into<Arc<Table>>) -> u64 {
        self.publish(name, Dataset::Table(table.into()))
    }

    /// Publishes `graph` as the new current version of `name`.
    pub fn publish_graph(&self, name: &str, graph: impl Into<Arc<DirectedGraph>>) -> u64 {
        self.publish(name, Dataset::Graph(graph.into()))
    }

    /// Publishes `data` under `name`: copy-on-write insert into a fresh
    /// root map, then a single `Release` pointer swing. Never blocks
    /// readers.
    pub fn publish(&self, name: &str, data: Dataset) -> u64 {
        let mut writer = lock(&self.inner.writer);
        let version = self.publish_locked(&mut writer, name, data);
        drop(writer);
        if self.inner.policy == GcPolicy::Auto {
            self.gc();
        }
        version
    }

    /// The publish body, with the writer lock already held — shared by
    /// [`publish`](Self::publish) and [`compact_graph`](Self::compact_graph),
    /// whose resolve→compact→publish sequence must hold the lock across
    /// all three steps to stay atomic against racing publishers.
    fn publish_locked(&self, writer: &mut WriterState, name: &str, data: Dataset) -> u64 {
        let mut sp = ringo_trace::span!("catalog.publish");
        let mut map = {
            let guard = self.inner.domain.pin();
            RootMap::clone(self.inner.root.load(&guard))
        };
        let history = writer.lineage.entry(name.to_string()).or_default();
        let version = history.len() as u64 + 1;
        let meta = VersionMeta {
            version,
            // The writer lock serializes every publish on this domain, so
            // the post-advance epoch of the swing below is exactly one
            // past the current reading.
            epoch: self.inner.domain.epoch() + 1,
            kind: data.kind(),
            cardinality: data.cardinality(),
        };
        history.push(meta.clone());
        map.insert(name.to_string(), CatalogEntry { meta, data });
        sp.rows_out(map.len());
        self.inner.root.publish(Arc::new(map));
        version
    }

    /// Removes `name` from the current namespace (a publish of a root
    /// map without it). Returns whether the name was bound. Lineage is
    /// kept, and pinned snapshots still resolve the name.
    pub fn remove(&self, name: &str) -> bool {
        let writer = lock(&self.inner.writer);
        let mut map = {
            let guard = self.inner.domain.pin();
            RootMap::clone(self.inner.root.load(&guard))
        };
        let existed = map.remove(name).is_some();
        if existed {
            self.inner.root.publish(Arc::new(map));
        }
        drop(writer);
        if existed && self.inner.policy == GcPolicy::Auto {
            self.gc();
        }
        existed
    }

    /// Pins the current epoch and returns a consistent view of every
    /// name. All resolution through the returned [`Snapshot`] — across a
    /// whole multi-collect session — reads the same version of the world,
    /// and [`Catalog::gc`] will not reclaim anything the pin protects.
    pub fn snapshot(&self) -> Snapshot {
        let guard = self.inner.domain.pin_owned();
        let root = Arc::clone(self.inner.root.load_owned(&guard));
        ringo_trace::counter("catalog.snapshot").add(1);
        Snapshot {
            epoch: guard.epoch(),
            _guard: guard,
            root,
        }
    }

    /// The current version of `name`, if bound (an unpinned point read;
    /// for multi-step consistency take a [`Catalog::snapshot`]).
    pub fn get(&self, name: &str) -> Option<Dataset> {
        let guard = self.inner.domain.pin();
        self.inner
            .root
            .load(&guard)
            .get(name)
            .map(|e| e.data.clone())
    }

    /// Every version ever published under `name`, oldest first
    /// (metadata only — history does not keep old data alive).
    pub fn versions(&self, name: &str) -> Vec<VersionMeta> {
        lock(&self.inner.writer)
            .lineage
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Current bindings, sorted by name — the shell's `ls`.
    pub fn list(&self) -> Vec<(String, VersionMeta)> {
        let guard = self.inner.domain.pin();
        let mut out: Vec<(String, VersionMeta)> = self
            .inner
            .root
            .load(&guard)
            .iter()
            .map(|(name, e)| (name.clone(), e.meta.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Compaction-as-publish: rewrites the current version of graph
    /// `name` into a fresh exactly-sized adjacency slab and publishes the
    /// result as a new version. Returns the new version number and the
    /// compaction accounting, or `None` when `name` is not a graph.
    ///
    /// Pinned snapshots keep traversing the old version's slabs; the
    /// dead ranges they hold go back to the allocator once the last such
    /// pin drops and [`Catalog::gc`] runs.
    pub fn compact_graph(&self, name: &str) -> Option<(u64, CompactStats)> {
        let mut sp = ringo_trace::span!("catalog.compact");
        // The writer lock is held across resolve→compact→publish: a
        // publish racing in between would otherwise be silently
        // overwritten by a compacted copy of the older topology (lost
        // update). Readers are unaffected — they never take this lock.
        let mut writer = lock(&self.inner.writer);
        let current = {
            let guard = self.inner.domain.pin();
            match self
                .inner
                .root
                .load(&guard)
                .get(name)
                .map(|e| e.data.clone())
            {
                Some(Dataset::Graph(g)) => g,
                _ => return None,
            }
        };
        // Clone-then-compact: surviving slab views clone as cheap `Arc`
        // bumps, and the rewrite binds the clone to a brand-new slab, so
        // the published version shares no mutable state with the old one.
        let mut rewritten = DirectedGraph::clone(&current);
        let stats = rewritten.compact();
        sp.rows_in(stats.before.footprint_bytes());
        sp.rows_out(stats.after.footprint_bytes());
        let version = self.publish_locked(&mut writer, name, Dataset::Graph(Arc::new(rewritten)));
        drop(writer);
        if self.inner.policy == GcPolicy::Auto {
            self.gc();
        }
        Some((version, stats))
    }

    /// Frees every displaced root map no pinned snapshot can still
    /// reach, returning how many were reclaimed. Dropping a root map
    /// drops its `Arc` references, so table and graph versions named by
    /// no newer root are freed here too.
    pub fn gc(&self) -> usize {
        let mut sp = ringo_trace::span!("catalog.gc");
        let freed = self.inner.root.gc();
        sp.rows_out(freed);
        freed
    }

    /// Root-map versions displaced but not yet reclaimed.
    pub fn retired_count(&self) -> usize {
        self.inner.root.retired_count()
    }

    /// Snapshots (pin slots) currently holding an epoch — the shell's
    /// "pinned readers" figure.
    pub fn pinned_readers(&self) -> usize {
        self.inner.domain.pinned_count()
    }

    /// The domain's current epoch (advances once per publish).
    pub fn epoch(&self) -> u64 {
        self.inner.domain.epoch()
    }

    /// The reclamation policy this catalog was built with.
    pub fn policy(&self) -> GcPolicy {
        self.inner.policy
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("epoch", &self.epoch())
            .field("entries", &self.list().len())
            .field("retired", &self.retired_count())
            .field("pinned_readers", &self.pinned_readers())
            .field("policy", &self.inner.policy)
            .finish()
    }
}

/// A pinned, consistent view of the catalog at one epoch.
///
/// Holds an [`OwnedEpochGuard`], so the epoch machinery keeps every
/// version this snapshot can reach alive until the snapshot drops —
/// [`Catalog::gc`] skips anything the pin protects. Resolve names with
/// [`Snapshot::table`] / [`Snapshot::graph`] and feed the borrows to
/// queries and algorithm verbs; every resolution sees the same world.
pub struct Snapshot {
    _guard: OwnedEpochGuard,
    root: Arc<RootMap>,
    epoch: u64,
}

impl Snapshot {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of names bound in this snapshot.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// Whether the snapshot holds no names.
    pub fn is_empty(&self) -> bool {
        self.root.is_empty()
    }

    /// Bound names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.root.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The dataset bound to `name` in this snapshot.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.root.get(name).map(|e| &e.data)
    }

    /// Version metadata of `name` in this snapshot.
    pub fn meta(&self, name: &str) -> Option<&VersionMeta> {
        self.root.get(name).map(|e| &e.meta)
    }

    /// The table bound to `name`, if it is one.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.get(name).and_then(Dataset::as_table)
    }

    /// The graph bound to `name`, if it is one.
    pub fn graph(&self, name: &str) -> Option<&Arc<DirectedGraph>> {
        self.get(name).and_then(Dataset::as_graph)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("entries", &self.root.len())
            .finish()
    }
}

/// Poison-swallowing lock helper: catalog state stays usable even if a
/// panicking thread held the writer lock (the map it was cloning never
/// got published).
fn lock(m: &Mutex<WriterState>) -> std::sync::MutexGuard<'_, WriterState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: i64) -> Table {
        Table::from_int_column("id", (0..n).collect())
    }

    #[test]
    fn publish_get_versions_roundtrip() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        assert_eq!(cat.publish_table("t", table(3)), 1);
        assert_eq!(cat.publish_table("t", table(5)), 2);
        let got = cat.get("t").expect("bound");
        assert_eq!(got.cardinality(), 5);
        assert_eq!(got.kind(), DatasetKind::Table);
        let vs = cat.versions("t");
        assert_eq!(vs.len(), 2);
        assert_eq!((vs[0].version, vs[0].cardinality), (1, 3));
        assert_eq!((vs[1].version, vs[1].cardinality), (2, 5));
        assert!(vs[1].epoch > vs[0].epoch, "epochs advance per publish");
        assert!(cat.get("missing").is_none());
        assert!(cat.versions("missing").is_empty());
    }

    #[test]
    fn snapshot_isolation_across_publishes() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        cat.publish_table("t", table(3));
        let snap = cat.snapshot();
        cat.publish_table("t", table(7));
        cat.publish_table("u", table(1));
        // The pinned snapshot still resolves the old world.
        assert_eq!(snap.table("t").expect("pinned version").n_rows(), 3);
        assert!(snap.get("u").is_none(), "name published after the pin");
        assert_eq!(snap.names(), vec!["t"]);
        // A fresh snapshot sees the new world.
        let now = cat.snapshot();
        assert_eq!(now.table("t").expect("current").n_rows(), 7);
        assert_eq!(now.names(), vec!["t", "u"]);
        assert!(now.epoch() > snap.epoch());
    }

    #[test]
    fn gc_never_reclaims_under_a_pin() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        cat.publish_table("t", table(2));
        let snap = cat.snapshot();
        cat.publish_table("t", table(4));
        cat.publish_table("t", table(6));
        assert_eq!(cat.retired_count(), 3, "three displaced roots");
        // The initial empty root was displaced *before* the pin, so it is
        // collectable; the two roots displaced after it are not.
        assert_eq!(cat.gc(), 1, "only the pre-pin root goes");
        assert_eq!(snap.table("t").expect("still alive").n_rows(), 2);
        assert_eq!(cat.gc(), 0, "pinned roots never reclaimed");
        drop(snap);
        assert_eq!(cat.gc(), 2);
        assert_eq!(cat.retired_count(), 0);
    }

    #[test]
    fn auto_policy_collects_behind_readers() {
        let cat = Catalog::with_policy(GcPolicy::Auto);
        cat.publish_table("t", table(1));
        cat.publish_table("t", table(2));
        assert_eq!(cat.retired_count(), 0, "auto gc keeps up with no pins");
        let snap = cat.snapshot();
        cat.publish_table("t", table(3));
        assert!(cat.retired_count() > 0, "pin blocks auto gc");
        drop(snap);
        cat.publish_table("t", table(4));
        assert_eq!(cat.retired_count(), 0, "drained once unpinned");
    }

    #[test]
    fn remove_unbinds_but_pins_survive() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        cat.publish_table("t", table(2));
        let snap = cat.snapshot();
        assert!(cat.remove("t"));
        assert!(!cat.remove("t"), "second remove is a no-op");
        assert!(cat.get("t").is_none());
        assert_eq!(snap.table("t").expect("pinned binding").n_rows(), 2);
        assert_eq!(cat.versions("t").len(), 1, "lineage survives remove");
    }

    #[test]
    fn list_reports_sorted_bindings() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        cat.publish_table("zeta", table(1));
        cat.publish_table("alpha", table(9));
        let ls = cat.list();
        let names: Vec<&str> = ls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(ls[0].1.cardinality, 9);
    }

    #[test]
    fn compact_graph_publishes_new_version() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        // Bulk-load a slab-backed graph, then delete edges to strand
        // dead slab ranges.
        let mut g = DirectedGraph::new();
        for i in 0..50i64 {
            g.add_edge(i, i + 1);
        }
        cat.publish_graph("g", g.clone());
        let snap = cat.snapshot();
        let (version, stats) = cat.compact_graph("g").expect("graph bound");
        assert_eq!(version, 2);
        assert_eq!(stats.after.dead_slab_bytes(), 0);
        // The snapshot still reads version 1; the new version is live.
        assert_eq!(snap.meta("g").expect("pinned").version, 1);
        assert_eq!(cat.snapshot().meta("g").expect("current").version, 2);
        let old = snap.graph("g").expect("pinned graph");
        let new = cat.get("g").and_then(|d| d.as_graph().cloned()).expect("g");
        assert_eq!(old.edge_count(), new.edge_count());
        assert!(cat.compact_graph("missing").is_none());
        cat.publish_table("t", table(1));
        assert!(cat.compact_graph("t").is_none(), "tables do not compact");
    }

    #[test]
    fn compact_never_loses_a_racing_publish() {
        // compact_graph holds the writer lock across resolve+compact+
        // publish. A publisher of strictly growing graphs racing a
        // compact loop must therefore leave a lineage whose cardinality
        // never decreases — a stale compact (the pre-fix race) would
        // re-publish a smaller, older topology after a bigger one.
        let cat = Catalog::with_policy(GcPolicy::Auto);
        let mut g = DirectedGraph::new();
        g.add_edge(0, 1);
        cat.publish_graph("g", g.clone());
        let publisher = {
            let cat = cat.clone();
            std::thread::spawn(move || {
                for i in 1..40i64 {
                    g.add_edge(i, i + 1);
                    cat.publish_graph("g", g.clone());
                }
            })
        };
        for _ in 0..40 {
            cat.compact_graph("g").expect("graph stays bound");
        }
        publisher.join().unwrap();
        let vs = cat.versions("g");
        for w in vs.windows(2) {
            assert!(
                w[1].cardinality >= w[0].cardinality,
                "version {} shrank from {} to {} edges: \
                 a compact published a stale topology",
                w[1].version,
                w[0].cardinality,
                w[1].cardinality
            );
        }
        assert_eq!(
            cat.get("g").expect("bound").cardinality(),
            40,
            "the newest topology wins"
        );
    }

    #[test]
    fn clones_share_one_namespace() {
        let cat = Catalog::with_policy(GcPolicy::Manual);
        let other = cat.clone();
        cat.publish_table("t", table(4));
        assert_eq!(other.get("t").expect("shared").cardinality(), 4);
        assert_eq!(other.epoch(), cat.epoch());
    }
}
