//! Versioned catalog of named tables and graphs: [`Catalog`].
//!
//! The paper's interactive workflow keeps many intermediate tables and
//! graphs alive at once ("secondary data structures are cheap to
//! recompute but expensive to lose"). A long-running session therefore
//! wants *snapshots*: a reader in the middle of a multi-collect analysis
//! must keep seeing the versions it started with, even while another
//! verb publishes replacements or compacts a graph's adjacency slabs.
//!
//! The catalog delivers that with reference counting alone:
//!
//! * the whole namespace is one immutable **root** (`Arc<Root>`: an
//!   epoch and a name → `CatalogEntry` map) behind a mutex — a publish
//!   clones the map, inserts the new entry, and swaps the `Arc` in under
//!   the lock;
//! * [`Catalog::snapshot`] clones the root `Arc`, so every name a
//!   [`Snapshot`] resolves — across any number of queries and algorithm
//!   runs — comes from one consistent version of the world;
//! * because each root holds strong `Arc`s to its datasets, a table or
//!   graph version lives exactly as long as the current root or some
//!   snapshot still names it, and is freed when the last one drops;
//! * [`Catalog::compact_graph`] is **compaction-as-publish**: rewriting a
//!   mutated graph's adjacency into a fresh exact slab
//!   (`DirectedGraph::compact`) produces a new immutable version, which
//!   is published like any other — snapshots keep traversing the old
//!   slabs untouched.

use ringo_graph::{CompactStats, DirectedGraph};
use ringo_table::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

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
    /// Catalog epoch at which this version became current.
    pub epoch: u64,
    /// Table or graph.
    pub kind: DatasetKind,
    /// Rows (table) or edges (graph).
    pub cardinality: u64,
}

/// One name's current binding inside a root.
#[derive(Clone, Debug)]
struct CatalogEntry {
    meta: VersionMeta,
    data: Dataset,
}

/// The namespace at one epoch. Immutable once installed: every publish
/// or remove installs a fresh root.
#[derive(Debug)]
struct Root {
    /// 1 for an empty catalog, +1 per publish or remove.
    epoch: u64,
    map: HashMap<String, CatalogEntry>,
}

/// Writer-side state, serialized under one lock so publishes are
/// read-modify-write atomic over the root.
#[derive(Debug, Default)]
struct WriterState {
    /// Full publish history per name — metadata only (no strong `Arc`s),
    /// so lineage never extends a version's lifetime.
    lineage: HashMap<String, Vec<VersionMeta>>,
    /// Roots displaced by a publish or remove that were still alive at
    /// the last prune: held weakly, so they never extend a lifetime.
    displaced: Vec<Weak<Root>>,
    /// Displaced roots found dead by a prune and not yet reported by
    /// [`Catalog::gc`].
    died: usize,
}

impl WriterState {
    /// Drops the dead entries of `displaced`, counting them in `died`.
    fn prune(&mut self) {
        let before = self.displaced.len();
        self.displaced.retain(|w| w.strong_count() > 0);
        self.died += before - self.displaced.len();
    }
}

struct CatalogInner {
    root: Mutex<Arc<Root>>,
    writer: Mutex<WriterState>,
    /// Cloned into every [`Snapshot`]: its strong count, less this one,
    /// is the number of live snapshots.
    readers: Arc<()>,
}

/// A catalog of named versioned datasets with consistent snapshot
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
/// // A later publish does not disturb the snapshot.
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
    /// An empty catalog at epoch 1.
    pub fn new() -> Self {
        let root = Root {
            epoch: 1,
            map: HashMap::new(),
        };
        Self {
            inner: Arc::new(CatalogInner {
                root: Mutex::new(Arc::new(root)),
                writer: Mutex::new(WriterState::default()),
                readers: Arc::new(()),
            }),
        }
    }

    /// The current root. The root lock is held only for the `Arc` clone.
    fn current(&self) -> Arc<Root> {
        Arc::clone(&lock(&self.inner.root))
    }

    /// Publishes `table` as the new current version of `name`, returning
    /// its per-name version number. Readers holding a [`Snapshot`] keep
    /// seeing the version they took.
    pub fn publish_table(&self, name: &str, table: impl Into<Arc<Table>>) -> u64 {
        self.publish(name, Dataset::Table(table.into()))
    }

    /// Publishes `graph` as the new current version of `name`.
    pub fn publish_graph(&self, name: &str, graph: impl Into<Arc<DirectedGraph>>) -> u64 {
        self.publish(name, Dataset::Graph(graph.into()))
    }

    /// Publishes `data` under `name`: copy-on-write insert into a fresh
    /// root, installed by one swap under the root lock.
    pub fn publish(&self, name: &str, data: Dataset) -> u64 {
        let mut writer = lock(&self.inner.writer);
        self.publish_locked(&mut writer, name, data)
    }

    /// The publish body, with the writer lock already held — shared by
    /// [`publish`](Self::publish) and [`compact_graph`](Self::compact_graph),
    /// whose resolve→compact→publish sequence must hold the lock across
    /// all three steps to stay atomic against racing publishers.
    fn publish_locked(&self, writer: &mut WriterState, name: &str, data: Dataset) -> u64 {
        let mut sp = ringo_trace::span!("catalog.publish");
        let current = self.current();
        let mut map = current.map.clone();
        let history = writer.lineage.entry(name.to_string()).or_default();
        let version = history.len() as u64 + 1;
        let meta = VersionMeta {
            version,
            epoch: current.epoch + 1,
            kind: data.kind(),
            cardinality: data.cardinality(),
        };
        history.push(meta.clone());
        map.insert(name.to_string(), CatalogEntry { meta, data });
        sp.rows_out(map.len());
        self.install(writer, current, map);
        version
    }

    /// Installs `map` as the root after `current` and records `current`
    /// as displaced. The map is built before and `current` dropped after
    /// the root lock is held, so readers never wait on either.
    fn install(
        &self,
        writer: &mut WriterState,
        current: Arc<Root>,
        map: HashMap<String, CatalogEntry>,
    ) {
        let next = Arc::new(Root {
            epoch: current.epoch + 1,
            map,
        });
        // The writer lock rules out any other swap, so the displaced
        // root is `current`: the assignment only drops a count, and the
        // root itself is dropped with `current`, after the root lock.
        *lock(&self.inner.root) = next;
        writer.prune();
        writer.displaced.push(Arc::downgrade(&current));
    }

    /// Removes `name` from the current namespace (a publish of a root
    /// without it). Returns whether the name was bound. Lineage is kept,
    /// and snapshots taken earlier still resolve the name.
    pub fn remove(&self, name: &str) -> bool {
        let mut writer = lock(&self.inner.writer);
        let current = self.current();
        if !current.map.contains_key(name) {
            return false;
        }
        let mut map = current.map.clone();
        map.remove(name);
        self.install(&mut writer, current, map);
        true
    }

    /// A consistent view of every name: all resolution through the
    /// returned [`Snapshot`] — across a whole multi-collect session —
    /// reads the same version of the world, which stays alive until the
    /// snapshot drops.
    pub fn snapshot(&self) -> Snapshot {
        ringo_trace::counter("catalog.snapshot").add(1);
        Snapshot {
            root: self.current(),
            _reader: Arc::clone(&self.inner.readers),
        }
    }

    /// The current version of `name`, if bound (a point read; for
    /// multi-step consistency take a [`Catalog::snapshot`]).
    pub fn get(&self, name: &str) -> Option<Dataset> {
        self.current().map.get(name).map(|e| e.data.clone())
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
        let mut out: Vec<(String, VersionMeta)> = self
            .current()
            .map
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
    /// Snapshots keep traversing the old version's slabs; the dead
    /// ranges they hold go back to the allocator when the last snapshot
    /// holding the old version drops.
    pub fn compact_graph(&self, name: &str) -> Option<(u64, CompactStats)> {
        let mut sp = ringo_trace::span!("catalog.compact");
        // The writer lock is held across resolve→compact→publish: a
        // publish racing in between would otherwise be silently
        // overwritten by a compacted copy of the older topology (lost
        // update). Readers are unaffected — they never take this lock.
        let mut writer = lock(&self.inner.writer);
        let Some(Dataset::Graph(current)) = self.get(name) else {
            return None;
        };
        // Clone-then-compact: the clone is a few `Arc` bumps, and the
        // rewrite gives it brand-new slabs and offsets and no overlay, so
        // the published version shares no mutable state with the old one.
        let mut rewritten = DirectedGraph::clone(&current);
        drop(current);
        let stats = rewritten.compact();
        sp.rows_in(stats.before.footprint_bytes());
        sp.rows_out(stats.after.footprint_bytes());
        let version = self.publish_locked(&mut writer, name, Dataset::Graph(Arc::new(rewritten)));
        Some((version, stats))
    }

    /// How many displaced roots have died since the previous call. A
    /// root dies when it is displaced and the last snapshot holding it
    /// drops; its datasets named by no newer root are freed then, not
    /// here.
    pub fn gc(&self) -> usize {
        let mut sp = ringo_trace::span!("catalog.gc");
        let mut writer = lock(&self.inner.writer);
        writer.prune();
        let died = std::mem::take(&mut writer.died);
        ringo_trace::counter("catalog.reclaimed").add(died as u64);
        sp.rows_out(died);
        died
    }

    /// Displaced roots still alive, each held by some snapshot.
    pub fn retired_count(&self) -> usize {
        lock(&self.inner.writer)
            .displaced
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Live snapshots — the shell's "pinned readers" figure.
    pub fn pinned_readers(&self) -> usize {
        Arc::strong_count(&self.inner.readers) - 1
    }

    /// The current root's epoch (advances once per publish or remove).
    pub fn epoch(&self) -> u64 {
        lock(&self.inner.root).epoch
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("epoch", &self.epoch())
            .field("entries", &self.list().len())
            .field("retired", &self.retired_count())
            .field("pinned_readers", &self.pinned_readers())
            .finish()
    }
}

/// A consistent view of the catalog at one epoch.
///
/// Holds the root it was taken from, so every version it can reach stays
/// alive until the snapshot drops. Resolve names with
/// [`Snapshot::table`] / [`Snapshot::graph`] and feed the borrows to
/// queries and algorithm verbs; every resolution sees the same world.
pub struct Snapshot {
    root: Arc<Root>,
    _reader: Arc<()>,
}

impl Snapshot {
    /// The epoch of the root this snapshot reads.
    pub fn epoch(&self) -> u64 {
        self.root.epoch
    }

    /// Number of names bound in this snapshot.
    pub fn len(&self) -> usize {
        self.root.map.len()
    }

    /// Whether the snapshot holds no names.
    pub fn is_empty(&self) -> bool {
        self.root.map.is_empty()
    }

    /// Bound names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.root.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The dataset bound to `name` in this snapshot.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.root.map.get(name).map(|e| &e.data)
    }

    /// Version metadata of `name` in this snapshot.
    pub fn meta(&self, name: &str) -> Option<&VersionMeta> {
        self.root.map.get(name).map(|e| &e.meta)
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
            .field("epoch", &self.root.epoch)
            .field("entries", &self.root.map.len())
            .finish()
    }
}

/// Poison-swallowing lock helper: catalog state stays usable even if a
/// panicking thread held a lock (a map it was building never got
/// installed).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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
        let cat = Catalog::new();
        assert_eq!(cat.publish_table("t", table(3)), 1);
        assert_eq!(cat.publish_table("t", table(5)), 2);
        let got = cat.get("t").expect("bound");
        assert_eq!(got.cardinality(), 5);
        assert_eq!(got.kind(), DatasetKind::Table);
        let vs = cat.versions("t");
        assert_eq!(vs.len(), 2);
        assert_eq!((vs[0].version, vs[0].cardinality), (1, 3));
        assert_eq!((vs[1].version, vs[1].cardinality), (2, 5));
        assert_eq!((vs[0].epoch, vs[1].epoch), (2, 3), "one epoch a publish");
        assert_eq!(cat.epoch(), 3);
        assert_eq!(Catalog::new().epoch(), 1, "an empty catalog is at 1");
        assert!(cat.get("missing").is_none());
        assert!(cat.versions("missing").is_empty());
    }

    #[test]
    fn snapshot_isolation_across_publishes() {
        let cat = Catalog::new();
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
        let cat = Catalog::new();
        cat.publish_table("t", table(2));
        let snap = cat.snapshot();
        cat.publish_table("t", table(4));
        cat.publish_table("t", table(6));
        // Three displaced roots: the empty one and the 4-row one died at
        // once; only the root the snapshot holds is alive.
        assert_eq!(cat.retired_count(), 1, "only the held root survives");
        assert_eq!(cat.gc(), 2, "gc reports the two that died");
        assert_eq!(snap.table("t").expect("still alive").n_rows(), 2);
        assert_eq!(cat.gc(), 0, "a held root never dies");
        assert_eq!(cat.pinned_readers(), 1);
        drop(snap);
        assert_eq!(cat.pinned_readers(), 0);
        assert_eq!(cat.retired_count(), 0, "died with its last snapshot");
        assert_eq!(cat.gc(), 1);
        assert_eq!(cat.gc(), 0, "each death is reported once");
    }

    #[test]
    fn displaced_roots_die_with_their_last_reader() {
        let cat = Catalog::new();
        cat.publish_table("t", table(1));
        cat.publish_table("t", table(2));
        assert_eq!(cat.retired_count(), 0, "no snapshot, nothing retired");
        let s1 = cat.snapshot();
        let s2 = cat.snapshot();
        cat.publish_table("t", table(3));
        assert_eq!(cat.retired_count(), 1, "two snapshots hold one root");
        drop(s1);
        assert_eq!(cat.retired_count(), 1, "the other snapshot still holds it");
        drop(s2);
        assert_eq!(cat.retired_count(), 0, "freed without a gc");
        assert_eq!(cat.gc(), 3, "the three displaced roots");
    }

    #[test]
    fn remove_unbinds_but_pins_survive() {
        let cat = Catalog::new();
        cat.publish_table("t", table(2));
        let snap = cat.snapshot();
        assert!(cat.remove("t"));
        let epoch = cat.epoch();
        assert!(!cat.remove("t"), "second remove is a no-op");
        assert_eq!(cat.epoch(), epoch, "a no-op remove installs no root");
        assert_eq!(snap.epoch() + 1, epoch, "a remove advances the epoch");
        assert!(cat.get("t").is_none());
        assert_eq!(snap.table("t").expect("pinned binding").n_rows(), 2);
        assert_eq!(cat.versions("t").len(), 1, "lineage survives remove");
    }

    #[test]
    fn list_reports_sorted_bindings() {
        let cat = Catalog::new();
        cat.publish_table("zeta", table(1));
        cat.publish_table("alpha", table(9));
        let ls = cat.list();
        let names: Vec<&str> = ls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(ls[0].1.cardinality, 9);
    }

    #[test]
    fn compact_graph_publishes_new_version() {
        let cat = Catalog::new();
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
        let cat = Catalog::new();
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
        let cat = Catalog::new();
        let other = cat.clone();
        cat.publish_table("t", table(4));
        assert_eq!(other.get("t").expect("shared").cardinality(), 4);
        assert_eq!(other.epoch(), cat.epoch());
    }
}
