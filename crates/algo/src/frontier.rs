//! Shared parallel frontier engine: direction-optimizing BFS over flat
//! slot-indexed state.
//!
//! Every traversal kernel in this crate (BFS distances and trees,
//! unit-weight SSSP, weak components, reachability, the per-source BFS
//! inside sampled betweenness) used to carry its own queue loop over an
//! `IntHashTable` of distances, with a boxed neighbor iterator allocated
//! per visited node. This module replaces all of them with one
//! level-synchronous engine:
//!
//! * **Flat state.** Distances are a dense `u32` array indexed by slot
//!   (`u32::MAX` = unvisited); no hash maps, no boxed iterators, zero
//!   allocations per visited node. The engine keeps no parents: only
//!   [`FrontierEngine::tree`] wants them, and it derives them from the
//!   distances after the run.
//! * **Slot rows in place.** The engine walks the graph's own adjacency
//!   rows ([`DirectedTopology::rows`]): a graph stores every neighbour as
//!   its slot, so constructing an engine builds nothing and every
//!   traversal step is pure array arithmetic, no hash lookup per edge.
//! * **Morsel-parallel expansion.** Frontiers are split into fixed-size
//!   morsels claimed dynamically from the worker pool, so one hub node's
//!   giant adjacency list does not serialize a level.
//! * **Direction-optimizing switch (Beamer et al., SC'12).** Levels run
//!   *top-down* (each frontier node pushes to unvisited neighbors,
//!   claiming them with a compare-exchange) until the frontier's edge
//!   mass exceeds `unexplored / alpha`, then flip to *bottom-up* (each
//!   unvisited node pulls — scans its reverse neighbors and stops at the
//!   first frontier member, tracked in a [`ConcurrentBitset`]), and back
//!   to top-down once the frontier shrinks below `live / beta`.
//!   `alpha`/`beta` are 15/18 unless the caller passes others to
//!   [`FrontierEngine::with_params`].
//!
//! **Determinism.** Distances are level-synchronous and therefore
//! set-determined: a slot is reached at level `l + 1` exactly when it is
//! unvisited and has a neighbour in level `l`, whichever phase, thread or
//! morsel finds it. `dist` is bit-identical at every thread count, every
//! morsel size and every alpha/beta setting. A tree parent is a function
//! of `dist` alone — the minimum slot among the predecessors one level up
//! — so [`FrontierEngine::tree`] inherits the same guarantee.
//!
//! Per-level work is visible to the flight recorder as
//! `algo.bfs.topdown` / `algo.bfs.bottomup` spans (rows in = frontier
//! size, rows out = next frontier size) plus `algo.bfs.*` counters for
//! switch points, worker busy-time and `algo.bfs.edges_scanned` — row
//! entries examined, which repeats exactly at a fixed thread count and
//! shows how much of its pull rows the bottom-up early exit skipped.

use crate::bfs::Direction;
use ringo_concurrent::{num_threads, parallel_for_morsels, parallel_map_morsels, ConcurrentBitset};
use ringo_graph::{DirectedTopology, NodeId, NodeValues};
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel for "not reached" in [`FrontierState::dist`].
pub const UNVISITED: u32 = u32::MAX;

/// Frontiers below this edge mass are expanded inline even when the
/// engine has threads: dispatching a handful of edges to the pool costs
/// more than scanning them.
const PAR_MIN_EDGES: u64 = 2048;

/// Default Beamer crossover parameters (top-down → bottom-up when
/// `frontier_edges * alpha > unexplored_edges`; back when
/// `frontier_len * beta < live_nodes`).
const DEFAULT_ALPHA: u64 = 15;
/// See [`DEFAULT_ALPHA`].
const DEFAULT_BETA: u64 = 18;

/// Reusable per-run BFS state: flat slot-indexed arrays plus the visit
/// log. Allocate once ([`FrontierState::new`]) and reuse across runs —
/// [`FrontierState::reset`] clears only the slots the last run touched.
#[derive(Clone, Debug)]
pub struct FrontierState {
    /// Hop distance per slot; [`UNVISITED`] for unreached or vacant slots.
    pub dist: Vec<u32>,
    /// Slots reached by the run, frontier by frontier. Within one level
    /// the order is unspecified under parallel expansion (membership is
    /// deterministic; use `dist` for ordered output).
    pub visited: Vec<u32>,
    /// Offsets into `visited`: level `l` of the last run is
    /// `visited[level_starts[l]..level_starts[l + 1]]`
    /// (`level_starts.len() == levels + 1`).
    pub level_starts: Vec<u32>,
    /// Number of BFS levels of the last run (max distance + 1).
    pub levels: u32,
}

impl FrontierState {
    /// Fresh all-unvisited state for a graph with `n_slots` slots.
    pub fn new(n_slots: usize) -> Self {
        Self {
            dist: vec![UNVISITED; n_slots],
            visited: Vec::with_capacity(n_slots),
            level_starts: Vec::new(),
            levels: 0,
        }
    }

    /// Clears the slots touched by the last run(s) — `O(visited)`, not
    /// `O(n_slots)` — and empties the visit log.
    pub fn reset(&mut self) {
        for &s in &self.visited {
            self.dist[s as usize] = UNVISITED;
        }
        self.visited.clear();
        self.level_starts.clear();
        self.levels = 0;
    }
}

/// The engine: graph + traversal direction + crossover parameters.
/// Construction reads two counts off the graph and builds nothing, so
/// one-shot probes and multi-source kernels — components, betweenness,
/// reachability — cost the same per run.
pub struct FrontierEngine<'g, G: DirectedTopology> {
    g: &'g G,
    dir: Direction,
    threads: usize,
    alpha: u64,
    beta: u64,
    total_deg: u64,
    live: usize,
}

impl<'g, G: DirectedTopology> FrontierEngine<'g, G> {
    /// Engine with the pool's thread count and the default crossover
    /// parameters (15 / 18).
    pub fn new(g: &'g G, dir: Direction) -> Self {
        Self::with_threads(g, dir, num_threads())
    }

    /// Engine with an explicit thread count and the default crossover
    /// parameters — for callers that manage parallelism themselves (e.g.
    /// source-parallel betweenness runs its inner BFS single-threaded).
    pub fn with_threads(g: &'g G, dir: Direction, threads: usize) -> Self {
        Self::with_params(g, dir, threads, DEFAULT_ALPHA, DEFAULT_BETA)
    }

    /// Engine with explicit thread count and crossover parameters.
    /// `alpha = 0` forces pure top-down; a huge `alpha` *and* `beta`
    /// force bottom-up from the first parallel level.
    pub fn with_params(g: &'g G, dir: Direction, threads: usize, alpha: u64, beta: u64) -> Self {
        Self {
            g,
            dir,
            threads: threads.max(1),
            alpha,
            beta,
            total_deg: g.total_degree(dir),
            live: g.node_count(),
        }
    }

    /// The traversal direction this engine expands.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// BFS from `src` into fresh state; `None` when `src` is not in the
    /// graph.
    pub fn run(&self, src: NodeId) -> Option<FrontierState> {
        let slot = self.g.slot_of(src)?;
        let mut state = FrontierState::new(self.g.n_slots());
        self.run_into(slot, &mut state);
        Some(state)
    }

    /// BFS hop distances from `src` as slot-ordered columns (the source
    /// has 0; unreached nodes have no value). Empty when `src` is not in
    /// the graph. The run's distance array becomes the value column.
    pub fn distances(&self, src: NodeId) -> NodeValues<u32> {
        match self.run(src) {
            Some(FrontierState { dist, visited, .. }) => {
                let reached = visited.len();
                // Freed before the id column is allocated: the peak is
                // distances + positions + ids, not the visit log too.
                drop(visited);
                self.g.node_values(dist, reached, |&d| d != UNVISITED)
            }
            None => self.g.node_values(Vec::new(), 0, |_| true),
        }
    }

    /// BFS tree from `src`: each reached node's parent id (the source is
    /// its own parent). Empty when `src` is not in the graph.
    ///
    /// The run keeps no parents; they are derived afterwards in one pass
    /// over the reached slots' pull rows: a node's parent is the
    /// minimum-slot predecessor one level up. That is a function of the
    /// distances alone, so the tree is identical at every thread count
    /// and crossover setting.
    pub fn tree(&self, src: NodeId) -> NodeValues<NodeId> {
        let Some(state) = self.run(src) else {
            return self.g.node_values(Vec::new(), 0, |_| true);
        };
        let pull = self.dir.reversed();
        let mut parent = vec![UNVISITED; state.dist.len()];
        for &v in &state.visited {
            let vs = v as usize;
            parent[vs] = match state.dist[vs] {
                0 => v,
                d => {
                    let [a, b] = self.g.rows(vs, pull);
                    a.iter()
                        .chain(b)
                        .copied()
                        .filter(|&u| state.dist[u as usize] == d - 1)
                        .min()
                        .expect("a reached slot has a predecessor one level up")
                }
            };
        }
        self.g
            .node_values(parent, state.visited.len(), |&p| p != UNVISITED)
            .map(|p| self.g.slot_id(p as usize).expect("parent slot is live"))
    }

    /// BFS from the live slot `src_slot` into caller-owned state, which
    /// must hold [`UNVISITED`] in every slot this run can reach (reuse
    /// across disjoint regions — e.g. component sweeps — is the point:
    /// already-claimed slots act as walls). Appends to `state.visited`,
    /// rewrites `state.level_starts`/`state.levels` for this run, and
    /// returns the level count.
    pub fn run_into(&self, src_slot: usize, state: &mut FrontierState) -> u32 {
        let n_slots = self.g.n_slots();
        debug_assert_eq!(state.dist.len(), n_slots, "state sized for this graph");
        debug_assert_eq!(state.dist[src_slot], UNVISITED, "source already claimed");
        state.dist[src_slot] = 0;
        state.level_starts.clear();
        let run_start = state.visited.len();
        state.visited.push(src_slot as u32);

        let mut lo = run_start;
        let mut level = 0u32;
        let mut frontier_edges = u64::from(self.g.degree(src_slot, self.dir));
        let mut unexplored = self.total_deg - frontier_edges;
        let mut prev_bottom = false;
        let mut bits_cur: Option<ConcurrentBitset> = None;
        let mut bits_next: Option<ConcurrentBitset> = None;
        let mut switches = 0u64;
        let mut scanned = 0u64;

        while lo < state.visited.len() {
            state.level_starts.push(lo as u32);
            let hi = state.visited.len();
            let par = self.threads > 1 && frontier_edges >= PAR_MIN_EDGES;
            let bottom = par
                && if prev_bottom {
                    // Stay bottom-up until the frontier thins out again.
                    ((hi - lo) as u64).saturating_mul(self.beta) >= self.live as u64
                } else {
                    frontier_edges.saturating_mul(self.alpha) > unexplored
                };
            if bottom != prev_bottom && level > 0 {
                switches += 1;
            }

            let mut sp = ringo_trace::Span::enter(if bottom {
                "algo.bfs.bottomup"
            } else {
                "algo.bfs.topdown"
            });
            sp.rows_in(hi - lo);

            // A top-down level reads every row of its frontier in full:
            // exactly the frontier's edge mass.
            let (next_edges, level_scanned) = if !par {
                (self.step_seq(state, lo, hi, level), frontier_edges)
            } else if bottom {
                let (cur, next) = self.prepare_bitsets(
                    &mut bits_cur,
                    &mut bits_next,
                    prev_bottom,
                    &state.visited[lo..hi],
                );
                let step = self.step_bottom_up(state, level, &cur, &next);
                // Keep the sets: on a bottom-up → bottom-up transition
                // `next` holds the frontier the following level pulls
                // against.
                bits_cur = Some(cur);
                bits_next = Some(next);
                step
            } else {
                (self.step_top_down(state, lo, hi, level), frontier_edges)
            };

            sp.rows_out(state.visited.len() - hi);
            scanned += level_scanned;
            unexplored -= next_edges.min(unexplored);
            frontier_edges = next_edges;
            prev_bottom = bottom;
            lo = hi;
            level += 1;
        }
        state.level_starts.push(lo as u32);
        state.levels = level;
        ringo_trace::counter("algo.bfs.switches").add(switches);
        ringo_trace::counter("algo.bfs.edges_scanned").add(scanned);
        level
    }

    /// Sequential level expansion over plain slices — the `threads <= 1`
    /// path and the small-frontier fast path. The frontier lives in
    /// `state.visited[lo..hi]` (slot and depth travel together — no
    /// distance lookup per dequeued node, unlike the old hash-map BFS).
    // LINT: hot — per-visit allocations here would void the bfs_alloc pin.
    fn step_seq(&self, state: &mut FrontierState, lo: usize, hi: usize, level: u32) -> u64 {
        let d1 = level + 1;
        let mut next_edges = 0u64;
        let mut i = lo;
        while i < hi {
            let u = state.visited[i];
            i += 1;
            for row in self.g.rows(u as usize, self.dir) {
                for &v in row {
                    let vs = v as usize;
                    if state.dist[vs] == UNVISITED {
                        state.dist[vs] = d1;
                        state.visited.push(v);
                        next_edges += u64::from(self.g.degree(vs, self.dir));
                    }
                }
            }
        }
        next_edges
    }

    /// Parallel top-down push: morsels over the frontier; unvisited
    /// neighbors are claimed with a compare-exchange on their distance
    /// word, tried only after a plain load still sees them unvisited.
    fn step_top_down(&self, state: &mut FrontierState, lo: usize, hi: usize, level: u32) -> u64 {
        let d1 = level + 1;
        let dist = as_atomic(&mut state.dist);
        let frontier = &state.visited[lo..hi];
        let (bufs, stats) = parallel_map_morsels(frontier.len(), self.threads, |_, range| {
            let mut buf: Vec<u32> = Vec::new();
            let mut edges = 0u64;
            for &u in &frontier[range] {
                for row in self.g.rows(u as usize, self.dir) {
                    for &v in row {
                        let vs = v as usize;
                        if claim(&dist[vs], d1) {
                            buf.push(v);
                            edges += u64::from(self.g.degree(vs, self.dir));
                        }
                    }
                }
            }
            (buf, edges)
        });
        record_busy(&stats);
        let mut next_edges = 0u64;
        for (buf, edges) in &bufs {
            state.visited.extend_from_slice(buf);
            next_edges += edges;
        }
        next_edges
    }

    /// Parallel bottom-up pull: morsels over *all* slots; each unvisited
    /// slot scans its reverse adjacency and stops at the first frontier
    /// member (Beamer's early exit — with no parent to choose, any member
    /// will do). Owner morsels write their own slots, so stores suffice;
    /// next-frontier membership is claimed in the bitset for the
    /// following level. Returns the next frontier's edge mass and the row
    /// entries read.
    fn step_bottom_up(
        &self,
        state: &mut FrontierState,
        level: u32,
        cur: &ConcurrentBitset,
        next: &ConcurrentBitset,
    ) -> (u64, u64) {
        let d1 = level + 1;
        let dist = as_atomic(&mut state.dist);
        let n_slots = self.g.n_slots();
        let pull = self.dir.reversed();
        let (bufs, stats) = parallel_map_morsels(n_slots, self.threads, |_, range| {
            let mut buf: Vec<u32> = Vec::new();
            let (mut edges, mut scanned) = (0u64, 0u64);
            for vs in range {
                // ORDERING: Relaxed — `vs` is written only by this
                // morsel (ranges are disjoint), earlier levels were
                // published by the pool barrier, and a racing read of a
                // *concurrent* claim can only observe `d1`, which is
                // correctly "not unvisited" and not in the frontier.
                if dist[vs].load(Ordering::Relaxed) != UNVISITED {
                    continue;
                }
                let [a, b] = self.g.rows(vs, pull);
                let hit = a.iter().chain(b).position(|&us| cur.get(us as usize));
                scanned += hit.map_or(a.len() + b.len(), |i| i + 1) as u64;
                if hit.is_some() {
                    // ORDERING: Relaxed — owner-morsel store; published
                    // to the next level by the pool barrier.
                    dist[vs].store(d1, Ordering::Relaxed);
                    next.set(vs);
                    buf.push(vs as u32);
                    edges += u64::from(self.g.degree(vs, self.dir));
                }
            }
            (buf, (edges, scanned))
        });
        record_busy(&stats);
        let (mut next_edges, mut scanned) = (0u64, 0u64);
        for (buf, (edges, read)) in &bufs {
            state.visited.extend_from_slice(buf);
            next_edges += edges;
            scanned += read;
        }
        (next_edges, scanned)
    }

    /// Hands out `(current, next)` frontier bitsets for a bottom-up
    /// level: lazily allocated, current filled from the frontier list on
    /// a top-down → bottom-up switch (on bottom-up → bottom-up the
    /// previous level's claims *are* the current frontier, so the sets
    /// just swap), next cleared for this level's claims.
    fn prepare_bitsets(
        &self,
        bits_cur: &mut Option<ConcurrentBitset>,
        bits_next: &mut Option<ConcurrentBitset>,
        prev_bottom: bool,
        frontier: &[u32],
    ) -> (ConcurrentBitset, ConcurrentBitset) {
        let n_slots = self.g.n_slots();
        let mut cur = bits_cur
            .take()
            .unwrap_or_else(|| ConcurrentBitset::new(n_slots));
        let mut next = bits_next
            .take()
            .unwrap_or_else(|| ConcurrentBitset::new(n_slots));
        if prev_bottom {
            std::mem::swap(&mut cur, &mut next);
        } else {
            cur.clear();
            let stats = parallel_for_morsels(frontier.len(), self.threads, |_, range| {
                for &s in &frontier[range] {
                    cur.set(s as usize);
                }
            });
            record_busy(&stats);
        }
        next.clear();
        (cur, next)
    }
}

/// Claims an unvisited slot's distance word for level `d1`: one winner
/// per slot. A plain load goes first, so a slot claimed already costs a
/// read, not a compare-exchange.
#[inline]
fn claim(word: &AtomicU32, d1: u32) -> bool {
    // ORDERING: Relaxed — the claim needs only atomicity (one winner per
    // slot), and the next level reads the distances *after* the pool
    // barrier's synchronization. A stale load can only send a slot to the
    // compare-exchange, which then fails.
    word.load(Ordering::Relaxed) == UNVISITED
        && word
            .compare_exchange(UNVISITED, d1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
}

/// Folds a morsel dispatch's per-worker busy time into the
/// `algo.bfs.busy_ns` counter (the flight recorder's per-thread
/// timelines carry the fine-grained attribution).
fn record_busy(stats: &ringo_concurrent::MorselStats) {
    let busy: u64 = stats.busy_ns.iter().sum();
    ringo_trace::counter("algo.bfs.busy_ns").add(busy);
}

/// Views a `u32` slice as atomics for the parallel phases. The exclusive
/// borrow is what makes this sound: no plain-typed alias can exist while
/// the atomic view is alive.
pub(crate) fn as_atomic(xs: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: `AtomicU32` has the same size, alignment and validity as
    // `u32` (guaranteed by std), and the `&mut` receiver proves no other
    // reference — plain or atomic — aliases the slice for the returned
    // borrow's lifetime.
    unsafe { &*(xs as *mut [u32] as *const [AtomicU32]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn chain(n: i64) -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for i in 0..n {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn seq_chain_distances_and_parents() {
        let g = chain(5);
        let eng = FrontierEngine::with_params(&g, Direction::Out, 1, DEFAULT_ALPHA, DEFAULT_BETA);
        let st = eng.run(0).expect("source exists");
        for i in 0..=5i64 {
            let s = g.slot_of(i).unwrap();
            assert_eq!(st.dist[s], i as u32);
        }
        assert_eq!(eng.tree(0).get(3), Some(&2));
        assert_eq!(st.levels, 6);
        assert_eq!(st.level_starts.len(), 7);
        assert_eq!(st.visited.len(), 6);
    }

    #[test]
    fn missing_source_is_none() {
        let g = chain(3);
        let eng = FrontierEngine::new(&g, Direction::Out);
        assert!(eng.run(99).is_none());
        assert!(eng.distances(99).is_empty());
        assert!(eng.tree(99).is_empty());
    }

    #[test]
    fn min_slot_parent_tie_break() {
        // 0 and 1 both point at 9; 1 is added first so slot order is
        // 1, 9, 0 — the minimum *slot* parent of 9 is node 1.
        let mut g = DirectedGraph::new();
        g.add_edge(1, 9);
        g.add_edge(0, 9);
        g.add_edge(7, 0);
        g.add_edge(7, 1);
        for threads in [1usize, 4] {
            for (alpha, beta) in [
                (0u64, 0u64),
                (DEFAULT_ALPHA, DEFAULT_BETA),
                (u64::MAX, u64::MAX),
            ] {
                let eng = FrontierEngine::with_params(&g, Direction::Out, threads, alpha, beta);
                assert_eq!(eng.tree(7).get(9), Some(&1));
            }
        }
    }

    #[test]
    fn state_reuse_walls_off_prior_runs() {
        let mut g = chain(2); // 0-1-2
        g.add_edge(10, 11); // separate component
        let eng = FrontierEngine::with_params(&g, Direction::Both, 1, DEFAULT_ALPHA, DEFAULT_BETA);
        let mut st = FrontierState::new(g.n_slots());
        eng.run_into(g.slot_of(0).unwrap(), &mut st);
        let first = st.visited.len();
        assert_eq!(first, 3);
        eng.run_into(g.slot_of(10).unwrap(), &mut st);
        assert_eq!(
            st.visited.len(),
            first + 2,
            "second run claims only its component"
        );
        st.reset();
        assert!(st.visited.is_empty());
        assert!(st.dist.iter().all(|&d| d == UNVISITED));
    }
}
