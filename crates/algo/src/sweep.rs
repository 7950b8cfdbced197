//! One slot sweep under every iterative score kernel: PageRank and its
//! personalized and weighted variants, HITS and eigenvector centrality
//! are one loop with a short vertex program each (GraphX's
//! `aggregateMessages`). Every live slot's next value is pulled over its
//! row, in row order, from vectors no worker writes, in parallel over slot
//! chunks; scalars (dangling mass, L2 norm, L1 change) are then summed on
//! the calling thread in slot order. No result depends on the thread count.

use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_graph::{DirectedTopology, NodeValues};

/// The live slots of one graph and the workers that sweep them.
pub(crate) struct Sweep {
    live: Vec<bool>,
    threads: usize,
}

impl Sweep {
    pub(crate) fn new<G: DirectedTopology>(g: &G, threads: usize) -> Self {
        Self {
            live: (0..g.n_slots()).map(|s| g.slot_id(s).is_some()).collect(),
            threads,
        }
    }

    /// A slot vector holding `x` in every live slot and 0 elsewhere.
    pub(crate) fn filled(&self, x: f64) -> Vec<f64> {
        self.live.iter().map(|&l| if l { x } else { 0.0 }).collect()
    }

    /// Sets `next[s] = f(s)` for every live slot `s` and 0 for every
    /// vacant one, in parallel over slot chunks.
    pub(crate) fn pull(&self, next: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
        let live = &self.live;
        parallel_for_each_chunk_mut(next, self.threads, |_, start, chunk| {
            for (off, out) in chunk.iter_mut().enumerate() {
                let s = start + off;
                *out = if live[s] { f(s) } else { 0.0 };
            }
        });
    }

    /// The live slots `keep` accepts, ascending.
    pub(crate) fn slots(&self, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        (0..self.live.len())
            .filter(|&s| self.live[s] && keep(s))
            .map(|s| s as u32)
            .collect()
    }

    /// `f(s)` summed over the live slots, in slot order.
    pub(crate) fn sum(&self, f: impl Fn(usize) -> f64) -> f64 {
        let mut acc = 0.0;
        for (s, &l) in self.live.iter().enumerate() {
            if l {
                acc += f(s);
            }
        }
        acc
    }

    /// Scales `v` to unit L2 norm, unless that norm is 0; returns it.
    pub(crate) fn unit_l2(&self, v: &mut [f64]) -> f64 {
        let norm = self.sum(|s| v[s] * v[s]).sqrt();
        if norm > 0.0 {
            v.iter_mut().for_each(|x| *x /= norm);
        }
        norm
    }

    /// `per_slot` as a column with a value for every live node.
    pub(crate) fn finish<G: DirectedTopology, T>(self, g: &G, per_slot: Vec<T>) -> NodeValues<T> {
        drop(self);
        g.node_values(per_slot, g.node_count(), |_| true)
    }
}
