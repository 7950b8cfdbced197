//! Community detection by asynchronous label propagation.

use crate::components::Components;
use ringo_graph::{DirectedTopology, NodeId, UndirectedGraph};
use std::collections::HashMap;

/// xorshift64* — deterministic pseudo-randomness for processing order and
/// tie-breaking, so runs with the same seed always agree.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Asynchronous label propagation (Raghavan et al.): every node starts in
/// its own community; nodes are visited in a seeded-random order, each
/// adopting the most frequent label among its neighbors (random choice
/// among tied maxima). Stops when a full pass changes nothing or after
/// `max_iters` passes.
///
/// Deterministic for a fixed `seed`. Returns assignments packed like a
/// component decomposition. Votes are read from the graph's slot rows, in
/// adjacency order.
pub fn label_propagation(g: &UndirectedGraph, max_iters: usize, seed: u64) -> Components {
    let n_slots = g.n_slots();
    let mut label: Vec<u32> = (0..n_slots as u32).collect();
    let live: Vec<usize> = (0..n_slots).filter(|&s| g.slot_id(s).is_some()).collect();
    let mut rng = Rng(seed | 1);

    let mut order = live.clone();
    let mut counts: HashMap<u32, usize> = HashMap::new();
    let mut tied: Vec<u32> = Vec::new();
    for _ in 0..max_iters {
        // Fisher-Yates shuffle of the visit order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut changed = false;
        for &s in &order {
            let nbrs = g.out_row(s);
            if nbrs.is_empty() {
                continue;
            }
            counts.clear();
            for &ns in nbrs {
                if ns as usize == s {
                    continue; // a self-loop is not a community vote
                }
                *counts.entry(label[ns as usize]).or_insert(0) += 1;
            }
            let Some(&best_count) = counts.values().max() else {
                continue; // only self-loops
            };
            tied.clear();
            tied.extend(
                counts
                    .iter()
                    .filter(|(_, &c)| c == best_count)
                    .map(|(&l, _)| l),
            );
            // Keep the current label when it is among the maxima (damps
            // oscillation); otherwise pick a random maximum.
            let new = if tied.contains(&label[s]) {
                label[s]
            } else {
                tied.sort_unstable(); // make the draw independent of hash order
                tied[rng.below(tied.len())]
            };
            if new != label[s] {
                label[s] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Renumber labels densely, by first appearance in slot order.
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for &s in &live {
        let next = dense.len() as u32;
        let c = *dense.entry(label[s]).or_insert(next);
        if c as usize == sizes.len() {
            sizes.push(0);
        }
        sizes[c as usize] += 1;
        label[s] = c;
    }
    Components {
        comp_of: g.node_values(label, live.len(), |_| true),
        sizes,
    }
}

/// Convenience: community of one node after propagation.
pub fn community_of(result: &Components, id: NodeId) -> Option<u32> {
    result.component(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        // Clique A: 0..4, clique B: 10..14, bridge 4-10.
        for a in 0..5i64 {
            for b in (a + 1)..5 {
                g.add_edge(a, b);
            }
        }
        for a in 10..15i64 {
            for b in (a + 1)..15 {
                g.add_edge(a, b);
            }
        }
        g.add_edge(4, 10);
        g
    }

    #[test]
    fn two_cliques_with_a_bridge_split() {
        let g = two_cliques();
        let res = label_propagation(&g, 50, 42);
        let ca = res.component(0).unwrap();
        for v in 1..5 {
            assert_eq!(res.component(v), Some(ca));
        }
        let cb = res.component(11).unwrap();
        for v in [10i64, 12, 13, 14] {
            assert_eq!(res.component(v), Some(cb));
        }
        assert_ne!(ca, cb);
    }

    #[test]
    fn isolated_nodes_keep_own_community() {
        let mut g = UndirectedGraph::new();
        g.add_node(1);
        g.add_node(2);
        let res = label_propagation(&g, 10, 1);
        assert_eq!(res.n_components(), 2);
    }

    #[test]
    fn sizes_sum_to_node_count() {
        let mut g = UndirectedGraph::new();
        let mut x = 23u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 80;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 80;
            if a != b {
                g.add_edge(a as i64, b as i64);
            }
        }
        let res = label_propagation(&g, 20, 7);
        assert_eq!(res.sizes.iter().sum::<usize>(), g.node_count());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cliques();
        let r1 = label_propagation(&g, 30, 99);
        let r2 = label_propagation(&g, 30, 99);
        for id in g.node_ids() {
            assert_eq!(r1.component(id), r2.component(id));
        }
    }

    #[test]
    fn connected_community_structure_is_connected_components_at_minimum() {
        // Communities can never span disconnected components.
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let res = label_propagation(&g, 20, 5);
        assert_ne!(res.component(1), res.component(3));
        assert_eq!(res.component(1), res.component(2));
        assert_eq!(res.component(3), res.component(4));
    }
}
