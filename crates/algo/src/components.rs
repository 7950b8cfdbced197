//! Connected components: weak (edge direction ignored) and strong
//! (mutually reachable). SCC decomposition is a Table 6 kernel.

use crate::frontier::{FrontierEngine, FrontierState, UNVISITED};
use ringo_graph::{DirectedTopology, Direction, NodeId, NodeValues};

/// Result of a component decomposition.
#[derive(Clone, Debug)]
pub struct Components {
    /// Dense component index of every node, in ascending slot order.
    pub comp_of: NodeValues<u32>,
    /// Size of each component, indexed by component index.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Component index of a node, if present.
    pub fn component(&self, id: NodeId) -> Option<u32> {
        self.comp_of.get(id).copied()
    }
}

/// Weakly connected components: treats every edge as undirected and
/// labels each node with its component.
///
/// Routed through the shared [`FrontierEngine`] with
/// [`Direction::Both`]: one reusable [`FrontierState`] sweeps every
/// component — slots claimed by earlier sweeps act as walls, so each
/// node is expanded exactly once and the per-component membership falls
/// out of the engine's visit log.
pub fn weakly_connected_components<G: DirectedTopology>(g: &G) -> Components {
    let mut sp = ringo_trace::span!("algo.wcc");
    sp.rows_in(g.node_count());
    let n_slots = g.n_slots();
    let eng = FrontierEngine::new(g, Direction::Both);
    let mut state = FrontierState::new(n_slots);
    let mut comp = vec![UNVISITED; n_slots];
    let mut sizes = Vec::new();
    for start in 0..n_slots {
        if g.slot_id(start).is_none() || state.dist[start] != UNVISITED {
            continue;
        }
        let base = state.visited.len();
        eng.run_into(start, &mut state);
        let c = sizes.len() as u32;
        sizes.push(state.visited.len() - base);
        for &s in &state.visited[base..] {
            comp[s as usize] = c;
        }
    }
    let out = Components {
        comp_of: g.node_values(comp, g.node_count(), |&c| c != UNVISITED),
        sizes,
    };
    sp.rows_out(out.n_components());
    out
}

/// Strongly connected components via an iterative Tarjan traversal
/// (explicit stack, no recursion — safe on deep graphs) over the
/// graph's out-rows of neighbour slots.
pub fn strongly_connected_components<G: DirectedTopology>(g: &G) -> Components {
    let mut sp = ringo_trace::span!("algo.scc");
    sp.rows_in(g.node_count());
    let n_slots = g.n_slots();
    let mut index = vec![UNVISITED; n_slots];
    let mut lowlink = vec![0u32; n_slots];
    let mut on_stack = vec![false; n_slots];
    let mut comp = vec![UNVISITED; n_slots];
    let mut sizes: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut tarjan_stack: Vec<usize> = Vec::new();
    // Explicit DFS frames: (slot, the part of its out-row not yet walked),
    // so a step reads the row where it lies, not the node table again.
    let mut frames: Vec<(usize, &[u32])> = Vec::new();

    for start in 0..n_slots {
        if g.slot_id(start).is_none() || index[start] != UNVISITED {
            continue;
        }
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        tarjan_stack.push(start);
        on_stack[start] = true;
        frames.push((start, g.out_row(start)));

        while let Some(&mut (slot, ref mut rest)) = frames.last_mut() {
            if let Some((&next, tail)) = rest.split_first() {
                *rest = tail;
                let ns = next as usize;
                if index[ns] == UNVISITED {
                    index[ns] = next_index;
                    lowlink[ns] = next_index;
                    next_index += 1;
                    tarjan_stack.push(ns);
                    on_stack[ns] = true;
                    frames.push((ns, g.out_row(ns)));
                } else if on_stack[ns] {
                    lowlink[slot] = lowlink[slot].min(index[ns]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[slot]);
                }
                if lowlink[slot] == index[slot] {
                    // Root of an SCC: pop the component.
                    let c = sizes.len() as u32;
                    sizes.push(0);
                    loop {
                        let v = tarjan_stack.pop().expect("SCC root on stack");
                        on_stack[v] = false;
                        comp[v] = c;
                        sizes[c as usize] += 1;
                        if v == slot {
                            break;
                        }
                    }
                }
            }
        }
    }
    let out = Components {
        comp_of: g.node_values(comp, g.node_count(), |&c| c != UNVISITED),
        sizes,
    };
    sp.rows_out(out.n_components());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    #[test]
    fn empty_graph_has_no_components() {
        let g = DirectedGraph::new();
        let w = weakly_connected_components(&g);
        assert_eq!(w.n_components(), 0);
        assert_eq!(w.largest(), 0);
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 0);
    }

    #[test]
    fn wcc_ignores_direction() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(3, 2); // same weak component despite orientation
        g.add_node(9);
        let w = weakly_connected_components(&g);
        assert_eq!(w.n_components(), 2);
        assert_eq!(w.largest(), 3);
        assert_eq!(w.component(1), w.component(3));
        assert_ne!(w.component(1), w.component(9));
    }

    #[test]
    fn scc_cycle_is_one_component() {
        let mut g = DirectedGraph::new();
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 1);
        assert_eq!(s.largest(), 5);
    }

    #[test]
    fn scc_dag_is_all_singletons() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 3);
        assert_eq!(s.largest(), 1);
    }

    #[test]
    fn scc_two_cycles_bridged_one_way() {
        let mut g = DirectedGraph::new();
        // Cycle A: 1->2->1; cycle B: 3->4->3; bridge 2->3.
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(3, 4);
        g.add_edge(4, 3);
        g.add_edge(2, 3);
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 2);
        assert_eq!(s.component(1), s.component(2));
        assert_eq!(s.component(3), s.component(4));
        assert_ne!(s.component(1), s.component(3));
    }

    #[test]
    fn scc_handles_deep_chain_iteratively() {
        // A 100k-node chain would blow a recursive Tarjan's stack.
        let mut g = DirectedGraph::with_capacity(100_000);
        for i in 0..100_000i64 {
            g.add_edge(i, i + 1);
        }
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 100_001);
    }

    #[test]
    fn component_sizes_sum_to_node_count() {
        let mut g = DirectedGraph::new();
        let mut x = 11u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 150;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 150;
            g.add_edge(s as i64, d as i64);
        }
        for comps in [
            weakly_connected_components(&g),
            strongly_connected_components(&g),
        ] {
            let total: usize = comps.sizes.iter().sum();
            assert_eq!(total, g.node_count());
            assert_eq!(comps.comp_of.len(), g.node_count());
        }
    }

    #[test]
    fn scc_self_loop_is_its_own_component() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 1);
        g.add_edge(1, 2);
        let s = strongly_connected_components(&g);
        assert_eq!(s.n_components(), 2);
    }
}
