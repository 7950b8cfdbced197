//! Helpers shared by integration suites (`mod common;` in each): the
//! component oracles of `routed_kernels` and `topology`, and the flight
//! recorder's completed spans for the observability suites. Each suite
//! uses only some of them.
#![allow(dead_code)]

use ringo::algo::Components;
use ringo::trace::{self, TimelineEvent};
use ringo::{DirectedGraph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The completed spans of the flight recorder: the events of every
/// thread timeline, in completion (`seq`) order — what the JSON dump's
/// `events` array lists.
pub fn end_events() -> Vec<TimelineEvent> {
    let mut out: Vec<TimelineEvent> = trace::timelines_snapshot()
        .into_iter()
        .flat_map(|tl| tl.events)
        .collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// Canonical form of a component labeling: the node set of each
/// component — label numbering may legitimately differ between
/// algorithms.
pub fn partition(c: &Components) -> BTreeSet<BTreeSet<NodeId>> {
    let mut groups: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
    for (id, &label) in c.comp_of.iter() {
        groups.entry(label).or_default().insert(id);
    }
    groups.into_values().collect()
}

/// Weak components by a sequential union-find over `g.edges()` (path
/// halving): no atomics, no slot-indexed state, no frontier engine —
/// nothing the kernel under test is built on but the edge list.
pub fn wcc_oracle(g: &DirectedGraph) -> BTreeSet<BTreeSet<NodeId>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let ids: Vec<NodeId> = g.node_ids().collect();
    let pos: BTreeMap<NodeId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    for (u, v) in g.edges() {
        let (a, b) = (find(&mut parent, pos[&u]), find(&mut parent, pos[&v]));
        parent[a.max(b)] = a.min(b);
    }
    let mut groups: BTreeMap<usize, BTreeSet<NodeId>> = BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().insert(id);
    }
    groups.into_values().collect()
}
