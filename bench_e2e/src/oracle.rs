//! Reference answers computed with plain std code — no engine types — so a
//! verb's output is checked against something that shares no logic with it.
//! Everything here runs outside the timed windows.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;

pub type Edge = (i64, i64);

/// The distinct `(src, dst)` pairs, ascending.
pub fn distinct_edges(edges: &[Edge]) -> Vec<Edge> {
    let mut out = edges.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// How many distinct node ids the edges touch.
pub fn distinct_nodes(edges: &[Edge]) -> u64 {
    let ids: HashSet<i64> = edges.iter().flat_map(|&(s, d)| [s, d]).collect();
    ids.len() as u64
}

/// The distinct unordered pairs, self-loops included, ascending.
pub fn distinct_undirected(edges: &[Edge]) -> Vec<Edge> {
    let flipped: Vec<Edge> = edges.iter().map(|&(s, d)| (s.min(d), s.max(d))).collect();
    distinct_edges(&flipped)
}

/// Neighbour lists over dense indices, built from an edge list.
pub struct Adjacency {
    index: HashMap<i64, usize>,
    nbrs: Vec<Vec<usize>>,
}

impl Adjacency {
    /// Out-neighbours of a directed edge list.
    pub fn directed(edges: &[Edge]) -> Self {
        Self::build(edges, false)
    }

    /// Neighbours in both directions.
    pub fn undirected(edges: &[Edge]) -> Self {
        Self::build(edges, true)
    }

    fn build(edges: &[Edge], both: bool) -> Self {
        let mut index = HashMap::new();
        let mut nbrs: Vec<Vec<usize>> = Vec::new();
        for &(s, d) in edges {
            let [si, di] = [s, d].map(|id| {
                *index.entry(id).or_insert_with(|| {
                    nbrs.push(Vec::new());
                    nbrs.len() - 1
                })
            });
            nbrs[si].push(di);
            if both {
                nbrs[di].push(si);
            }
        }
        Self { index, nbrs }
    }

    /// Marks everything reachable from index `start` and returns how many
    /// nodes that newly marked.
    fn flood(&self, start: usize, seen: &mut [bool]) -> u64 {
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        let mut reached = 1;
        while let Some(at) = queue.pop_front() {
            for &next in &self.nbrs[at] {
                if !seen[next] {
                    seen[next] = true;
                    reached += 1;
                    queue.push_back(next);
                }
            }
        }
        reached
    }

    /// Nodes a breadth-first search from `src` reaches, `src` included; 0
    /// if `src` is not a node.
    pub fn reached_from(&self, src: i64) -> u64 {
        match self.index.get(&src) {
            Some(&start) => self.flood(start, &mut vec![false; self.nbrs.len()]),
            None => 0,
        }
    }

    /// Connected components (call on an [`Adjacency::undirected`]).
    pub fn components(&self) -> u64 {
        let mut seen = vec![false; self.nbrs.len()];
        let mut count = 0;
        for start in 0..self.nbrs.len() {
            if !seen[start] {
                self.flood(start, &mut seen);
                count += 1;
            }
        }
        count
    }
}

/// Triangles of the simple undirected graph under `edges`: each edge is
/// pointed from its lower to its higher `(degree, id)` endpoint and the
/// sorted out-lists of its two ends are intersected.
pub fn triangles(edges: &[Edge]) -> u64 {
    let mut pairs = distinct_undirected(edges);
    pairs.retain(|&(a, b)| a != b);
    let mut degree: HashMap<i64, usize> = HashMap::new();
    for &(a, b) in &pairs {
        *degree.entry(a).or_default() += 1;
        *degree.entry(b).or_default() += 1;
    }
    let rank = |id: i64| (degree[&id], id);
    let mut higher: HashMap<i64, Vec<(usize, i64)>> = HashMap::new();
    for &(a, b) in &pairs {
        let (lo, hi) = if rank(a) < rank(b) { (a, b) } else { (b, a) };
        higher.entry(lo).or_default().push(rank(hi));
    }
    for list in higher.values_mut() {
        list.sort_unstable();
    }
    let empty = Vec::new();
    let mut count = 0u64;
    for (_, from) in higher.iter() {
        for &(_, mid) in from {
            let to = higher.get(&mid).unwrap_or(&empty);
            let (mut i, mut j) = (0, 0);
            while i < from.len() && j < to.len() {
                match from[i].cmp(&to[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// The edge count after applying each step's deletions, then its
/// insertions, to the distinct edges of `edges`.
pub fn edges_after_churn<'a>(
    edges: &[Edge],
    steps: impl Iterator<Item = (&'a [Edge], &'a [Edge])>,
) -> u64 {
    let mut live: HashSet<Edge> = edges.iter().copied().collect();
    for (dels, adds) in steps {
        for edge in dels {
            live.remove(edge);
        }
        live.extend(adds.iter().copied());
    }
    live.len() as u64
}

/// What the §4.1 session should produce, counted straight off the TSV.
#[derive(Debug, Default, PartialEq)]
pub struct SoCounts {
    pub posts: u64,
    pub tagged: u64,
    pub questions: u64,
    pub answers: u64,
    /// Tagged questions whose accepted answer is a tagged answer.
    pub joined: u64,
    /// Distinct asker → answerer pairs among the joined rows.
    pub edges: u64,
    /// Distinct users among those pairs.
    pub nodes: u64,
}

/// Reads the posts file (`PostId Type Tag UserId AcceptedAnswerId ...`,
/// `#` header) and replays the session's selects and join by hand.
pub fn so_counts(path: &Path, tag: &str) -> std::io::Result<SoCounts> {
    let mut counts = SoCounts::default();
    let mut askers: Vec<(i64, i64)> = Vec::new(); // (accepted answer id, asker)
    let mut answerers: HashMap<i64, i64> = HashMap::new(); // answer id -> user
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        counts.posts += 1;
        let mut fields = line.split('\t');
        let mut next = || fields.next().unwrap_or("");
        let (post, kind, post_tag, user, accepted) = (next(), next(), next(), next(), next());
        if post_tag != tag {
            continue;
        }
        counts.tagged += 1;
        let int = |s: &str| {
            s.parse::<i64>()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        };
        match kind {
            "question" => {
                counts.questions += 1;
                askers.push((int(accepted)?, int(user)?));
            }
            "answer" => {
                counts.answers += 1;
                answerers.insert(int(post)?, int(user)?);
            }
            _ => {}
        }
    }
    let pairs: Vec<Edge> = askers
        .iter()
        .filter_map(|(accepted, asker)| answerers.get(accepted).map(|answerer| (*asker, *answerer)))
        .collect();
    counts.joined = pairs.len() as u64;
    counts.edges = distinct_edges(&pairs).len() as u64;
    counts.nodes = distinct_nodes(&pairs);
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two triangles sharing the edge 1-2, a tail 3→4, a duplicate, a
    // reversed duplicate, a self-loop, and a separate pair 7→8.
    const EDGES: [Edge; 10] = [
        (0, 1),
        (1, 2),
        (2, 0),
        (1, 3),
        (3, 2),
        (3, 4),
        (0, 1),
        (1, 0),
        (4, 4),
        (7, 8),
    ];

    #[test]
    fn distinct_counts() {
        assert_eq!(distinct_edges(&EDGES).len(), 9);
        assert_eq!(distinct_undirected(&EDGES).len(), 8);
        assert_eq!(distinct_nodes(&EDGES), 7);
    }

    #[test]
    fn reachability_and_components() {
        let out = Adjacency::directed(&EDGES);
        assert_eq!(out.reached_from(0), 5);
        assert_eq!(out.reached_from(4), 1);
        assert_eq!(out.reached_from(7), 2);
        assert_eq!(out.reached_from(99), 0);
        assert_eq!(Adjacency::undirected(&EDGES).components(), 2);
    }

    #[test]
    fn triangle_count_ignores_duplicates_and_loops() {
        assert_eq!(triangles(&EDGES), 2);
        let k4: Vec<Edge> = (0..4)
            .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
            .collect();
        assert_eq!(triangles(&k4), 4);
    }

    #[test]
    fn churn_replays_set_semantics() {
        let dels = [(0, 1), (0, 1), (5, 5)];
        let adds = [(1, 2), (9, 9)];
        let steps = [(&dels[..], &adds[..])];
        assert_eq!(edges_after_churn(&EDGES, steps.into_iter()), 9);
    }
}
