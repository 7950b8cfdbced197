//! Approximate Neighborhood Function (ANF) via Flajolet–Martin sketches.
//!
//! `N(h)` = number of node pairs within `h` hops. Computing it exactly
//! needs all-pairs BFS; ANF (Palmer, Gibbons & Faloutsos, KDD'02 — the
//! technique behind SNAP's `GetAnf`) propagates small probabilistic
//! bitmask sketches along edges instead, giving the whole curve in
//! `O(h * E * k)` with relative error shrinking as `1/sqrt(k)` sketches.
//! The effective-diameter estimate derived from it is how large-graph
//! studies report distances.

use ringo_concurrent::{num_threads, parallel_for_morsels, DisjointSlice};
use ringo_graph::DirectedTopology;

/// Flajolet–Martin sketch state: `k` bitmasks per node.
struct Sketches {
    bits: Vec<u64>, // n_slots * k
    k: usize,
}

impl Sketches {
    fn estimate(&self, slot: usize) -> f64 {
        // Mean position of the lowest zero bit over k masks.
        let start = slot * self.k;
        let mean_b: f64 = self.bits[start..start + self.k]
            .iter()
            .map(|m| f64::from(m.trailing_ones()))
            .sum::<f64>()
            / self.k as f64;
        2f64.powf(mean_b) / 0.773_51
    }
}

/// Approximates the neighborhood function over out-edges: element `h-1`
/// of the result estimates the number of ordered pairs `(u, v)` with
/// `0 < dist(u, v) <= h`, for `h = 1..=max_hops`. `k` is the number of
/// parallel sketches (e.g. 32; more = tighter). Deterministic for a
/// fixed `seed` — the hop sweep is morsel-parallel, but each slot's
/// sketch window is an OR-fold of the previous hop's snapshot, so the
/// output is bit-identical at every thread count.
pub fn approx_neighborhood_function<G: DirectedTopology>(
    g: &G,
    max_hops: usize,
    k: usize,
    seed: u64,
) -> Vec<f64> {
    let n_slots = g.n_slots();
    let k = k.max(1);
    let mut cur = Sketches {
        bits: vec![0u64; n_slots * k],
        k,
    };
    // Initialize: each live node sets one geometrically distributed bit
    // per sketch.
    let mut state = seed | 1;
    let mut next_rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut live_count = 0usize;
    for slot in 0..n_slots {
        if g.slot_id(slot).is_none() {
            continue;
        }
        live_count += 1;
        for j in 0..k {
            let r = next_rand();
            // P(bit b) = 2^-(b+1).
            let b = (r.trailing_zeros() as usize).min(62);
            cur.bits[slot * k + j] |= 1u64 << b;
        }
    }
    if live_count == 0 {
        return vec![0.0; max_hops];
    }

    let threads = num_threads();
    let mut curve = Vec::with_capacity(max_hops);
    let mut next = cur.bits.clone();
    for _ in 0..max_hops {
        // next[u] = cur[u] | OR of cur[v] over out-neighbors v. Morsels
        // over the slot range; each slot's k-word window belongs to
        // exactly one morsel, so the writes are disjoint.
        let mut sweep = ringo_trace::span!("algo.anf.sweep");
        sweep.rows_in(live_count);
        {
            let cur_bits = &cur.bits;
            let out = DisjointSlice::new(&mut next);
            parallel_for_morsels(n_slots, threads, |_, range| {
                for slot in range {
                    let base = slot * k;
                    // SAFETY: morsels partition `0..n_slots`, so slot
                    // window `[base, base + k)` is written by one worker.
                    let win = unsafe { out.slice_mut(base, base + k) };
                    win.copy_from_slice(&cur_bits[base..base + k]);
                    if g.slot_id(slot).is_none() {
                        continue;
                    }
                    for &nbr in g.out_row(slot) {
                        let ns = nbr as usize * k;
                        for (w, &c) in win.iter_mut().zip(&cur_bits[ns..ns + k]) {
                            *w |= c;
                        }
                    }
                }
            });
        }
        sweep.rows_out(live_count);
        std::mem::swap(&mut cur.bits, &mut next);
        // Sum of per-node neighborhood sizes, minus the nodes themselves.
        let total: f64 = (0..n_slots)
            .filter(|&s| g.slot_id(s).is_some())
            .map(|s| cur.estimate(s))
            .sum();
        curve.push((total - live_count as f64).max(0.0));
    }
    curve
}

/// Effective diameter estimate from the ANF curve: the (interpolated)
/// hop count at which the curve reaches `quantile` of its final value.
pub fn anf_effective_diameter(curve: &[f64], quantile: f64) -> f64 {
    let total = match curve.last() {
        Some(&t) if t > 0.0 => t,
        _ => return 0.0,
    };
    let target = quantile * total;
    let mut prev = 0.0;
    for (h, &v) in curve.iter().enumerate() {
        if v >= target {
            let frac = if v > prev {
                (target - prev) / (v - prev)
            } else {
                0.0
            };
            return h as f64 + frac;
        }
        prev = v;
    }
    curve.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{bfs_distances, Direction};
    use ringo_graph::DirectedGraph;

    fn exact_neighborhood(g: &DirectedGraph, max_hops: usize) -> Vec<u64> {
        let mut curve = vec![0u64; max_hops];
        for u in g.node_ids() {
            for (_, &d) in bfs_distances(g, u, Direction::Out).iter() {
                if d == 0 {
                    continue;
                }
                for cell in curve.iter_mut().skip(d as usize - 1) {
                    *cell += 1;
                }
            }
        }
        curve
    }

    #[test]
    fn anf_tracks_exact_curve_within_tolerance() {
        let mut g = DirectedGraph::new();
        let mut x = 13u64;
        for _ in 0..1200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 150;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 150;
            g.add_edge(s as i64, d as i64);
        }
        let exact = exact_neighborhood(&g, 6);
        let approx = approx_neighborhood_function(&g, 6, 64, 42);
        for (h, (&e, &a)) in exact.iter().zip(&approx).enumerate() {
            let rel = (a - e as f64).abs() / e as f64;
            assert!(
                rel < 0.25,
                "hop {h}: exact {e}, approx {a:.0}, rel {rel:.2}"
            );
        }
    }

    #[test]
    fn curve_is_monotone_nondecreasing() {
        let mut g = DirectedGraph::new();
        for i in 0..50 {
            g.add_edge(i, (i + 1) % 50);
        }
        let c = approx_neighborhood_function(&g, 10, 32, 1);
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut g = DirectedGraph::new();
        for i in 0..30 {
            g.add_edge(i, (i * 7) % 30);
            g.add_edge(i, (i + 1) % 30);
        }
        let a = approx_neighborhood_function(&g, 5, 16, 9);
        let b = approx_neighborhood_function(&g, 5, 16, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn effective_diameter_from_curve() {
        // Synthetic curve reaching 100 pairs: 90% point interpolates.
        let curve = [50.0, 80.0, 95.0, 100.0];
        let d = anf_effective_diameter(&curve, 0.9);
        assert!(d > 1.0 && d < 3.0, "90% of 100 between hop 2 and 3: {d}");
        assert_eq!(anf_effective_diameter(&[], 0.9), 0.0);
        assert_eq!(anf_effective_diameter(&[0.0], 0.9), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        assert_eq!(approx_neighborhood_function(&g, 4, 8, 1), vec![0.0; 4]);
    }
}
