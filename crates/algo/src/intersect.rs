//! The one sorted-set intersection of the kernels that intersect rows
//! pair by pair: k-truss and similarity. Triangles and clustering probe
//! one row against many, so they mark it in a bitmap instead
//! (`triangles.rs`). Inputs are strictly ascending lists — in the
//! kernels, rows of neighbour slots.
//!
//! Lists of comparable length are merged with two pointers that advance
//! without a data-dependent branch. When one list is [`GALLOP_RATIO`]
//! times the other or more, each element of the short one is found in the
//! long one by exponential search from where the previous one landed:
//! O(short · log(long / short)) rather than O(short + long), so a hub's
//! list is not re-walked once per low-degree neighbour.

/// Where the search overtakes the merge, measured when triangles still
/// intersected (DESIGN.md, "Triangles": they tie at 4×, the search is
/// 1.4× ahead at 8×). A constant of the algorithm, not a knob.
const GALLOP_RATIO: usize = 4;

/// Number of values present in both lists.
pub(crate) fn count_common<T: Copy + Ord>(a: &[T], b: &[T]) -> u64 {
    let mut n = 0;
    for_each_common(a, b, |_| n += 1);
    n
}

/// Calls `f` with every value present in both lists, in ascending order.
pub(crate) fn for_each_common<T: Copy + Ord>(a: &[T], b: &[T], mut f: impl FnMut(T)) {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(GALLOP_RATIO) > long.len() {
        let (mut i, mut j) = (0, 0);
        while i < short.len() && j < long.len() {
            let (x, y) = (short[i], long[j]);
            if x == y {
                f(x);
            }
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        return;
    }
    for &x in short {
        long = &long[lower_bound(long, x)..];
        if long.first() == Some(&x) {
            f(x);
        }
    }
}

/// Index of the first element of `s` that is not below `x`: probes
/// `s[0], s[1], s[3], s[7], …` and binary-searches the last gap, so a
/// target near the front costs O(log distance), not O(log len).
fn lower_bound<T: Copy + Ord>(s: &[T], x: T) -> usize {
    let mut bound = 1usize;
    while bound <= s.len() && s[bound - 1] < x {
        bound <<= 1;
    }
    let lo = bound / 2;
    lo + s[lo..(bound - 1).min(s.len())].partition_point(|&e| e < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::NodeId;
    use std::collections::BTreeSet;

    fn sorted_set(rng: &mut u64, len: usize, universe: u64) -> Vec<NodeId> {
        let mut set = BTreeSet::new();
        while set.len() < len {
            *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            set.insert(((*rng >> 33) % universe) as i64 - (universe / 2) as i64);
        }
        set.into_iter().collect()
    }

    fn check(a: &[NodeId], b: &[NodeId]) {
        let in_b: BTreeSet<NodeId> = b.iter().copied().collect();
        let want: Vec<NodeId> = a.iter().copied().filter(|x| in_b.contains(x)).collect();
        for (p, q) in [(a, b), (b, a)] {
            let mut got = Vec::new();
            for_each_common(p, q, |x| got.push(x));
            assert_eq!(got, want, "lens {} and {}", p.len(), q.len());
            assert_eq!(count_common(p, q), want.len() as u64);
        }
    }

    #[test]
    fn matches_the_set_oracle_across_length_ratios() {
        let mut rng = 0x5eed_u64;
        for ratio in [1, 2, 3, 4, 5, 10, 64, 1_000, 10_000] {
            for short in [1usize, 3, 17] {
                let long = short * ratio;
                // A universe barely wider than the long list makes most
                // short elements hits; a wide one makes most misses.
                for universe in [long as u64 + 8, 4 * long as u64 + 64] {
                    let a = sorted_set(&mut rng, short, universe);
                    let b = sorted_set(&mut rng, long, universe);
                    check(&a, &b);
                }
            }
        }
    }

    #[test]
    fn empty_disjoint_identical_and_extreme_inputs() {
        let mut rng = 7u64;
        let a = sorted_set(&mut rng, 100, 1_000);
        check(&[], &[]);
        check(&a, &[]);
        check(&a, &a);
        let above: Vec<NodeId> = a.iter().map(|x| x + 10_000).collect();
        check(&a, &above);
        let interleaved: Vec<NodeId> = (0..2_000).map(|x| 2 * x + 1).collect();
        let evens: Vec<NodeId> = (0..50).map(|x| 80 * x).collect();
        check(&interleaved, &evens);
        let ends = [i64::MIN, -1, 0, i64::MAX];
        check(&ends, &[i64::MIN, i64::MAX]);
        let long: Vec<NodeId> = (i64::MAX - 999..=i64::MAX).collect();
        check(&ends, &long);
    }

    #[test]
    fn lower_bound_agrees_with_partition_point() {
        let s: Vec<NodeId> = (0..300).map(|x| 3 * x).collect();
        for len in [0, 1, 2, 3, 4, 7, 8, 9, 300] {
            for x in -2..=(3 * len as i64 + 2) {
                let want = s[..len].partition_point(|&e| e < x);
                assert_eq!(lower_bound(&s[..len], x), want, "len {len} x {x}");
            }
        }
    }
}
