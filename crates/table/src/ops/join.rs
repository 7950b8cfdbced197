//! Equi hash join.
//!
//! The paper's Table 4 benchmarks join throughput; Ringo's "join operation
//! always produces a new table object". We index the build side's key
//! column (the smaller table) — its rows laid out by key hash in flat
//! arrays, no allocation per key — and probe with the larger side in
//! parallel, each worker emitting private match lists — the
//! contention-free pattern used throughout Ringo's engine. The new table
//! object is a view: its columns read the inputs' vectors through the
//! join's left and right positions, so a join gathers no column.

use crate::column::gather;
use crate::table::{row_count_u32, Col, Compose};
use crate::{ColumnData, ColumnRef, ColumnType, Result, StringPool, Table, TableError};
use ringo_concurrent::hash_table::hash_i64;
use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_concurrent::{
    morsel_bounds, parallel_for, parallel_for_morsels_traced, parallel_map,
    parallel_map_morsels_traced, ConcurrentBitset, DisjointSlice, MorselStats,
};
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

impl Table {
    /// Joins `self` with `other` on `self.left_col == other.right_col`,
    /// producing a new table whose columns are all of `self`'s followed by
    /// all of `other`'s (name clashes suffixed `-1`, `-2`, ... as in the
    /// paper's §4.1 demo), with fresh row ids. Key columns must both be
    /// `Int` or both `Str`. The output is a view of the inputs' columns
    /// through the matched positions, 4 B a row a side.
    ///
    /// # Errors
    /// Unknown or mismatched key columns.
    pub fn join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.join");
        sp.rows_in(self.n_rows() + other.n_rows());
        let li = self.schema.index_of(left_col)?;
        let ri = other.schema.index_of(right_col)?;
        let (out, _) = equi_join(self, other, li, ri)?;
        sp.rows_out(out.n_rows());
        Ok(out)
    }
}

/// The join of the eager verb and the lazy `Join` step: the output of
/// `left[li] == right[ri]`, its right key column the left key column's
/// vector, and the [`MorselStats`] of the probe.
pub(crate) fn equi_join(
    left: &Table,
    right: &Table,
    li: usize,
    ri: usize,
) -> Result<(Table, MorselStats)> {
    let (left_rows, right_rows, stats) = join_pairs_sel_stats(left, right, li, ri)?;
    Ok((
        join_view(left, right, left_rows, right_rows, Some((li, ri))),
        stats,
    ))
}

/// Minimum build-side rows before the partitioned parallel build kicks in;
/// below this a sequential single-partition build is faster than two
/// scatter passes (and the output is identical either way).
const PARALLEL_BUILD_MIN_ROWS: usize = 4096;

/// The key columns of a join's build and probe sides, build side first:
/// how a row's key hashes and whether a build row's key equals a probe
/// row's. Rows are positions of the tables' rows, each key read through
/// its column's selection, so nothing is gathered. The hash is keyed for
/// each index, as std's hash maps are: keys come from files, and keys
/// built to share a bucket under a fixed hash would make every probe
/// compare against the whole bucket.
struct Keys<'a> {
    cols: [ColumnRef<'a>; 2],
    pools: [&'a StringPool; 2],
    /// `Str` keys of two pools, hashed (SipHash) and compared by text;
    /// `Int` keys and the symbols of one pool are mixed with `seed` and
    /// finished by [`hash_i64`].
    text: bool,
    state: RandomState,
    seed: i64,
}

impl<'a> Keys<'a> {
    /// The keys `left[li] == right[ri]`, `left` the build side; `Err`
    /// unless both columns are `Int` or both `Str`, naming `right`'s.
    fn new(left: &'a Table, li: usize, right: &'a Table, ri: usize) -> Result<Self> {
        let cols = [left.col(li), right.col(ri)];
        match cols.map(|c| c.data.column_type()) {
            [ColumnType::Float, ColumnType::Float] => Err(TableError::InvalidArgument(
                "join keys must be int or str columns (use sim_join for floats)".into(),
            )),
            [l, r] if l != r => Err(TableError::TypeMismatch {
                column: right.schema.name(ri).to_string(),
                expected: l.name(),
                actual: r.name(),
            }),
            _ => Ok(()),
        }?;
        let state = RandomState::new();
        Ok(Self {
            cols,
            pools: [&left.pool, &right.pool],
            text: !Arc::ptr_eq(&left.pool, &right.pool),
            seed: state.hash_one(0u8) as i64,
            state,
        })
    }

    /// The same keys with the right side building.
    fn swapped(mut self) -> Self {
        self.cols.reverse();
        self.pools.reverse();
        self
    }

    /// The hash of build row `row`'s key (`side` 0) or probe row `row`'s
    /// (`side` 1); equal keys hash alike on either side.
    #[inline]
    fn hash(&self, side: usize, row: usize) -> u64 {
        let col = self.cols[side];
        let at = col.at(row);
        match col.data {
            ColumnData::Int(k) => hash_i64(k[at] ^ self.seed),
            ColumnData::Str(k) if self.text => self.state.hash_one(self.pools[side].get(k[at])),
            ColumnData::Str(k) => hash_i64(i64::from(k[at]) ^ self.seed),
            ColumnData::Float(_) => unreachable!("float keys are rejected"),
        }
    }

    /// Whether build row `b` and probe row `p` hold equal keys.
    #[inline]
    fn equal(&self, b: u32, p: usize) -> bool {
        let [bc, pc] = self.cols;
        let (b, p) = (bc.at(b as usize), pc.at(p));
        match [bc.data, pc.data] {
            [ColumnData::Int(bk), ColumnData::Int(pk)] => bk[b] == pk[p],
            [ColumnData::Str(bk), ColumnData::Str(pk)] if self.text => {
                self.pools[0].get(bk[b]) == self.pools[1].get(pk[p])
            }
            [ColumnData::Str(bk), ColumnData::Str(pk)] => bk[b] == pk[p],
            _ => unreachable!("key types are checked"),
        }
    }
}

/// A hash index of a join's build rows. The rows are radix-partitioned by
/// the top bits of their key hash; within a partition they are laid out
/// by bucket — the low hash bits, 2^⌈log₂ rows⌉ buckets — in row
/// order, with a `u32` offset per bucket: 4 B a build row and 4–8 B of
/// offsets, in two allocations a partition, whatever the keys.
struct JoinIndex<'a> {
    keys: Keys<'a>,
    shift: u32,
    mask: u64,
    parts: Vec<Buckets>,
}

/// One partition of a [`JoinIndex`]: bucket `b`'s build rows (positions
/// of the build side's rows) are `rows[offs[b]..offs[b + 1]]`.
struct Buckets {
    offs: Vec<u32>,
    rows: Vec<u32>,
}

impl<'a> JoinIndex<'a> {
    /// Indexes the rows of `build`, the build side of `keys`. A large one
    /// is first scattered stably by partition, then each partition is
    /// bucketed in parallel; each bucket keeps row order, so the
    /// index answers probes as one partition would, at any thread count.
    fn build(keys: Keys<'a>, build: &Table) -> Self {
        let (n, threads) = (build.n_rows(), build.threads);
        // Text keys across two pools are hashed (SipHash) once a build
        // row, not in each of the passes below.
        let mut text = Vec::new();
        if keys.text {
            text = vec![0u64; n];
            parallel_for_each_chunk_mut(&mut text, threads, |_, start, chunk| {
                for (j, h) in chunk.iter_mut().enumerate() {
                    *h = keys.hash(0, start + j);
                }
            });
        }
        let hash = |r: usize| match keys.text {
            true => text[r],
            false => keys.hash(0, r),
        };
        let parts = if threads <= 1 || n < PARALLEL_BUILD_MIN_ROWS {
            1
        } else {
            threads.next_power_of_two().min(256)
        };
        // Partitions take the top hash bits, buckets the low ones, so the
        // two choices stay independent. One partition's mask is 0: wrap
        // the shift to keep `>>` in range.
        let shift = (64 - parts.trailing_zeros()) % 64;
        let mask = parts as u64 - 1;
        let parts = if parts == 1 {
            vec![Buckets::new(0..n, n, hash)]
        } else {
            let part_of = |i: usize| ((hash(i) >> shift) & mask) as usize;
            let (scatter, offsets) = partition_build_positions(n, threads, parts, &part_of);
            let bucket = |p: usize| {
                let slice = &scatter[offsets[p]..offsets[p + 1]];
                Buckets::new(slice.iter().map(|&i| i as usize), slice.len(), hash)
            };
            let parts: Vec<Vec<_>> = parallel_map(parts, threads, |r| r.map(bucket).collect());
            parts.into_iter().flatten().collect()
        };
        Self {
            keys,
            shift,
            mask,
            parts,
        }
    }

    /// The build rows whose keys equal probe row `p`'s, in row order.
    #[inline]
    fn matches(&self, p: usize) -> impl Iterator<Item = u32> + '_ {
        let h = self.keys.hash(1, p);
        let part = &self.parts[((h >> self.shift) & self.mask) as usize];
        let at = (h & (part.offs.len() as u64 - 2)) as usize;
        let rows = &part.rows[part.offs[at] as usize..part.offs[at + 1] as usize];
        rows.iter().copied().filter(move |&b| self.keys.equal(b, p))
    }
}

impl Buckets {
    /// Counts then fills: `len` build rows, in row order, bucketed
    /// by the low bits of `hash(row)`. The fill runs in that order, so each
    /// bucket keeps it.
    fn new(
        order: impl Iterator<Item = usize> + Clone,
        len: usize,
        hash: impl Fn(usize) -> u64,
    ) -> Self {
        let mask = len.next_power_of_two() as u64 - 1;
        let mut offs = vec![0u32; mask as usize + 2];
        for r in order.clone() {
            offs[(hash(r) & mask) as usize + 1] += 1;
        }
        // `offs[b + 1]` becomes bucket `b`'s start and the fill's cursor
        // into it, and ends as its end: bucket `b + 1`'s start.
        let mut start = 0;
        for o in &mut offs[1..] {
            (*o, start) = (start, start + *o);
        }
        let mut rows = vec![0u32; len];
        for r in order {
            let cursor = &mut offs[(hash(r) & mask) as usize + 1];
            rows[*cursor as usize] = r as u32;
            *cursor += 1;
        }
        Self { offs, rows }
    }
}

/// Probe kernel shared by the eager verb and the lazy executor: the left
/// and the right row positions of the pairs with `left[li] == right[ri]`.
/// Indexes the side with fewer rows ([`JoinIndex`]) and probes with the
/// other in morsels, each writing two position lists of its own,
/// concatenated once: pairs come out in probe row order, each probe
/// row's matches in build row order, at any thread count. The
/// [`MorselStats`] describe the probe dispatch.
pub(crate) fn join_pairs_sel_stats(
    left: &Table,
    right: &Table,
    li: usize,
    ri: usize,
) -> Result<(Vec<u32>, Vec<u32>, MorselStats)> {
    let keys = Keys::new(left, li, right, ri)?;
    // Build and probe positions are emitted as `u32`.
    row_count_u32(left.n_rows())?;
    row_count_u32(right.n_rows())?;
    // Probe with the larger effective side.
    let left_is_build = left.n_rows() <= right.n_rows();
    let (build, probe, keys) = if left_is_build {
        (left, right, keys)
    } else {
        (right, left, keys.swapped())
    };
    let index = JoinIndex::build(keys, build);
    let (morsels, stats) = parallel_map_morsels_traced(
        "plan.morsel.join",
        probe.n_rows(),
        probe.threads,
        |_, range| {
            let (mut ps, mut bs) = (Vec::new(), Vec::new());
            for p in range {
                for b in index.matches(p) {
                    ps.push(p as u32);
                    bs.push(b);
                }
            }
            // Held until every morsel is probed: 4 B a pair a side, not
            // the up to 8 the lists grew to.
            ps.shrink_to_fit();
            bs.shrink_to_fit();
            (ps, bs)
        },
    );
    drop(index);
    let (ps, bs) = morsels.into_iter().unzip();
    let (ps, bs) = (drain(ps), drain(bs));
    let (l, r) = if left_is_build { (bs, ps) } else { (ps, bs) };
    Ok((l, r, stats))
}

/// One side's per-morsel position lists as one list, in order. The first
/// list grows by each next one and frees it once copied, so the side is
/// never held twice, as a copy into a list of the whole side's size
/// would hold it.
fn drain(lists: Vec<Vec<u32>>) -> Vec<u32> {
    let mut lists = lists.into_iter();
    let mut out = lists.next().unwrap_or_default();
    for list in lists {
        out.reserve_exact(list.len());
        out.extend_from_slice(&list);
    }
    out.shrink_to_fit();
    out
}

/// Positions of `left`'s rows (`0..left.n_rows()`) that have a match in
/// `right` on `left[left_col] == right[right_col]` when `matched`, or that
/// have none otherwise, ascending: the index is built over `right`'s
/// rows, and the probe marks the rows it keeps in a bitmap, read
/// into a list of exactly their number. The errors are [`Table::join`]'s.
pub(crate) fn rows_with_match(
    left: &Table,
    right: &Table,
    left_col: &str,
    right_col: &str,
    matched: bool,
) -> Result<Vec<u32>> {
    let li = left.schema.index_of(left_col)?;
    let ri = right.schema.index_of(right_col)?;
    let keys = Keys::new(left, li, right, ri)?.swapped();
    let n = row_count_u32(left.n_rows())?;
    row_count_u32(right.n_rows())?;
    let index = JoinIndex::build(keys, right);
    let kept = ConcurrentBitset::new(n as usize);
    parallel_for(n as usize, left.threads, |_, range| {
        for i in range.filter(|&i| index.matches(i).next().is_some() == matched) {
            kept.set(i);
        }
    });
    let mut rows = Vec::with_capacity(kept.count_ones());
    rows.extend((0..n).filter(|&i| kept.get(i as usize)));
    Ok(rows)
}

/// Stable radix scatter of build positions: returns build-side row
/// positions (`0..bn`) grouped by partition, each partition's run keeping
/// ascending position order, plus per-partition offsets.
/// Two morsel-driven passes — per-(morsel, partition) histogram, then
/// exact scatter through disjoint cursors — mirror the select kernel's
/// count-then-fill discipline.
fn partition_build_positions(
    bn: usize,
    threads: usize,
    parts: usize,
    part_of: &(dyn Fn(usize) -> usize + Sync),
) -> (Vec<u32>, Vec<usize>) {
    let (hists, _) = parallel_map_morsels_traced("plan.morsel.join", bn, threads, |_, range| {
        let mut h = vec![0u32; parts];
        for i in range {
            h[part_of(i)] += 1;
        }
        h
    });
    // Partition-major cursor layout: partition p's run holds morsel 0's
    // positions, then morsel 1's, ... so ascending position order is
    // preserved within each partition.
    let mut offsets = vec![0usize; parts + 1];
    let mut cursors = vec![0usize; hists.len() * parts];
    let mut at = 0;
    for p in 0..parts {
        for (m, h) in hists.iter().enumerate() {
            cursors[m * parts + p] = at;
            at += h[p] as usize;
        }
        offsets[p + 1] = at;
    }
    let mut scatter = vec![0u32; bn];
    let out = DisjointSlice::new(&mut scatter);
    let bounds = morsel_bounds(bn);
    parallel_for_morsels_traced("plan.morsel.join", bn, threads, |morsel, range| {
        debug_assert_eq!(range.start, bounds[morsel]);
        let mut cur = cursors[morsel * parts..(morsel + 1) * parts].to_vec();
        for i in range {
            let p = part_of(i);
            // SAFETY: morsel `morsel` writes partition `p` only in
            // `cursors[morsel][p]..cursors[morsel][p] + hists[morsel][p]`;
            // those windows are disjoint across (morsel, partition) by
            // construction of the histogram prefix sums.
            unsafe { out.write(cur[p], i as u32) };
            cur[p] += 1;
        }
    });
    (scatter, offsets)
}
/// The output of a join given the row positions of its pairs in the two
/// tables: all of `left`'s columns, then all of `right`'s, later name
/// clashes suffixed `-1`, `-2`, ... by [`crate::Schema::push_unique`]. It
/// is a view with fresh row ids: each left column reads its source vector
/// through its selection composed with `left_rows`, each right one with
/// `right_rows`, so a side read through one selection keeps 4 B a row.
/// The output shares `left`'s pool; when `right`'s pool is another, its
/// `Str` columns are gathered and their strings enter the output's pool
/// once per distinct symbol.
///
/// `equal` names a left and a right column that hold the same value on
/// every output row — an equi-join's keys, `next_k`'s group column; the
/// right one is then the left one, read through the left selection.
pub(crate) fn join_view(
    left: &Table,
    right: &Table,
    left_rows: Vec<u32>,
    right_rows: Vec<u32>,
    equal: Option<(usize, usize)>,
) -> Table {
    debug_assert_eq!(left_rows.len(), right_rows.len());
    let (n, threads) = (left_rows.len(), left.threads);
    let side = |t: &Table, rows| {
        t.cols_through(&mut Compose::new(
            rows,
            t.cols.iter().map(|c| c.sel.as_ref()),
            threads,
        ))
    };
    let mut cols = side(left, left_rows);
    let mut right_cols = side(right, right_rows);
    if let Some((li, ri)) = equal {
        right_cols[ri] = cols[li].clone();
    }
    let mut pool = left.pool.clone();
    if !Arc::ptr_eq(&pool, &right.pool) {
        let shared = |c: usize| equal.is_some_and(|(_, ri)| ri == c);
        let mut strs: Vec<(usize, Vec<u32>)> = Vec::new();
        for (c, col) in right_cols.iter().enumerate() {
            if let (false, ColumnData::Str(syms), Some(sel)) = (shared(c), &*col.data, &col.sel) {
                strs.push((c, gather(sel, |i| syms[i], threads)));
            }
        }
        let met: Vec<&[u32]> = strs.iter().map(|(_, syms)| syms.as_slice()).collect();
        let remap = right.pool.per_symbol(&met, |text, _| {
            u64::from(Arc::make_mut(&mut pool).intern(text))
        });
        for (c, mut syms) in strs {
            syms.iter_mut()
                .for_each(|sym| *sym = remap[*sym as usize] as u32);
            right_cols[c] = Col::new(Arc::new(ColumnData::Str(syms)), None);
        }
    }
    cols.extend(right_cols);
    let mut schema = crate::Schema::default();
    for (name, ty) in left.schema.iter().chain(right.schema.iter()) {
        schema.push_unique(name, ty);
    }
    Table::from_cols(schema, cols, n, pool, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Predicate, Schema, Value};

    fn questions() -> Table {
        let schema = Schema::new([
            ("PostId", ColumnType::Int),
            ("UserId", ColumnType::Int),
            ("AcceptedAnswer", ColumnType::Int),
        ]);
        let mut t = Table::new(schema);
        for (p, u, a) in [(1i64, 100i64, 11i64), (2, 101, 12), (3, 102, -1)] {
            t.push_row(&[p.into(), u.into(), a.into()]).unwrap();
        }
        t
    }

    fn answers() -> Table {
        let schema = Schema::new([("PostId", ColumnType::Int), ("UserId", ColumnType::Int)]);
        let mut t = Table::new(schema);
        for (p, u) in [(11i64, 200i64), (12, 201), (13, 202)] {
            t.push_row(&[p.into(), u.into()]).unwrap();
        }
        t
    }

    #[test]
    fn int_join_matches_and_suffixes_columns() {
        let q = questions();
        let a = answers();
        let j = q.join(&a, "AcceptedAnswer", "PostId").unwrap();
        assert_eq!(j.n_rows(), 2);
        // Clashing names from the right side get suffixes.
        assert!(j.schema().contains("PostId"));
        assert!(j.schema().contains("PostId-1"));
        assert!(j.schema().contains("UserId"));
        assert!(j.schema().contains("UserId-1"));
        let askers = j.int_col("UserId").unwrap();
        let answerers = j.int_col("UserId-1").unwrap();
        let mut pairs: Vec<(i64, i64)> = askers
            .iter()
            .zip(answerers)
            .map(|(a, b)| (*a, *b))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(100, 200), (101, 201)]);
    }

    #[test]
    fn join_handles_duplicate_keys_cross_product() {
        let mut l = Table::from_int_column("k", vec![1, 1, 2]);
        let r = Table::from_int_column("k", vec![1, 1, 3]);
        l.set_threads(2);
        let j = l.join(&r, "k", "k").unwrap();
        assert_eq!(j.n_rows(), 4, "2 left ones x 2 right ones");
        assert!(j.schema().contains("k") && j.schema().contains("k-1"));
    }

    #[test]
    fn join_is_symmetric_in_row_count() {
        let big = Table::from_int_column("k", (0..1000).collect());
        let small = Table::from_int_column("k", vec![5, 500, 999, 1000]);
        let a = big.join(&small, "k", "k").unwrap();
        let b = small.join(&big, "k", "k").unwrap();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(b.n_rows(), 3);
    }

    #[test]
    fn string_join_across_pools() {
        let schema = Schema::new([("tag", ColumnType::Str)]);
        let mut l = Table::new(schema.clone());
        let mut r = Table::new(schema);
        for s in ["java", "rust", "go"] {
            l.push_row(&[s.into()]).unwrap();
        }
        // Different interning order in the right pool.
        for s in ["go", "java", "python"] {
            r.push_row(&[s.into()]).unwrap();
        }
        let j = l.join(&r, "tag", "tag").unwrap();
        assert_eq!(j.n_rows(), 2);
        let syms = j.str_sym_col("tag").unwrap();
        let mut tags: Vec<&str> = syms.iter().map(|&s| j.str_value(s)).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec!["go", "java"]);
        // Right-side string column re-interned correctly.
        let syms1 = j.str_sym_col("tag-1").unwrap();
        let mut tags1: Vec<&str> = syms1.iter().map(|&s| j.str_value(s)).collect();
        tags1.sort_unstable();
        assert_eq!(tags1, vec!["go", "java"]);
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let l = Table::from_int_column("k", vec![1]);
        let schema = Schema::new([("k", ColumnType::Str)]);
        let mut r = Table::new(schema);
        r.push_row(&["1".into()]).unwrap();
        assert!(l.join(&r, "k", "k").is_err());
    }

    #[test]
    fn float_join_key_rejected() {
        let schema = Schema::new([("f", ColumnType::Float)]);
        let mut l = Table::new(schema.clone());
        l.push_row(&[Value::Float(1.0)]).unwrap();
        let mut r = Table::new(schema);
        r.push_row(&[Value::Float(1.0)]).unwrap();
        assert!(l.join(&r, "f", "f").is_err());
    }

    #[test]
    fn i64_min_joins_like_any_key_on_either_side() {
        use crate::plan::Step;
        // The eager verb and a lazy chain's join step.
        let join_both = |l: &Table, lc: &str, r: &Table, rc: &str| {
            let step = Step::Join {
                table: 1,
                left_col: lc.into(),
                right_col: rc.into(),
            };
            let lazy = crate::exec::execute(&[step], &[l, r]).map(|e| e.table);
            [l.join(r, lc, rc), lazy]
        };
        let column = |name: &str, len: usize, with_min: bool| {
            let mut keys: Vec<i64> = (0..len as i64).collect();
            if with_min {
                keys[len / 2] = i64::MIN;
            }
            let mut t = Table::from_int_column(name, keys);
            t.set_threads(2);
            t
        };
        // The index is built over the table with fewer rows, whichever
        // side of the verb it stands on: the sequential and the
        // partitioned build both index the key and find it.
        for n in [3usize, PARALLEL_BUILD_MIN_ROWS + 1] {
            for (build_min, probe_min) in [(true, false), (true, true), (false, true)] {
                let build = column("b", n, build_min);
                let probe = column("p", 2 * n, probe_min);
                // `i64::MIN` displaced `n / 2` on the build side, and `n`,
                // which the build side never holds, on the probe side.
                let want = n - usize::from(build_min) + usize::from(build_min && probe_min);
                let results = join_both(&build, "b", &probe, "p")
                    .into_iter()
                    .chain(join_both(&probe, "p", &build, "b"));
                for got in results {
                    let ctx = format!("rows={n} build={build_min} probe={probe_min}");
                    let t = got.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(t.n_rows(), want, "{ctx}");
                    let mins = t.int_col("b").unwrap().iter();
                    assert_eq!(
                        mins.filter(|&&k| k == i64::MIN).count(),
                        usize::from(build_min && probe_min),
                        "{ctx}"
                    );
                }
            }
        }
    }

    /// The inverse of [`hash_i64`]: the key whose unseeded hash is `h`.
    fn unhash(h: u64) -> i64 {
        let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |z, _| y ^ (z >> s));
        // Newton's iteration doubles the bits of an odd number's inverse.
        let inv = |c: u64| {
            (0..5).fold(c, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
            })
        };
        let mut z = unshift(h, 31).wrapping_mul(inv(0x94d0_49bb_1331_11eb));
        z = unshift(z, 27).wrapping_mul(inv(0xbf58_476d_1ce4_e5b9));
        unshift(z, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15) as i64
    }

    /// Keys built so that their unseeded hashes share every low bit would
    /// all fill one bucket; the seed drawn for each index spreads them.
    #[test]
    fn keys_built_to_share_a_bucket_are_spread_by_the_seed() {
        let n = PARALLEL_BUILD_MIN_ROWS as u64;
        let keys: Vec<i64> = (0..n).map(|i| unhash(i << 12)).collect();
        assert!((0..n).all(|i| hash_i64(keys[i as usize]) == i << 12));
        let mut t = Table::from_int_column("k", keys);
        let largest = |index: &JoinIndex| {
            let parts = index.parts.iter();
            let sizes = parts.flat_map(|p| p.offs.windows(2).map(|w| w[1] - w[0]));
            sizes.max().unwrap() as u64
        };
        for threads in [1, 2] {
            t.set_threads(threads);
            if threads == 1 {
                let mut fixed = Keys::new(&t, 0, &t, 0).unwrap();
                fixed.seed = 0;
                assert_eq!(largest(&JoinIndex::build(fixed, &t)), n, "one bucket");
            }
            let index = JoinIndex::build(Keys::new(&t, 0, &t, 0).unwrap(), &t);
            let most = largest(&index);
            assert!(
                most <= 16,
                "threads {threads}: {most} of {n} keys in one bucket"
            );
            assert_eq!(t.join(&t, "k", "k").unwrap().n_rows() as u64, n);
            assert_eq!(t.semi_join(&t, "k", "k").unwrap().n_rows() as u64, n);
        }
    }

    #[test]
    fn empty_join_result() {
        let l = Table::from_int_column("k", vec![1, 2]);
        let r = Table::from_int_column("k", vec![3, 4]);
        let j = l.join(&r, "k", "k").unwrap();
        assert_eq!(j.n_rows(), 0);
        assert_eq!(j.n_cols(), 2);
    }

    /// A right side with its own pool: each of its strings enters the
    /// output's pool once, and only the strings the output holds.
    #[test]
    fn join_across_pools_interns_each_right_string_once() {
        let mut left = Table::from_int_column("k", vec![1, 2, 3, 1]);
        left.add_str_column("s", &["x", "y", "x", "z"]).unwrap();
        let mut right = Table::from_int_column("k", vec![1, 1, 3, 9]);
        right
            .add_str_column("w", &["y", "new", "new", "unmatched"])
            .unwrap();
        let j = left.join(&right, "k", "k").unwrap();
        let mut got: Vec<(Value, Value)> = (0..j.n_rows())
            .map(|r| (j.get(r, "s").unwrap(), j.get(r, "w").unwrap()))
            .collect();
        let pair = |s: &str, w: &str| (Value::from(s), Value::from(w));
        let mut want = vec![
            pair("x", "y"),
            pair("x", "new"),
            pair("x", "new"),
            pair("z", "y"),
            pair("z", "new"),
        ];
        got.sort_by_key(|p| format!("{p:?}"));
        want.sort_by_key(|p| format!("{p:?}"));
        assert_eq!(got, want);
        // "", "x", "y", "z" from the left; "new" once; not "unmatched".
        assert_eq!(j.pool().len(), 5);
        assert_eq!(left.pool().len(), 4, "the left pool is not edited");
    }

    /// Two views of one table share its pool: the join output shares it
    /// too, and its symbols are the base's.
    #[test]
    fn join_of_two_views_of_one_table_shares_its_pool() {
        let mut base = Table::from_int_column("k", vec![1, 2, 3, 4, 2]);
        base.add_str_column("s", &["a", "b", "c", "d", "e"])
            .unwrap();
        let small = base.select(&Predicate::int("k", Cmp::Le, 2)).unwrap();
        let big = base.select(&Predicate::int("k", Cmp::Ge, 2)).unwrap();
        let j = small.join(&big, "k", "k").unwrap();
        assert!(std::ptr::eq(j.pool(), base.pool()), "one pool, shared");
        let text = |r, c| match j.get(r, c).unwrap() {
            Value::Str(s) => s,
            v => panic!("{v:?}"),
        };
        let mut got: Vec<String> = (0..j.n_rows())
            .map(|r| text(r, "s") + &text(r, "s-1"))
            .collect();
        got.sort();
        assert_eq!(got, ["bb", "be", "eb", "ee"]);
    }

    #[test]
    fn join_then_select_pipeline() {
        // The paper's demo pattern: join, then filter the joined table.
        let q = questions();
        let a = answers();
        let j = q.join(&a, "AcceptedAnswer", "PostId").unwrap();
        let experts = j.select(&Predicate::int("UserId-1", Cmp::Gt, 200)).unwrap();
        assert_eq!(experts.n_rows(), 1);
        assert_eq!(experts.get(0, "UserId-1").unwrap(), Value::Int(201));
    }
}
