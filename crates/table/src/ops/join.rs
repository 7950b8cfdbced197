//! Equi hash join.
//!
//! The paper's Table 4 benchmarks join throughput; Ringo's "join operation
//! always produces a new table object". We build an open-addressing hash
//! index on the build side's key column (the smaller table) and probe with
//! the larger side in parallel, each worker emitting a private match list —
//! the contention-free pattern used throughout Ringo's engine.

use crate::table::row_count_u32;
use crate::{ColumnData, Result, Table, TableError};
use ringo_concurrent::hash_table::hash_i64;
use ringo_concurrent::{
    morsel_bounds, parallel_for_morsels_traced, parallel_map, parallel_map_morsels_traced,
    DisjointSlice, IntHashTable, MorselStats,
};
use std::collections::HashMap;
use std::sync::Arc;

impl Table {
    /// Joins `self` with `other` on `self.left_col == other.right_col`,
    /// producing a new table whose columns are all of `self`'s followed by
    /// all of `other`'s (name clashes suffixed `-1`, `-2`, ... as in the
    /// paper's §4.1 demo). Key columns must both be `Int` or both `Str`.
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
    let out = materialize_join(left, right, left_rows, right_rows, Some((li, ri)))?;
    Ok((out, stats))
}

/// Minimum build-side rows before the partitioned parallel build kicks in;
/// below this a sequential single-partition build is faster than two
/// scatter passes (and the output is identical either way).
const PARALLEL_BUILD_MIN_ROWS: usize = 4096;

/// Probe kernel shared by the eager verb and the lazy executor: matched
/// `(left_row, right_row)` position pairs (into the tables' columns, so a
/// view's rows are read through its selection) for the equi join of
/// `left[li] == right[ri]`. Builds the hash index on the side with fewer
/// rows and probes with the other side morsel by morsel.
///
/// For large build sides the index is radix-partitioned by the top bits of
/// the key hash: a stable two-pass scatter groups build positions by
/// partition (preserving selection order within each partition), then one
/// hash table per partition is built in parallel. Every key lives in
/// exactly one partition and its match list keeps selection order, so the
/// partitioned index answers probes identically to the sequential build —
/// pair output is byte-identical at any thread count. The probe side runs
/// as fixed-size morsels whose private pair lists are concatenated in
/// morsel (= selection) order; the returned [`MorselStats`] describe the
/// probe dispatch.
pub(crate) fn join_pairs_sel_stats(
    left: &Table,
    right: &Table,
    li: usize,
    ri: usize,
) -> Result<(Vec<u32>, Vec<u32>, MorselStats)> {
    let lt = left.cols[li].column_type();
    let rt = right.cols[ri].column_type();
    if lt != rt {
        return Err(TableError::TypeMismatch {
            column: right.schema.name(ri).to_string(),
            expected: lt.name(),
            actual: rt.name(),
        });
    }
    // Build and probe positions are emitted as `u32`.
    row_count_u32(left.row_ids.len())?;
    row_count_u32(right.row_ids.len())?;
    let (lsel, rsel) = (left.sel(), right.sel());
    let (ln, rn) = (left.n_rows(), right.n_rows());
    // Probe with the larger effective side.
    let (build, bi, bsel, bn, probe, pi, psel, pn, left_is_build) = if ln <= rn {
        (left, li, lsel, ln, right, ri, rsel, rn, true)
    } else {
        (right, ri, rsel, rn, left, li, lsel, ln, false)
    };
    let brow = |i: usize| -> usize {
        match bsel {
            Some(s) => s[i] as usize,
            None => i,
        }
    };
    let parts = if build.threads <= 1 || bn < PARALLEL_BUILD_MIN_ROWS {
        1
    } else {
        build.threads.next_power_of_two().min(256)
    };
    // Partition by the *top* hash bits: the open-addressing table derives
    // slots from the low bits, so partition and slot choice stay
    // independent. With a single partition the mask is 0, so the shift is
    // irrelevant — wrap it to keep `>>` in range.
    let shift = (64 - parts.trailing_zeros()) % 64;
    let (pairs, stats): (Vec<(u32, u32)>, MorselStats) = match &*build.cols[bi] {
        ColumnData::Int(bkeys) => {
            let key_at = |i: usize| bkeys[brow(i)];
            let part_of = |i: usize| ((hash_i64(key_at(i)) >> shift) & (parts as u64 - 1)) as usize;
            let (scatter, offsets) = partition_build_positions(bn, build.threads, parts, &part_of);
            let indexes: Vec<IntHashTable<Vec<u32>>> =
                parallel_map(parts, build.threads, |range| {
                    range
                        .map(|p| {
                            let slice = &scatter[offsets[p]..offsets[p + 1]];
                            let mut index: IntHashTable<Vec<u32>> =
                                IntHashTable::with_capacity(slice.len());
                            for &i in slice {
                                let row = brow(i as usize);
                                index
                                    .get_or_insert_with(bkeys[row], Vec::new)
                                    .push(row as u32);
                            }
                            index
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let keys = probe.cols[pi].as_int();
            probe_pairs_morsels(pn, psel, probe.threads, |row, emit| {
                let k = keys[row];
                let p = ((hash_i64(k) >> shift) & (parts as u64 - 1)) as usize;
                if let Some(rows) = indexes[p].get(k) {
                    for &b in rows {
                        emit(b);
                    }
                }
            })
        }
        ColumnData::Str(bsyms) => {
            let part_of = |i: usize| {
                ((hash_str(build.pool.get(bsyms[brow(i)])) >> shift) & (parts as u64 - 1)) as usize
            };
            let (scatter, offsets) = partition_build_positions(bn, build.threads, parts, &part_of);
            let indexes: Vec<HashMap<&str, Vec<u32>>> =
                parallel_map(parts, build.threads, |range| {
                    range
                        .map(|p| {
                            let slice = &scatter[offsets[p]..offsets[p + 1]];
                            let mut index: HashMap<&str, Vec<u32>> =
                                HashMap::with_capacity(slice.len());
                            for &i in slice {
                                let row = brow(i as usize);
                                index
                                    .entry(build.pool.get(bsyms[row]))
                                    .or_default()
                                    .push(row as u32);
                            }
                            index
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let syms = probe.cols[pi].as_str_syms();
            probe_pairs_morsels(pn, psel, probe.threads, |row, emit| {
                let s = probe.pool.get(syms[row]);
                let p = ((hash_str(s) >> shift) & (parts as u64 - 1)) as usize;
                if let Some(rows) = indexes[p].get(s) {
                    for &b in rows {
                        emit(b);
                    }
                }
            })
        }
        ColumnData::Float(_) => {
            return Err(TableError::InvalidArgument(
                "join keys must be int or str columns (use sim_join for floats)".into(),
            ))
        }
    };

    // Orient pairs as (left_row, right_row).
    let (l, r) = if left_is_build {
        pairs.iter().map(|&(p, b)| (b, p)).unzip()
    } else {
        pairs.into_iter().unzip()
    };
    Ok((l, r, stats))
}

/// FNV-1a over the key bytes; used only to pick a build partition, so it
/// must hash *string contents* (probe and build sides intern into
/// different pools, making symbol ids incomparable).
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable radix scatter of build positions: returns build-side selection
/// positions (`0..bn`) grouped by partition, each partition's run keeping
/// ascending position (= selection) order, plus per-partition offsets.
/// Two morsel-driven passes — per-(morsel, partition) histogram, then
/// exact scatter through disjoint cursors — mirror the select kernel's
/// count-then-fill discipline.
fn partition_build_positions(
    bn: usize,
    threads: usize,
    parts: usize,
    part_of: &(dyn Fn(usize) -> usize + Sync),
) -> (Vec<u32>, Vec<usize>) {
    if parts == 1 {
        return ((0..bn as u32).collect(), vec![0, bn]);
    }
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
    for p in 0..parts {
        let total: usize = hists.iter().map(|h| h[p] as usize).sum();
        offsets[p + 1] = offsets[p] + total;
    }
    let morsels = hists.len();
    let mut cursors = vec![0usize; morsels * parts];
    for p in 0..parts {
        let mut at = offsets[p];
        for (m, h) in hists.iter().enumerate() {
            cursors[m * parts + p] = at;
            at += h[p] as usize;
        }
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

/// Probes each position of the probe side's selection (every row when
/// `None`) morsel by morsel, collecting `(probe_row, build_row)` pairs of
/// underlying row positions. Each morsel emits into a private vector;
/// concatenating them in morsel order reproduces the sequential pair
/// order exactly.
fn probe_pairs_morsels<F>(
    pn: usize,
    psel: Option<&[u32]>,
    threads: usize,
    lookup: F,
) -> (Vec<(u32, u32)>, MorselStats)
where
    F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
{
    let lookup = &lookup;
    let (parts, stats) =
        parallel_map_morsels_traced("plan.morsel.join", pn, threads, |_, range| {
            let mut out: Vec<(u32, u32)> = Vec::new();
            for i in range {
                let row = match psel {
                    Some(s) => s[i] as usize,
                    None => i,
                };
                let mut emit = |b: u32| out.push((row as u32, b));
                lookup(row, &mut emit);
            }
            out
        });
    let total = parts.iter().map(Vec::len).sum();
    let mut pairs = Vec::with_capacity(total);
    for p in parts {
        pairs.extend(p);
    }
    (pairs, stats)
}

/// Builds the output table of a join given matched positions in the two
/// tables' columns: all of `left`'s columns, then all of `right`'s, later
/// name clashes suffixed `-1`, `-2`, ... by [`crate::Schema::push_unique`].
/// The output shares `left`'s pool; the right side's strings enter it
/// once per distinct symbol, and not at all when the pool is shared.
///
/// `equal` names a left and a right column that hold the same value on
/// every output row — an equi-join's keys, `next_k`'s group column; the
/// right one is then stored as the left one's vector, shared (equal text
/// is one symbol of the output's pool). The right side's other columns
/// are gathered first and its positions dropped, then the left side's,
/// so one position vector at most stands beside the output.
pub(crate) fn materialize_join(
    left: &Table,
    right: &Table,
    left_rows: Vec<u32>,
    right_rows: Vec<u32>,
    equal: Option<(usize, usize)>,
) -> Result<Table> {
    debug_assert_eq!(left_rows.len(), right_rows.len());
    let threads = left.threads;
    let shared = |c: usize| equal.is_some_and(|(_, ri)| ri == c);
    let mut right_cols: Vec<ColumnData> = (right.cols.iter().enumerate())
        .filter(|&(c, _)| !shared(c))
        .map(|(_, col)| col.gather_sel(&right_rows, threads))
        .collect();
    drop(right_rows);
    let mut cols: Vec<Arc<ColumnData>> = Vec::with_capacity(left.n_cols() + right.n_cols());
    for c in 0..left.n_cols() {
        cols.push(match left.first_of(c) {
            e if e < c => cols[e].clone(),
            _ => Arc::new(left.cols[c].gather_sel(&left_rows, threads)),
        });
    }
    drop(left_rows);
    let mut pool = left.pool.clone();
    if !Arc::ptr_eq(&pool, &right.pool) {
        let mut right_strs: Vec<&mut Vec<u32>> = (right_cols.iter_mut())
            .filter_map(|col| match col {
                ColumnData::Str(syms) => Some(syms),
                _ => None,
            })
            .collect();
        let met: Vec<&[u32]> = right_strs.iter().map(|s| s.as_slice()).collect();
        let remap = right.pool.per_symbol(&met, |text, _| {
            u64::from(Arc::make_mut(&mut pool).intern(text))
        });
        for sym in right_strs.iter_mut().flat_map(|s| s.iter_mut()) {
            *sym = remap[*sym as usize] as u32;
        }
    }
    let mut right_cols = right_cols.into_iter().map(Arc::new);
    for c in 0..right.n_cols() {
        match equal {
            Some((li, _)) if shared(c) => cols.push(cols[li].clone()),
            _ => cols.extend(right_cols.next()),
        }
    }
    let mut schema = crate::Schema::default();
    for (name, ty) in left.schema.iter().chain(right.schema.iter()) {
        schema.push_unique(name, ty);
    }
    Table::from_shared(schema, cols, pool, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, ColumnType, Predicate, Schema, Value};

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
