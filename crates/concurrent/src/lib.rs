//! Concurrency substrate for Ringo.
//!
//! The Ringo paper (§2.5) builds its graph engine on three low-level
//! ingredients: OpenMP-style parallel loops, a fast open-addressing hash
//! table with linear probing, and vectors that support thread-safe
//! insertions by claiming cell indices with an atomic increment. This crate
//! provides the loops and the table; the concurrent insertions have no
//! counterpart, because the paper's own sort-first conversion (§3), which
//! is the one this repo runs, partitions the work so that no two workers
//! ever write the same cell:
//!
//! * [`pool`] — a persistent fork-join worker pool created once per
//!   process, so parallel regions cost a wakeup instead of OS thread
//!   spawns, with [`pool::PoolStats`] counters for observability,
//! * [`parallel`] — OpenMP-style loops on that pool
//!   ([`parallel::parallel_for`], [`parallel::parallel_map`]),
//!   the moral equivalent of `#pragma omp parallel for` with static
//!   scheduling,
//! * [`radix`] — parallel radix partition sort of packed `u64` / `u128`
//!   key words (per-worker histograms, one scatter, in-bucket finish),
//!   behind the "sort-first" table-to-graph conversion and numeric
//!   `order_by`,
//! * [`hash_table`] — [`hash_table::IntHashTable`], a sequential
//!   open-addressing / linear-probing map keyed by `i64`, and
//!   [`hash_table::KeyInterner`], the same discipline for fixed-width
//!   multi-word keys mapped to dense first-appearance ids,
//! * [`bitset`] — [`bitset::ConcurrentBitset`], a packed atomic visited
//!   set whose `set` is a `fetch_or` claim, used by the frontier engine's
//!   bottom-up traversal phase.

#![warn(missing_docs)]

pub mod bitset;
pub mod hash_table;
pub mod parallel;
pub mod pool;
pub mod radix;

pub use bitset::ConcurrentBitset;
pub use hash_table::{IntHashTable, KeyInterner};
pub use parallel::{
    morsel_bounds, morsel_rows, num_threads, parallel_for, parallel_for_dynamic,
    parallel_for_dynamic_with, parallel_for_morsels, parallel_for_morsels_traced, parallel_map,
    parallel_map_morsels, parallel_map_morsels_traced, DisjointSlice, MorselStats,
    DEFAULT_MORSEL_ROWS,
};
pub use pool::{pool_stats, Pool, PoolStats};
pub use radix::{
    decode_rows, f64_key, i64_key, radix_sort_columns, radix_sort_rows, PairCodec, RowCodec,
    SortColumn, SortedColumn, SortedPairs, SortedRows,
};
