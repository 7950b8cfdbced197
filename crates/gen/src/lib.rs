//! Data generators for Ringo's benchmarks and examples.
//!
//! The paper evaluates on two public snapshots (LiveJournal, Twitter2010)
//! and demos on the full StackOverflow dump — none of which can ship with
//! a reproduction. This crate provides the synthetic stand-ins documented
//! in DESIGN.md:
//!
//! * [`rmat()`] — R-MAT power-law directed graphs; `lj_like` / `tw_like`
//!   presets mirror the paper's two benchmark graphs at configurable scale,
//! * [`erdos_renyi`], [`preferential_attachment`], [`small_world`] —
//!   classic random-graph models for tests and examples,
//! * [`catalog`] — the Stanford Large Network Collection statistics behind
//!   the paper's Table 1,
//! * [`stackoverflow`] — a synthetic posts table with the schema and skew
//!   of the §4.1 expert-finding demo.

#![warn(missing_docs)]

pub mod catalog;
pub mod forestfire;
pub mod models;
pub mod rmat;
pub mod stackoverflow;

pub use catalog::{snap_catalog, table1_histogram, CatalogEntry, SizeBucket};
pub use forestfire::{forest_fire, ForestFireConfig};
pub use models::{erdos_renyi, preferential_attachment, small_world};
pub use rmat::{lj_like, rmat, tw_like, RmatConfig};
pub use stackoverflow::{generate_posts, StackOverflowConfig};

use ringo_graph::NodeId;
use ringo_table::{ColumnData, ColumnType, Schema, StringPool, Table};

/// Packs an edge list into a two-column Ringo table (`src`, `dst`) — the
/// canonical "edge table" the conversion benchmarks start from.
pub fn edges_to_table(edges: &[(NodeId, NodeId)]) -> Table {
    let schema = Schema::new([("src", ColumnType::Int), ("dst", ColumnType::Int)]);
    let src: Vec<i64> = edges.iter().map(|e| e.0).collect();
    let dst: Vec<i64> = edges.iter().map(|e| e.1).collect();
    Table::from_parts(
        schema,
        vec![ColumnData::Int(src), ColumnData::Int(dst)],
        StringPool::new(),
    )
    .expect("two equal-length int columns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_to_table_layout() {
        let t = edges_to_table(&[(1, 2), (3, 4)]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.int_col("src").unwrap(), &[1, 3]);
        assert_eq!(t.int_col("dst").unwrap(), &[2, 4]);
    }
}
