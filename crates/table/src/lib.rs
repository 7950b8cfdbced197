//! Ringo's native relational table engine.
//!
//! The paper (§2.3) implements tables inside the system — rather than
//! delegating to an external store — "to allow for efficient and flexible
//! parallel implementations of operations important for graph construction,
//! to support fast conversions into graph objects, and to avoid any
//! performance overheads related to frequent transitions to and from
//! external systems". The design choices reproduced here:
//!
//! * **Column-based store** ([`Table`]): graph-related workloads iterate
//!   over whole columns, so each column is one contiguous vector, shared
//!   between tables until one edits it; a selection, a sort or a join is
//!   a view: each column read through the positions of the rows it
//!   keeps ([`ColumnRef`]). Supported types ([`ColumnType`]): 64-bit
//!   integers, 64-bit floats, and interned strings ([`StringPool`]).
//! * **Persistent row identifiers**: every row carries an identifier that
//!   survives filtering, grouping and sorting, enabling "fine-grained data
//!   tracking, so the user can identify data records even after they
//!   undergo a complex set of operations".
//! * **Relational operators**: select (in place and into a view), hash join,
//!   project, group & aggregate, order, set operations, unique — plus the
//!   graph-construction operators unique to Ringo, [`Table::sim_join`]
//!   (distance-threshold join) and [`Table::next_k`] (predecessor–successor
//!   join over temporal order).
//! * **Parallel ingest** ([`load_tsv`]): the file is parsed chunk by chunk
//!   on the worker pool straight into exact-size columns.
//!
//! Operators parallelize over the table's worker count
//! ([`Table::set_threads`]), defaulting to the machine's parallelism.

#![warn(missing_docs)]

mod column;
mod error;
pub mod exec;
mod io;
pub mod ops;
pub mod plan;
mod schema;
mod strings;
mod table;

pub use column::{ColumnData, ColumnRef};
pub use error::TableError;
pub use io::{load_dsv, load_dsv_threads, load_tsv, save_tsv};
pub use ops::group::AggOp;
pub use ops::select::{Cmp, Predicate};
pub use schema::{ColumnType, Schema};
pub use strings::StringPool;
pub use table::{Table, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
