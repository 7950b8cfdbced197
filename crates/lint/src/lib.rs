//! `ringo-lint` — a token-aware static analyzer for Ringo's own
//! invariant surface.
//!
//! The PR 4 tier-1 gate (`tests/static_gate.rs`) was a line-based
//! tripwire: fast, but foolable by strings and comments, and blind to
//! the bug classes that actually bite an observability-heavy concurrent
//! codebase — a `span!` guard dropped on the spot, an undocumented
//! `RINGO_*` knob. This crate replaces it with a real (std-only,
//! hermetic) lexer + token-tree analyzer and a catalog of
//! project-specific lints:
//!
//! | lint | what it enforces |
//! |---|---|
//! | `unsafe-safety-comment`   | every `unsafe` token carries `// SAFETY:` / `# Safety` |
//! | `relaxed-ordering-comment`| every `Ordering::Relaxed` carries `// ORDERING:` |
//! | `thread-confinement`      | `thread::spawn`/`Builder` only in the worker pool |
//! | `unwrap-audit`            | `.unwrap()`/`.expect(` only in audited files |
//! | `dropped-guard`           | no `let _ = span!(…)` / bare `span!(…);` statements |
//! | `metric-registry`         | span/counter names are dotted, unique, and CI-checked |
//! | `env-knob-registry`       | every `RINGO_*` knob is inventoried and in README |
//! | `hot-alloc`               | no alloc idioms inside `// LINT: hot` functions |
//!
//! All allowlists live in [`config::Config`] and are **shrink-only**:
//! every entry needs a recorded reason, and a stale entry (one that no
//! longer suppresses anything) is itself a finding, in the PR 4 style.
//!
//! The crate is both a library (driven by `tests/static_gate.rs` in
//! tier 1 and by the fixture tests) and a binary:
//!
//! ```text
//! cargo run --release -p ringo-lint -- --workspace
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod tree;

pub use config::Config;
pub use diag::{render_human, render_json, Finding};
pub use lints::{all_lints, run_all, Lint};
pub use source::{SourceFile, Workspace};
