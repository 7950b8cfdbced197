//! Synchronization facade: the one place this crate names its atomics.
//!
//! Library code uses `crate::sync::VAtomic*` instead of
//! `std::sync::atomic::Atomic*`. In a normal build (no `model` feature)
//! these are *type aliases* onto the `std` types — the compiler sees
//! exactly the code it would without the facade, so codegen is identical
//! and the crate keeps its zero-dependency runtime. Under
//! `--features model` (or `--cfg ringo_model`) the aliases point at
//! `ringo_check`'s virtual atomics, which route every operation through
//! the deterministic cooperative scheduler so `cargo test -p ringo-check
//! --features model` can explore interleavings of this crate's lock-free
//! structures. See `crates/check` and DESIGN.md § "Concurrency checking".

#[cfg(not(any(feature = "model", ringo_model)))]
pub use std::sync::atomic::{AtomicU64 as VAtomicU64, AtomicUsize as VAtomicUsize};

#[cfg(any(feature = "model", ringo_model))]
pub use ringo_check::sync::{VAtomicU64, VAtomicUsize};
