//! Synchronization facade: the one place this crate names its atomics.
//!
//! Library code uses `crate::sync::VAtomic*` instead of
//! `std::sync::atomic::Atomic*`. In a normal build (no `model` feature)
//! these are *type aliases* onto the `std` types — identical codegen, and
//! the crate stays zero-dependency as advertised. Under `--features model`
//! (or `--cfg ringo_model`) they point at `ringo_check`'s virtual atomics
//! so the deterministic scheduler can explore interleavings of the
//! registry's slot-claim protocol and the flight recorder's seqlock ring.
//! See `crates/check` and DESIGN.md § "Concurrency checking".

#[cfg(not(any(feature = "model", ringo_model)))]
pub use std::sync::atomic::{
    AtomicPtr as VAtomicPtr, AtomicU64 as VAtomicU64, AtomicUsize as VAtomicUsize,
};

#[cfg(any(feature = "model", ringo_model))]
pub use ringo_check::sync::{VAtomicPtr, VAtomicU64, VAtomicUsize};
