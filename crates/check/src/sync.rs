//! Virtual synchronization primitives.
//!
//! Drop-in lookalikes for `std::sync::atomic::Atomic*` that route every
//! operation through the cooperative scheduler **when the calling OS
//! thread is a virtual thread of an active schedule**, and degrade to the
//! plain `std` operation otherwise (the *passthrough*). Passthrough is
//! what makes the `model` feature of the crates under test safe to unify
//! into ordinary builds: code compiled against these types but running
//! outside `ringo_check::check(...)` behaves exactly like the real
//! atomics, just with one thread-local lookup of overhead per operation.
//!
//! Each virtual atomic embeds the real `std` atomic as ground truth: the
//! model mirrors every modification-order append into it, so `Drop` impls,
//! teardown after a failed schedule, and foreign (non-virtual) threads all
//! observe sane values.

use crate::sched;
use std::sync::atomic::Ordering;

/// Routes one model operation, falling back to `$pass` when the calling
/// thread has no schedule context or the schedule is tearing down.
macro_rules! model_or {
    ($self:ident, $ctx:ident, $model:expr, $pass:expr) => {
        match sched::current() {
            Some($ctx) => match $model {
                Some(v) => v,
                None => $pass, // schedule failed; unwinding teardown
            },
            None => $pass,
        }
    };
}

macro_rules! int_atomic {
    ($name:ident, $ty:ty, $std:ident) => {
        /// Virtual counterpart of [`std::sync::atomic::
        #[doc = stringify!($std)]
        /// `]; see the module docs for the model/passthrough split.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates the atomic; `const` so it can seed statics exactly
            /// like the `std` type.
            pub const fn new(v: $ty) -> Self {
                Self {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            /// Stable identity of this atomic within a schedule.
            fn addr(&self) -> usize {
                &self.inner as *const _ as usize
            }

            /// Initial modification-order value on first model touch: the
            /// mirror holds it because every model op writes the mirror.
            fn init(&self) -> u64 {
                // ORDERING: Relaxed — mirror read by the token holder; the
                // model layer provides all synchronization.
                self.inner.load(Ordering::Relaxed) as u64
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                model_or!(
                    self,
                    ctx,
                    ctx.exec
                        .atomic_load(ctx.tid, self.addr(), self.init(), ord)
                        .map(|v| v as $ty),
                    self.inner.load(ord)
                )
            }

            pub fn store(&self, val: $ty, ord: Ordering) {
                model_or!(
                    self,
                    ctx,
                    ctx.exec
                        .atomic_store(ctx.tid, self.addr(), self.init(), val as u64, ord)
                        // ORDERING: Relaxed — mirror write; only the
                        // token-holding thread runs.
                        .map(|()| self.inner.store(val, Ordering::Relaxed)),
                    self.inner.store(val, ord)
                )
            }

            pub fn swap(&self, val: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, |_| val, || self.inner.swap(val, ord))
            }

            pub fn fetch_add(&self, d: $ty, ord: Ordering) -> $ty {
                self.rmw(
                    ord,
                    |old| old.wrapping_add(d),
                    || self.inner.fetch_add(d, ord),
                )
            }

            pub fn fetch_sub(&self, d: $ty, ord: Ordering) -> $ty {
                self.rmw(
                    ord,
                    |old| old.wrapping_sub(d),
                    || self.inner.fetch_sub(d, ord),
                )
            }

            pub fn fetch_or(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, |old| old | v, || self.inner.fetch_or(v, ord))
            }

            pub fn fetch_and(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, |old| old & v, || self.inner.fetch_and(v, ord))
            }

            pub fn fetch_min(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, |old| old.min(v), || self.inner.fetch_min(v, ord))
            }

            pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, |old| old.max(v), || self.inner.fetch_max(v, ord))
            }

            /// Shared model RMW path: asks the scheduler for the
            /// modification-order append, mirrors the new value, returns
            /// the old.
            fn rmw(
                &self,
                ord: Ordering,
                f: impl Fn($ty) -> $ty,
                pass: impl FnOnce() -> $ty,
            ) -> $ty {
                match sched::current() {
                    Some(ctx) => {
                        let mut g = |old: u64| f(old as $ty) as u64;
                        match ctx
                            .exec
                            .atomic_rmw(ctx.tid, self.addr(), self.init(), ord, &mut g)
                        {
                            Some(old) => {
                                let old = old as $ty;
                                // ORDERING: Relaxed — mirror write; only
                                // the token-holding thread runs.
                                self.inner.store(f(old), Ordering::Relaxed);
                                old
                            }
                            None => pass(),
                        }
                    }
                    None => pass(),
                }
            }

            pub fn compare_exchange(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                match sched::current() {
                    Some(ctx) => match ctx.exec.atomic_cas(
                        ctx.tid,
                        self.addr(),
                        self.init(),
                        expected as u64,
                        new as u64,
                        success,
                        failure,
                    ) {
                        Some(Ok(old)) => {
                            // ORDERING: Relaxed — mirror write; only the
                            // token-holding thread runs.
                            self.inner.store(new, Ordering::Relaxed);
                            Ok(old as $ty)
                        }
                        Some(Err(got)) => Err(got as $ty),
                        None => self.inner.compare_exchange(expected, new, success, failure),
                    },
                    None => self.inner.compare_exchange(expected, new, success, failure),
                }
            }

            /// In the model a weak CAS is the strong one: spurious failure
            /// is an extra interleaving, and the strategies already explore
            /// retry loops via preemption.
            pub fn compare_exchange_weak(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(expected, new, success, failure)
            }

            /// Exclusive access bypasses the model, like `std`'s: `&mut`
            /// proves no concurrent observer exists.
            pub fn get_mut(&mut self) -> &mut $ty {
                self.inner.get_mut()
            }

            pub fn into_inner(self) -> $ty {
                self.inner.into_inner()
            }
        }
    };
}

int_atomic!(VAtomicU64, u64, AtomicU64);
int_atomic!(VAtomicUsize, usize, AtomicUsize);
