//! Synchronization facade: std in normal builds, the vendored `loom`
//! model checker when compiled with `RUSTFLAGS="--cfg loom"`.
//!
//! Code with a concurrency protocol worth model-checking (the
//! [`crate::live`] hot-swap path, the [`crate::stats`] sidecar, and
//! `optimatch-serve`'s metrics registry) imports its primitives from
//! here instead of `std::sync`, so the `loom_*` integration tests can
//! explore every interleaving of the *real* production code, not a copy.
//! See `compat/loom` for how the exploration works and DESIGN.md §15 for
//! the memory-ordering contract these types enforce. `signal.rs` in
//! `optimatch-serve` intentionally does NOT use this facade: a static
//! signal flag needs `const` construction and is touched from a signal
//! handler, neither of which a model type can do.

#[cfg(not(loom))]
pub use std::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::{
    Arc, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    Weak,
};

#[cfg(loom)]
pub use loom::sync::atomic;
#[cfg(loom)]
pub use loom::sync::{
    Arc, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    Weak,
};
