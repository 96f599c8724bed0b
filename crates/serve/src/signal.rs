//! Shutdown-signal plumbing without a `libc` dependency.
//!
//! The CLI's `serve` command wants to drain gracefully on `SIGINT`
//! (ctrl-c) and `SIGTERM` (orchestrator stop). The workspace is hermetic —
//! no registry crates — so instead of `libc`/`signal-hook` this module
//! binds the C `signal(2)` entry point directly and installs a handler
//! that only flips an `AtomicBool`: the one operation that is
//! unconditionally async-signal-safe. The serve loop polls
//! [`requested`] between accepts; nothing heavier ever runs in signal
//! context.
//!
//! On non-Unix targets [`install`] is a no-op and [`requested`] only ever
//! reflects [`request`] (the programmatic trigger, also used by tests).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `SIGINT` — ctrl-c.
pub const SIGINT: i32 = 2;
/// `SIGTERM` — the polite kill.
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" {
    /// ISO C `signal(2)`. Takes and returns the previous handler as a
    /// plain address; `usize` keeps the binding dependency-free.
    #[link_name = "signal"]
    fn c_signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe by definition. The serve
    // loop notices within one accept-poll interval.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install the flag-setting handler for `SIGINT` and `SIGTERM`. Safe to
/// call more than once; later installs are no-ops on the flag's meaning.
pub fn install() {
    // SAFETY: `c_signal` is ISO C `signal(2)` with the documented ABI;
    // the handler address passed is a real `extern "C" fn(i32)` that
    // outlives the process (a fn item), and the handler body performs a
    // single atomic store, which is async-signal-safe. No Rust state is
    // touched from signal context.
    #[cfg(unix)]
    unsafe {
        c_signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        c_signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// True once a shutdown signal (or [`request`]) has arrived.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trigger shutdown programmatically — what the signal handler does, but
/// callable from tests and from non-Unix fallback paths.
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flag protocol (everything except the foreign `signal(2)`
    /// call) — also what the CI Miri job executes. One test, not
    /// several: the flag is a process-global and parallel test threads
    /// would interfere.
    #[test]
    fn flag_protocol_roundtrip_and_idempotent_install() {
        // Shutdown is one-way in production; the test clears the flag
        // itself.
        let reset = || SHUTDOWN.store(false, Ordering::SeqCst);
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        request(); // idempotent
        assert!(requested());
        reset();
        assert!(!requested());

        // Miri cannot model the foreign `signal(2)` call; skip only the
        // installs under it.
        #[cfg(unix)]
        if !cfg!(miri) {
            install();
            install();
            assert!(!requested());
        }
    }
}
