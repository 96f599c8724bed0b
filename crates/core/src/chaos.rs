//! Test-only fault injection for the scan containment boundary.
//!
//! The chaos test harness arms a process-global trigger against a pattern
//! *name*; [`crate::matcher::Matcher::find_traced`] consults it before
//! evaluating, so an injected panic or error travels the exact code path
//! a real matcher failure would. Disarmed (the default), the check is a
//! single relaxed atomic load.
//!
//! This module is not part of the supported API — it exists so
//! integration tests can prove scans contain hostile patterns. Tests that
//! arm it must serialize themselves (the trigger is process-global) and
//! disarm it afterwards.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const OFF: u8 = 0;
const PANIC: u8 = 1;
const ERROR: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(OFF);
static TARGET: Mutex<String> = Mutex::new(String::new());

fn target() -> MutexGuard<'static, String> {
    TARGET.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm an injected panic for matchers whose pattern has this name.
pub fn arm_panic(pattern_name: &str) {
    *target() = pattern_name.to_string();
    MODE.store(PANIC, Ordering::SeqCst);
}

/// Arm an injected [`crate::Error::Internal`] for matchers whose pattern
/// has this name.
pub fn arm_error(pattern_name: &str) {
    *target() = pattern_name.to_string();
    MODE.store(ERROR, Ordering::SeqCst);
}

/// Disarm all injection.
pub fn disarm() {
    MODE.store(OFF, Ordering::SeqCst);
    target().clear();
}

/// Fire the armed fault if `pattern_name` is the target. Called by the
/// matcher on every `find`; free when disarmed.
pub(crate) fn trip(pattern_name: &str) -> Result<(), crate::error::Error> {
    // relaxed: the hot-path disarmed check. Arming is test-only and uses
    // SeqCst stores; the target string behind its own lock provides the
    // actual synchronization, so a stale OFF read here merely delays an
    // injected fault by one call.
    match MODE.load(Ordering::Relaxed) {
        OFF => Ok(()),
        mode => {
            if *target() != pattern_name {
                return Ok(());
            }
            if mode == PANIC {
                panic!("chaos: injected panic in pattern {pattern_name:?}");
            }
            Err(crate::error::Error::Internal(format!(
                "chaos: injected error in pattern {pattern_name:?}"
            )))
        }
    }
}
