//! Evaluation budgets ("fuel") bounding a single query evaluation.
//!
//! Workload scans run thousands of (pattern × QEP) evaluations unattended;
//! one adversarial recursive property path must not hang the whole scan.
//! A [`Budget`] is a step allowance plus an optional wall-clock deadline,
//! threaded through the evaluator and the path engine. Every row produced,
//! triple matched, join pair considered, and path-BFS node expanded costs
//! one unit of fuel. Exhaustion surfaces as a typed
//! [`SparqlError::BudgetExceeded`], never a panic or a hang.
//!
//! Budgets are observational until exceeded: an evaluation that stays
//! within its allowance produces results identical to an unbudgeted one.
//! `Cell` keeps charging branch-free and allocation-free on the hot path;
//! a `Budget` is therefore `!Sync` by design — each evaluation unit owns
//! its own.

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::error::SparqlError;

/// Which limit a budget ran out of first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetCause {
    /// The step allowance hit zero.
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for BudgetCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetCause::Fuel => f.write_str("fuel exhausted"),
            BudgetCause::Deadline => f.write_str("deadline exceeded"),
        }
    }
}

/// The wall clock is consulted once per this many charges, so a deadline
/// costs one `Instant::now()` per batch instead of one per step. The
/// counter starts at zero, so the very first charge always checks — a
/// zero deadline trips deterministically before any work is done.
const DEADLINE_CHECK_INTERVAL: u32 = 256;

/// A step-count + wall-clock allowance for one evaluation.
///
/// Construct with [`Budget::unlimited`] or [`Budget::limited`], pass to
/// [`crate::eval::evaluate`], and inspect
/// [`Budget::spent`] / [`Budget::exceeded`] afterwards.
#[derive(Debug, Clone)]
pub struct Budget {
    initial: u64,
    remaining: Cell<u64>,
    deadline: Option<Duration>,
    start: Instant,
    until_deadline_check: Cell<u32>,
    exceeded: Cell<Option<BudgetCause>>,
}

impl Budget {
    /// No effective limit (`u64::MAX` steps, no deadline).
    pub fn unlimited() -> Budget {
        Budget::limited(None, None)
    }

    /// A budget of `fuel` steps (`None` = unlimited) and an optional
    /// wall-clock deadline measured from this call.
    pub fn limited(fuel: Option<u64>, deadline: Option<Duration>) -> Budget {
        Budget {
            initial: fuel.unwrap_or(u64::MAX),
            remaining: Cell::new(fuel.unwrap_or(u64::MAX)),
            deadline,
            start: Instant::now(),
            until_deadline_check: Cell::new(0),
            exceeded: Cell::new(None),
        }
    }

    /// A copy of this budget, with its fuel spent, deadline-check phase and
    /// latched state, whose clock reads `elapsed` now. A KB scan hands each
    /// unit that shares an evaluated core the core's budget as it stood
    /// when the core finished, resumed at the core's own time.
    pub fn resumed(&self, elapsed: Duration) -> Budget {
        let now = Instant::now();
        Budget {
            start: now.checked_sub(elapsed).unwrap_or(now),
            ..self.clone()
        }
    }

    /// Consume `n` steps. Returns `false` once the budget is exceeded;
    /// the failure latches, so later charges keep failing.
    #[inline]
    pub fn try_charge(&self, n: u64) -> bool {
        if self.exceeded.get().is_some() {
            return false;
        }
        let remaining = self.remaining.get();
        if remaining < n {
            self.remaining.set(0);
            self.exceeded.set(Some(BudgetCause::Fuel));
            return false;
        }
        self.remaining.set(remaining - n);
        if let Some(deadline) = self.deadline {
            let until = self.until_deadline_check.get();
            if until == 0 {
                self.until_deadline_check.set(DEADLINE_CHECK_INTERVAL);
                if self.start.elapsed() >= deadline {
                    self.exceeded.set(Some(BudgetCause::Deadline));
                    return false;
                }
            } else {
                self.until_deadline_check.set(until - 1);
            }
        }
        true
    }

    /// Consume `n` steps, reporting exhaustion as the typed error.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), SparqlError> {
        if self.try_charge(n) {
            Ok(())
        } else {
            Err(self.error())
        }
    }

    /// `Err` when this budget has been exceeded (used after calling into
    /// code that bails out silently, like the path engine).
    #[inline]
    pub fn check(&self) -> Result<(), SparqlError> {
        if self.exceeded.get().is_some() {
            Err(self.error())
        } else {
            Ok(())
        }
    }

    /// Why the budget ran out, when it has.
    pub fn exceeded(&self) -> Option<BudgetCause> {
        self.exceeded.get()
    }

    /// Steps consumed so far.
    pub fn spent(&self) -> u64 {
        self.initial - self.remaining.get()
    }

    /// Wall-clock time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The typed error snapshotting current accounting.
    pub fn error(&self) -> SparqlError {
        SparqlError::BudgetExceeded {
            cause: self.exceeded.get().unwrap_or(BudgetCause::Fuel),
            fuel_spent: self.spent(),
            elapsed: self.start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_exhaustion_latches() {
        let b = Budget::limited(Some(3), None);
        assert!(b.try_charge(2));
        assert!(!b.try_charge(2), "2 > 1 remaining");
        assert_eq!(b.exceeded(), Some(BudgetCause::Fuel));
        assert!(!b.try_charge(0), "exceeded latches even for free charges");
        assert!(b.check().is_err());
    }

    #[test]
    fn exact_spend_is_within_budget() {
        let b = Budget::limited(Some(5), None);
        assert!(b.try_charge(5));
        assert_eq!(b.spent(), 5);
        assert!(b.check().is_ok());
        assert!(!b.try_charge(1));
    }

    #[test]
    fn zero_deadline_trips_on_first_charge() {
        let b = Budget::limited(None, Some(Duration::ZERO));
        assert!(!b.try_charge(1));
        assert_eq!(b.exceeded(), Some(BudgetCause::Deadline));
        match b.error() {
            SparqlError::BudgetExceeded { cause, .. } => {
                assert_eq!(cause, BudgetCause::Deadline);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn resumed_budget_continues_the_accounting() {
        let b = Budget::limited(Some(300), Some(Duration::from_secs(3600)));
        assert!(b.try_charge(10));
        let r = b.resumed(Duration::from_secs(5));
        assert_eq!(r.spent(), 10);
        assert!(r.elapsed() >= Duration::from_secs(5));
        // Same deadline-check phase: the check after the first falls on
        // charge 257 in both.
        assert_eq!(r.until_deadline_check.get(), b.until_deadline_check.get());
        assert!(!r.try_charge(291), "291 > 290 remaining");
        assert_eq!(b.spent(), 10, "the original is untouched");
        let expired = Budget::limited(None, Some(Duration::from_millis(1)));
        assert!(!expired.resumed(Duration::from_secs(1)).try_charge(1));
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_charge(7));
        }
        assert_eq!(b.spent(), 70_000);
        assert!(b.check().is_ok());
        assert!(b.exceeded().is_none());
    }
}
