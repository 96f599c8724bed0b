//! Allocation budget of the evaluator on the triage workload.
//!
//! A counting global allocator tallies the heap allocations the calling
//! thread makes while it scans the triage KB (the 40-entry synthetic KB
//! plus Pattern B) over the 24 plans the bench crate's pins use (12
//! paper-shaped plans and 12 prunable fillers), on one thread, and then
//! searches the same plans with each built-in pattern. The count per
//! evaluated unit measures how much per-row and per-binding copying the
//! evaluator and the matcher do, without timing anything.
//!
//! Before the evaluator kept term ids from the first BGP step to the
//! matcher's de-transform, this read 83.7 allocations per evaluated unit
//! (48,564 over 580 units: 542 scan units and 38 search units); flat
//! binding tables, the numeric column and borrowed results bring it to
//! 26.8 (15,521). The count is deterministic and the same in debug and
//! release builds. The bound is half the former figure, so a change that
//! copies rows or terms per solution again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use optimatch_bench::{paper_workload, prunable_plan};
use optimatch_core::matcher::Matcher;
use optimatch_core::{builtin, ScanOptions, TransformedQep};

/// Forwards to [`System`], counting each allocation on the thread that
/// asks for it.
struct Counting;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates and never recurses into the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Per evaluated unit before the evaluator kept term ids end to end.
const BEFORE_PER_UNIT: f64 = 83.7;

#[test]
fn evaluated_units_stay_within_the_allocation_budget() {
    let mut qeps = paper_workload(12).qeps;
    qeps.extend((0..12).map(|i| prunable_plan(i, 6)));
    let workload: Vec<TransformedQep> = qeps.into_iter().map(TransformedQep::new).collect();
    let mut kb = builtin::synthetic_kb(40);
    kb.add(builtin::pattern_b()).expect("Pattern B adds");
    let matchers: Vec<Matcher> = builtin::paper_entries()
        .iter()
        .map(|entry| Matcher::compile(&entry.pattern).expect("builtins compile"))
        .collect();
    let options = ScanOptions::default().threads(1);

    let before = allocations();
    let scan = kb
        .scan_workload_with(&workload, options)
        .expect("the triage scan runs");
    let mut units = scan.stats.evaluated;
    for matcher in &matchers {
        let search = matcher
            .search_workload(&workload, &options)
            .expect("builtin searches run");
        units += search.stats.evaluated;
    }
    let spent = allocations() - before;

    assert_eq!(units, 580, "the evaluated units moved: {:?}", scan.stats);
    let per_unit = spent as f64 / units as f64;
    assert!(
        per_unit <= BEFORE_PER_UNIT / 2.0,
        "{spent} allocations over {units} evaluated units: {per_unit:.1} per unit, \
         over half of the {BEFORE_PER_UNIT} before"
    );
}
