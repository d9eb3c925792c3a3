//! Heap allocations of a traced DES run and of its validation, counted
//! by a global allocator.
//!
//! Span labels are `Copy` values and validation sorts one vector of span
//! references, so a traced `execute` allocates for its vectors, not per
//! span, and `validate` allocates a constant number of times. Counts are
//! kept per thread, so tests running in parallel do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetero_core::{Params, Profile};
use hetero_protocol::{alloc, exec, validate};

/// The system allocator, counting the calls that hand out memory.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized Cell needs no destructor, so this never fails;
    // `try_with` keeps the allocator panic-free all the same.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the allocations it made on this
/// thread (`alloc`, `alloc_zeroed` and `realloc` calls).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn traced_execute_and_validate_allocate_per_run_not_per_span() {
    let params = Params::paper_table1();
    let profile = Profile::uniform_spread(256);
    let plan = alloc::fifo_plan(&params, &profile, 600.0).unwrap();
    let _warm = exec::execute(&params, &profile, &plan);

    let (run, execute) = allocations(|| exec::execute(&params, &profile, &plan));
    let spans = run.trace.spans().len();
    assert!(spans > 1500, "{spans} spans");
    assert!(
        execute <= 64,
        "a traced execute of {spans} spans made {execute} allocations"
    );

    let (violations, checks) = allocations(|| validate::validate(&params, &profile, &run));
    assert_eq!(violations, vec![]);
    assert!(
        checks <= 8,
        "validating {spans} spans made {checks} allocations"
    );
}
