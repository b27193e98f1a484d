//! Binding a schedule allocates a fixed number of times, whatever its
//! size: every bound array and every temporary is sized from counts
//! before it is filled, so nothing grows per op, per rank or per message
//! group. Rebinding allocates at most the mapping check's one copy. A
//! counting global allocator compares the bindings of two schedule sizes.

use hxcollect::disjoint_rings_allreduce;
use hxcollect::simapp::ScheduleApp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Counts each thread's allocations and hands every call to [`System`].
struct Counting;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over. The counter is a const-initialized
// thread-local `Cell` with no destructor: bumping it never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations this thread made inside it.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn binding_allocates_the_same_at_16_and_256_ranks() {
    let small = disjoint_rings_allreduce(4, 4, 16 * 64).0;
    let large = disjoint_rings_allreduce(16, 16, 256 * 64).0;
    assert_eq!((small.nranks, large.nranks), (16, 256));
    let (_, at_16) = allocs(|| ScheduleApp::new(&small));
    let (_, at_256) = allocs(|| ScheduleApp::new(&large));
    assert_eq!(
        at_16,
        at_256,
        "binding {} ops allocated {at_16} times, {} ops {at_256} times",
        small.num_ops(),
        large.num_ops()
    );
}

#[test]
fn rebind_allocates_at_most_once() {
    let sched = disjoint_rings_allreduce(16, 16, 256 * 64).0;
    let mut app = ScheduleApp::new(&sched);
    let mapping: Vec<u32> = (0..256).rev().collect();
    let ((), n) = allocs(|| app.rebind(mapping));
    assert!(n <= 1, "rebind allocated {n} times");
}
