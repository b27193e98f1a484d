//! Dragonfly UGAL-L waypoint selection allocates once per cross-group
//! call: its two queue probes (toward the destination and toward a random
//! Valiant intermediate) share one candidate buffer. The packet engine
//! calls `select_waypoint` for every injected packet, so a second buffer
//! per call is a second heap allocation per cross-group packet. A counting
//! global allocator pins the count over every ordered endpoint pair of a
//! small Dragonfly.

use hxnet::dragonfly::DragonflyParams;
use hxnet::route::ZeroLoad;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

#[test]
fn select_waypoint_allocates_once_per_cross_group_call() {
    let params = DragonflyParams {
        a: 4,
        p: 2,
        h: 2,
        groups: 5,
    };
    let per_group = params.a * params.p;
    let net = params.build();
    let eps = &net.endpoints;
    let mut rng = StdRng::seed_from_u64(7);
    let mut cross_group = 0u64;
    let before = ALLOCS.with(Cell::get);
    for (i, &src) in eps.iter().enumerate() {
        for (j, &dst) in eps.iter().enumerate() {
            if i / per_group != j / per_group {
                cross_group += 1;
            }
            if i != j {
                net.router
                    .select_waypoint(&net.topo, src, dst, &ZeroLoad, &mut rng);
            }
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(cross_group, 1_280);
    assert_eq!(
        allocs, cross_group,
        "{allocs} allocations for {cross_group} cross-group calls (same-group calls make none)"
    );
}
