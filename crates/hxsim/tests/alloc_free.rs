//! The flow engine's per-message path allocates nothing in steady state:
//! route building, drains and delivery callbacks recycle engine-owned
//! buffers. A counting global allocator compares whole runs of the same
//! traffic at two lengths; only amortized growth, such as the message
//! table doubling, may tell them apart.

use hxnet::hammingmesh::HxMeshParams;
use hxsim::apps::Permutation;
use hxsim::{FlowEngine, SimConfig};
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

/// Allocations made inside `FlowEngine::run` by a `rounds`-round
/// permutation on a 16-endpoint Hx2Mesh: `16 * rounds` messages, each
/// rank sending its next one when the previous drains.
fn run_allocs(rounds: u32) -> u64 {
    let net = HxMeshParams::square(2, 2).build();
    let mut app = Permutation::new(net.num_ranks(), 64 * 1024, rounds, 7);
    let engine = FlowEngine::new(&net, SimConfig::default());
    let before = ALLOCS.with(Cell::get);
    let stats = engine.run(&mut app);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(stats.clean(), "{stats:?}");
    assert_eq!(stats.messages_delivered, 16 * rounds as u64);
    allocs
}

#[test]
fn flow_engine_message_path_does_not_allocate() {
    let short = run_allocs(16);
    let long = run_allocs(64);
    // 768 more messages may only grow the engine's tables a few times.
    assert!(
        long <= short + 16,
        "768 more messages made {} more allocations ({short} at 256 messages, {long} at 1,024)",
        long as i64 - short as i64
    );
}
