//! Recording against a disabled recorder must cost no allocation: a
//! disabled span, its fields, a counter and an observation allocate
//! nothing. Counted exactly by a global allocator that tallies this
//! thread's allocations, so the check holds on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tms_obs::{noop, span, Phase};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the tally touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn disabled_recording_allocates_nothing() {
    let obs = black_box(noop());
    let before = allocations();
    for round in 0..1_000u32 {
        let mut s = span(obs, Phase::Place, "m");
        s.field("cf", f64::from(round));
        drop(black_box(s));
        obs.count("cache.hit", 1);
        obs.observe("flow.cf.placed", 1.5);
    }
    assert_eq!(allocations() - before, 0);
    // The tally does see this thread's allocations.
    let before = allocations();
    black_box(Vec::<u8>::with_capacity(1));
    assert_eq!(allocations() - before, 1);
}
