//! Steady-state allocation audit for the *batched* classify path.
//!
//! `classify_batch` extends the hot-path contract (DESIGN.md § Performance)
//! to batched execution: after the first call has sized the persistent
//! batch scratch and the caller's output vectors have reached capacity,
//! repeated batches must not touch the heap. A counting global allocator
//! makes that a test instead of a code-review property.
//!
//! Only the test's own thread counts: its allocator counts an allocation
//! only on a thread that set the thread-local `COUNTED` flag, so the
//! harness's threads and any sibling test cannot trip the counter.

use act_nn::network::{Network, Topology};
use act_nn::sigmoid::SigmoidMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the thread that runs the measured loop: only its allocations
    /// count, so the test harness's own threads cannot trip the counter.
    /// A `const` initializer needs no lazy set-up, which would allocate.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation if the calling thread is the measured one.
fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn batched_classify_does_not_allocate_in_steady_state() {
    COUNTED.with(|c| c.set(true));
    // The paper's deployed shape at the coalescer's default batch bound.
    let (inputs, batch) = (10, 16);
    let mut net = Network::random(Topology::new(inputs, 10), 0.2, 42);
    let xs: Vec<f32> = (0..inputs * batch).map(|i| ((i * 13 + 7) % 100) as f32 / 100.0).collect();
    let mut out = Vec::new();
    let mut valid = Vec::new();

    for mode in [SigmoidMode::Exact, SigmoidMode::Table] {
        net.set_sigmoid(mode);
        // Warm up: the first call sizes the batch scratch and grows the
        // caller-owned output vectors to their steady-state capacity.
        net.classify_batch(&xs, &mut out, &mut valid);
        let before = ALLOCS.load(Ordering::SeqCst);
        let mut sink = 0.0f32;
        for _ in 0..1000 {
            out.clear();
            valid.clear();
            net.classify_batch(&xs, &mut out, &mut valid);
            sink += out[0] + out[batch - 1];
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert!(sink.is_finite());
        assert_eq!(out.len(), batch);
        assert_eq!(valid.len(), batch);
        assert_eq!(
            after - before,
            0,
            "{:?}: {} heap allocations across 1000 steady-state classify_batch calls",
            mode,
            after - before
        );
    }
}
