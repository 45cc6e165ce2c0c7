//! Steady-state allocation audit for the inference/training hot path.
//!
//! The hot-path contract (DESIGN.md § Performance) is that `predict` and
//! `train` touch the heap only while warming up their persistent scratch
//! buffers — never per call. A counting global allocator makes that a test
//! instead of a code-review property.
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
fn predict_and_train_do_not_allocate_in_steady_state() {
    COUNTED.with(|c| c.set(true));
    // The paper's deployed shape: 10 inputs (M), up to 10 hidden units.
    let mut net = Network::random(Topology::new(10, 10), 0.2, 42);
    let xs: Vec<Vec<f32>> =
        (0..8).map(|i| (0..10).map(|c| ((i * 13 + c * 7) % 10) as f32 / 10.0).collect()).collect();

    for mode in [SigmoidMode::Exact, SigmoidMode::Table] {
        net.set_sigmoid(mode);
        // Warm up: first calls may size persistent scratch.
        for x in &xs {
            net.predict(x);
            net.train(x, 1.0);
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        let mut sink = 0.0f32;
        for round in 0..1000 {
            let x = &xs[round % xs.len()];
            sink += net.predict(x);
            sink += net.train(x, if round % 3 == 0 { 0.0 } else { 1.0 });
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert!(sink.is_finite());
        assert_eq!(
            after - before,
            0,
            "{:?}: {} heap allocations across 2000 steady-state predict/train calls",
            mode,
            after - before
        );
    }
}
