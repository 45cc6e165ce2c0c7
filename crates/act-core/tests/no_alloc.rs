//! Steady-state allocation audit for the end-to-end classify path:
//! window → encode → predict (→ train), the loop `ActModule::process`,
//! `classify_trace`, and the online trainer all run per retired RAW
//! dependence. The contract (DESIGN.md § Performance) is that after
//! warm-up — one reshape of the scratch vector to the window width — the
//! path never touches the heap.
//!
//! Only the test's own thread counts: its allocator counts an allocation
//! only on a thread that set the thread-local `COUNTED` flag, so the
//! harness's threads and any sibling test cannot trip the counter.

//! The loop also counts its predictions — a per-prediction `LocalCounter`
//! flushed amortized into a registered `act-obs` counter — pinning that
//! the obs layer keeps the same zero-allocation contract.

use act_core::encoding::{Encoder, FEATURES_PER_DEP};
use act_nn::network::{Network, Topology};
use act_obs::{LocalCounter, Registry};
use act_sim::events::RawDep;
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
fn classify_and_online_train_do_not_allocate_in_steady_state() {
    COUNTED.with(|c| c.set(true));
    const SEQ_LEN: usize = 2;
    const IGB_CAP: usize = 8;
    let enc = Encoder::new(4096);
    let mut net = Network::random(Topology::new(FEATURES_PER_DEP * SEQ_LEN, 10), 0.2, 42);
    let deps: Vec<RawDep> = (0..64)
        .map(|i| RawDep {
            store_pc: 100 + (i * 37) % 1500,
            load_pc: 200 + (i * 53) % 1500,
            inter_thread: i % 3 == 0,
        })
        .collect();

    // Observability on the loop: registration (cold) may allocate,
    // recording (hot) must not. A local counter per prediction, flushed to
    // the shared cell every 200 steps.
    let registry = Registry::new();
    let predictions = registry.counter("predictions");
    let mut local = LocalCounter::default();

    // The module's IGB shape: a masked ring fed one dependence at a time,
    // the window encoded straight out of it.
    let mut igb = [deps[0]; IGB_CAP];
    let mut x: Vec<f32> = Vec::new();
    let mut pushed = 0usize;
    let mut step = |igb: &mut [RawDep; IGB_CAP], x: &mut Vec<f32>, net: &mut Network| -> f32 {
        igb[pushed % IGB_CAP] = deps[pushed % deps.len()];
        pushed += 1;
        if pushed < SEQ_LEN {
            return 0.0;
        }
        let start = pushed - SEQ_LEN;
        let window = (0..SEQ_LEN).map(|k| igb[(start + k) % IGB_CAP]);
        enc.encode_iter_into(window, x);
        local.inc();
        if pushed.is_multiple_of(200) {
            local.flush(&predictions);
        }
        let o = net.predict(x);
        if pushed.is_multiple_of(4) {
            net.train(x, 1.0)
        } else {
            o
        }
    };

    // Warm up: the scratch vector reshapes to the window width once.
    for _ in 0..16 {
        step(&mut igb, &mut x, &mut net);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut sink = 0.0f32;
    for _ in 0..2000 {
        sink += step(&mut igb, &mut x, &mut net);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across 2000 steady-state classify/train steps",
        after - before
    );
}
