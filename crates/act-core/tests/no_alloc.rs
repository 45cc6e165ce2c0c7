//! Steady-state allocation audit for the end-to-end classify path:
//! window → encode → predict (→ train), the loop `ActModule::process`,
//! `classify_trace`, and the online trainer all run per retired RAW
//! dependence. The contract (DESIGN.md § Performance) is that after
//! warm-up — one reshape of the scratch vector to the window width — the
//! path never touches the heap. The service's windowing keeps it too: the
//! Input Generator's `WindowFormer`, reused across traces, forms and
//! encodes every window of a trace without allocating.
//!
//! Only the test's own thread counts: its allocator counts an allocation
//! only on a thread that set the thread-local `COUNTED` flag, into that
//! thread's own counter, so the harness's threads and the sibling tests
//! running beside it cannot trip the counter.

//! The loop also counts its predictions — a per-prediction `LocalCounter`
//! flushed amortized into a registered `act-obs` counter — pinning that
//! the obs layer keeps the same zero-allocation contract.

use act_core::encoding::{Encoder, FEATURES_PER_DEP};
use act_nn::network::{Network, Topology};
use act_obs::{LocalCounter, Registry};
use act_sim::events::RawDep;
use act_trace::event::{Trace, TraceKind, TraceRecord};
use act_trace::input_gen::{DepRing, WindowFormer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Set by the thread that runs the measured loop: only its allocations
    /// count, so the test harness's own threads cannot trip the counter.
    /// A `const` initializer needs no lazy set-up, which would allocate.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's allocations while `COUNTED`.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation if the calling thread is the measured one.
fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Allocations the calling thread has made since it set `COUNTED`.
fn allocs() -> usize {
    ALLOCS.with(Cell::get)
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

    // The module's IGB: the Input Generator's ring fed one dependence at a
    // time, the window encoded straight out of it.
    let mut igb = DepRing::new(IGB_CAP);
    let mut x: Vec<f32> = Vec::new();
    let mut pushed = 0usize;
    let mut step = |igb: &mut DepRing, x: &mut Vec<f32>, net: &mut Network| -> f32 {
        igb.push(deps[pushed % deps.len()]);
        pushed += 1;
        if pushed < SEQ_LEN {
            return 0.0;
        }
        enc.encode_iter_into(igb.window(SEQ_LEN), x);
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
    let before = allocs();
    let mut sink = 0.0f32;
    for _ in 0..2000 {
        sink += step(&mut igb, &mut x, &mut net);
    }
    let after = allocs();
    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across 2000 steady-state classify/train steps",
        after - before
    );
}

/// A three-thread trace whose loads carry observed dependences, a few
/// without one (lost metadata), among stores and branches.
fn observed_trace(salt: u32) -> Trace {
    let records = (0..600u32)
        .map(|i| {
            let kind = match i % 5 {
                0 => TraceKind::Store { addr: 0x2000 + 8 * u64::from(i % 16) },
                1 => TraceKind::Branch { taken: i % 2 == 0 },
                _ => TraceKind::Load {
                    addr: 0x2000 + 8 * u64::from(i % 16),
                    dep: (i % 11 != 0).then_some(RawDep {
                        store_pc: (i * 37 + salt) % 900,
                        load_pc: (i * 53 + salt) % 900,
                        inter_thread: i % 3 == 0,
                    }),
                },
            };
            TraceRecord {
                seq: u64::from(i),
                cycle: 4 * u64::from(i),
                tid: i % 3,
                pc: i % 900,
                kind,
            }
        })
        .collect();
    Trace { records, code_len: 1024 }
}

#[test]
fn forming_and_encoding_a_traces_windows_does_not_allocate() {
    COUNTED.with(|c| c.set(true));
    let enc = Encoder::new(1024);
    let mut former = WindowFormer::new(2);
    let mut x: Vec<f32> = Vec::new();
    let mut windows = 0usize;
    let mut sink = 0.0f32;
    let mut form = |former: &mut WindowFormer, trace: &Trace| {
        former.each_window(trace, |_, w| {
            enc.encode_iter_into(w, &mut x);
            sink += x[0];
            windows += 1;
        });
    };
    // Warm-up trace: one ring per thread, the slot map and the encode
    // buffer reach their size.
    let (warm, measured) = (observed_trace(1), observed_trace(7));
    form(&mut former, &warm);
    let before = allocs();
    form(&mut former, &measured);
    let after = allocs();
    assert!(sink.is_finite());
    assert!(windows > 400, "both traces form windows: {windows}");
    assert_eq!(
        after - before,
        0,
        "{} heap allocations forming and encoding a trace's windows",
        after - before
    );
}
