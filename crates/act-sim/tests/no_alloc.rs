//! Allocation audit for the simulator's caches. Every cache keeps its lines,
//! and every L2 its last-writer metadata, in flat arrays indexed by line
//! (DESIGN.md §7), so:
//!
//! - building a `MemorySystem` allocates per core, never per set or line:
//!   a 64 KB and a 512 KB L2 cost the same number of allocations;
//! - no access allocates: not a hit, a fill, a dirty cache-to-cache read,
//!   an RFO, an upgrade or an eviction, at either metadata granularity.
//!
//! Only the test's own thread counts: its allocator counts an allocation
//! only on a thread that set the thread-local `COUNTED` flag, into that
//! thread's own counter, so the harness's threads and the sibling test
//! running beside it cannot trip the counter.

use act_sim::config::{CacheConfig, MachineConfig, MetaGranularity};
use act_sim::events::{CacheEvent, LastWriter};
use act_sim::memsys::MemorySystem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Set by the thread that runs the measured code: only its allocations
    /// count. A `const` initializer needs no lazy set-up, which would
    /// allocate.
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

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn building_the_hierarchy_allocates_per_core_not_per_line() {
    let at_l2 = |size_bytes| {
        let cfg = MachineConfig {
            l2: CacheConfig { size_bytes, ..MachineConfig::default().l2 },
            ..MachineConfig::default()
        };
        allocations(|| drop(MemorySystem::new(&cfg))).0
    };
    let small = at_l2(64 * 1024);
    let large = at_l2(512 * 1024);
    assert_eq!(small, large, "a 64 KB L2 made {small} allocations, a 512 KB one {large}");
    // The Table III default has 8 cores and 1,024 L2 sets per core: a
    // count per set or per line would be in the thousands.
    assert!(large <= 6 * 8, "{large} allocations for 8 cores");
}

/// What an access did to the hierarchy, as the stream below tallies it.
#[derive(Clone, Copy)]
enum Kind {
    L1Hit,
    L2Hit,
    MemoryFill,
    DirtyRemoteRead,
    Rfo,
    Upgrade,
    Eviction,
}

const KINDS: usize = 7;

#[test]
fn accesses_do_not_allocate() {
    for granularity in [MetaGranularity::Word, MetaGranularity::Line] {
        // Tiny caches, so a short stream evicts, transfers and upgrades:
        // 3 cores, a 2-set 2-way L1 and a 4-set 2-way L2 of 64 B lines.
        let cfg = MachineConfig {
            cores: 3,
            l1: CacheConfig { size_bytes: 256, ways: 2, latency: 2 },
            l2: CacheConfig { size_bytes: 512, ways: 2, latency: 10 },
            line_bytes: 64,
            granularity,
            ..MachineConfig::default()
        };
        // A fixed pseudo-random stream over 16 lines, built before counting.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let stream: Vec<(usize, bool, u64)> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let core = (x % 3) as usize;
                let store = (x >> 8).is_multiple_of(3);
                let addr = 0x2000 + ((x >> 16) % 16) * 64 + ((x >> 24) % 8) * 8;
                (core, store, addr)
            })
            .collect();
        let mut ms = MemorySystem::new(&cfg);
        let mut seen = [0usize; KINDS];
        let mut now = 0;
        // Warm-up: the first half; then the second half is counted.
        let (warm, measured) = stream.split_at(stream.len() / 2);
        let mut step = |ms: &mut MemorySystem, seen: &mut [usize; KINDS], &(core, store, addr)| {
            let before = *ms.stats();
            let r = if store {
                ms.store(core, addr, now, LastWriter { pc: now as u32, tid: core as u32 })
            } else {
                ms.load(core, addr, now)
            };
            now += 7;
            let after = ms.stats();
            let bus = after.bus_transactions > before.bus_transactions;
            let kind = match (store, r.event) {
                (_, CacheEvent::L1Hit) => Kind::L1Hit,
                (true, CacheEvent::L2Hit) if bus => Kind::Upgrade,
                (_, CacheEvent::L2Hit) => Kind::L2Hit,
                (true, CacheEvent::CacheToCache) => Kind::Rfo,
                (false, CacheEvent::CacheToCache) => Kind::DirtyRemoteRead,
                (_, CacheEvent::Memory) => Kind::MemoryFill,
            };
            seen[kind as usize] += 1;
            if after.writebacks > before.writebacks {
                seen[Kind::Eviction as usize] += 1;
            }
        };
        for access in warm {
            step(&mut ms, &mut seen, access);
        }
        seen = [0; KINDS];
        let (n, ()) = allocations(|| {
            for access in measured {
                step(&mut ms, &mut seen, access);
            }
        });
        assert_eq!(n, 0, "{granularity}: {n} allocations over {} accesses", measured.len());
        assert!(
            seen.iter().all(|&k| k > 0),
            "{granularity}: the stream missed an access kind: {seen:?} (L1 hit, L2 hit, \
             memory fill, dirty remote read, RFO, upgrade, eviction)"
        );
    }
}
