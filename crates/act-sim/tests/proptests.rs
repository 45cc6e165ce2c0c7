//! Property-based tests for the simulator substrate.

use act_sim::asm::Asm;
use act_sim::config::{CacheConfig, MachineConfig, MetaGranularity};
use act_sim::events::LastWriter;
use act_sim::isa::{AluOp, Reg};
use act_sim::machine::Machine;
use act_sim::mem::Memory;
use act_sim::memsys::MemorySystem;
use act_sim::outcome::RunOutcome;
use proptest::prelude::*;

/// The memory system as it stood before its caches went flat: a `Vec` per
/// set, and a metadata `Vec` per L2 line that a fill moves in and a dirty
/// transfer clones. Kept only as the reference the flat arrays must
/// reproduce access for access.
mod reference {
    use act_sim::config::{MachineConfig, MetaGranularity};
    use act_sim::events::{CacheEvent, LastWriter};
    use act_sim::isa::{Addr, WORD_BYTES};
    use act_sim::memsys::AccessResult;
    use act_sim::stats::MemStats;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mesi {
        Modified,
        Exclusive,
        Shared,
        Invalid,
    }

    #[derive(Debug, Clone)]
    struct L2Line {
        tag: u64,
        state: Mesi,
        meta: Vec<Option<LastWriter>>,
        lru: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct L1Line {
        tag: u64,
        valid: bool,
        lru: u64,
    }

    struct L1Array {
        sets: Vec<Vec<L1Line>>,
        set_mask: u64,
    }

    impl L1Array {
        fn new(sets: usize, ways: usize) -> Self {
            L1Array {
                sets: vec![vec![L1Line { tag: 0, valid: false, lru: 0 }; ways]; sets],
                set_mask: sets as u64 - 1,
            }
        }

        fn set_of(&self, line_addr: u64) -> usize {
            (line_addr & self.set_mask) as usize
        }

        fn hit(&mut self, line_addr: u64, clock: u64) -> bool {
            let set = self.set_of(line_addr);
            for way in &mut self.sets[set] {
                if way.valid && way.tag == line_addr {
                    way.lru = clock;
                    return true;
                }
            }
            false
        }

        fn fill(&mut self, line_addr: u64, clock: u64) {
            let set = self.set_of(line_addr);
            if self.sets[set].iter().any(|w| w.valid && w.tag == line_addr) {
                return;
            }
            let victim = self.sets[set]
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
                .expect("nonzero ways");
            *victim = L1Line { tag: line_addr, valid: true, lru: clock };
        }

        fn invalidate(&mut self, line_addr: u64) {
            let set = self.set_of(line_addr);
            for way in &mut self.sets[set] {
                if way.valid && way.tag == line_addr {
                    way.valid = false;
                }
            }
        }
    }

    struct L2Array {
        sets: Vec<Vec<L2Line>>,
        set_mask: u64,
    }

    impl L2Array {
        fn new(sets: usize, ways: usize, meta_slots: usize) -> Self {
            let line =
                L2Line { tag: 0, state: Mesi::Invalid, meta: vec![None; meta_slots], lru: 0 };
            L2Array { sets: vec![vec![line; ways]; sets], set_mask: sets as u64 - 1 }
        }

        fn set_of(&self, line_addr: u64) -> usize {
            (line_addr & self.set_mask) as usize
        }

        fn get_mut(&mut self, line_addr: u64) -> Option<&mut L2Line> {
            let set = self.set_of(line_addr);
            self.sets[set].iter_mut().find(|w| w.state != Mesi::Invalid && w.tag == line_addr)
        }

        fn get(&self, line_addr: u64) -> Option<&L2Line> {
            let set = self.set_of(line_addr);
            self.sets[set].iter().find(|w| w.state != Mesi::Invalid && w.tag == line_addr)
        }

        fn fill(
            &mut self,
            line_addr: u64,
            state: Mesi,
            meta: Vec<Option<LastWriter>>,
            clock: u64,
        ) -> Option<L2Line> {
            let set = self.set_of(line_addr);
            let victim_idx = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| if w.state == Mesi::Invalid { 0 } else { w.lru + 1 })
                .map(|(i, _)| i)
                .expect("nonzero ways");
            let old = std::mem::replace(
                &mut self.sets[set][victim_idx],
                L2Line { tag: line_addr, state, meta, lru: clock },
            );
            (old.state != Mesi::Invalid).then_some(old)
        }
    }

    pub struct RefMemorySystem {
        line_bytes: u64,
        granularity: MetaGranularity,
        meta_slots: usize,
        l1: Vec<L1Array>,
        l2: Vec<L2Array>,
        l1_lat: u64,
        l2_lat: u64,
        mem_lat: u64,
        bus_cycles: u64,
        bus_free_at: u64,
        clock: u64,
        pub stats: MemStats,
    }

    impl RefMemorySystem {
        pub fn new(cfg: &MachineConfig) -> Self {
            let meta_slots = match cfg.granularity {
                MetaGranularity::Word => cfg.words_per_line(),
                MetaGranularity::Line => 1,
            };
            RefMemorySystem {
                line_bytes: cfg.line_bytes,
                granularity: cfg.granularity,
                meta_slots,
                l1: (0..cfg.cores)
                    .map(|_| L1Array::new(cfg.l1.sets(cfg.line_bytes), cfg.l1.ways))
                    .collect(),
                l2: (0..cfg.cores)
                    .map(|_| L2Array::new(cfg.l2.sets(cfg.line_bytes), cfg.l2.ways, meta_slots))
                    .collect(),
                l1_lat: cfg.l1.latency,
                l2_lat: cfg.l2.latency,
                mem_lat: cfg.mem_latency,
                bus_cycles: cfg.bus_transfer_cycles(),
                bus_free_at: 0,
                clock: 0,
                stats: MemStats::default(),
            }
        }

        fn meta_index(&self, addr: Addr) -> usize {
            match self.granularity {
                MetaGranularity::Word => ((addr % self.line_bytes) / WORD_BYTES) as usize,
                MetaGranularity::Line => 0,
            }
        }

        fn bump_clock(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn acquire_bus(&mut self, earliest: u64) -> u64 {
            let start = self.bus_free_at.max(earliest);
            self.bus_free_at = start + self.bus_cycles;
            self.stats.bus_transactions += 1;
            start
        }

        fn invalidate_others(
            &mut self,
            except: usize,
            line_addr: u64,
        ) -> Option<Vec<Option<LastWriter>>> {
            let mut dirty_meta = None;
            for core in 0..self.l2.len() {
                if core == except {
                    continue;
                }
                if let Some(line) = self.l2[core].get_mut(line_addr) {
                    if line.state == Mesi::Modified {
                        dirty_meta = Some(line.meta.clone());
                    }
                    line.state = Mesi::Invalid;
                    self.l1[core].invalidate(line_addr);
                }
            }
            dirty_meta
        }

        fn snoop_for_read(
            &mut self,
            except: usize,
            line_addr: u64,
        ) -> (Option<Vec<Option<LastWriter>>>, bool) {
            let mut dirty_meta = None;
            let mut any_shared = false;
            for core in 0..self.l2.len() {
                if core == except {
                    continue;
                }
                if let Some(line) = self.l2[core].get_mut(line_addr) {
                    any_shared = true;
                    match line.state {
                        Mesi::Modified => {
                            dirty_meta = Some(line.meta.clone());
                            line.state = Mesi::Shared;
                        }
                        Mesi::Exclusive => line.state = Mesi::Shared,
                        Mesi::Shared | Mesi::Invalid => {}
                    }
                }
            }
            (dirty_meta, any_shared)
        }

        fn fill_l2(
            &mut self,
            core: usize,
            line_addr: u64,
            state: Mesi,
            meta: Vec<Option<LastWriter>>,
        ) {
            let clock = self.bump_clock();
            if let Some(victim) = self.l2[core].fill(line_addr, state, meta, clock) {
                self.l1[core].invalidate(victim.tag);
                if victim.state == Mesi::Modified {
                    self.stats.writebacks += 1;
                }
            }
        }

        fn fill_l1(&mut self, core: usize, line_addr: u64) {
            let clock = self.bump_clock();
            self.l1[core].fill(line_addr, clock);
        }

        pub fn load(&mut self, core: usize, addr: Addr, now: u64) -> AccessResult {
            let line_addr = addr / self.line_bytes;
            let widx = self.meta_index(addr);
            let clock = self.bump_clock();

            if self.l1[core].hit(line_addr, clock) {
                self.stats.l1_hits += 1;
                let meta = self.l2[core].get(line_addr).and_then(|l| l.meta[widx]);
                return AccessResult {
                    complete_at: now + self.l1_lat,
                    event: CacheEvent::L1Hit,
                    last_writer: meta,
                };
            }

            if let Some(line) = self.l2[core].get_mut(line_addr) {
                line.lru = clock;
                let meta = line.meta[widx];
                self.stats.l2_hits += 1;
                self.fill_l1(core, line_addr);
                return AccessResult {
                    complete_at: now + self.l1_lat + self.l2_lat,
                    event: CacheEvent::L2Hit,
                    last_writer: meta,
                };
            }

            let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
            let (dirty_meta, any_shared) = self.snoop_for_read(core, line_addr);
            let (complete_at, event, meta) = match dirty_meta {
                Some(meta) => {
                    self.stats.cache_to_cache += 1;
                    (start + self.bus_cycles, CacheEvent::CacheToCache, meta)
                }
                None => {
                    self.stats.mem_fills += 1;
                    (start + self.mem_lat, CacheEvent::Memory, vec![None; self.meta_slots])
                }
            };
            let state = if any_shared { Mesi::Shared } else { Mesi::Exclusive };
            let last_writer = meta[widx];
            self.fill_l2(core, line_addr, state, meta);
            self.fill_l1(core, line_addr);
            AccessResult { complete_at, event, last_writer }
        }

        pub fn store(
            &mut self,
            core: usize,
            addr: Addr,
            now: u64,
            writer: LastWriter,
        ) -> AccessResult {
            let line_addr = addr / self.line_bytes;
            let widx = self.meta_index(addr);
            let clock = self.bump_clock();
            let l1_hit = self.l1[core].hit(line_addr, clock);

            let state = self.l2[core].get(line_addr).map(|l| l.state);
            let (complete_at, event) = match state {
                Some(Mesi::Modified) | Some(Mesi::Exclusive) => {
                    let (lat, ev) = if l1_hit {
                        (self.l1_lat, CacheEvent::L1Hit)
                    } else {
                        self.stats.l2_hits += 1;
                        self.fill_l1(core, line_addr);
                        (self.l1_lat + self.l2_lat, CacheEvent::L2Hit)
                    };
                    if l1_hit {
                        self.stats.l1_hits += 1;
                    }
                    (now + lat, ev)
                }
                Some(Mesi::Shared) => {
                    let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
                    self.invalidate_others(core, line_addr);
                    if !l1_hit {
                        self.fill_l1(core, line_addr);
                    }
                    (start + self.bus_cycles, CacheEvent::L2Hit)
                }
                Some(Mesi::Invalid) | None => {
                    let start = self.acquire_bus(now + self.l1_lat + self.l2_lat);
                    let dirty_meta = self.invalidate_others(core, line_addr);
                    let (complete_at, event, meta) = match dirty_meta {
                        Some(meta) => {
                            self.stats.cache_to_cache += 1;
                            (start + self.bus_cycles, CacheEvent::CacheToCache, meta)
                        }
                        None => {
                            self.stats.mem_fills += 1;
                            (start + self.mem_lat, CacheEvent::Memory, vec![None; self.meta_slots])
                        }
                    };
                    self.fill_l2(core, line_addr, Mesi::Modified, meta);
                    self.fill_l1(core, line_addr);
                    (complete_at, event)
                }
            };

            let line = self.l2[core].get_mut(line_addr).expect("line present after store path");
            line.state = Mesi::Modified;
            line.lru = clock;
            line.meta[widx] = Some(writer);

            AccessResult { complete_at, event, last_writer: None }
        }
    }
}

// The ALU agrees with native wrapping arithmetic (sans div-by-zero).
proptest! {
    #[test]
    fn alu_matches_reference(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(AluOp::Add.apply(a, b), Some(a.wrapping_add(b)));
        prop_assert_eq!(AluOp::Sub.apply(a, b), Some(a.wrapping_sub(b)));
        prop_assert_eq!(AluOp::Mul.apply(a, b), Some(a.wrapping_mul(b)));
        prop_assert_eq!(AluOp::And.apply(a, b), Some(a & b));
        prop_assert_eq!(AluOp::Xor.apply(a, b), Some(a ^ b));
        prop_assert_eq!(AluOp::Lt.apply(a, b), Some((a < b) as i64));
        prop_assert_eq!(AluOp::Min.apply(a, b), Some(a.min(b)));
        if b != 0 {
            prop_assert_eq!(AluOp::Div.apply(a, b), Some(a.wrapping_div(b)));
            prop_assert_eq!(AluOp::Rem.apply(a, b), Some(a.wrapping_rem(b)));
        } else {
            prop_assert_eq!(AluOp::Div.apply(a, b), None);
        }
    }
}

// Memory is a map: last write wins, reads do not disturb.
proptest! {
    #[test]
    fn memory_last_write_wins(ops in prop::collection::vec((0u64..64, any::<i64>()), 1..60)) {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (slot, v) in &ops {
            let addr = 0x2000 + slot * 8;
            mem.write(addr, *v);
            model.insert(addr, *v);
        }
        for (addr, v) in &model {
            prop_assert_eq!(mem.read(*addr), *v);
        }
    }
}

// A straight-line register program computes the same value as a direct
// Rust evaluation of the same operation list.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn straight_line_matches_interpreter(
        seed in any::<i64>(),
        ops in prop::collection::vec((0u8..4, -50i64..50), 1..40),
    ) {
        let mut a = Asm::new();
        a.func("main");
        a.imm(Reg(1), seed % 1000);
        let mut model = seed % 1000;
        for (op, imm) in &ops {
            let (alu, m): (AluOp, Box<dyn Fn(i64) -> i64>) = match op {
                0 => (AluOp::Add, Box::new(move |x: i64| x.wrapping_add(*imm))),
                1 => (AluOp::Sub, Box::new(move |x: i64| x.wrapping_sub(*imm))),
                2 => (AluOp::Mul, Box::new(move |x: i64| x.wrapping_mul(*imm))),
                _ => (AluOp::Xor, Box::new(move |x: i64| x ^ *imm)),
            };
            a.alui(alu, Reg(1), Reg(1), *imm);
            model = m(model);
        }
        a.out(Reg(1));
        a.halt();
        let p = a.finish().unwrap();
        let cfg = MachineConfig { jitter_ppm: 0, ..Default::default() };
        let out = Machine::new(&p, cfg).run();
        prop_assert_eq!(out, RunOutcome::Completed { output: vec![model] });
    }
}

// Store-then-load through the memory system always reports the storing
// instruction as the last writer at word granularity (same core, no
// intervening eviction pressure).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn memsys_word_metadata_tracks_last_store(
        writes in prop::collection::vec((0u64..32, 0u32..1000), 1..40)
    ) {
        let cfg = MachineConfig {
            cores: 2,
            l1: CacheConfig { size_bytes: 4096, ways: 2, latency: 2 },
            l2: CacheConfig { size_bytes: 64 * 1024, ways: 8, latency: 10 },
            granularity: MetaGranularity::Word,
            ..Default::default()
        };
        let mut ms = MemorySystem::new(&cfg);
        let mut model = std::collections::HashMap::new();
        let mut now = 0;
        for (slot, pc) in &writes {
            let addr = 0x2000 + slot * 8;
            ms.store(0, addr, now, LastWriter { pc: *pc, tid: 0 });
            model.insert(addr, *pc);
            now += 50;
        }
        for (addr, pc) in &model {
            let r = ms.load(0, *addr, now);
            prop_assert_eq!(r.last_writer, Some(LastWriter { pc: *pc, tid: 0 }));
            now += 50;
        }
    }
}

// The flat-array memory system reproduces the per-line-`Vec` reference
// access for access, on caches small enough that a short stream evicts,
// transfers dirty lines and upgrades shared ones: 2-4 cores, 1-2 ways and
// 1-4 sets per cache, 32/64/128 B lines, at both metadata granularities.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn memsys_matches_the_per_line_reference(
        shape in (2usize..5, 0u32..3, 0u32..2),
        l1_geom in (0u32..2, 0u32..3),
        l2_geom in (0u32..2, 0u32..3),
        ops in prop::collection::vec((0usize..4, any::<bool>(), 0u64..12, 0u64..16), 1..300),
    ) {
        let (cores, line_shift, line_gran) = shape;
        let line_bytes = 32u64 << line_shift;
        let words = line_bytes / 8;
        // (log2 ways, log2 sets) of each cache.
        let cache = |(ways, sets): (u32, u32), latency| CacheConfig {
            size_bytes: line_bytes << (ways + sets),
            ways: 1 << ways,
            latency,
        };
        let cfg = MachineConfig {
            cores,
            l1: cache(l1_geom, 2),
            l2: cache(l2_geom, 10),
            line_bytes,
            granularity: if line_gran == 1 { MetaGranularity::Line } else { MetaGranularity::Word },
            ..Default::default()
        };
        let mut flat = MemorySystem::new(&cfg);
        let mut reference = reference::RefMemorySystem::new(&cfg);
        let mut now = 0;
        for (step, &(core, store, line, word)) in ops.iter().enumerate() {
            let core = core % cores;
            let addr = 0x2000 + line * line_bytes + (word % words) * 8;
            let (got, want) = if store {
                let writer = LastWriter { pc: step as u32, tid: core as u32 };
                (flat.store(core, addr, now, writer), reference.store(core, addr, now, writer))
            } else {
                (flat.load(core, addr, now), reference.load(core, addr, now))
            };
            let kind = if store { "store" } else { "load" };
            prop_assert!(
                got == want,
                "step {}: {} of {:#x} by core {} gave {:?}, the reference {:?}",
                step, kind, addr, core, got, want
            );
            now += 1 + (step as u64 % 40);
        }
        prop_assert_eq!(flat.stats(), &reference.stats);
    }
}

// Machine runs are deterministic for any seed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn machine_is_deterministic(seed in any::<u64>()) {
        let mut a = Asm::new();
        let buf = a.static_zeroed(4);
        a.func("main");
        a.imm(Reg(1), buf as i64);
        a.imm(Reg(2), 0);
        let top = a.label_here();
        a.store(Reg(2), Reg(1), 0);
        a.load(Reg(3), Reg(1), 0);
        a.addi(Reg(2), Reg(2), 1);
        a.alui(AluOp::Lt, Reg(4), Reg(2), 20);
        a.bnz(Reg(4), top);
        a.out(Reg(3));
        a.halt();
        let p = a.finish().unwrap();
        let run = || {
            let mut m = Machine::new(&p, MachineConfig::with_seed(seed));
            let o = m.run();
            (o, m.stats().total_cycles)
        };
        prop_assert_eq!(run(), run());
    }
}
