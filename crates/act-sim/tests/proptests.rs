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
