//! `apache` — the atomicity violation of Fig 2(c) (modeled on Apache's
//! ref-counted buffer bug): thread T1 allocates a shared pointer (`I1`) and
//! later frees/NULLs it (`I2`); thread T2 checks the pointer (`J1`) and then
//! uses it (`J2`, then dereference) without synchronization. When `I2`
//! interleaves between `J1` and `J2`, T2 dereferences NULL and crashes.
//!
//! Valid dependence sequences: `(I1→J1, I1→J2)` and `(I2→J1)`; the failure
//! signature is the sequence `(I1→J1, I2→J2)` — exactly the paper's example.
//!
//! The code is identical in clean and triggering builds; only preloaded
//! *delay parameters* differ, which changes the interleaving (the paper's
//! bugs likewise depend only on timing).

use crate::spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind};
use crate::util::delay_from;
use act_sim::asm::Asm;
use act_sim::isa::Reg;

/// The Apache-style pointer atomicity violation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Apache;

const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);
const R5: Reg = Reg(5);
const RP: Reg = Reg(20);
const RRES: Reg = Reg(21);

impl Workload for Apache {
    fn name(&self) -> &'static str {
        "apache"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RealBug
    }

    fn default_params(&self) -> Params {
        Params { threads: 2, ..Params::default() }
    }

    fn build(&self, p: &Params) -> BuiltWorkload {
        let jit = (p.seed % 32) as i64;
        // Delays (cycles of spin): clean keeps I2 far from T2's window and
        // gives T2 a second round that observes the NULL; triggering places
        // I2 inside T2's wide J1..J2 window.
        let (d1, d2, d3, d4) = if p.trigger_bug {
            (500 + jit, 50, 1500, 100) // I2 lands inside J1..J2
        } else {
            (4000 + jit, 50, 100, 8000) // round 1 all-I1; round 2 sees NULL
        };
        self.emit(d1, d2, d3, d4, jit)
    }
}

impl Apache {
    fn emit(&self, d1: i64, d2: i64, d3: i64, d4: i64, jit: i64) -> BuiltWorkload {
        let mut a = Asm::new();
        let buf = a.static_zeroed(1);
        let ptr = a.static_zeroed(1);
        let result = a.static_zeroed(1);
        let pd1 = a.static_data(&[d1]);
        let pd2 = a.static_data(&[d2]);
        let pd3 = a.static_data(&[d3]);
        let pd4 = a.static_data(&[d4]);

        a.func("main");
        let t2 = a.new_label();
        a.imm(RP, ptr as i64);
        a.imm(Reg(22), buf as i64);
        a.imm(R2, 42 + jit);
        a.mark("S_buf");
        a.store(R2, Reg(22), 0);
        a.imm(R2, 0);
        a.spawn(R3, t2, R2);
        a.imm(R4, buf as i64);
        a.mark("I1");
        a.store(R4, RP, 0);
        delay_from(&mut a, pd1, R5, R2);
        a.imm(R4, 0);
        a.mark("I2");
        let i2 = a.store(R4, RP, 0);
        a.join(R3);
        a.imm(RRES, result as i64);
        a.load(R2, RRES, 0);
        a.out(R2);
        a.halt();

        a.func("request_handler");
        a.bind(t2);
        a.imm(RP, ptr as i64);
        a.imm(RRES, result as i64);
        a.imm(R4, 0);
        let mut j2_pcs = Vec::new();
        for round in 0..2 {
            delay_from(&mut a, if round == 0 { pd2 } else { pd4 }, R5, R2);
            let skip = a.new_label();
            a.mark(&format!("J1_{round}"));
            a.load(R2, RP, 0);
            a.bez(R2, skip);
            delay_from(&mut a, pd3, R5, R3);
            a.mark(&format!("J2_{round}"));
            j2_pcs.push(a.load(R2, RP, 0));
            a.mark(&format!("deref_{round}"));
            a.load(R3, R2, 0);
            a.addi(R4, R4, 1);
            a.bind(skip);
        }
        a.store(R4, RRES, 0);
        a.halt();

        let bug = BugInfo {
            description: "Atomicity violation on shared pointer: free (I2) interleaves \
                          between NULL-check (J1) and use (J2)"
                .into(),
            class: BugClass::AtomicityViolation,
            store_pcs: vec![i2],
            load_pcs: j2_pcs,
        };

        BuiltWorkload {
            program: a.finish().expect("apache assembles"),
            // Clean behaviour: round 1 observes the object (non-null), round
            // 2 observes NULL and skips -> result = 1.
            expected_output: vec![1],
            bug: Some(bug),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::config::MachineConfig;
    use act_sim::machine::Machine;
    use act_sim::outcome::{CrashKind, RunOutcome};

    #[test]
    fn clean_runs_complete_correctly() {
        let w = Apache;
        let built = w.build(&w.default_params());
        for seed in 0..5 {
            let cfg = MachineConfig { jitter_ppm: 10_000, seed, ..Default::default() };
            let out = Machine::new(&built.program, cfg).run();
            assert!(built.is_correct(&out), "seed {seed}: {out}");
        }
    }

    #[test]
    fn triggered_runs_crash_with_null_deref() {
        let w = Apache;
        let built = w.build(&w.default_params().triggered());
        let mut crashes = 0;
        for seed in 0..6 {
            let cfg = MachineConfig { jitter_ppm: 10_000, seed, ..Default::default() };
            let outcome = Machine::new(&built.program, cfg).run();
            if let RunOutcome::Crash { kind: CrashKind::NullDeref, .. } = outcome {
                crashes += 1;
            }
        }
        assert!(crashes >= 4, "only {crashes}/6 triggered runs crashed");
    }
}
